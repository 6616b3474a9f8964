"""Bundle-expression DSL for equivariant bundles on the G2 flag variety.

Atoms
-----
``Line(a, b)``      the line bundle O(aH + bh)
``Universal()``     U, the rank-2 universal-subbundle pullback (= IrrP1(-1, 1))
``Spinor()``        S, the rank-4 extension with sub U and quotient U'(-h)
``IrrP1(a, b)``     pullback of the irreducible P1-bundle with highest weight (a, b)
``IrrP2(a, b)``     pullback of the irreducible P2-bundle with highest weight (a, b)

``IrrP1(a, 0)`` and ``IrrP2(0, b)`` have rank 1 and are the lines they are.

plus ``Dual``, ``Tensor``, ``Sym`` (rank-2 irreducible arguments only) and
``Twist``.  All expressions denote bundles on the flag variety; objects living
on either Grassmannian are represented by their pullbacks, which is harmless
for cohomology because both projections have O as derived pushforward of O.

An expression is its normal form: every constructor above returns one frozen
``BundleExpr(factors, twist)``, the tensor factors in order and the line
twist, so ``Tensor`` is associative, ``Dual(Dual(e)) == e`` and
``Sym(1, e) == e``.  Each factor is a flat tuple ``(kind, a, b, power,
dual)``: ``kind`` is ``"U"``, ``"S"``, ``"E"`` or ``"F"``, ``(a, b)`` is the
atom's highest weight (``(-1, 1)`` for U, ``(0, 0)`` for S), ``power`` is the
Sym power (1 without Sym) and ``dual`` is a bool.  The format is private to
this module.  ``Sym`` refuses any argument but one factor without a Sym
power; one decoder, ``_levi_string``, reads a factor's Levi string and holds
every other refusal of a factor.

Evaluation offers three exact routes.  Route A filters any expression by
its line-bundle weights and applies per-weight Bott.  Route B applies to
one-sided expressions (all non-line atoms from a single parabolic): the
non-line part is decomposed into irreducibles by rank-1 Clebsch-Gordan, the
fiber-direction twist is pushed down the relevant P1-fibration exactly (Sym /
zero / Sym-twist-by-det, according to the twist degree), and Bott's theorem
finishes the job with no spectral ambiguity: each summand that
``levi_tensor`` returns is Levi-dominant, and the irreducible bundle of a
Levi-dominant highest weight lam on G/P has the cohomology of O(lam) on the
flag variety, its ``line_cohomology``.  The extension route resolves
expressions containing the opaque extension S through its two-piece
filtration.  Route A and the extension route share one judge,
``weylbott.combine_pieces``: every differential, and the connecting map of
S, whose extension class is G-invariant, raises the degree by exactly 1 and
is a map of G-modules, so by Schur's lemma only an equal label in adjacent
degrees of two different copies can cancel, and otherwise the union of the
pieces is the answer.  ``totalspace.hom_v`` needs no judge: its Koszul terms
split.  Every route that determines an answer is cross-checked against the
others.

``flag_cohomology`` answers each ``(root system, expression)`` once: equal
expressions share one memoized result, in a cache that is unbounded like the
Bott memos.  Every memo is keyed by the flat fields, which hash and compare
in C, never by the ``BundleExpr`` value.  Each evaluation is split into a
part that depends only on the factor tuple and a part that depends on the
twist; the first is memoized per ``(root system, factors)`` in caches of the
same kind: route A's product of weight multisets and route B's one-sided
shape.  A new twist of known factors therefore only shifts weights and
pushes forward.  Route B's pushforward is memoized as well, per summand and
fiber degree, with the twist's base part already added to the summand's
highest weight, so a summand that repeats across expressions is pushed
forward once.  These memos hold tuples, never a dict a caller could
change.  ``parse_expr`` likewise parses each text once and hands every
caller the same frozen value.  Failures are not memoized, so a failing
input raises again on every call.

The expression grammar for the CLI::

    expr  := term { "*" term }
    term  := atom [ "(" twist ")" ] [ "'" [ "(" twist ")" ] ]
    atom  := "O" | "U" | "S" | "E(" int "," int ")" | "F(" int "," int ")"
           | "Sym^" int " " atom
    twist := signed combination of "h", "H"  |  int "," int

with ``'`` for duals, e.g. ``U*U(h)``, ``O(H-2h)``, ``Sym^2 E(1,1)``, ``U'(-h)``.
An integer has at most ``MAX_INT_DIGITS`` (640) digits, and the integers
and Sym-scaled highest weights sum in size to less than ``MAX_WEIGHT``
(10^100), so that every answer prints under any digit limit the
interpreter accepts.  A ``ParseError`` position is a 0-based offset into
the whole text.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from .rootdata import IntegrityError, RootSystem, Value, Weight, wadd, wneg, wscale
from .weylbott import (
    ZERO,
    CohomologyProfile,
    combine_pieces,
    filtered_cohomology,
    format_profile,
    line_cohomology,
)


class BundleError(ValueError):
    """Raised for structurally invalid bundle expressions."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RouteMismatchError(IntegrityError):
    """Two exact evaluation routes disagreed; indicates an engine bug."""


#: A normal factor ``(kind, a, b, power, dual)``, as the module docstring says.
Factor = tuple[str, int, int, int, bool]


class BundleExpr(Value):
    """A bundle expression: ``factors``, a tuple of normal factors in tensor
    order, and ``twist``, the line twist ``(a, b)``.  The constructors below
    build it; twists are added as plain integers, which keeps them cheap on
    the query path."""

    _fields = ("factors", "twist")


def Line(a: int, b: int) -> BundleExpr:
    return BundleExpr((), (a, b))


#: The normal factors of U and S.
_UNIVERSAL: tuple[Factor, ...] = (("U", -1, 1, 1, False),)
_SPINOR: tuple[Factor, ...] = (("S", 0, 0, 1, False),)

#: An expression's fields as the parser carries them: ``(factors, a, b)``,
#: the twist unpacked.
Term = tuple[tuple[Factor, ...], int, int]


def Universal() -> BundleExpr:
    return BundleExpr(_UNIVERSAL, (0, 0))


def Spinor() -> BundleExpr:
    return BundleExpr(_SPINOR, (0, 0))


def _irreducible(kind: str, a: int, b: int) -> Term:
    """``E(a, b)`` or ``F(a, b)``: a Levi pairing of 0 is a Levi string of
    one weight, the line O(a, 0) or O(0, b)."""
    if (b if kind == "E" else a) == 0:
        return (), a, b
    return ((kind, a, b, 1, False),), 0, 0


def IrrP1(a: int, b: int) -> BundleExpr:
    factors, x, y = _irreducible("E", a, b)
    return BundleExpr(factors, (x, y))


def IrrP2(a: int, b: int) -> BundleExpr:
    factors, x, y = _irreducible("F", a, b)
    return BundleExpr(factors, (x, y))


def _dual_factors(factors: tuple[Factor, ...]) -> tuple[Factor, ...]:
    return tuple([(k, x, y, p, not d) for k, x, y, p, d in factors])


def Dual(arg: BundleExpr) -> BundleExpr:
    a, b = arg.twist
    return BundleExpr(_dual_factors(arg.factors), (-a, -b))


def Tensor(left: BundleExpr, right: BundleExpr) -> BundleExpr:
    (a, b), (c, d) = left.twist, right.twist
    return BundleExpr(left.factors + right.factors, (a + c, b + d))


def Twist(arg: BundleExpr, a: int, b: int) -> BundleExpr:
    x, y = arg.twist
    return BundleExpr(arg.factors, (x + a, y + b))


def _sym(power: int, factors: tuple[Factor, ...], x: int, y: int) -> Term:
    """Sym^power, power >= 2, of ``(factors, x, y)``: one factor without a
    Sym power, its twist raised to the power."""
    if len(factors) != 1 or factors[0][3] != 1:
        raise BundleError("Sym is only supported on rank-2 irreducible atoms")
    kind, a, b, _, dual = factors[0]
    return ((kind, a, b, power, dual),), power * x, power * y


def Sym(power: int, arg: BundleExpr) -> BundleExpr:
    """Sym^power of one factor under a twist, which it raises to the power;
    Sym^1 is the identity.  A factor holds one Sym power, so Sym of a line,
    of a product or of a Sym is refused here; ``_levi_string`` refuses the
    other bad factors."""
    if power < 1:
        raise BundleError("Sym power must be >= 1")
    if power == 1:
        return arg
    factors, x, y = _sym(power, arg.factors, *arg.twist)
    return BundleExpr(factors, (x, y))


#: the defining filtration of S: sub U, quotient U'(-h)
SPINOR_SUB = Universal()
SPINOR_QUOTIENT = Twist(Dual(Universal()), 0, -1)
#: the pieces, sub then quotient, of S (False) and of S' (True)
_SPINOR_PIECES = {
    False: (SPINOR_SUB, SPINOR_QUOTIENT),
    True: (Dual(SPINOR_SUB), Dual(SPINOR_QUOTIENT)),
}


#: The longest Levi weight string a factor may have: Sym^m U and E(a,b),
#: F(a,b) with a Levi pairing past it are refused before any weight is
#: enumerated, since each weight costs a Bott call and a cache entry.
MAX_STRING_WEIGHTS = 200_000


def _levi_string(factor: Factor) -> Optional[tuple[int, Weight, int]]:
    """Levi index, highest weight and length of the weight string of a normal
    factor, read as if it were not a dual; None for S or S'.  Every reader
    refuses a factor here: a Sym of S or of a rank > 2 irreducible, a
    negative Levi pairing, a long string."""
    kind, a, b, power, _ = factor
    i = 0 if kind == "F" else 1
    hw = (a, b)
    n = hw[i]
    if n < 0:
        raise BundleError(f"highest weight {hw} has negative Levi pairing {n}")
    if power > 1:
        if kind == "S" or n != 1:
            raise BundleError("Sym is only supported on rank-2 irreducible atoms")
        # Sym^m of a rank-2 irreducible: the irreducible of highest weight m*hw
        hw, n = wscale(power, hw), power
    elif kind == "S":
        return None
    if n >= MAX_STRING_WEIGHTS:
        raise BundleError(
            f"highest weight {hw} has a string of {n + 1} weights, "
            f"more than the {MAX_STRING_WEIGHTS} supported"
        )
    return i, hw, n + 1


#: The most (left weight, right weight) pairs the expansion of one product
#: of weight multisets may form, over all its factors: each is a Python
#: loop step, so a product past it is refused before the factor that would
#: pass it is expanded.  On a 2-core Xeon VM, coh "Sym^999 U*Sym^999 U",
#: 10^6 pairs on 1999 weights, takes 0.8 s, and Sym^1999 U*Sym^1999 U, at
#: the bound, 5 s.
MAX_PRODUCT_PAIRS = 4_000_000

#: The most distinct weights one product of weight multisets may hold.  Each
#: is a Bott call and a cache entry, as a string's weights are, so a product
#: is refused while it is expanded, at the end of the row of the expansion
#: that passes the bound: its dict never holds more than the bound plus one
#: factor's weights.  E(1,399)*F(499,1), at the bound, peaks at 204 MB;
#: E(1,999)*F(999,1), 10^6 weights, would run out of a 600 MB address space.
MAX_PRODUCT_WEIGHTS = 200_000

#: A weight multiset as (weight, multiplicity) pairs in filtration order: the
#: shape of the memoized twist-free parts, which no caller can mutate.
Pairs = tuple[tuple[Weight, int], ...]


def _convolve(left: Pairs, right: Pairs) -> dict[Weight, int]:
    # Keys come out in the order of first occurrence in the expanded product
    # (left-major), because both inputs keep first-occurrence order.
    out: dict[Weight, int] = {}
    for lw, lm in left:
        for rw, rm in right:
            w = wadd(lw, rw)
            out[w] = out.get(w, 0) + lm * rm
        if len(out) > MAX_PRODUCT_WEIGHTS:
            raise BundleError(
                f"a product of {len(left)} by {len(right)} distinct weights has "
                f"more than the {MAX_PRODUCT_WEIGHTS} distinct weights supported"
            )
    return out


def weights(rs: RootSystem, e: BundleExpr) -> dict[Weight, int]:
    """Line-bundle filtration weights of the expression, as a multiset.

    The product of the factors' weight multisets depends only on the factor
    tuple, so it is memoized per ``(rs, factors)``; this returns a fresh dict
    of it shifted by the twist, which the caller may keep or change.  The
    work grows with the number of distinct weights, not with the rank.  A
    plain dict maps each weight to its multiplicity; the multiplicities sum
    to the rank.  Keys are in a stable order: that of their first occurrence
    in the filtration (sub before quotient, left factor before right).
    """
    twist = e.twist
    return {wadd(w, twist): m for w, m in _product_weights(rs, e.factors)}


@lru_cache(maxsize=None)
def _product_weights(rs: RootSystem, factors: tuple[Factor, ...]) -> Pairs:
    """The untwisted weight multiset of a factor tuple: each factor's weights
    convolved in turn, the first taken as it is.  Both product bounds apply."""
    if not factors:
        return (((0,) * rs.rank, 1),)
    out = _factor_weights(rs, factors[0])
    pairs = 0
    for f in factors[1:]:
        right = _factor_weights(rs, f)
        pairs += len(out) * len(right)
        if pairs > MAX_PRODUCT_PAIRS:
            raise BundleError(
                f"a product of {len(out)} by {len(right)} distinct weights brings "
                f"its expansion to {pairs} pairs, more than the "
                f"{MAX_PRODUCT_PAIRS} supported"
            )
        out = tuple(_convolve(out, right).items())
    return out


def _factor_weights(rs: RootSystem, f: Factor) -> Pairs:
    """Weights of one normal factor, in filtration order: the Levi string of
    its highest weight, negated for a dual; for S or S', the weights of the
    pieces of its defining filtration."""
    string = _levi_string(f)
    if string is None:
        out: dict[Weight, int] = {}
        for piece in _spinor_split(BundleExpr((f,), (0, 0))):
            for w, m in weights(rs, piece).items():
                out[w] = out.get(w, 0) + m
        return tuple(out.items())
    i, hw, length = string
    alpha = rs.simple_roots[i].weight_coords
    ws = (tuple([h - j * a for h, a in zip(hw, alpha)]) for j in range(length))
    return tuple((wneg(w) if f[4] else w, 1) for w in ws)


def det_weight(rs: RootSystem, e: BundleExpr) -> Weight:
    ws = weights(rs, e).items()
    return tuple(sum(m * w[k] for w, m in ws) for k in range(rs.rank))


def levi_tensor(rs: RootSystem, i: int, lam: Weight, mu: Weight) -> tuple[Weight, ...]:
    """Clebsch-Gordan for the Levi with the one simple root alpha_i, on
    highest weights.

    Labels m = lam[i], n = mu[i]; the summands have highest weights
    lam + mu - j*alpha_i for j = 0..min(m, n).  Total rank is preserved.
    """
    m, n = lam[i], mu[i]
    if m < 0 or n < 0:
        raise BundleError("both weights must be Levi-dominant")
    total = wadd(lam, mu)
    alpha = rs.simple_roots[i].weight_coords
    out = tuple(
        tuple([t - j * a for t, a in zip(total, alpha)]) for j in range(min(m, n) + 1)
    )
    if sum(w[i] + 1 for w in out) != (m + 1) * (n + 1):
        raise IntegrityError(f"Clebsch-Gordan of {lam} and {mu} does not preserve rank")
    return out


# --- one-sided (route B) decomposition ------------------------------------
#
# A parabolic is named by the index i of its Levi simple root alpha_i, which
# is also the coordinate of its fiber class in a twist: i = 1 for P1 (fiber
# class h), i = 0 for P2 (fiber class H).


@lru_cache(maxsize=None)
def _one_sided_shape(
    rs: RootSystem, factors: tuple[Factor, ...]
) -> Optional[tuple[int, Pairs, bool]]:
    """Decompose into irreducibles from a single parabolic: ``(i, summands,
    opaque)``, or None when the factors are not all from one parabolic.  A
    factor is refused as ``weights`` refuses it.

    ``i`` is the Levi index.  ``summands`` is a multiset of Levi
    irreducibles, as (highest weight, multiplicity) pairs with distinct
    weights.  ``opaque`` marks factors containing the extension S, which is
    a pullback from the quadric side of unknown Levi structure.  The
    non-line factors are multiplied out by rank-1 Clebsch-Gordan one at a
    time, keeping equal highest weights together with their multiplicity, so
    the work grows with the number of distinct summands, not with the rank.
    The shape depends only on the factor tuple and is memoized per
    ``(rs, factors)``; route B attaches the twist per call.
    """
    sides: set[int] = set()
    opaque = False
    hws: list[Weight] = []
    for f in factors:
        string = _levi_string(f)
        if string is None:
            sides.add(0)  # S or S', a pullback from the quadric side
            opaque = True
            continue
        i, hw, _ = string
        if f[4]:
            # dual of the Levi irreducible: -s_alpha(hw) for the Levi reflection
            hw = wneg(rs.reflect(i, hw))
        sides.add(i)
        hws.append(hw)
    if len(sides) != 1:
        return None
    i = sides.pop()
    summands: dict[Weight, int] = {(0,) * rs.rank: 1}
    for hw in hws:
        product: dict[Weight, int] = {}
        for s, mult in summands.items():
            for w in levi_tensor(rs, i, s, hw):
                product[w] = product.get(w, 0) + mult
        summands = product
    return i, tuple(summands.items()), opaque


@lru_cache(maxsize=None)
def _pushforward(
    rs: RootSystem, i: int, hw: Weight, fiber: int
) -> tuple[tuple[int, Weight, int], ...]:
    """Exact cohomology of (pullback of E_hw) tensor the line of weight
    ``fiber`` in coordinate i and 0 elsewhere, for the Levi index i, as
    unmerged ``(degree, weight, multiplicity)`` entries.

    The caller adds a twist's base part to ``hw``, so the memo, per ``(rs,
    i, hw, fiber)`` and unbounded like the Bott memos, is keyed by all that
    the answer depends on.  Pushes down the rank-1 fibration: fiber >= 0
    tensors with the rank-(fiber+1) symmetric power of the dual fiber
    bundle, fiber = -1 kills everything, fiber <= -2 lands in relative
    degree 1 tensored with Sym^(-fiber-2) of the fiber bundle twisted by its
    determinant (equivalently, the fiber-direction dot-reflection of the
    twist).
    """
    if fiber == -1:
        return ()
    fiber_weight = tuple(fiber if k == i else 0 for k in range(rs.rank))
    if fiber >= 0:
        partner = fiber_weight
        shift = 0
    else:
        shifted = rs.reflect(i, wadd(fiber_weight, rs.rho))
        partner = tuple(c - 1 for c in shifted)
        shift = 1
    return tuple(
        (d + shift, w, m)
        for summand in levi_tensor(rs, i, hw, partner)
        for d, w, m in line_cohomology(rs, summand).entries
    )


def route_b_cohomology(rs: RootSystem, e: BundleExpr) -> Optional[CohomologyProfile]:
    """Exact one-sided evaluation; None when the shape does not apply.  The
    twist splits once into its fiber degree, twist[i], and its base part,
    which shifts each summand's highest weight before the memoized
    pushforward reads it."""
    shape = _one_sided_shape(rs, e.factors)
    if shape is None:
        return None
    i, summands, opaque = shape
    twist = e.twist
    fiber = twist[i]
    if opaque:
        # S-side pullbacks: only the fiber-degree -1 vanishing needs no
        # knowledge of S itself.
        return ZERO if fiber == -1 else None
    base = tuple([0 if k == i else t for k, t in enumerate(twist)])
    return CohomologyProfile.of(
        (d, w, m * mult)
        for hw, mult in summands
        for d, w, m in _pushforward(rs, i, wadd(hw, base), fiber)
    )


# --- spinor-extension resolution -------------------------------------------

#: The most S or S' factors an evaluated expression may have.  The extension
#: route splits the first one and evaluates both pieces in full, so n of them
#: cost 2^(n+1) - 1 evaluations; past the bound an expression is refused
#: before anything is evaluated.  On a 2-core Xeon VM, a cold coh of ten S
#: factors, at the bound, takes 2.2 s (2047 evaluations); eleven would take
#: 6.5 s.
MAX_SPINOR_FACTORS = 10

#: The most work the extension route may take on: its 2^(n+1) - 1
#: evaluations for n S or S' factors, times the expression's distinct
#: weights, which bound those of every evaluation, since each piece of S
#: has a subset of its weights.  An expression past it is refused once its
#: weights are known, before any route runs.  Ten S factors alone, 2047
#: evaluations on 121 distinct weights (247,687), are inside it; ten S
#: times E(1,3)*F(3,1), 2047 on 226 (462,622), is not, where the factor
#: bound alone let each evaluation expand the other factors in full (a cold
#: coh took 44 s on a 2-core Xeon VM).
MAX_SPINOR_WORK = 250_000


def _spinor_split(e: BundleExpr) -> Optional[tuple[BundleExpr, BundleExpr]]:
    """e with its first S or S' factor replaced by the sub, then by the
    quotient of the defining filtration of S (dualized for S'); None
    without one."""
    factors = e.factors
    for i, f in enumerate(factors):
        if f[0] == "S" and f[3] == 1:
            head, tail = factors[:i], factors[i + 1 :]
            return tuple(
                BundleExpr(head + piece.factors + tail, wadd(e.twist, piece.twist))
                for piece in _SPINOR_PIECES[f[4]]
            )
    return None


# --- full evaluation --------------------------------------------------------


class CohResult(Value):
    """Cohomology of a bundle expression on the flag variety.

    A determined result carries the exact profile; an indeterminate one has
    profile None and is read off its E1 page.  Both carry ``e1``, one
    ``(weight, profile, multiplicity)`` entry per distinct filtration weight.
    ``route`` names the strategy that settled the answer.
    """

    _fields = ("profile", "e1", "route")

    @property
    def determined(self) -> bool:
        return self.profile is not None


def flag_cohomology(rs: RootSystem, e: BundleExpr) -> CohResult:
    """Best exact evaluation of H^*(flag variety, e).

    Tries the weight filtration, the one-sided pushforward route and (for
    expressions containing S) the extension resolution; all routes that
    determine an answer must agree exactly.

    Answers are memoized per ``(rs, factors, twist)``, so equal expressions
    share one evaluation; the memo is unbounded, like the Bott memos.  A
    failure is not memoized: the next call evaluates again and raises again.
    An expression with more than ``MAX_SPINOR_FACTORS`` S or S' factors is
    refused before anything is evaluated, and one whose extension route
    would pass ``MAX_SPINOR_WORK`` once its weights are known.
    """
    return _evaluate(rs, e.factors, e.twist)


def _extension_cohomology(rs: RootSystem, e: BundleExpr) -> Optional[CohomologyProfile]:
    """Exact evaluation through the defining extension of S; None without an
    S or S' factor, or when a piece or their union is indeterminate."""
    split = _spinor_split(e)
    if split is None:
        return None
    sub, quot = (flag_cohomology(rs, piece) for piece in split)
    if not (sub.determined and quot.determined):
        return None
    return combine_pieces([(sub.profile, 1), (quot.profile, 1)])


@lru_cache(maxsize=None)
def _evaluate(
    rs: RootSystem, factors: tuple[Factor, ...], twist: Weight
) -> CohResult:
    # Keyed by the flat fields, never the BundleExpr value, whose hash and
    # equality run in Python.
    spinors = sum(f[0] == "S" for f in factors)
    if spinors > MAX_SPINOR_FACTORS:
        raise BundleError(
            f"a product of {spinors} S or S' factors has more than the "
            f"{MAX_SPINOR_FACTORS} supported"
        )
    e = BundleExpr(factors, twist)
    ws = weights(rs, e)
    if spinors:
        evaluations = 2 ** (spinors + 1) - 1
        if evaluations * len(ws) > MAX_SPINOR_WORK:
            raise BundleError(
                f"a product of {spinors} S or S' factors on {len(ws)} distinct "
                f"weights needs {evaluations} evaluations of them, "
                f"{evaluations * len(ws)} weights in all, more than the "
                f"{MAX_SPINOR_WORK} supported"
            )
    filtered, e1 = filtered_cohomology(rs, ws)
    # In evaluation order; each profile is None where its route settles nothing.
    routes = (
        ("filtration", filtered),
        ("parabolic", route_b_cohomology(rs, e)),
        ("extension", _extension_cohomology(rs, e)),
    )
    settled_by, answer = "none", None
    for route, profile in routes:
        if profile is None:
            continue
        if answer is None:
            settled_by, answer = route, profile
        elif profile != answer:
            raise RouteMismatchError(
                f"routes disagree on {format_expr(e)}: "
                f"{settled_by} gave {format_profile(answer)}, "
                f"{route} gave {format_profile(profile)}"
            )
    return CohResult(answer, e1, settled_by)


# --- printing ----------------------------------------------------------------


def _format_twist(t: Weight) -> str:
    a, b = t
    parts = []
    if a:
        coeff = "" if a == 1 else "-" if a == -1 else str(a)
        parts.append(f"{coeff}H")
    if b:
        coeff = "" if b == 1 else "-" if b == -1 else str(b)
        if parts and b > 0:
            parts.append(f"+{coeff}h")
        else:
            parts.append(f"{coeff}h")
    return "".join(parts)


def _format_factor(f: Factor, twist: Weight) -> str:
    """Print one factor, folding `twist` into it (the canonical position)."""
    kind, a, b, power, dual = f
    text = kind if kind in ("U", "S") else f"{kind}({a},{b})"
    if power > 1:
        text = f"Sym^{power} {text}"
    if twist != (0, 0):
        text += f"({_format_twist(wneg(twist) if dual else twist)})"
    return f"{text}'" if dual else text


def format_expr(e: BundleExpr) -> str:
    """Canonical printer: ``parse_expr(format_expr(e)) == e``."""
    factors, twist = e.factors, e.twist
    if not factors:
        if twist == (0, 0):
            return "O"
        return f"O({_format_twist(twist)})"
    parts = [_format_factor(f, (0, 0)) for f in factors[:-1]]
    parts.append(_format_factor(factors[-1], twist))
    return "*".join(parts)


# --- parser -----------------------------------------------------------------

_INT_RE = re.compile(r"[+-]?(\d+)")
_DIGITS_RE = re.compile(r"(\d+)")

#: The longest digit run an integer literal may have: 640 is the smallest
#: limit ``sys.set_int_max_str_digits`` accepts, so a literal is refused the
#: same way whatever limit the interpreter runs with.
MAX_INT_DIGITS = 640

#: An expression's weights stay below 10^MAX_WEIGHT_DIGITS, so that every
#: answer prints under the 640-digit floor of the interpreter's limit.  The
#: parser sums the sizes of the integers it reads, and of each Sym-scaled
#: highest weight, and refuses the integer or the Sym at which the sum
#: reaches MAX_WEIGHT.  Every weight coordinate is at most that sum plus a
#: few per factor.  The largest integer an answer prints grows as the sixth
#: power of the weights: a Weyl dimension is a product of six coroot
#: pairings, each at most five times the largest coordinate of a dominant
#: image, itself at most six times that of the weight.  So weights below
#: 10^100 have dimensions below 10^(600 + 10), and the multiplicities and
#: sums an answer adds, within the product bounds, stay within the
#: remaining 30 digits.
MAX_WEIGHT_DIGITS = 100
MAX_WEIGHT = 10**MAX_WEIGHT_DIGITS


class _Parser:
    """Reader of the grammar in the module docstring.  Atoms and terms are
    carried as a plain ``Term``; ``parse_expr`` builds the one
    ``BundleExpr`` of the text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.size = 0  # see MAX_WEIGHT

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected an integer")
        return self.read_int(m)

    def read_int(self, m: re.Match) -> int:
        """The integer that ``m`` matched, refused past ``MAX_INT_DIGITS``
        digits at its first character; the parser moves past it."""
        if len(m.group(1)) > MAX_INT_DIGITS:
            raise ParseError(
                f"integer with more than {MAX_INT_DIGITS} digits", m.start()
            )
        value = int(m.group())
        self.grow(abs(value), m.start())
        self.pos = m.end()
        return value

    def grow(self, size: int, position: int) -> None:
        """Add ``size`` to the expression's size; refused at ``position``
        once the sum reaches ``MAX_WEIGHT``."""
        self.size += size
        if self.size >= MAX_WEIGHT:
            raise ParseError(
                f"weights past 10^{MAX_WEIGHT_DIGITS} are not supported", position
            )

    def parse_expr(self) -> BundleExpr:
        # The product is joined once, not tensored term by term, so its cost
        # is linear in the number of factors.
        factors, a, b = self.parse_term()
        factors = list(factors)
        self.skip_ws()
        while self.peek() == "*":
            self.pos += 1
            self.skip_ws()
            more, x, y = self.parse_term()
            factors += more
            a += x
            b += y
            self.skip_ws()
        return BundleExpr(tuple(factors), (a, b))

    def parse_term(self) -> Term:
        self.skip_ws()
        factors, a, b = self.parse_twist(*self.parse_atom())
        if self.peek() == "'":
            self.pos += 1
            # a twist after the dual twists the dual: U'(-h) is (U dual)(-h)
            factors, a, b = self.parse_twist(_dual_factors(factors), -a, -b)
        return factors, a, b

    def parse_atom(self) -> Term:
        start = self.pos
        powers = []
        while self.text.startswith("Sym^", self.pos):
            self.pos += 4
            power = self.parse_int()
            if power < 1:
                raise self.error("Sym power must be >= 1")
            if self.peek() != " ":
                raise self.error("expected a space after the Sym power")
            self.skip_ws()
            powers.append(power)
        ch = self.peek()
        if ch == "O":
            self.pos += 1
            atom: Term = ((), 0, 0)
        elif ch == "U":
            self.pos += 1
            atom = (_UNIVERSAL, 0, 0)
        elif ch == "S":
            self.pos += 1
            atom = (_SPINOR, 0, 0)
        elif ch in ("E", "F"):
            self.pos += 1
            self.expect("(")
            a, b = self.parse_pair()
            self.expect(")")
            atom = _irreducible(ch, a, b)
        elif ch == "":
            raise self.error("unexpected end of input")
        else:
            raise self.error(f"unknown atom {ch!r}")
        if powers:
            while powers:
                power = powers.pop()
                if power > 1:
                    atom = _sym(power, *atom)
            for _, a, b, power, _ in atom[0]:
                self.grow(power * (abs(a) + abs(b)), start)
        return atom

    def parse_pair(self) -> Weight:
        a = self.parse_int()
        self.skip_ws()
        self.expect(",")
        self.skip_ws()
        return (a, self.parse_int())

    def parse_twist(self, factors: tuple[Factor, ...], x: int, y: int) -> Term:
        """``(factors, x, y)`` under an optional ``"(" twist ")"``.  The twist
        runs to the next ``)``, and is a pair exactly when that stretch holds
        a comma."""
        if self.peek() != "(":
            return factors, x, y
        self.pos += 1
        text, start = self.text, self.pos
        end = text.find(")", start)
        if end < 0:
            end = len(text)
        self.skip_ws()
        if text.find(",", start, end) >= 0:
            a, b = self.parse_pair()
            self.skip_ws()
            if self.pos != end:
                raise self.error("malformed pair twist")
        elif self.pos == end:
            raise ParseError("empty twist", start)
        else:
            a = b = 0
            while self.pos < end:
                sign = 1
                if text[self.pos] in "+-":
                    sign = -1 if text[self.pos] == "-" else 1
                    self.pos += 1
                    self.skip_ws()
                m = _DIGITS_RE.match(text, self.pos)
                coeff = self.read_int(m) if m else 1
                if self.pos == end or text[self.pos] not in "hH":
                    raise self.error("expected 'h' or 'H' in twist")
                if text[self.pos] == "H":
                    a += sign * coeff
                else:
                    b += sign * coeff
                self.pos += 1
                self.skip_ws()
        self.expect(")")
        return factors, x + a, y + b


@lru_cache(maxsize=None)
def parse_expr(text: str) -> BundleExpr:
    """Parse the CLI grammar; raises ParseError with a position on failure,
    and ``Sym``'s BundleError at the Sym it refuses.

    Memoized per text in an unbounded cache: equal texts share one value,
    which is safe because expressions are frozen.  A ``ParseError`` is
    not memoized, so malformed text raises again on every call.
    """
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return expr
