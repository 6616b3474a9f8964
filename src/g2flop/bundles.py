"""Bundle-expression DSL for equivariant bundles on the G2 flag variety.

Atoms
-----
``Line(a, b)``      the line bundle O(aH + bh)
``Universal()``     U, the rank-2 universal-subbundle pullback (= IrrP1(-1, 1))
``Spinor()``        S, the rank-4 extension with sub U and quotient U'(-h)
``IrrP1(a, b)``     pullback of the irreducible P1-bundle with highest weight (a, b)
``IrrP2(a, b)``     pullback of the irreducible P2-bundle with highest weight (a, b)

plus ``Dual``, ``Tensor``, ``Sym`` (rank-2 irreducible arguments only) and
``Twist``.  All expressions denote bundles on the flag variety; objects living
on either Grassmannian are represented by their pullbacks, which is harmless
for cohomology because both projections have O as derived pushforward of O.

Every reader sees an expression through its normal form: ``normal_factors``,
the one walk over the tree, yields a line twist and a flat tuple of factors.

Evaluation offers two independent routes.  Route A filters any expression by
its line-bundle weights and applies per-weight Bott under the degree-gap
determinacy rule.  Route B applies to one-sided expressions (all non-line
atoms from a single parabolic): the non-line part is decomposed into
irreducibles by rank-1 Clebsch-Gordan, the fiber-direction twist is pushed
down the relevant P1-fibration exactly (Sym / zero / Sym-twist-by-det,
according to the twist degree), and parabolic Bott finishes the job with no
spectral ambiguity.  Expressions containing the opaque extension S are
additionally resolved through its two-piece filtration.  Whenever several
routes determine an answer they are required to agree.

``flag_cohomology`` answers each ``(root system, normal form)`` once: equal
normal forms share one memoized result, in a cache that is unbounded like the
Bott caches.  Failures are not memoized, so a failing input raises again on
every call.

The expression grammar for the CLI::

    expr  := term { "*" term }
    term  := atom [ "(" twist ")" ] [ "'" ]
    atom  := "O" | "U" | "S" | "E(" int "," int ")" | "F(" int "," int ")"
           | "Sym^" int " " atom
    twist := signed combination of "h", "H"  |  int "," int

with ``'`` for duals, e.g. ``U*U(h)``, ``O(H-2h)``, ``Sym^2 E(1,1)``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Union

from .rootdata import IntegrityError, RootSystem, Value, Weight, wadd, wneg, wscale
from .weylbott import (
    CohomologyProfile,
    combine_pieces,
    filtered_cohomology,
    parabolic_cohomology,
)


class BundleError(ValueError):
    """Raised for structurally invalid bundle expressions."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RouteMismatchError(IntegrityError):
    """Two exact evaluation routes disagreed; indicates an engine bug."""


class Line(Value):
    _fields = ("a", "b")


class Universal(Value):
    _fields = ()


class Spinor(Value):
    _fields = ()


class IrrP1(Value):
    _fields = ("a", "b")


class IrrP2(Value):
    _fields = ("a", "b")


class Dual(Value):
    _fields = ("arg",)


class Tensor(Value):
    _fields = ("left", "right")


class Sym(Value):
    _fields = ("power", "arg")


class Twist(Value):
    _fields = ("arg", "a", "b")


BundleExpr = Union[Line, Universal, Spinor, IrrP1, IrrP2, Dual, Tensor, Sym, Twist]

# Parabolic bookkeeping: P1 has Levi root alpha_2 (fiber class h),
# P2 has Levi root alpha_1 (fiber class H).
P1_LEVI = frozenset({1})
P2_LEVI = frozenset({0})

#: the defining filtration of S: sub U, quotient U'(-h)
SPINOR_SUB = Universal()
SPINOR_QUOTIENT = Twist(Dual(Universal()), 0, -1)


def _string_weights(rs: RootSystem, hw: Weight, levi_index: int) -> dict[Weight, int]:
    n = rs.pairing(hw, rs.simple_roots[levi_index])
    if n < 0:
        raise BundleError(f"highest weight {hw} has negative Levi pairing {n}")
    alpha = rs.simple_roots[levi_index].weight_coords
    return {
        tuple(hw[k] - j * alpha[k] for k in range(rs.rank)): 1 for j in range(n + 1)
    }


def _convolve(left: dict[Weight, int], right: dict[Weight, int]) -> dict[Weight, int]:
    # Keys come out in the order of first occurrence in the expanded product
    # (left-major), because both inputs keep first-occurrence order.
    out: dict[Weight, int] = {}
    for lw, lm in left.items():
        for rw, rm in right.items():
            w = wadd(lw, rw)
            out[w] = out.get(w, 0) + lm * rm
    return out


def weights(rs: RootSystem, e: BundleExpr) -> dict[Weight, int]:
    """Line-bundle filtration weights of the expression, as a multiset.

    The expression is read through its normal form: the multiset starts as
    ``{twist: 1}`` and is convolved with each normal factor's weights in
    turn, so the work grows with the number of distinct weights, not with
    the rank.  A plain dict maps each weight to its multiplicity; the
    multiplicities sum to the rank.  Keys are in a stable order: that of
    their first occurrence in the filtration (sub before quotient, left
    factor before right).
    """
    factors, twist = normal_factors(e)
    out = {twist: 1}
    for f in factors:
        out = _convolve(out, _factor_weights(rs, f))
    return out


def _factor_weights(rs: RootSystem, f: BundleExpr) -> dict[Weight, int]:
    """Weights of one factor of ``normal_factors``, in filtration order: the
    Levi string of its highest weight, negated for a dual."""
    dualize = isinstance(f, Dual)
    core = f.arg if dualize else f
    if isinstance(core, Spinor):
        # the defining two-step filtration, flattened
        out = weights(rs, SPINOR_SUB)
        for w, m in weights(rs, SPINOR_QUOTIENT).items():
            out[w] = out.get(w, 0) + m
    else:
        info = _factor_irreducible(rs, core)
        if info is None:
            raise BundleError("Sym is only supported on rank-2 irreducible atoms")
        out = _string_weights(rs, info[1], info[0])
    if dualize:
        return {wneg(w): m for w, m in out.items()}
    return out


def rank(e: BundleExpr) -> int:
    """Rank of the expression: the product of its normal factors' ranks."""
    out = 1
    for f in normal_factors(e)[0]:
        f = f.arg if isinstance(f, Dual) else f
        if isinstance(f, Sym):
            out *= f.power + 1
        elif isinstance(f, (Universal, Spinor)):
            out *= 2 if isinstance(f, Universal) else 4
        else:
            n = f.b if isinstance(f, IrrP1) else f.a  # Levi pairing of (a, b)
            if n < 0:
                name = type(f).__name__
                raise BundleError(f"{name}({f.a},{f.b}) has negative Levi pairing")
            out *= n + 1
    return out


def det_weight(rs: RootSystem, e: BundleExpr) -> Weight:
    ws = weights(rs, e).items()
    return tuple(sum(m * w[k] for w, m in ws) for k in range(rs.rank))


def levi_tensor(
    rs: RootSystem,
    levi_simples: frozenset[int] | set[int],
    lam: Weight,
    mu: Weight,
) -> tuple[Weight, ...]:
    """Clebsch-Gordan for a semisimple-rank-1 Levi, on highest weights.

    Labels m = <lam, alpha^v>, n = <mu, alpha^v>; the summands have highest
    weights lam + mu - j*alpha for j = 0..min(m, n).  Total rank is preserved.
    """
    levi = tuple(sorted(levi_simples))
    if len(levi) != 1:
        raise BundleError("only semisimple-rank-1 Levi subgroups are supported")
    i = levi[0]
    alpha = rs.simple_roots[i]
    m = rs.pairing(lam, alpha)
    n = rs.pairing(mu, alpha)
    if m < 0 or n < 0:
        raise BundleError("both weights must be Levi-dominant")
    total = wadd(lam, mu)
    out = tuple(
        tuple(total[k] - j * alpha.weight_coords[k] for k in range(rs.rank))
        for j in range(min(m, n) + 1)
    )
    if sum(rs.pairing(w, alpha) + 1 for w in out) != (m + 1) * (n + 1):
        raise IntegrityError(f"Clebsch-Gordan of {lam} and {mu} does not preserve rank")
    return out


# --- one-sided (route B) decomposition ------------------------------------


class OneSided(Value):
    """A pullback-from-one-Grassmannian shape: irreducible summands + twist.

    ``summands`` is a multiset of Levi irreducibles, as (highest weight,
    multiplicity) pairs with distinct weights.  ``levi_index`` is 1 for the
    P1 side (fiber class h) and 0 for the P2 side (fiber class H).
    ``opaque`` marks expressions containing the extension S, which is a
    pullback from the quadric side of unknown Levi structure.
    """

    _fields = ("levi_index", "summands", "twist", "opaque")


def _factor_irreducible(rs: RootSystem, factor: BundleExpr) -> Optional[tuple[int, Weight]]:
    """Levi side and highest weight of a normal factor, if it is irreducible."""
    dualize = isinstance(factor, Dual)
    if dualize:
        factor = factor.arg
    atom = factor.arg if isinstance(factor, Sym) else factor
    if isinstance(atom, Universal):
        side, hw = 1, (-1, 1)
    elif isinstance(atom, (IrrP1, IrrP2)):
        side, hw = (1 if isinstance(atom, IrrP1) else 0), (atom.a, atom.b)
    else:
        return None
    if atom is not factor:
        # Sym^m of a rank-2 irreducible: the irreducible of highest weight m*hw
        n = rs.pairing(hw, rs.simple_roots[side])
        if n < 0:
            raise BundleError(f"highest weight {hw} has negative Levi pairing {n}")
        if n != 1:
            return None
        hw = wscale(factor.power, hw)
    if dualize:
        # dual of the Levi irreducible: -s_alpha(hw) for the Levi reflection
        hw = wneg(rs.reflect(side, hw))
    return side, hw


def one_sided_form(rs: RootSystem, e: BundleExpr) -> Optional[OneSided]:
    """Decompose into irreducibles from a single parabolic plus a line twist.

    The non-line factors are multiplied out by rank-1 Clebsch-Gordan one at a
    time, keeping equal highest weights together with their multiplicity, so
    the work grows with the number of distinct summands, not with the rank.
    """
    factors, twist = normal_factors(e)
    sides: set[int] = set()
    opaque = False
    hws: list[Weight] = []
    for f in factors:
        core = f.arg if isinstance(f, Dual) else f
        if isinstance(core, Spinor):
            sides.add(0)  # pullback from the quadric side
            opaque = True
            continue
        info = _factor_irreducible(rs, f)
        if info is None:
            return None
        sides.add(info[0])
        hws.append(info[1])
    if len(sides) > 1 or not sides:
        return None
    side = sides.pop()
    levi = P1_LEVI if side == 1 else P2_LEVI
    summands: dict[Weight, int] = {(0,) * rs.rank: 1}
    for hw in hws:
        product: dict[Weight, int] = {}
        for s, mult in summands.items():
            for w in levi_tensor(rs, levi, s, hw):
                product[w] = product.get(w, 0) + mult
        summands = product
    return OneSided(
        levi_index=side, summands=tuple(summands.items()), twist=twist, opaque=opaque
    )


def _pushforward_profile(
    rs: RootSystem, side: int, hw: Weight, twist: Weight
) -> CohomologyProfile:
    """Exact cohomology of (pullback of E_hw) tensor O(twist).

    Splits the twist into the base direction (absorbed into the highest
    weight) and the fiber direction f, then pushes down the rank-1 fibration:
    f >= 0 tensors with the rank-(f+1) symmetric power of the dual fiber
    bundle, f = -1 kills everything, f <= -2 lands in relative degree 1
    tensored with Sym^(-f-2) of the fiber bundle twisted by its determinant
    (equivalently, the fiber-direction dot-reflection of the twist).
    """
    levi = P1_LEVI if side == 1 else P2_LEVI
    base_twist = tuple(0 if k == side else twist[k] for k in range(rs.rank))
    fiber = twist[side]
    hw = wadd(hw, base_twist)
    if fiber == -1:
        return CohomologyProfile.zero()
    fiber_weight = tuple(fiber if k == side else 0 for k in range(rs.rank))
    if fiber >= 0:
        partner = fiber_weight
        shift = 0
    else:
        shifted = rs.reflect(side, wadd(fiber_weight, rs.rho))
        partner = tuple(c - 1 for c in shifted)
        shift = 1
    return CohomologyProfile.of(
        (d + shift, w, m)
        for summand in levi_tensor(rs, levi, hw, partner)
        for d, w, m in parabolic_cohomology(rs, levi, summand).entries
    )


def route_b_cohomology(rs: RootSystem, e: BundleExpr) -> Optional[CohomologyProfile]:
    """Exact one-sided evaluation; None when the shape does not apply."""
    form = one_sided_form(rs, e)
    if form is None:
        return None
    if form.opaque:
        # S-side pullbacks: only the fiber-degree -1 vanishing needs no
        # knowledge of S itself.
        fiber = form.twist[0] if form.levi_index == 0 else form.twist[1]
        if fiber == -1:
            return CohomologyProfile.zero()
        return None
    return CohomologyProfile.of(
        (d, w, m * mult)
        for hw, mult in form.summands
        for d, w, m in _pushforward_profile(rs, form.levi_index, hw, form.twist).entries
    )


# --- spinor-extension resolution -------------------------------------------


def _spinor_split(
    factors: tuple[BundleExpr, ...], twist: Weight
) -> Optional[tuple[BundleExpr, BundleExpr]]:
    """The normal form with its first S or S' factor replaced by the sub,
    then the quotient of the defining filtration of S (dualized for S');
    None without one."""
    for i, f in enumerate(factors):
        dualize = type(f) is Dual
        if type(f.arg if dualize else f) is Spinor:
            head, tail = factors[:i], factors[i + 1 :]
            return tuple(
                _assemble(head + (Dual(piece) if dualize else piece,) + tail, twist)
                for piece in (SPINOR_SUB, SPINOR_QUOTIENT)
            )
    return None


# --- full evaluation --------------------------------------------------------


class CohResult(Value):
    """Cohomology of a bundle expression on the flag variety.

    ``determined`` results carry the exact profile; indeterminate ones carry
    the E1 page of the weight filtration.  Both carry ``e1``, one ``(weight,
    profile, multiplicity)`` entry per distinct filtration weight.  ``route``
    names the strategy that settled the answer.
    """

    _fields = ("determined", "profile", "e1", "route")

    @property
    def is_zero(self) -> bool:
        return self.determined and self.profile.is_zero


def flag_cohomology(rs: RootSystem, e: BundleExpr) -> CohResult:
    """Best exact evaluation of H^*(flag variety, e).

    Tries the weight filtration, the one-sided pushforward route and (for
    expressions containing S) the extension resolution; all routes that
    determine an answer must agree exactly.

    Answers are memoized per ``(rs, normal form)``, so equal normal forms
    share one evaluation; the memo is unbounded, like the Bott caches.  A
    failure is not memoized: the next call evaluates again and raises again.
    """
    return _evaluate(rs, *normal_factors(e))


@lru_cache(maxsize=None)
def _evaluate(
    rs: RootSystem, factors: tuple[BundleExpr, ...], twist: Weight
) -> CohResult:
    # Keyed by the flat normal form, never the expression tree, whose hash
    # recurses once per node.
    e = _assemble(factors, twist)
    route_a = filtered_cohomology(rs, weights(rs, e))
    candidates: list[tuple[str, CohomologyProfile]] = []
    if route_a.determined:
        candidates.append(("filtration", route_a.profile))
    route_b = route_b_cohomology(rs, e)
    if route_b is not None:
        candidates.append(("parabolic", route_b))
    split = _spinor_split(factors, twist)
    if split is not None:
        sub = flag_cohomology(rs, split[0])
        quot = flag_cohomology(rs, split[1])
        if sub.determined and quot.determined:
            combined = combine_pieces(
                [("sub", sub.profile, 1), ("quotient", quot.profile, 1)]
            )
            if combined.determined:
                candidates.append(("extension", combined.profile))
    if not candidates:
        return CohResult(False, None, route_a.pieces, "none")
    first_route, first = candidates[0]
    for other_route, other in candidates[1:]:
        if other != first:
            raise RouteMismatchError(
                f"routes disagree on {format_expr(e)}: "
                f"{first_route} gave {first}, {other_route} gave {other}"
            )
    return CohResult(True, first, route_a.pieces, first_route)


# --- normalization and printing ---------------------------------------------


def normal_factors(e: BundleExpr) -> tuple[tuple[BundleExpr, ...], Weight]:
    """Flatten tensors and fold line twists: (non-line factors, total twist).

    Duals are pushed onto atoms (and outside Sym), so each factor is
    atom | Dual(atom) | Sym(m, atom) | Dual(Sym(m, atom)).  The walk is a
    loop: it descends into left tensor children while right ones wait on a
    stack, and strips Twist, Dual and Sym^1 wrappers in place, carrying the
    dual sign and the twist.  Only Sym^m with m >= 2 recurses, into its
    argument.  It dispatches on exact types,
    which costs less than isinstance calls on the query path.
    """
    factors: list[BundleExpr] = []
    a = b = 0
    stack = [(e, 1)]  # (expression, sign: -1 under an odd number of duals)
    while stack:
        e, sign = stack.pop()
        while True:
            kind = type(e)
            if kind is Tensor:
                stack.append((e.right, sign))
                e = e.left
            elif kind is Twist:
                a += sign * e.a
                b += sign * e.b
                e = e.arg
            elif kind is Dual:
                sign = -sign
                e = e.arg
            elif kind is Sym and e.power == 1:
                e = e.arg
            else:
                break
        if kind is Line:
            a += sign * e.a
            b += sign * e.b
        elif kind in (Universal, Spinor, IrrP1, IrrP2):
            factors.append(e if sign > 0 else Dual(e))
        elif kind is Sym:
            if e.power < 1:
                raise BundleError("Sym power must be >= 1")
            inner, (ta, tb) = normal_factors(e.arg)
            f = inner[0] if len(inner) == 1 else None
            a += sign * e.power * ta
            b += sign * e.power * tb
            if type(f) is Dual:
                f, sign = f.arg, -sign
            # Sym^m Sym^n is refused here, not later by the routes, so a
            # normal factor is never nested deeper than Dual(Sym(m, atom))
            # and hashes in constant depth.
            if f is None or type(f) is Sym:
                raise BundleError("Sym is only supported on rank-2 irreducible atoms")
            factors.append(Sym(e.power, f) if sign > 0 else Dual(Sym(e.power, f)))
        else:
            raise BundleError(f"unknown expression node {e!r}")
    return tuple(factors), (a, b)


def _assemble(factors: tuple[BundleExpr, ...], twist: Weight) -> BundleExpr:
    """The twisted tensor of the factors, or a line when there are none."""
    if not factors:
        return Line(*twist)
    expr: BundleExpr = factors[0]
    for f in factors[1:]:
        expr = Tensor(expr, f)
    if twist != (0, 0):
        expr = Twist(expr, *twist)
    return expr


def normalize(e: BundleExpr) -> BundleExpr:
    """Canonical form: twisted tensor of dual/Sym-wrapped atoms, or a line."""
    return _assemble(*normal_factors(e))


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


def _format_atom(e: BundleExpr) -> str:
    if isinstance(e, Universal):
        return "U"
    if isinstance(e, Spinor):
        return "S"
    if isinstance(e, IrrP1):
        return f"E({e.a},{e.b})"
    if isinstance(e, IrrP2):
        return f"F({e.a},{e.b})"
    if isinstance(e, Sym):
        return f"Sym^{e.power} {_format_atom(e.arg)}"
    raise BundleError(f"not an atomic factor: {e!r}")


def _format_factor(f: BundleExpr, twist: Weight) -> str:
    """Print one factor, folding `twist` into it (the canonical position)."""
    if isinstance(f, Dual):
        inner = _format_atom(f.arg)
        if twist == (0, 0):
            return f"{inner}'"
        return f"{inner}({_format_twist(wneg(twist))})'"
    inner = _format_atom(f)
    if twist == (0, 0):
        return inner
    return f"{inner}({_format_twist(twist)})"


def format_expr(e: BundleExpr) -> str:
    """Canonical printer; parse(format(e)) equals normalize(e)."""
    factors, twist = normal_factors(e)
    if not factors:
        if twist == (0, 0):
            return "O"
        return f"O({_format_twist(twist)})"
    parts = [_format_factor(f, (0, 0)) for f in factors[:-1]]
    parts.append(_format_factor(factors[-1], twist))
    return "*".join(parts)


# --- parser -----------------------------------------------------------------

_INT_RE = re.compile(r"[+-]?\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        self.pos = m.end()
        return int(m.group())

    def parse_expr(self) -> BundleExpr:
        expr = self.parse_term()
        self.skip_ws()
        while self.peek() == "*":
            self.pos += 1
            self.skip_ws()
            expr = Tensor(expr, self.parse_term())
            self.skip_ws()
        return expr

    def parse_term(self) -> BundleExpr:
        self.skip_ws()
        atom = self.parse_atom()
        if self.peek() == "(":
            self.pos += 1
            a, b = self.parse_twist()
            self.expect(")")
            atom = Twist(atom, a, b)
        if self.peek() == "'":
            self.pos += 1
            atom = Dual(atom)
            # convenience beyond the core grammar: a twist may follow the
            # dual, so U'(-h) means (U dual)(-h)
            if self.peek() == "(":
                self.pos += 1
                a, b = self.parse_twist()
                self.expect(")")
                atom = Twist(atom, a, b)
        return atom

    def parse_atom(self) -> BundleExpr:
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
            atom: BundleExpr = Line(0, 0)
        elif ch == "U":
            self.pos += 1
            atom = Universal()
        elif ch == "S":
            self.pos += 1
            atom = Spinor()
        elif ch in ("E", "F"):
            self.pos += 1
            self.expect("(")
            a = self.parse_int()
            self.skip_ws()
            self.expect(",")
            self.skip_ws()
            b = self.parse_int()
            self.expect(")")
            atom = IrrP1(a, b) if ch == "E" else IrrP2(a, b)
        elif ch == "":
            raise self.error("unexpected end of input")
        else:
            raise self.error(f"unknown atom {ch!r}")
        while powers:
            atom = Sym(powers.pop(), atom)
        return atom

    def parse_twist(self) -> Weight:
        start = self.pos
        while self.pos < len(self.text):
            if self.text[self.pos] == ")":
                break
            self.pos += 1
        body = self.text[start : self.pos]
        if "," in body:
            sub = _Parser(body)
            sub.skip_ws()
            a = sub.parse_int()
            sub.skip_ws()
            sub.expect(",")
            sub.skip_ws()
            b = sub.parse_int()
            sub.skip_ws()
            if sub.pos != len(body):
                self.pos = start + sub.pos
                raise self.error("malformed pair twist")
            return (a, b)
        return self._parse_linear_twist(body, start)

    def _parse_linear_twist(self, body: str, start: int) -> Weight:
        a = b = 0
        i = 0
        seen_any = False
        while i < len(body):
            if body[i] == " ":
                i += 1
                continue
            sign = 1
            if body[i] in "+-":
                sign = -1 if body[i] == "-" else 1
                i += 1
                while i < len(body) and body[i] == " ":
                    i += 1
            m = re.match(r"\d+", body[i:])
            coeff = 1
            if m:
                coeff = int(m.group())
                i += m.end()
            if i >= len(body) or body[i] not in "hH":
                self.pos = start + i
                raise self.error("expected 'h' or 'H' in twist")
            if body[i] == "H":
                a += sign * coeff
            else:
                b += sign * coeff
            i += 1
            seen_any = True
        if not seen_any:
            self.pos = start
            raise self.error("empty twist")
        return (a, b)


def parse_expr(text: str) -> BundleExpr:
    """Parse the CLI grammar; raises ParseError with a position on failure."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return expr
