"""Dot-action normal form, Bott cohomology and filtered-bundle determinacy.

Each root system has one compiled kernel, its Bott kernel
(``compile_pairings``), which takes a weight lam in one straight-line call
to ``(w, len(w), nu, pairings)``: w the reduced word with
w(lam+rho) = nu+rho strictly dominant and the coroot pairings of lam+rho,
or to None when lam is singular.  The kernel, the coroot table, the slot
maps of the simple reflections and the chamber table are this module's,
built from the root data on the system's first weight (see ``_BOTT``).
Inside the kernel the signs of the pairings name the weight's chamber and
the chamber's slots read nu off the pairings; the dominance walk runs only
on the first weight of a chamber (``_first_weight``), where its image is
checked against the one the slot maps give, and every weight's image is
checked for strict dominance.  A Weyl element is its reduced word, a tuple
of simple indices with the leftmost factor first.
``line_cohomology`` builds a weight's profile from the kernel's answer,
and every singular weight gets one shared zero profile.
``dot_normalize`` is the same call without the pairings, and is read only
by tests and the benchmark's tracer.  ``weyl_dim`` multiplies the same
kernel's pairings, and a pairing with a simple coroot is read as a
coordinate of the weight.  The three are memoized in one plain dict per
root system, with the kernel bound once per system (``_per_system``).  A
key is the weight alone, plain ints, which the cyclic garbage collector
untracks, so a new weight leaves no tracked key behind for full
collections to walk.  Singular answers are not stored: the kernel's early
exit gives them again as fast as a lookup.

Filtered bundles are evaluated over the weight multiset: one Bott call and
one E1 piece per distinct weight, carrying its multiplicity.

Orientation convention, pinned by the test vectors: a dominant weight has its
cohomology in degree 0 (sections), and the unique nonzero degree of a regular
weight is the Weyl length of the normalizing element.  Highest-weight labels
follow the sections-are-duals bookkeeping: the degree-0 label of O(lam) for
dominant lam is lam itself, standing for the dual representation; dimensions
are unaffected.

The characteristic-0 Bott theorem is implemented; the source conventions never
state a base field, and positive-characteristic Kempf subtleties are out of
scope.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import chain
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, Optional

from .rootdata import IntegrityError, RootSystem, RootSystemError, Value, Weight, wneg


class CohomologyProfile(Value):
    """Finite multiset of (cohomological degree, dominant weight, multiplicity)."""

    _fields = ("entries",)

    @staticmethod
    def of(entries: Iterable[tuple[int, Weight, int]]) -> "CohomologyProfile":
        merged: dict[tuple[int, Weight], int] = {}
        for deg, hw, mult in entries:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            merged[(deg, hw)] = merged.get((deg, hw), 0) + mult
        return CohomologyProfile(
            tuple((d, hw, m) for (d, hw), m in sorted(merged.items()))
        )

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _, _ in self.entries}))

    def dimensions(self, rs: RootSystem) -> dict[int, int]:
        dims: dict[int, int] = {}
        for d, hw, m in self.entries:
            dims[d] = dims.get(d, 0) + m * weyl_dim(rs, hw)
        return dims

    def euler(self, rs: RootSystem) -> int:
        return sum((-1) ** d * n for d, n in self.dimensions(rs).items())


#: the graded Homs that certificates require: 0, k and k[-1]; an exceptional
#: object has self-Hom exactly K, and every singular weight's Bott profile is
#: the one shared ZERO
ZERO = CohomologyProfile(())
K = CohomologyProfile(((0, (0, 0), 1),))
K1 = CohomologyProfile(((1, (0, 0), 1),))


#: What ``compile_pairings`` returns; see there.
BottKernel = Callable[
    [Weight], Optional[tuple[tuple[int, ...], int, Weight, tuple[int, ...]]]
]


def compile_pairings(
    rs: RootSystem, chambers: dict, first: Callable[..., tuple]
) -> BottKernel:
    """The Bott kernel of ``rs``: straight-line code from its height chain.

    ``kernel(lam)`` returns ``None`` when lam is singular, i.e. when some
    positive coroot pairs to zero with mu = lam+rho, and otherwise
    ``(w, len(w), nu, pairings)``: w the reduced word with w(mu) = nu+rho
    strictly dominant, and the pairings of mu with the positive coroots, as
    one tuple in the order of ``positive_roots``.

    The weight is first unpacked into one local per coordinate, so a weight
    of the wrong length raises ``ValueError`` before anything else runs.
    Each simple coroot's pairing is its coordinate plus 1, as rho is all
    ones in fundamental-weight coordinates, taken by simple index.  The
    other positive coroots follow in order of coroot height, which for
    non-simply-laced types differs from root height: each is a lower
    positive coroot plus a simple one, so its pairing is one addition of
    two locals, and a coroot that is not is refused with
    ``RootSystemError``.  The kernel returns ``None`` right after the first
    pairing that is zero.

    The signs of the pairings, one comparison each, key ``chambers`` (see
    ``_BOTT``).  A chamber not met before is found by
    ``first(lam, pairings, signs)``, which stores and returns its entry.
    The entry's slots are unpacked into locals and give
    nu_i = e_i * pairings[k_i] - 1; a negative nu_i raises
    ``IntegrityError``.
    """
    n = rs.rank
    positive = [rs.coroots[r.simple_coords] for r in rs.positive_roots]
    local = {coroot: f"p{k}" for k, coroot in enumerate(positive)}
    simple = [local[tuple([int(i == j) for j in range(n)])] for i in range(n)]
    coords = [f"l{i}" for i in range(n)]
    steps = [(p, f"{coord} + 1") for p, coord in zip(simple, coords)]
    for coroot in sorted(positive, key=lambda c: (sum(c), c)):
        if sum(coroot) == 1:
            continue
        for j, c in enumerate(coroot):
            parent = local.get(coroot[:j] + (c - 1,) + coroot[j + 1 :])
            if parent is not None:
                steps.append((local[coroot], f"{parent} + {simple[j]}"))
                break
        else:
            raise RootSystemError(
                f"coroot {coroot} is not a lower coroot plus a simple coroot"
            )
    lines = [f"[{', '.join(coords)}] = weight"]
    for name, value in steps:
        lines += [f"{name} = {value}", f"if not {name}: return None"]
    nu = [f"n{i}" for i in range(n)]
    lines += [
        f"pairings = ({''.join(f'{p}, ' for p in local.values())})",
        f"signs = ({''.join(f'{p} < 0, ' for p in local.values())})",
        f"w, length, {''.join(f'k{i}, e{i}, ' for i in range(n))}= "
        "chambers.get(signs) or first(weight, pairings, signs)",
        *(f"n{i} = e{i} * pairings[k{i}] - 1" for i in range(n)),
        f"if {' or '.join(f'{v} < 0' for v in nu) or 'False'}: "
        "raise IntegrityError(f'chamber element {w} leaves {weight} non-dominant')",
        f"return w, length, ({''.join(f'{v}, ' for v in nu)}), pairings",
    ]
    namespace = {"chambers": chambers, "first": first, "IntegrityError": IntegrityError}
    exec("def kernel(weight):\n    " + "\n    ".join(lines), namespace)
    return namespace["kernel"]


#: One entry per root system that has met a weight, read through ``_bott``:
#: its Bott kernel, its coroot table, its slot maps and its chamber table.
#: They are built on the first weight, not by ``build_root_system``:
#: compiling costs about a third of an F4 build, and many systems are built
#: only to be counted.  The answers are not kept here but in the Bott
#: memos, one plain dict per system and face, each made with the system's
#: kernel bound (``_per_system``).  ``cache_clear`` drops them while this
#: table stays: a test that corrupts a chamber entry clears them so that
#: the next regular weight reads it.
#:
#: The coroot table maps every coroot, positive and negative, to its slot
#: ``(k, e)``: it is e times the coroot of the k-th positive root.
#:
#: The slot maps are one dict per simple reflection s_j, taking the slot of
#: every coroot gamma to the slot of s_j(gamma) = gamma - <alpha_j, gamma>
#: alpha_j^v; see ``_slot_maps``.
#:
#: The chamber table has one entry per Weyl chamber met so far:
#: signs -> (w, len(w), k_0, e_0, ..., k_{n-1}, e_{n-1}), w a reduced word,
#: where signs[k] says whether mu = lam+rho pairs negatively with the k-th
#: positive coroot.  The signs fix the chamber of a regular mu and so the one
#: Weyl element w taking mu into the dominant chamber (Humphreys,
#: *Reflection Groups and Coxeter Groups*, section 1.12).  The i-th
#: coordinate of w(mu) is <mu, w^-1 alpha_i^v>, and w^-1 alpha_i^v is plus
#: or minus a positive coroot: ``(k_i, e_i)`` is its slot, so that
#: coordinate is e_i times the k_i-th coroot pairing of mu.  The kernel reads
#: the table and ``_first_weight`` fills it.
_BOTT: dict[RootSystem, tuple[BottKernel, dict, tuple[dict, ...], dict]] = {}


def _bott(rs: RootSystem) -> tuple[BottKernel, dict, tuple[dict, ...], dict]:
    """``(kernel, coroot table, slot maps, chambers)`` of ``rs``, built on
    its first call; nothing is stored when a slot map cannot be built."""
    entry = _BOTT.get(rs)
    if entry is None:
        table = _coroot_table(rs)
        maps = _slot_maps(rs, table)
        chambers: dict = {}
        kernel = compile_pairings(rs, chambers, partial(_first_weight, rs))
        entry = _BOTT[rs] = (kernel, table, maps, chambers)
    return entry


def _coroot_table(rs: RootSystem) -> dict[Weight, tuple[int, int]]:
    """Every coroot, positive and negative, mapped to its slot ``(k, e)``."""
    table = {}
    for k, root in enumerate(rs.positive_roots):
        coroot = rs.coroots[root.simple_coords]
        table[coroot], table[wneg(coroot)] = (k, 1), (k, -1)
    return table


def _slot_maps(rs: RootSystem, table: dict) -> tuple[dict, ...]:
    """One map per simple reflection s_j: slot of gamma -> slot of s_j(gamma).

    <alpha_j, gamma> is the dot product of alpha_j's weight coordinates with
    gamma's coordinates in the simple coroots, and s_j changes only the j-th
    of those.  An image that the coroot table cannot place raises
    ``IntegrityError``.
    """
    maps = []
    for j, alpha in enumerate(rs.simple_roots):
        image = {}
        for coroot, slot in table.items():
            moved = list(coroot)
            moved[j] -= sum(map(mul, alpha.weight_coords, coroot))
            target = table.get(tuple(moved))
            if target is None:
                raise IntegrityError(
                    f"s_{j} sends the coroot {coroot} to {tuple(moved)}, "
                    "which is not a coroot"
                )
            image[slot] = target
        maps.append(image)
    return tuple(maps)


def _chamber_slots(rs: RootSystem, w: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``(k, e)`` per simple i with w^-1 alpha_i^v = e beta_k^v.

    w^-1 applies w's letters first to last, so each alpha_i^v starts at its
    slot in the coroot table and goes through the slot map of each letter in
    turn: len(w) lookups per simple coroot and no matrix arithmetic.
    """
    _, table, maps, _ = _bott(rs)
    slots = []
    for alpha in rs.simple_roots:
        slot = table[rs.coroots[alpha.simple_coords]]
        for j in w:
            slot = maps[j][slot]
        slots.append(slot)
    return tuple(slots)


def _first_weight(
    rs: RootSystem, lam: Weight, pairings: tuple[int, ...], signs: tuple[bool, ...]
) -> tuple:
    """The chamber entry of the first weight lam met in its chamber, stored
    under ``signs``; the kernel calls this with lam's pairings and signs.

    The dominance walk runs on mu = lam+rho.  Its word must have one letter
    per negative pairing, and its image w(mu) must be the image that w's
    slots read from the pairings (see ``_BOTT``); otherwise
    ``IntegrityError`` is raised and no chamber is stored.  So a slot map
    that sends a coroot astray is refused at the first weight of a chamber
    whose word reads it.
    """
    top, w = rs.to_dominant(tuple([c + 1 for c in lam]))
    if len(w) != signs.count(True):
        raise IntegrityError("dot-normal form length mismatch")
    slots = _chamber_slots(rs, w)
    image = tuple([e * pairings[k] for k, e in slots])
    if image != top:
        raise IntegrityError(
            f"the slots of {w} send {lam} + rho to {image}, the walk to {top}"
        )
    entry = _bott(rs)[3][signs] = (w, len(w), *chain.from_iterable(slots))
    return entry


#: What a Bott memo's ``cache_info()`` returns.
_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _per_system(singular: object = None) -> Callable:
    """A Bott face memoized in one plain dict per root system, keyed by the
    weight alone; the decorated function binds the face to a system.

    Given ``rs`` and its Bott kernel, the decorated function returns the
    face of ``rs``: the function of one weight that computes an answer.  It
    runs once per system, when the system's memo is made, so a miss calls
    the bound face and nothing else.  The decorated name becomes
    ``face(rs, lam)``.  A memo made before its ``_BOTT`` entry is replaced
    keeps the old kernel until ``cache_clear()``.

    A key that held the system could never be untracked by the cyclic
    garbage collector, so every new answer would leave a tracked tuple
    behind and a batch of new weights would pay for full collections; a
    weight is plain ints, which the collector untracks.  Systems are told
    apart by identity, as ``RootSystem`` hashes.

    Only regular answers are stored.  The answer to a singular weight,
    ``singular``, is not: the kernel's early exit gives it no slower than a
    lookup would.  No face answers None to a regular weight, so a lookup
    that finds None is a miss.  A failure is not stored either.  Each call
    counts as one hit or one miss, a recomputed singular weight as a miss,
    so hits plus misses is the number of calls.  ``cache_info()`` gives them
    with the fields of an ``lru_cache``'s own, the size summed over the
    systems, and ``cache_clear()`` drops every system's dict and the counts.
    The counts are plain ints: threads calling at once may lose a count,
    never an answer.
    """

    def per_system(bind: Callable) -> Callable:
        memos: dict[RootSystem, tuple[dict, Callable]] = {}
        hits = misses = 0

        def memo(rs: RootSystem, lam: Weight):
            nonlocal hits, misses
            try:
                answers, face = memos[rs]
            except KeyError:
                # One atomic call, so that threads meeting a new system
                # share one memo.
                answers, face = memos.setdefault(rs, ({}, bind(rs, _bott(rs)[0])))
            answer = answers.get(lam)
            if answer is None:
                misses += 1
                answer = face(lam)
                if answer is not singular:
                    answers[lam] = answer
                return answer
            hits += 1
            return answer

        def cache_info() -> _CacheInfo:
            sizes = [len(answers) for answers, _ in list(memos.values())]
            return _CacheInfo(hits, misses, None, sum(sizes))

        def cache_clear() -> None:
            nonlocal hits, misses
            memos.clear()
            hits = misses = 0

        memo.__name__ = memo.__qualname__ = bind.__name__
        memo.__doc__ = bind.__doc__
        memo.cache_info = cache_info
        memo.cache_clear = cache_clear
        return memo

    return per_system


@_per_system()
def dot_normalize(rs: RootSystem, kernel: BottKernel) -> Callable:
    """``dot_normalize(rs, lam)``: (w, len(w), nu) with w(lam+rho) = nu+rho
    strictly dominant, w a reduced word, or None if lam is singular; the
    system's kernel, in one call, without its pairings.  Read only by tests
    and the benchmark's tracer.

    A weight of the wrong length raises ``ValueError``, singular or not.  A
    regular weight runs the dominance walk only when it is the first of its
    chamber (``_first_weight``).  Every weight, the first included, reads
    its image from its own pairings, and the image must be strictly
    dominant, or ``IntegrityError`` is raised.  Only one Weyl element makes
    a regular weight dominant, so this check verifies the stored entry, and
    the signs it was found by, in full.  None is not memoized.
    """

    def image(lam: Weight) -> Optional[tuple[tuple[int, ...], int, Weight]]:
        found = kernel(lam)
        return found if found is None else found[:3]

    return image


@_per_system(singular=ZERO)
def line_cohomology(rs: RootSystem, kernel: BottKernel) -> Callable:
    """``line_cohomology(rs, lam)``: Bott cohomology of the line bundle
    O(lam) on the full flag variety.

    Calls the Bott kernel directly, not through ``dot_normalize``, so a miss
    passes through this one memo only.  A singular weight gets the shared
    zero profile, which is not memoized; a regular one its Weyl module in
    degree len(w), the length stored with its chamber.
    """

    def profile(lam: Weight) -> CohomologyProfile:
        image = kernel(lam)
        if image is None:
            return ZERO
        return CohomologyProfile(((image[1], image[2], 1),))

    return profile


@_per_system()
def weyl_dim(rs: RootSystem, kernel: BottKernel) -> Callable:
    """``weyl_dim(rs, lam)``: dimension of the irreducible with highest
    weight lam (Weyl formula).

    The numerator is the product of the Bott kernel's pairings of lam+rho.
    The kernel runs first, so a weight of the wrong length raises its
    ``ValueError``.  Raises ``ValueError`` when lam is not dominant, and
    ``IntegrityError`` when the kernel calls the dominant lam singular
    (lam+rho is regular) or the Weyl quotient is not an integer; all three
    checks run on every miss.  A dominant weight is never singular, so
    every answer is memoized.
    """
    denominator = rs.weyl_denominator

    def dimension(lam: Weight) -> int:
        found = kernel(lam)
        if lam and min(lam) < 0:
            raise ValueError(f"{lam} is not dominant")
        if found is None:
            raise IntegrityError(f"the Bott kernel calls the dominant {lam} singular")
        dim, rem = divmod(prod(found[3]), denominator)
        if rem:
            raise IntegrityError("Weyl dimension did not come out integral")
        return dim

    return dimension


def combine_pieces(
    pieces: Iterable[tuple[CohomologyProfile, int]],
) -> Optional[CohomologyProfile]:
    """Union of exact piece profiles, or None when it is indeterminate.

    Each entry ``(profile, m)`` stands for m equal copies of a piece: the E1
    pieces of a weight filtration, or the sub and quotient of ``S``.  Every
    differential of the spectral sequence, and the connecting map of the
    extension, raises the degree by exactly 1 and is a map of G-modules, so
    by Schur's lemma an entry (d, lam) can only meet an entry (d+1, lam) of
    a different copy.  The union, each profile scaled by its m, is therefore
    the answer unless two different copies hold (d, lam) and (d+1, lam) for
    some d and lam; copies in one degree, and different labels in adjacent
    degrees, never meet.  All pieces zero give the shared zero profile, and
    a single nonzero piece with m = 1 is returned itself.
    """
    nonzero = [(p, m) for p, m in pieces if p.entries]
    if not nonzero:
        return ZERO
    if len(nonzero) == 1 and nonzero[0][1] == 1:
        return nonzero[0][0]
    # (d, lam) -> the index of the one copy holding it, or -1 for two or more.
    owner: dict[tuple[int, Weight], int] = {}
    for i, (p, m) in enumerate(nonzero):
        for d, hw, _ in p.entries:
            owner[d, hw] = i if m == 1 and owner.get((d, hw), i) == i else -1
    for (d, hw), i in owner.items():
        j = owner.get((d + 1, hw))
        if j is not None and (j != i or i < 0):
            return None
    return CohomologyProfile.of(
        (d, hw, k * m) for p, m in nonzero for d, hw, k in p.entries
    )


#: An E1 piece: a filtration weight, its Bott profile, its multiplicity.
Piece = tuple[Weight, CohomologyProfile, int]


def filtered_cohomology(
    rs: RootSystem, weights: Mapping[Weight, int]
) -> tuple[Optional[CohomologyProfile], tuple[Piece, ...]]:
    """Cohomology of a bundle with the given multiset of filtration weights:
    ``(profile, pieces)``, the profile None when it is indeterminate.

    ``weights`` maps each line-bundle weight to its positive multiplicity, in
    filtration order of first occurrence, as ``bundles.weights`` returns it.
    ``pieces`` is the E1 page, one piece per distinct weight from one Bott
    call each.  ``combine_pieces`` judges them.  The filtration is by
    B-submodules, so each differential of its spectral sequence is a map of
    G-modules raising the degree by 1: the union of the pieces, each scaled
    by its multiplicity, is the answer unless two different copies hold an
    equal label in adjacent degrees.  Copies in one degree, and different
    labels in adjacent degrees, never meet.

    The multiplicities are checked before any Bott call, so the page is
    built in one comprehension.  ``combine_pieces`` reads it through a
    generator: a list there would hold a second entry per weight at once.
    """
    if not weights:
        raise ValueError("empty weight filtration is disallowed")
    if min(weights.values()) < 1:
        w, m = next((w, m) for w, m in weights.items() if m < 1)
        raise ValueError(f"weight {w} has multiplicity {m}; it must be positive")
    pieces = tuple([(w, line_cohomology(rs, w), m) for w, m in weights.items()])
    return combine_pieces((p, m) for _, p, m in pieces), pieces


def euler_characteristic(rs: RootSystem, weights: Mapping[Weight, int]) -> int:
    """Euler characteristic of a bundle with the given weight multiset, each
    weight counted with its multiplicity; filtration-independent.

    Each weight w adds m times the Weyl polynomial
    chi(O(w)) = prod <w+rho, beta^v> / prod <rho, beta^v> over the positive
    roots beta, which holds for every weight, dominant or not: it follows
    from Bott's theorem and the sign of the Weyl numerator, and equally from
    Hirzebruch-Riemann-Roch.  The numerator is read from
    ``RootSystem.coroot_pairings`` and the denominator is
    ``weyl_denominator``: no dominance walk, chamber table, Bott kernel or
    cache, so this polices ``line_cohomology`` rather than restating it.  A
    quotient that is not an integer raises ``IntegrityError``.
    """
    total = 0
    for w, m in weights.items():
        # rho is all ones in fundamental-weight coordinates.
        numerator = prod(rs.coroot_pairings(tuple([c + 1 for c in w])))
        chi, rem = divmod(numerator, rs.weyl_denominator)
        if rem:
            raise IntegrityError(f"the Weyl polynomial at {w} is not an integer")
        total += m * chi
    return total


def format_profile(profile: CohomologyProfile) -> str:
    """Human-readable profile: "0", "k", "k[-1]", "2*V(1,0)[-3] + ..."."""
    if profile.is_zero:
        return "0"
    parts = []
    for d, hw, m in profile.entries:
        if hw == tuple(0 for _ in hw):
            body = "k" if m == 1 else f"k^{m}"
        else:
            label = "V(" + ",".join(str(c) for c in hw) + ")"
            body = label if m == 1 else f"{m}*{label}"
        if d:
            body += f"[-{d}]"
        parts.append(body)
    return " + ".join(parts)
