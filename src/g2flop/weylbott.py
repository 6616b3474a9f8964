"""Dot-action normal form, Bott cohomology and filtered-bundle determinacy.

Bott runs through one uncached kernel, ``_dominant_image``, which runs the
dominance walk once per Weyl chamber and checks every weight's image.
``dot_normalize`` is its cached public face, returning a ``BottOutcome``;
``line_cohomology`` keeps its own cache and builds its profile from the
kernel's answer directly, so a weight is cached once, as its profile.  Every
singular weight gets one shared singular outcome or one shared zero profile.

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

from functools import lru_cache
from math import prod
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .rootdata import IntegrityError, RootSystem, Value, Weight, WeylElement


class CohomologyProfile(Value):
    """Finite multiset of (cohomological degree, dominant weight, multiplicity)."""

    _fields = ("entries",)

    def __eq__(self, other):
        # Hot: the certificates compare profiles; skip the generic key lookup.
        if type(other) is not CohomologyProfile:
            return NotImplemented
        return self.entries == other.entries

    __hash__ = Value.__hash__

    @staticmethod
    def zero() -> "CohomologyProfile":
        return _ZERO

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

    def shift(self, by: int) -> "CohomologyProfile":
        return CohomologyProfile.of((d + by, hw, m) for d, hw, m in self.entries)

    def union(self, other: "CohomologyProfile") -> "CohomologyProfile":
        return CohomologyProfile.of(self.entries + other.entries)

    def dimensions(self, rs: RootSystem) -> dict[int, int]:
        dims: dict[int, int] = {}
        for d, hw, m in self.entries:
            dims[d] = dims.get(d, 0) + m * weyl_dim(rs, hw)
        return dims

    def euler(self, rs: RootSystem) -> int:
        return sum((-1) ** d * n for d, n in self.dimensions(rs).items())


class BottOutcome(Value):
    """Result of the dot-action normal form: singular, or (w, nu) with
    w(lam+rho) = nu+rho strictly dominant."""

    _fields = ("singular", "w", "nu")
    _defaults = {"w": None, "nu": None}


_SINGULAR = BottOutcome(singular=True)
_ZERO = CohomologyProfile(())


#: One entry per Weyl chamber met so far: (rs, signs) -> (w, matrix of w),
#: where signs[k] says whether mu = lam+rho pairs negatively with the k-th
#: positive coroot.  The signs fix the chamber of a regular mu and so the one
#: Weyl element taking mu into the dominant chamber (Humphreys, *Reflection
#: Groups and Coxeter Groups*, section 1.12).
_CHAMBERS: dict[tuple[RootSystem, tuple[bool, ...]], tuple[WeylElement, tuple]] = {}


def _dominant_image(rs: RootSystem, lam: Weight) -> Optional[tuple[WeylElement, Weight]]:
    """(w, nu) with w(lam+rho) = nu+rho strictly dominant, or None if singular.

    The coordinates of mu = lam+rho are its simple-coroot pairings (rho is
    all ones in fundamental-weight coordinates), so a zero coordinate makes
    lam singular before the other positive coroots are paired.  Otherwise lam
    is singular exactly when some positive coroot pairs to zero with mu.

    A regular mu runs the dominance walk only on the first weight of its
    chamber: the walk's word must have one letter per negative pairing, or
    ``IntegrityError`` is raised, and the element is stored with its matrix.
    Every weight, the first included, is then mapped by that matrix, and its
    image must be strictly dominant, or ``IntegrityError`` is raised.  Only
    one Weyl element makes a regular weight dominant, so this check verifies
    the stored entry in full.
    """
    mu = tuple([c + 1 for c in lam])
    if 0 in mu:
        return None
    pairings = rs.coroot_pairings(mu)
    if 0 in pairings:
        return None
    key = (rs, tuple([p < 0 for p in pairings]))
    entry = _CHAMBERS.get(key)
    if entry is None:
        w = rs.to_dominant(mu)[1]
        if w.length != key[1].count(True):
            raise IntegrityError("dot-normal form length mismatch")
        entry = _CHAMBERS[key] = (w, w.matrix)
    w, matrix = entry
    nu = tuple([sum(map(mul, row, mu)) - 1 for row in matrix])
    if nu and min(nu) < 0:
        raise IntegrityError(f"chamber element {w.word} leaves {lam} non-dominant")
    return w, nu


def _normalize(rs: RootSystem, lam: Weight) -> BottOutcome:
    """Normalize lam under the dot action w.lam = w(lam+rho)-rho.

    One walk per Weyl chamber, every image checked: see ``_dominant_image``.
    ``dot_normalize`` is this kernel behind an ``lru_cache``.
    """
    image = _dominant_image(rs, lam)
    if image is None:
        return _SINGULAR
    return BottOutcome(False, *image)


dot_normalize = lru_cache(maxsize=None)(_normalize)


@lru_cache(maxsize=None)
def line_cohomology(rs: RootSystem, lam: Weight) -> CohomologyProfile:
    """Bott cohomology of the line bundle O(lam) on the full flag variety.

    Reads the chamber kernel behind ``dot_normalize`` directly and builds no
    ``BottOutcome``, so a miss passes through this one cache only.  A
    singular weight gets the shared zero profile; a regular one its Weyl
    module in degree len(w).
    """
    image = _dominant_image(rs, lam)
    if image is None:
        return _ZERO
    return CohomologyProfile(((len(image[0].word), image[1], 1),))


@lru_cache(maxsize=None)
def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam (Weyl formula).

    Raises ``ValueError`` when lam is not dominant and ``IntegrityError``
    when the Weyl quotient is not an integer; both checks run on every miss.
    The rho-shift adds 1 to every coordinate (rho is all ones in
    fundamental-weight coordinates).
    """
    if lam and min(lam) < 0:
        raise ValueError(f"{lam} is not dominant")
    num = prod(rs.coroot_pairings(tuple([c + 1 for c in lam])))
    dim, rem = divmod(num, rs.weyl_denominator)
    if rem:
        raise IntegrityError("Weyl dimension did not come out integral")
    return dim


class FilteredResult(Value):
    """Outcome of evaluating a filtered bundle through its graded pieces.

    ``pieces`` is the E1 page, one ``(weight, profile, multiplicity)`` entry
    per distinct filtration weight, in filtration order of first occurrence:
    the piece's exact profile and the number of filtration steps with that
    weight.  ``determined`` means the spectral sequence cannot connect any
    two of the pieces it stands for (their nonzero degrees are pairwise >= 2
    apart), so the union is the answer.
    """

    _fields = ("determined", "profile", "pieces")

    @property
    def is_zero(self) -> bool:
        return self.determined and self.profile.is_zero


def combine_pieces(
    labeled: Sequence[tuple[object, CohomologyProfile, int]],
) -> FilteredResult:
    """Combine exact piece profiles under the degree-gap determinacy rule.

    Each entry ``(label, profile, m)`` stands for m equal pieces.  Determined
    iff (a) all pieces vanish, (b) exactly one piece is nonzero, or (c) the
    occupied degrees of distinct nonzero pieces are pairwise separated by at
    least 2.  So a nonzero entry with m >= 2, whose copies share their
    degrees, is indeterminate, exactly as its m copies would be.  Anything
    else is honestly Indeterminate.
    """
    pieces = tuple(labeled)
    nonzero = [(p, m) for _, p, m in pieces if p.entries]
    if not nonzero:
        return FilteredResult(True, _ZERO, pieces)
    if len(nonzero) == 1 and nonzero[0][1] == 1:
        return FilteredResult(True, nonzero[0][0], pieces)
    for i, (p, m) in enumerate(nonzero):
        if m > 1:
            return FilteredResult(False, None, pieces)
        for q, _ in nonzero[i + 1 :]:
            for d1 in p.degrees():
                for d2 in q.degrees():
                    if abs(d1 - d2) < 2:
                        return FilteredResult(False, None, pieces)
    total = _ZERO
    for p, _ in nonzero:
        total = total.union(p)
    return FilteredResult(True, total, pieces)


def filtered_cohomology(rs: RootSystem, weights: Mapping[Weight, int]) -> FilteredResult:
    """Cohomology of a bundle with the given multiset of filtration weights.

    ``weights`` maps each line-bundle weight to its positive multiplicity, in
    filtration order of first occurrence, as ``bundles.weights`` returns it.
    Bott runs once per distinct weight, and ``combine_pieces`` sees one
    ``(weight, profile, multiplicity)`` piece per distinct weight, so a
    repeated nonzero weight (two pieces in one degree) is still
    indeterminate.
    """
    if not weights:
        raise ValueError("empty weight filtration is disallowed")
    labeled: list[tuple[Weight, CohomologyProfile, int]] = []
    for w, m in weights.items():
        if m < 1:
            raise ValueError(f"weight {w} has multiplicity {m}; it must be positive")
        labeled.append((w, line_cohomology(rs, w), m))
    return combine_pieces(labeled)


def euler_characteristic(rs: RootSystem, weights: Mapping[Weight, int]) -> int:
    """Signed Bott dimension sum over a weight multiset, each weight counted
    with its multiplicity; filtration-independent, always exact."""
    return sum(m * line_cohomology(rs, w).euler(rs) for w, m in weights.items())


def parabolic_cohomology(
    rs: RootSystem, levi_simples: frozenset[int] | set[int], lam: Weight
) -> CohomologyProfile:
    """Bott cohomology of the irreducible equivariant bundle E_lam on G/P.

    Agrees with line_cohomology on the flag variety but enters through the
    Levi highest weight, so results are certified exact with no filtration
    ambiguity.  Requires lam to be Levi-dominant.
    """
    for i in levi_simples:
        if rs.pairing(lam, rs.simple_roots[i]) < 0:
            raise ValueError(f"{lam} is not dominant for the Levi root alpha_{i}")
    return line_cohomology(rs, lam)


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
