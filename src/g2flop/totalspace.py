"""Ext computations over the total space of O(-h-H) on the flag variety.

Objects supported on the zero section are represented by their flag-variety
bundle data.  Hom complexes are computed through the hard-coded two-term
Koszul resolution of the structure sheaf of the zero section: for bundles A
and B the graded Hom is assembled from

    p0 = H^*(F, A' ⊗ B)            at its native degrees,
    p1 = H^*(F, A' ⊗ B ⊗ O(-H-h))  shifted up by one,

combined under the same degree-gap determinacy rule as filtrations (the
connecting differential is never computed; gaps >= 2 make it irrelevant).
The [0, 1] placement of the complex is pinned by the requirement that
hom(U'(-h), U) come out as k in degree 1.
"""

from __future__ import annotations

from .bundles import (
    BundleExpr,
    Dual,
    Tensor,
    Twist,
    det_weight,
    flag_cohomology,
    normalize,
)
from .rootdata import RootSystem, Value, Weight, wadd, wneg
from .weylbott import CohomologyProfile, combine_pieces

#: canonical weight of the ambient total space: omega_V = O(-H-h)
TOTAL_SPACE_CANONICAL_TWIST: Weight = (-1, -1)

#: the graded Homs that certificates require: 0, k and k[-1]; an exceptional
#: object has self-Hom exactly K
ZERO = CohomologyProfile.zero()
K = CohomologyProfile(((0, (0, 0), 1),))
K1 = CohomologyProfile(((1, (0, 0), 1),))


class HomVResult(Value):
    """Graded Hom over the total space between two zero-section bundles."""

    _fields = ("determined", "profile", "p0", "p1", "euler")

    @property
    def is_zero(self) -> bool:
        return self.determined and self.profile.is_zero

    def dimensions(self, rs: RootSystem) -> dict[int, int]:
        return self.profile.dimensions(rs) if self.determined else {}


def hom_v(rs: RootSystem, a: BundleExpr, b: BundleExpr) -> HomVResult:
    """hom over the total space from A to B (both pushed from the flag)."""
    pair = normalize(Tensor(Dual(a), b))
    term0 = pair
    term1 = Twist(pair, *TOTAL_SPACE_CANONICAL_TWIST)
    r0 = flag_cohomology(rs, term0)
    r1 = flag_cohomology(rs, term1)
    # The E1 pieces are the distinct filtration weights' Bott profiles with
    # their multiplicities, so this is the Euler characteristic of each term.
    chi = sum(m * p.euler(rs) for _, p, m in r0.e1) - sum(
        m * p.euler(rs) for _, p, m in r1.e1
    )
    if not (r0.determined and r1.determined):
        return HomVResult(False, None, r0, r1, chi)
    combined = combine_pieces(
        [("native", r0.profile, 1), ("twisted", r1.profile.shift(1), 1)]
    )
    if not combined.determined:
        return HomVResult(False, None, r0, r1, chi)
    return HomVResult(True, combined.profile, r0, r1, chi)


# --- canonical bundles of total spaces ---------------------------------------


def base_canonical_weight(rs: RootSystem, base: str) -> Weight:
    """omega of the flag variety or of either Grassmannian quotient.

    For a parabolic quotient this is minus the sum of the positive roots
    outside the Levi.
    """
    levi: frozenset[int]
    if base == "F":
        levi = frozenset()
    elif base == "G":
        levi = frozenset({1})
    elif base == "Q":
        levi = frozenset({0})
    else:
        raise ValueError(f"unknown base {base!r}; expected F, G or Q")
    total = (0,) * rs.rank
    for alpha in rs.positive_roots:
        if alpha.simple_coords in {
            rs.simple_roots[i].simple_coords for i in levi
        }:
            continue
        total = wadd(total, alpha.weight_coords)
    return wneg(total)


def total_space_canonical(
    rs: RootSystem, base: str, fiber_bundle: BundleExpr
) -> tuple[Weight, bool]:
    """Canonical weight of the total space of the DUAL of ``fiber_bundle``.

    omega_total = pullback of omega_base tensor det(fiber_bundle); the space
    is Calabi-Yau exactly when the weight vanishes.
    """
    omega = wadd(base_canonical_weight(rs, base), det_weight(rs, fiber_bundle))
    return omega, all(c == 0 for c in omega)
