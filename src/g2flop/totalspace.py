"""Ext computations over the total space of O(-h-H) on the flag variety.

Objects supported on the zero section are represented by their flag-variety
bundle data.  Write pi: V -> F for the projection, i: F -> V for the zero
section and N = O(-H-h) for its normal bundle.  Tensored with pi^*A, the
two-term Koszul resolution of the zero section reads

    0 -> pi^*(A ⊗ N^∨) -> pi^*A -> i_*A -> 0,

and pi o i = id gives hom_V(pi^*C, i_*B) = hom_F(C, B).  So for bundles A and
B the graded hom(i_*A, i_*B) is assembled from

    p0 = H^*(F, A' ⊗ B)            at its native degrees (from pi^*A),
    p1 = H^*(F, A' ⊗ B ⊗ O(-H-h))  shifted up by one (from pi^*(A ⊗ N^∨),
                                   which the resolution puts in degree -1),

and the two terms split.  Applying RHom_V(-, i_*B) to the resolution gives
a triangle whose map RHom_F(A, B) -> RHom_F(A ⊗ N^∨, B) is multiplication
by the tautological section on the zero section, where it vanishes.  So the
triangle splits: hom_v is determined exactly when both terms are, and its
profile is their plain union, p1 one degree up, with no judge.  The rule
holds on V = Tot(N) only; the filtration and extension routes on F judge
their pieces by ``combine_pieces``.  The test
``test_the_twisted_koszul_term_sits_one_degree_up`` pins the [0, 1]
placement: hom(O, O(-H-h)) = k[-7], where a twisted term shifted down would
give k[-5].  ``test_serre_duality_holds_over_the_pool`` checks the placement
against Serre duality on V, Ext^n(A, B) = Ext^(7-n)(B, A ⊗ omega_V), over
the benchmark's query pool; with the twisted term one degree down, the
identity breaks.

``hom_v`` answers each ``(root system, A' ⊗ B)`` once: pairs with equal
A' ⊗ B share one memoized result, in a cache that is unbounded like the Bott
caches.  Failures are not memoized, so a failing pair raises again on every
call.  Both terms reach ``flag_cohomology`` with the factors of A' ⊗ B, the
second with its twist shifted, so they share the factor tuple's twist-free
memos in ``bundles``, and route B's pushforward memo, per summand and fiber
degree, wherever their summands meet.

N = O(-H-h) is the one literal here: omega_V, which the Serre rotations of
the replay twist by, is derived from it by ``omega_v``.
"""

from __future__ import annotations

from functools import lru_cache

from .bundles import (
    BundleExpr,
    Dual,
    Factor,
    Line,
    Tensor,
    det_weight,
    flag_cohomology,
)
from .rootdata import RootSystem, Value, Weight, wadd, wneg
from .weylbott import CohomologyProfile, Piece, weyl_dim

#: the normal bundle of the zero section, N = O(-H-h), which twists the
#: Koszul term; it equals omega_V = omega_F - N only because omega_F = 2N
NORMAL_BUNDLE_TWIST: Weight = (-1, -1)


class HomVResult(Value):
    """Graded Hom over the total space between two zero-section bundles.

    ``profile`` is None when either Koszul term, ``p0`` or ``p1``, is
    indeterminate.
    """

    _fields = ("profile", "p0", "p1", "euler")

    @property
    def determined(self) -> bool:
        return self.profile is not None


def hom_v(rs: RootSystem, a: BundleExpr, b: BundleExpr) -> HomVResult:
    """hom over the total space from A to B (both pushed from the flag).

    The answer depends only on A' ⊗ B, so it is memoized per ``(rs, factors,
    twist)`` of A' ⊗ B: pairs with equal A' ⊗ B share one result, in an
    unbounded memo like ``flag_cohomology``'s.  A failure is not memoized: the
    next call evaluates again and raises again.
    """
    pair = Tensor(Dual(a), b)
    return _hom_v(rs, pair.factors, pair.twist)


@lru_cache(maxsize=None)
def _hom_v(
    rs: RootSystem, factors: tuple[Factor, ...], twist: Weight
) -> HomVResult:
    # Keyed by the flat fields, never the BundleExpr value, whose hash and
    # equality run in Python.
    r0 = flag_cohomology(rs, BundleExpr(factors, twist))
    r1 = flag_cohomology(rs, BundleExpr(factors, wadd(twist, NORMAL_BUNDLE_TWIST)))
    # The E1 pieces are the distinct filtration weights' Bott profiles with
    # their multiplicities, so this is the Euler characteristic of each term.
    chi = _e1_euler(rs, r0.e1) - _e1_euler(rs, r1.e1)
    profile = None
    if r0.determined and r1.determined:
        # The Koszul map is zero, so the two terms split: a plain union.
        twisted = tuple([(d + 1, hw, m) for d, hw, m in r1.profile.entries])
        profile = CohomologyProfile.of(r0.profile.entries + twisted)
    return HomVResult(profile, r0, r1, chi)


def _e1_euler(rs: RootSystem, e1: tuple[Piece, ...]) -> int:
    """The Euler characteristic of an E1 page: each entry (d, hw, k) of a
    piece of multiplicity m adds (-1)^d m k dim V(hw)."""
    return sum(
        (-m * k if d & 1 else m * k) * weyl_dim(rs, hw)
        for _, p, m in e1
        for d, hw, k in p.entries
    )


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


def omega_v(rs: RootSystem) -> Weight:
    """omega_V, the canonical weight of V = Tot(N), derived from N."""
    return total_space_canonical(rs, "F", Dual(Line(*NORMAL_BUNDLE_TWIST)))[0]
