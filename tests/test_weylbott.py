"""Bott cohomology, Weyl dimensions and the filtration determinacy rule."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from g2flop import weylbott
from g2flop.rootdata import (
    G2_CARTAN,
    IntegrityError,
    RootSystem,
    WeylElement,
    build_root_system,
    g2,
    g2_flipped,
)
from g2flop.weylbott import (
    CohomologyProfile,
    dot_normalize,
    euler_characteristic,
    filtered_cohomology,
    line_cohomology,
    parabolic_cohomology,
    weyl_dim,
)

RS = g2()


def oracle_weyl_dim(lam):
    """Weyl product formula from the hand-computed G2 pairing table.

    For mu = (m0, m1) the coroot pairings over the six positive roots are
    m0, m1, 3m0+m1, 3m0+2m1, m0+m1, 2m0+m1; at rho they are 1,1,4,5,2,3.
    """
    m0, m1 = lam[0] + 1, lam[1] + 1
    nums = [m0, m1, 3 * m0 + m1, 3 * m0 + 2 * m1, m0 + m1, 2 * m0 + m1]
    dens = [1, 1, 4, 5, 2, 3]
    prod_n = prod_d = 1
    for n, d in zip(nums, dens):
        prod_n *= n
        prod_d *= d
    assert prod_n % prod_d == 0
    return prod_n // prod_d


def test_dot_normalize_pinned():
    out = dot_normalize(RS, (-2, 3))
    assert not out.singular
    assert out.w.word == (0,)
    assert out.nu == (0, 0)


def test_dot_normalize_dominant_is_identity():
    for lam in [(0, 0), (3, 1), (5, 7)]:
        out = dot_normalize(RS, lam)
        assert not out.singular
        assert out.w.length == 0
        assert out.nu == lam


def test_dot_normalize_origin_is_singular():
    assert dot_normalize(RS, (-1, -1)).singular


def test_dot_normalize_element_actually_normalizes():
    rng = random.Random(19)
    for _ in range(150):
        lam = (rng.randint(-8, 8), rng.randint(-8, 8))
        out = dot_normalize(RS, lam)
        if not out.singular:
            shifted = (lam[0] + 1, lam[1] + 1)
            target = (out.nu[0] + 1, out.nu[1] + 1)
            assert out.w.apply(shifted) == target


def test_projective_line_oracle():
    # A1 Bott is classical: O(n) on the projective line has sections of
    # dimension n+1, nothing for n = -1, and H^1 of dimension -n-1 below.
    a1 = build_root_system([[2]])
    for n in range(0, 8):
        assert line_cohomology(a1, (n,)).dimensions(a1) == {0: n + 1}
    assert line_cohomology(a1, (-1,)).is_zero
    for n in range(-8, -1):
        assert line_cohomology(a1, (n,)).dimensions(a1) == {1: -n - 1}


def test_full_flag_of_sl3_oracle():
    # On the flag variety of A2: O(a,b) with a,b >= 0 has sections of
    # dimension (a+1)(b+1)(a+b+2)/2 in degree 0 and nothing else, and the
    # canonical twist O(-2,-2)-shifted Serre partner lands in degree 3.
    a2 = build_root_system([[2, -1], [-1, 2]])
    for a in range(0, 5):
        for b in range(0, 5):
            dim = (a + 1) * (b + 1) * (a + b + 2) // 2
            assert line_cohomology(a2, (a, b)).dimensions(a2) == {0: dim}
            dual = (-2 - a, -2 - b)
            assert line_cohomology(a2, dual).dimensions(a2) == {3: dim}


def test_dot_normalize_rejects_a_length_mismatch(monkeypatch):
    rs = build_root_system(RS.cartan)
    monkeypatch.setattr(RootSystem, "coroot_pairings", lambda self, mu: (-1,) * 6)
    with pytest.raises(RuntimeError, match="length mismatch"):
        dot_normalize(rs, (-2, 3))


def test_line_cohomology_rejects_a_length_mismatch(monkeypatch):
    # line_cohomology reaches the kernel without going through the
    # dot_normalize cache; the walk-length check must hold on that path too.
    rs = build_root_system(RS.cartan)
    monkeypatch.setattr(RootSystem, "coroot_pairings", lambda self, mu: (-1,) * 6)
    with pytest.raises(IntegrityError, match="length mismatch"):
        line_cohomology(rs, (-2, 3))


CHAMBER_BOXES = {
    "G2": (G2_CARTAN, 10),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), 3),
    "F4": (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 2),
}


def _chambers_of(rs):
    return {key: entry for key, entry in weylbott._CHAMBERS.items() if key[0] is rs}


@pytest.mark.parametrize("name", sorted(CHAMBER_BOXES))
def test_chamber_table_agrees_with_a_walk_per_weight(name):
    # A fresh system starts with empty caches and no chambers, so every
    # chamber's first weight takes the walk and every later one the stored
    # matrix; both must give what a direct dominance walk gives.
    cartan, half = CHAMBER_BOXES[name]
    rs = build_root_system(cartan)
    box = range(-half, half + 1)
    for lam in product(box, repeat=rs.rank):
        mu = tuple(c + 1 for c in lam)
        out = dot_normalize(rs, lam)
        profile = line_cohomology(rs, lam)
        if 0 in rs.coroot_pairings(mu):
            assert out.singular and profile.is_zero
            continue
        top, w = rs.to_dominant(mu)
        nu = tuple(c - 1 for c in top)
        assert (out.w, out.nu) == (w, nu)
        assert profile == CohomologyProfile(((w.length, nu, 1),))
    chambers = _chambers_of(rs)
    assert 1 < len(chambers) <= rs.weyl_order
    if name == "G2":
        assert len(chambers) == rs.weyl_order


def test_a_corrupted_chamber_entry_is_refused():
    # Negative control: a stored element of the right length but the wrong
    # chamber sends the next weight of that chamber out of the dominant
    # chamber, on both faces of the kernel.
    rs = build_root_system(G2_CARTAN)
    assert line_cohomology(rs, (-2, 3)).degrees() == (1,)
    (key, (w, _)), = _chambers_of(rs).items()
    assert w.word == (0,)
    wrong = WeylElement((1,), rs)
    weylbott._CHAMBERS[key] = (wrong, wrong.matrix)
    same = [
        lam
        for lam in product(range(-8, 9), repeat=2)
        if lam != (-2, 3)
        and tuple(p < 0 for p in rs.coroot_pairings((lam[0] + 1, lam[1] + 1)))
        == key[1]
        and 0 not in rs.coroot_pairings((lam[0] + 1, lam[1] + 1))
    ]
    assert len(same) >= 2
    with pytest.raises(IntegrityError, match="non-dominant"):
        line_cohomology(rs, same[0])
    with pytest.raises(IntegrityError, match="non-dominant"):
        dot_normalize(rs, same[1])


def test_weyl_dim_rejects_a_non_integral_quotient():
    # A corrupted denominator must raise, not round: 7 * 120 is no multiple
    # of 11 * 120.
    rs = build_root_system(RS.cartan)
    bad = build_root_system(RS.cartan)
    object.__setattr__(bad, "weyl_denominator", 11 * rs.weyl_denominator)
    assert weyl_dim(rs, (0, 1)) == 7
    with pytest.raises(RuntimeError, match="integral"):
        weyl_dim(bad, (0, 1))


def test_dot_normalize_length_counts_negative_pairings():
    rng = random.Random(7)
    for _ in range(200):
        lam = (rng.randint(-8, 8), rng.randint(-8, 8))
        out = dot_normalize(RS, lam)
        shifted = (lam[0] + 1, lam[1] + 1)
        pairings = RS.coroot_pairings(shifted)
        if out.singular:
            assert 0 in pairings
        else:
            assert out.w.length == sum(1 for p in pairings if p < 0)
            assert RS.is_dominant(out.nu)


def test_line_cohomology_trivial_bundle():
    assert line_cohomology(RS, (0, 0)) == CohomologyProfile(((0, (0, 0), 1),))


def test_line_cohomology_k_minus_one_vector():
    # O(3h-2H) has exactly k in degree 1: the convention-pinning test vector.
    assert line_cohomology(RS, (-2, 3)) == CohomologyProfile(((1, (0, 0), 1),))


def test_line_cohomology_k_minus_one_fails_under_flipped_convention():
    flipped = g2_flipped()
    assert line_cohomology(flipped, (-2, 3)) != CohomologyProfile(((1, (0, 0), 1),))


@pytest.mark.parametrize("t", range(-10, 11))
def test_line_cohomology_acyclic_families(t):
    assert line_cohomology(RS, (t, -1)).is_zero  # tH - h
    assert line_cohomology(RS, (-1, t)).is_zero  # th - H


def test_line_cohomology_more_acyclic_lines():
    assert line_cohomology(RS, (-2, 0)).is_zero  # -2H
    assert line_cohomology(RS, (-2, 2)).is_zero  # 2h-2H


def test_bott_shape_single_degree():
    for a in range(-6, 7):
        for b in range(-6, 7):
            prof = line_cohomology(RS, (a, b))
            assert len(prof.entries) <= 1


KERNEL_BOXES = {
    "G2": (RS.cartan, 10),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), 3),
    "F4": (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 2),
}


@pytest.mark.parametrize("name", sorted(KERNEL_BOXES))
def test_line_cohomology_and_dot_normalize_agree_on_a_box(name):
    # line_cohomology and dot_normalize share one uncached kernel behind two
    # caches.  Over every weight of the box, from empty caches: the profile is
    # the one dot_normalize's outcome describes, singular means a zero coroot
    # pairing of lam+rho (the zero-coordinate early exit included), and a
    # regular outcome really normalizes, with length = negative pairings.
    cartan, r = KERNEL_BOXES[name]
    rs = build_root_system(cartan)
    line_cohomology.cache_clear()
    dot_normalize.cache_clear()
    singular = 0
    for lam in product(range(-r, r + 1), repeat=rs.rank):
        profile = line_cohomology(rs, lam)
        out = dot_normalize(rs, lam)
        mu = tuple(c + 1 for c in lam)
        pairings = rs.coroot_pairings(mu)
        assert out.singular == (0 in pairings)
        if out.singular:
            singular += 1
            assert profile == CohomologyProfile(())
            continue
        assert profile == CohomologyProfile(((out.w.length, out.nu, 1),))
        top = tuple(c + 1 for c in out.nu)
        assert out.w.apply(mu) == top
        assert min(top) > 0
        assert out.w.length == sum(1 for p in pairings if p < 0)
    assert 0 < singular < (2 * r + 1) ** rs.rank


def test_singular_weights_share_one_outcome_and_one_zero_profile():
    rs = build_root_system(RS.cartan)
    assert dot_normalize(rs, (-1, 0)) is dot_normalize(rs, (-2, 1))
    assert line_cohomology(rs, (-1, 0)) is line_cohomology(rs, (-2, 1))
    assert line_cohomology(rs, (-1, 0)) is CohomologyProfile.zero()


def test_weyl_dim_pinned_values():
    assert weyl_dim(RS, (0, 1)) == 7
    assert weyl_dim(RS, (0, 0)) == 1
    assert weyl_dim(RS, (1, 1)) == 64
    assert weyl_dim(RS, (1, 0)) == 14


def test_weyl_dim_at_rho_is_two_to_the_six():
    # lam = rho doubles every rho-pairing, so the product is 2^6.
    assert weyl_dim(RS, (1, 1)) == 2**6


def test_weyl_dim_matches_oracle():
    for a in range(0, 7):
        for b in range(0, 7):
            assert weyl_dim(RS, (a, b)) == oracle_weyl_dim((a, b))


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(RS, (-1, 0))


def test_borel_weil_consistency():
    for a in range(0, 6):
        for b in range(0, 6):
            prof = line_cohomology(RS, (a, b))
            assert prof.dimensions(RS) == {0: weyl_dim(RS, (a, b))}


def test_filtered_u_twisted_by_h():
    res = filtered_cohomology(RS, Counter([(-1, 2), (0, 0)]))
    assert res.determined
    assert res.profile == CohomologyProfile(((0, (0, 0), 1),))


def test_filtered_u_tensor_u_twisted_by_h():
    res = filtered_cohomology(RS, Counter([(-2, 3), (-1, 1), (-1, 1), (0, -1)]))
    assert res.determined
    assert res.profile == CohomologyProfile(((1, (0, 0), 1),))


def test_filtered_u_tensor_u_dual_is_indeterminate():
    res = filtered_cohomology(RS, Counter([(0, 0), (0, 0), (-1, 2), (1, -2)]))
    assert not res.determined
    degree_hits = [(p.degrees(), m) for _, p, m in res.pieces if not p.is_zero]
    assert sorted(degree_hits) == [((0,), 2), ((1,), 1)]
    assert [(w, m) for w, _, m in res.pieces if w == (0, 0)] == [((0, 0), 2)]


def test_filtered_acyclic_bundle():
    res = filtered_cohomology(RS, Counter([(-3, 1), (-2, -1)]))
    assert res.determined and res.profile.is_zero


def test_filtered_rejects_empty():
    with pytest.raises(ValueError):
        filtered_cohomology(RS, Counter([]))


@pytest.mark.parametrize("mult", [0, -1])
def test_filtered_rejects_non_positive_multiplicities(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        filtered_cohomology(RS, {(0, 0): 1, (1, 1): mult})


def test_filtered_euler_matches_signed_sum():
    rng = random.Random(11)
    for _ in range(100):
        ws = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        ]
        res = filtered_cohomology(RS, Counter(ws))
        chi = euler_characteristic(RS, Counter(ws))
        if res.determined:
            assert res.profile.euler(RS) == chi


def test_parabolic_p1_sections():
    for m, k in product(range(0, 4), range(0, 4)):
        prof = parabolic_cohomology(RS, {1}, (m + k, m))
        assert prof == CohomologyProfile(((0, (m + k, m), 1),))


def test_parabolic_p1_wall():
    assert parabolic_cohomology(RS, {1}, (-1, 2)).is_zero


def test_parabolic_p2_trivial():
    assert parabolic_cohomology(RS, {0}, (0, 0)) == CohomologyProfile(((0, (0, 0), 1),))


def test_parabolic_rejects_non_levi_dominant():
    with pytest.raises(ValueError):
        parabolic_cohomology(RS, {1}, (0, -1))


def test_serre_duality_degree_flip():
    # H^d(O(lam)) and H^(6-d)(O(-2rho - lam)) have equal dimensions.
    for a in range(-6, 7):
        for b in range(-6, 7):
            lam = (a, b)
            left = line_cohomology(RS, lam).dimensions(RS)
            partner = tuple(-2 - c for c in lam)
            right = line_cohomology(RS, partner).dimensions(RS)
            assert left == {6 - d: n for d, n in right.items()}


def test_route_a_route_b_on_parabolic_strings():
    # A Levi-dominant weight's full alpha2-string, evaluated as a filtration,
    # must agree with the parabolic answer whenever it is determined.
    alpha2 = RS.simple_roots[1].weight_coords
    for a in range(-4, 5):
        for b in range(0, 5):
            string = [
                (a - j * alpha2[0], b - j * alpha2[1]) for j in range(0, b + 1)
            ]
            res = filtered_cohomology(RS, Counter(string))
            exact = parabolic_cohomology(RS, {1}, (a, b))
            if res.determined:
                assert res.profile == exact
