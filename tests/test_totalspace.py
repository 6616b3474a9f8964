"""Ext groups over the total space and canonical-bundle checks."""

from __future__ import annotations

import random

import pytest

from g2flop import bundles, totalspace
from g2flop.bundles import (
    Dual,
    IrrP1,
    IrrP2,
    Line,
    Spinor,
    Tensor,
    Twist,
    Universal,
    flag_cohomology,
    parse_expr,
    route_b_cohomology,
    weights,
)
from g2flop.rootdata import g2
from g2flop.totalspace import (
    NORMAL_BUNDLE_TWIST,
    base_canonical_weight,
    hom_v,
    omega_v,
    total_space_canonical,
)
from g2flop.weylbott import K, K1, ZERO, CohomologyProfile, euler_characteristic
from tests.test_bundles import forget_memos, random_expr

RS = g2()

U = Universal()
U_DUAL_MINUS_H = Twist(Dual(Universal()), 0, -1)


def test_hom_to_u_is_k_in_degree_one():
    res = hom_v(RS, U_DUAL_MINUS_H, U)
    assert res.determined
    assert res.profile == K1  # k[-1]
    # the native term carries it; the twisted term vanishes
    assert res.p0.profile == K1
    assert res.p1.profile.is_zero


def test_hom_to_structure_sheaf_is_k():
    res = hom_v(RS, U_DUAL_MINUS_H, Line(0, 0))
    assert res.determined
    assert res.profile == K


def test_right_orthogonality_to_minus_H():
    res1 = hom_v(RS, Line(0, -1), Line(-1, 0))
    assert res1.determined and res1.profile.is_zero
    res2 = hom_v(RS, U_DUAL_MINUS_H, Line(-1, 0))
    assert res2.determined and res2.profile.is_zero


def test_hom_between_late_lines_vanishes():
    res = hom_v(RS, Line(1, -2), Line(0, 1))
    assert res.determined and res.profile.is_zero


def test_structure_sheaf_self_hom():
    res = hom_v(RS, Line(0, 0), Line(0, 0))
    assert res.determined
    assert res.profile == K
    assert res.p1.profile.is_zero  # (-1,-1)+rho = 0 sits on every wall


def test_twist_covariance():
    rng = random.Random(23)
    pairs = [
        (U_DUAL_MINUS_H, U),
        (Line(0, 0), U),
        (Line(1, -2), Line(0, 1)),
        (U, Dual(U)),
    ]
    for a, b in pairs:
        base = hom_v(RS, a, b)
        for _ in range(5):
            ta, tb = rng.randint(-3, 3), rng.randint(-3, 3)
            twisted = hom_v(RS, Twist(a, ta, tb), Twist(b, ta, tb))
            assert twisted.determined == base.determined
            if base.determined:
                assert twisted.profile == base.profile
            assert twisted.euler == base.euler


def test_exceptional_line_bundles():
    for a in range(-2, 3):
        for b in range(-2, 3):
            res = hom_v(RS, Line(a, b), Line(a, b))
            assert res.determined and res.profile == K


def test_exceptional_u_and_dual_via_route_b():
    for e in [U, Dual(U), Twist(Dual(U), 1, 0), Twist(U, 0, -1)]:
        res = hom_v(RS, e, e)
        assert res.determined
        assert res.profile == K
        assert res.p0.route == "parabolic"


def test_spinor_self_hom_is_indeterminate():
    res = hom_v(RS, Spinor(), Spinor())
    assert not res.determined
    assert res.euler == 1  # E1 carries k+k in degree 0 and k in degree 1


def test_euler_is_filtration_independent():
    rng = random.Random(29)
    for _ in range(40):
        a = Twist(U, rng.randint(-2, 2), rng.randint(-2, 2))
        b = Twist(Dual(U), rng.randint(-2, 2), rng.randint(-2, 2))
        res = hom_v(RS, a, b)
        if res.determined:
            assert res.profile.euler(RS) == res.euler


def test_euler_is_the_signed_bott_sum_of_both_koszul_terms():
    # hom_v reads chi off the E1 pieces; the reference sums Bott over the
    # weight multisets of the two Koszul terms.
    rng = random.Random(41)
    atoms = [U, Dual(U), Spinor(), IrrP1(1, 1), IrrP2(1, 0), Line(0, 0)]
    for _ in range(60):
        a = Twist(rng.choice(atoms), rng.randint(-2, 2), rng.randint(-2, 2))
        b = Tensor(rng.choice(atoms), rng.choice(atoms))
        pair = Tensor(Dual(a), b)
        chi = euler_characteristic(RS, weights(RS, pair)) - euler_characteristic(
            RS, weights(RS, Twist(pair, *NORMAL_BUNDLE_TWIST))
        )
        assert hom_v(RS, a, b).euler == chi


def shifted_union(
    native: CohomologyProfile, twisted: CohomologyProfile, shift: int = 1
):
    """The native term with the twisted term ``shift`` degrees up, built here
    so that the tests do not read hom_v's own union."""
    return CohomologyProfile.of(
        [*native.entries, *((d + shift, hw, m) for d, hw, m in twisted.entries)]
    )


def test_long_product_keeps_one_e1_piece_per_distinct_weight():
    # U^22 has 4,194,304 filtration weights but 23 distinct ones; the E1
    # page, and chi read off it, must not expand them.  U'^22(h) is
    # one-sided, so route B gives both Koszul terms independently.
    a = parse_expr("*".join(["U"] * 22))
    res = hom_v(RS, a, parse_expr("O(h)"))
    pair = Tensor(Dual(a), parse_expr("O(h)"))
    native = route_b_cohomology(RS, pair)
    twisted = route_b_cohomology(RS, Twist(pair, *NORMAL_BUNDLE_TWIST))
    assert native.degrees() == twisted.degrees() == (0,)
    assert res.determined and res.profile == shifted_union(native, twisted)
    assert res.euler == res.profile.euler(RS) == 305242308608
    assert len(res.p0.e1) == 23
    assert sum(m for _, _, m in res.p0.e1) == 2**22


def test_hom_v_splits_the_koszul_terms():
    # The Koszul map vanishes on the zero section, so hom_v is the plain
    # union of its terms, the twisted one a degree up, even where an equal
    # label sits in adjacent degrees of the two: V(2,3) and V(3,1) here.
    res = hom_v(RS, Spinor(), parse_expr("S*S(3H+3h)"))
    assert res.p0.determined and res.p1.determined
    native = {(d, hw) for d, hw, _ in res.p0.profile.entries}
    meets = sorted(
        (d, hw) for d, hw, _ in res.p1.profile.entries if (d, hw) in native
    )
    assert meets == [(0, (2, 3)), (0, (3, 1))]
    assert res.determined
    assert res.profile == shifted_union(res.p0.profile, res.p1.profile)
    assert res.profile.euler(RS) == res.euler == 143048


def test_hom_v_of_two_lines_in_adjacent_degrees_is_their_union():
    # The native term k[-6] and the twisted term V(1,1)[-6] one degree up.
    res = hom_v(RS, Line(0, 0), Line(-2, -2))
    assert (res.p0.profile, res.p1.profile) == (
        CohomologyProfile(((6, (0, 0), 1),)),
        CohomologyProfile(((6, (1, 1), 1),)),
    )
    assert res.profile == CohomologyProfile(((6, (0, 0), 1), (7, (1, 1), 1)))
    assert res.profile.euler(RS) == res.euler == -63


def test_the_twisted_koszul_term_sits_one_degree_up():
    # hom_V(O, O(-H-h)) has a zero native term, O(-H-h) being singular, and
    # the twisted term H^*(O(-2H-2h)) = k[-6].  The resolution puts that
    # term one degree up, k[-7]; the other placement would give k[-5].
    res = hom_v(RS, Line(0, 0), Line(-1, -1))
    assert res.p0.profile.is_zero
    assert res.p1.profile == CohomologyProfile(((6, (0, 0), 1),))
    assert res.profile == CohomologyProfile(((7, (0, 0), 1),))
    assert res.euler == -1


def _serre_partner(profile, top):
    """H^d moved to degree top - d, each label kept: w0 = -1 for G2, so
    every irreducible is self-dual.  None stays None."""
    if profile is None:
        return None
    return CohomologyProfile.of((top - d, hw, m) for d, hw, m in profile.entries)


def _twisted_term_one_degree_down(res):
    """The hom_v profile rebuilt from p0 and p1 with p1 one degree down."""
    if res.p0.determined and res.p1.determined:
        return shifted_union(res.p0.profile, res.p1.profile, shift=-1)
    return None


def test_serre_duality_holds_over_the_pool():
    # Serre duality on F (dimension 6, omega_F = O(-2H-2h)) and on V
    # (dimension 7, omega_V = O(-H-h)) for every parseable query of the
    # benchmark's pool: H^d(X) = H^(6-d)(X'(-2H-2h)) and
    # Ext^n_V(A,B) = Ext^(7-n)_V(B, A(-H-h)).  Where both sides are
    # determined they must agree, and no pair may be determined on one side
    # only.  Negative control: with the twisted Koszul term one degree down,
    # the homv identity breaks.
    from bench import oracle

    omega_f, omega = base_canonical_weight(RS, "F"), omega_v(RS)
    top = len(RS.positive_roots)
    agree = {"coh": 0, "homv": 0}
    neither = broken = 0
    for key, expected in oracle.load("queries.json").items():
        if expected == oracle.PARSE_ERROR:
            continue
        command, *texts = key.split("\t")
        exprs = [parse_expr(text) for text in texts]
        if command == "coh":
            (x,) = exprs
            left = flag_cohomology(RS, x).profile
            right = flag_cohomology(RS, Twist(Dual(x), *omega_f)).profile
            right = _serre_partner(right, top)
        else:
            a, b = exprs
            res, dual = hom_v(RS, a, b), hom_v(RS, b, Twist(a, *omega))
            left, right = res.profile, _serre_partner(dual.profile, top + 1)
            down = _twisted_term_one_degree_down(res)
            dual_down = _twisted_term_one_degree_down(dual)
            if down is not None and dual_down is not None:
                broken += down != _serre_partner(dual_down, top + 1)
        assert (left is None) == (right is None), key
        if left is None:
            neither += 1
        else:
            assert left == right, key
            agree[command] += 1
    assert (agree["coh"], agree["homv"], neither) == (2090, 1099, 127)
    assert broken == 1006


def test_hom_with_spinor_resolves_extension():
    # right orthogonality of the quadric-side collection to its twists
    for k in (1, 2, 3):
        res = hom_v(RS, Spinor(), Line(0, -k))
        assert res.determined and res.profile.is_zero
    res = hom_v(RS, Line(0, 0), Spinor())
    assert res.determined and res.profile.is_zero
    res = hom_v(RS, Line(0, 1), Spinor())
    assert res.determined and res.profile.is_zero


def test_parse_interface_round_trip():
    res = hom_v(RS, parse_expr("U'(-h)"), parse_expr("U"))
    assert res.profile == K1


# --- the hom_v memo ---------------------------------------------------------


def test_memoized_hom_is_the_fresh_one():
    rng = random.Random(47)
    with_spinor = 0
    for _ in range(150):
        a, b = random_expr(rng, max_rank=8), random_expr(rng, max_rank=8)
        with_spinor += any(f[0] == "S" for f in a.factors + b.factors)
        memoized = hom_v(RS, a, b)
        forget_memos()
        assert hom_v(RS, a, b) == memoized
    assert with_spinor > 30


def test_pairs_with_one_normal_form_share_one_answer():
    # A'⊗B is U'(h) for both pairs: one normal form, one entry.
    totalspace._hom_v.cache_clear()
    first = hom_v(RS, U, parse_expr("O(h)"))
    assert hom_v(RS, parse_expr("O(-h)"), parse_expr("U'")) is first
    info = totalspace._hom_v.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_hom_memo_keeps_the_factor_order():
    # hom(U, U) pairs U'*U and hom(U', U') pairs U*U': one answer, opposite
    # filtration orders, which a key that sorted the factors would mix up.
    order = {"U": [(0, 0), (1, -2), (-1, 2)], "U'": [(0, 0), (-1, 2), (1, -2)]}
    for texts in (["U", "U'"], ["U'", "U"]):
        totalspace._hom_v.cache_clear()
        for text in texts:
            e = parse_expr(text)
            res = hom_v(RS, e, e)
            assert res.profile == K
            assert [w for w, _, _ in res.p0.e1] == order[text]


def test_both_terms_share_the_twist_free_parts():
    # The native and the twisted term of hom(U, U(h)) have one factor
    # tuple, U'*U: the twisted term only shifts the twist.
    forget_memos()
    res = hom_v(RS, U, parse_expr("U(h)"))
    for memo in (bundles._product_weights, bundles._one_sided_shape):
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 1)
    forget_memos()
    twisted = flag_cohomology(RS, parse_expr("U'*U(-H)"))
    assert res.p1 == twisted


def test_hom_memo_stores_no_failure(monkeypatch):
    memo = totalspace._hom_v
    monkeypatch.setattr(
        bundles, "route_b_cohomology", lambda rs, e: ZERO
    )
    memo.cache_clear()
    bundles._evaluate.cache_clear()
    for _ in range(2):
        with pytest.raises(bundles.RouteMismatchError, match="routes disagree on U"):
            hom_v(RS, Line(0, 0), parse_expr("U(h)"))
    assert memo.cache_info().currsize == 0
    monkeypatch.undo()
    res = hom_v(RS, Line(0, 0), parse_expr("U(h)"))
    assert res.determined and res.profile == K
    assert memo.cache_info().currsize == 1


def test_base_canonical_weights():
    assert base_canonical_weight(RS, "F") == (-2, -2)
    assert base_canonical_weight(RS, "G") == (-3, 0)
    assert base_canonical_weight(RS, "Q") == (0, -5)
    with pytest.raises(ValueError):
        base_canonical_weight(RS, "X")


def test_canonical_twist_and_normal_bundle_are_pinned_apart():
    # V is the total space of N = O(-H-h), the dual of O(H+h), so
    # omega_V = omega_F - N; omega_V and N agree only because
    # omega_F = -2*rho = 2N on G2/B.
    omega = omega_v(RS)
    assert omega == total_space_canonical(RS, "F", Line(1, 1))[0] == (-1, -1)
    omega_f = base_canonical_weight(RS, "F")
    assert omega == tuple(f - n for f, n in zip(omega_f, NORMAL_BUNDLE_TWIST))
    assert NORMAL_BUNDLE_TWIST == (-1, -1)


def test_omega_v_is_derived_from_the_normal_bundle(monkeypatch):
    # Another N moves omega_V with it: omega_F - N, here (-2, -2) - (-1, 0).
    monkeypatch.setattr(totalspace, "NORMAL_BUNDLE_TWIST", (-1, 0))
    assert omega_v(RS) == (-1, -2)


def test_total_space_canonical_weights():
    omega, cy = total_space_canonical(RS, "F", Line(1, 1))
    assert omega == (-1, -1) and not cy
    omega, cy = total_space_canonical(RS, "G", IrrP1(1, 1))
    assert omega == (0, 0) and cy
    omega, cy = total_space_canonical(RS, "Q", IrrP2(1, 1))
    assert omega == (0, 0) and cy
