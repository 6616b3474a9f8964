"""Bundle DSL: weights, ranks, Clebsch-Gordan, evaluation routes, parser."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flop import bundles
from g2flop.bundles import (
    P1_LEVI,
    P2_LEVI,
    BundleError,
    Dual,
    IrrP1,
    IrrP2,
    Line,
    ParseError,
    Spinor,
    Sym,
    Tensor,
    Twist,
    Universal,
    det_weight,
    flag_cohomology,
    format_expr,
    levi_tensor,
    normal_factors,
    normalize,
    one_sided_form,
    parse_expr,
    rank,
    route_b_cohomology,
    weights,
)
from g2flop.rootdata import IntegrityError, g2
from g2flop.sodengine import k_class
from g2flop.weylbott import (
    CohomologyProfile,
    combine_pieces,
    euler_characteristic,
    filtered_cohomology,
    line_cohomology,
    weyl_dim,
)

RS = g2()

K = CohomologyProfile(((0, (0, 0), 1),))
K_SHIFT_1 = CohomologyProfile(((1, (0, 0), 1),))


def wmultiset(e):
    return Counter(weights(RS, e))


def test_universal_weights():
    assert wmultiset(Universal()) == Counter({(-1, 1): 1, (0, -1): 1})


def test_universal_equals_irrp1():
    assert wmultiset(Universal()) == wmultiset(IrrP1(-1, 1))


def test_dual_universal_is_irrp1_0_1():
    assert wmultiset(Dual(Universal())) == wmultiset(IrrP1(0, 1))


def test_spinor_weights_and_rank():
    assert rank(Spinor()) == 4
    expected = wmultiset(Universal()) + wmultiset(Twist(Dual(Universal()), 0, -1))
    assert wmultiset(Spinor()) == expected
    assert wmultiset(Spinor()) == Counter(
        {(-1, 1): 1, (0, -1): 1, (0, 0): 1, (1, -2): 1}
    )


def test_irrp2_kernel_bundle_rank_two():
    # the rank-2 bundle presenting the flag variety over the quadric
    assert rank(IrrP2(1, -3)) == 2
    assert wmultiset(IrrP2(1, -3)) == Counter({(1, -3): 1, (-1, 0): 1})


def test_irr_negative_levi_pairing_rejected():
    with pytest.raises(BundleError):
        weights(RS, IrrP1(0, -1))
    with pytest.raises(BundleError):
        weights(RS, IrrP2(-2, 0))


def test_sym_matches_irr():
    for m in range(1, 5):
        assert wmultiset(Sym(m, IrrP1(1, 1))) == wmultiset(IrrP1(m, m))
        assert rank(Sym(m, IrrP1(1, 1))) == m + 1


def test_sym_of_dual():
    assert wmultiset(Sym(2, Dual(Universal()))) == wmultiset(IrrP1(0, 2))


def test_sym_rejects_higher_rank():
    for e in [
        Sym(2, IrrP1(0, 2)),
        Sym(2, Spinor()),
        parse_expr("Sym^2 Sym^3 U"),
        parse_expr("Sym^2 S"),
        Sym(2, Tensor(Universal(), Universal())),
    ]:
        for read in (weights, flag_cohomology):
            with pytest.raises(BundleError) as err:
                read(RS, e)
            assert str(err.value) == "Sym is only supported on rank-2 irreducible atoms"
    # Sym^m Sym^n has no normal form, so rank and the printer refuse it too
    for read in (rank, format_expr):
        with pytest.raises(BundleError, match="rank-2 irreducible"):
            read(parse_expr("Sym^2 Sym^3 U'"))


def test_sym_one_is_the_identity_everywhere():
    cases = [
        (parse_expr("Sym^2 Sym^1 U"), Sym(2, Universal())),
        (parse_expr("Sym^1 S"), Spinor()),
        (parse_expr("Sym^1 O"), Line(0, 0)),
    ]
    for m in (2, 3, 4):
        # Sym^m U(h) is Sym^m U twisted by m*h, and dualizing flips the twist
        cases.append((Sym(m, Twist(Universal(), 0, 1)), Twist(Sym(m, Universal()), 0, m)))
        dual_twisted = Dual(Sym(m, Twist(Universal(), 1, -1)))
        cases.append((dual_twisted, Twist(Dual(Sym(m, Universal())), -m, m)))
        # the twist keeps its sign when the dual moves outside Sym
        sym_of_dual = Sym(m, Twist(Dual(Universal()), 0, 1))
        cases.append((sym_of_dual, Twist(Dual(Sym(m, Universal())), 0, m)))
    for e, same in cases:
        assert normalize(e) == normalize(same)
        assert format_expr(e) == format_expr(same)
        assert weights(RS, e) == weights(RS, same)
        assert rank(e) == rank(same)
        assert flag_cohomology(RS, e) == flag_cohomology(RS, same)


def test_normal_factors_loops_over_long_chains():
    product = parse_expr("*".join(["U(h)"] * 5000))
    factors, twist = normal_factors(product)
    assert factors == (Universal(),) * 5000 and twist == (0, 5000)
    e = Universal()
    for _ in range(5001):
        e = Dual(Twist(Sym(1, e), 1, 0))
    assert normal_factors(e) == ((Dual(Universal()),), (-1, 0))
    assert rank(e) == 2
    assert weights(RS, e) == weights(RS, Twist(Dual(Universal()), -1, 0))


def test_tensor_weights_pairwise_sums():
    e = Tensor(Universal(), Twist(Universal(), 0, 1))
    assert wmultiset(e) == Counter(
        {(-2, 3): 1, (-1, 1): 2, (0, -1): 1}
    )


def test_dual_negates_weights():
    exprs = [
        Universal(),
        Spinor(),
        Tensor(Universal(), IrrP1(2, 1)),
        Twist(IrrP2(1, 0), -1, 2),
    ]
    for e in exprs:
        assert wmultiset(Dual(e)) == Counter(
            {tuple(-c for c in w): m for w, m in wmultiset(e).items()}
        )


def test_double_dual_identity_on_weights():
    e = Tensor(Dual(Universal()), Twist(Spinor(), 1, -1))
    assert wmultiset(Dual(Dual(e))) == wmultiset(e)


def test_det_of_tensor():
    e, f = Universal(), IrrP1(1, 1)
    lhs = det_weight(RS, Tensor(e, f))
    rhs = tuple(
        rank(f) * d1 + rank(e) * d2
        for d1, d2 in zip(det_weight(RS, e), det_weight(RS, f))
    )
    assert lhs == rhs


def test_levi_tensor_p1_examples():
    assert set(levi_tensor(RS, {1}, (-1, 1), (0, 1))) == {(-1, 2), (0, 0)}
    assert set(levi_tensor(RS, {1}, (-1, 1), (-1, 1))) == {(-2, 2), (-1, 0)}
    assert levi_tensor(RS, {1}, (3, 2), (0, 0)) == ((3, 2),)


def test_levi_tensor_rank_count():
    rng = random.Random(17)
    for _ in range(50):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lam = (rng.randint(-3, 3), m)
        mu = (rng.randint(-3, 3), n)
        out = levi_tensor(RS, {1}, lam, mu)
        assert sum(w[1] + 1 for w in out) == (m + 1) * (n + 1)


def test_levi_tensor_rank_check_raises(monkeypatch):
    # A wrong sum of highest weights loses rank; the check is an explicit
    # raise, so it also holds under python -O.
    monkeypatch.setattr(bundles, "wadd", lambda a, b: a)
    with pytest.raises(IntegrityError, match="rank"):
        levi_tensor(RS, {1}, (0, 1), (0, 1))


def test_levi_tensor_rejects_higher_rank_levi():
    with pytest.raises(BundleError):
        levi_tensor(RS, {0, 1}, (0, 0), (0, 0))


def test_levi_tensor_rejects_non_dominant():
    with pytest.raises(BundleError):
        levi_tensor(RS, {1}, (0, -1), (0, 1))


# --- route B summands as a multiset ----------------------------------------


def tuple_summands(e):
    """Reference expansion: every Clebsch-Gordan summand kept separately."""
    factors, _ = normal_factors(e)
    infos = [bundles._factor_irreducible(RS, f) for f in factors]
    levi = P1_LEVI if infos[0][0] == 1 else P2_LEVI
    summands = ((0, 0),)
    for _, hw in infos:
        summands = tuple(w for s in summands for w in levi_tensor(RS, levi, s, hw))
    return summands


def tuple_route_b(e):
    """Route B as a union over tuple_summands, one pushforward per summand."""
    form = one_sided_form(RS, e)
    profile = CohomologyProfile.zero()
    for hw in tuple_summands(e):
        profile = profile.union(
            bundles._pushforward_profile(RS, form.levi_index, hw, form.twist)
        )
    return profile


def random_one_sided(rng, max_rank=64):
    side = rng.choice((0, 1))

    def factor():
        m = rng.randint(2, 4)
        if side == 1:
            f = rng.choice(
                [
                    Universal(),
                    IrrP1(rng.randint(-2, 2), rng.randint(0, 3)),
                    Sym(m, Universal()),
                    Sym(m, IrrP1(rng.randint(-2, 2), 1)),
                ]
            )
        else:
            f = rng.choice(
                [
                    IrrP2(rng.randint(0, 3), rng.randint(-2, 2)),
                    Sym(m, IrrP2(1, rng.randint(-2, 2))),
                ]
            )
        return Dual(f) if rng.random() < 0.3 else f

    e = factor()
    for _ in range(rng.randint(0, 6)):
        f = factor()
        if rank(e) * rank(f) > max_rank:
            break
        e = Tensor(e, f)
    return Twist(e, rng.randint(-3, 3), rng.randint(-3, 3))


def test_route_b_summands_are_the_tuple_expansion_as_a_multiset():
    rng = random.Random(23)
    for _ in range(150):
        e = random_one_sided(rng)
        form = one_sided_form(RS, e)
        got = dict(form.summands)
        assert len(got) == len(form.summands)
        assert got == Counter(tuple_summands(e))
        alpha = RS.simple_roots[form.levi_index]
        ranks = (m * (RS.pairing(hw, alpha) + 1) for hw, m in form.summands)
        assert sum(ranks) == rank(e)
        assert route_b_cohomology(RS, e) == tuple_route_b(e)


def test_route_b_of_universal_powers_matches_tuple_expansion():
    e = Universal()
    for k in range(1, 11):
        twisted = Twist(e, 0, 1)
        assert route_b_cohomology(RS, twisted) == tuple_route_b(twisted)
        e = Tensor(e, Universal())


# --- filtration weights as a multiset ----------------------------------------


def tuple_string(hw, i):
    alpha = RS.simple_roots[i]
    n = RS.pairing(hw, alpha)
    return tuple(
        tuple(h - j * a for h, a in zip(hw, alpha.weight_coords)) for j in range(n + 1)
    )


def tuple_weights(e):
    """Reference walker: one tuple entry per filtration weight, in order."""
    if isinstance(e, Line):
        return ((e.a, e.b),)
    if isinstance(e, Universal):
        return tuple_string((-1, 1), 1)
    if isinstance(e, Spinor):
        return tuple_weights(bundles.SPINOR_SUB) + tuple_weights(bundles.SPINOR_QUOTIENT)
    if isinstance(e, IrrP1):
        return tuple_string((e.a, e.b), 1)
    if isinstance(e, IrrP2):
        return tuple_string((e.a, e.b), 0)
    if isinstance(e, Dual):
        return tuple(tuple(-c for c in w) for w in tuple_weights(e.arg))
    if isinstance(e, Tensor):
        right = tuple_weights(e.right)
        return tuple(
            tuple(a + b for a, b in zip(lw, rw))
            for lw in tuple_weights(e.left)
            for rw in right
        )
    if isinstance(e, Twist):
        return tuple((w[0] + e.a, w[1] + e.b) for w in tuple_weights(e.arg))
    if isinstance(e, Sym):
        top, low = tuple_weights(e.arg)
        return tuple(
            tuple(e.power * t - j * (t - b) for t, b in zip(top, low))
            for j in range(e.power + 1)
        )
    raise AssertionError(e)


def random_expr(rng, max_rank=256):
    def atom():
        f = rng.choice(
            [
                Line(rng.randint(-3, 3), rng.randint(-3, 3)),
                Universal(),
                Spinor(),
                IrrP1(rng.randint(-2, 2), rng.randint(0, 3)),
                IrrP2(rng.randint(0, 3), rng.randint(-2, 2)),
                Sym(rng.randint(1, 4), rng.choice([Universal(), Dual(IrrP2(1, 0))])),
            ]
        )
        if rng.random() < 0.3:
            f = Dual(f)
        if rng.random() < 0.3:
            f = Twist(f, rng.randint(-2, 2), rng.randint(-2, 2))
        return f

    e = atom()
    for _ in range(rng.randint(0, 5)):
        f = atom()
        if rank(e) * rank(f) > max_rank:
            break
        e = Tensor(f, e) if rng.random() < 0.3 else Tensor(e, f)
    return Dual(e) if rng.random() < 0.2 else e


def u_powers(top=12):
    """U^k(h) for k = 1..top, built as the benchmark builds them."""
    e = Universal()
    for _ in range(top):
        yield Twist(e, 0, 1)
        e = Tensor(e, Universal())


def check_weight_multiset(e):
    ws = weights(RS, e)
    ref = tuple_weights(e)
    assert type(ws) is dict
    assert ws == Counter(ref)
    # keys in first-occurrence order of the filtration
    assert list(ws) == list(dict.fromkeys(ref))
    assert sum(ws.values()) == rank(e)
    assert det_weight(RS, e) == tuple(map(sum, zip(*ref)))
    assert k_class(RS, e) == Counter(ref)


def test_weights_are_the_tuple_expansion_as_a_multiset():
    rng = random.Random(31)
    for _ in range(300):
        check_weight_multiset(random_expr(rng))


def test_weights_of_universal_powers_are_the_tuple_expansion():
    for k, e in enumerate(u_powers(), start=1):
        check_weight_multiset(e)
        assert len(weights(RS, e)) == k + 1  # 4096 filtration weights at k = 12


def test_rank_counts_repeated_weights():
    e = parse_expr("U*U'")
    ws = weights(RS, e)
    assert ws == {(0, 0): 2, (-1, 2): 1, (1, -2): 1}
    assert len(ws) == 3
    assert sum(ws.values()) == rank(e) == 4


def test_spinor_split_is_additive_in_k_theory():
    rng = random.Random(41)
    splits = 0
    for _ in range(300):
        e = random_expr(rng)
        factors, twist = normal_factors(e)
        has_spinor = Spinor() in factors or Dual(Spinor()) in factors
        split = bundles._spinor_split(factors, twist)
        assert (split is not None) == has_spinor
        if split is not None:
            sub, quotient = split
            assert k_class(RS, sub) + k_class(RS, quotient) == k_class(RS, e)
            splits += 1
    assert splits > 50


def test_filtration_pieces_are_the_weights_expanded_by_multiplicity():
    # One Bott call and one E1 piece per distinct weight, carrying its
    # multiplicity; the verdict is that of the tuple expansion, one piece of
    # multiplicity 1 per filtration weight in its old order.
    rng = random.Random(37)
    for e in [random_expr(rng, max_rank=64) for _ in range(150)] + list(u_powers()):
        ws = weights(RS, e)
        res = filtered_cohomology(RS, ws)
        assert [(w, m) for w, _, m in res.pieces] == list(ws.items())
        assert all(p == line_cohomology(RS, w) for w, p, _ in res.pieces)
        assert sum(m for _, _, m in res.pieces) == rank(e)
        ref = tuple_weights(e)
        old = combine_pieces([(w, line_cohomology(RS, w), 1) for w in ref])
        assert (res.determined, res.profile) == (old.determined, old.profile)
        chi = sum(line_cohomology(RS, w).euler(RS) for w in ref)
        assert euler_characteristic(RS, ws) == chi


# --- evaluation -------------------------------------------------------------


def test_coh_u_tensor_u_h():
    res = flag_cohomology(RS, Tensor(Universal(), Twist(Universal(), 0, 1)))
    assert res.determined and res.profile == K_SHIFT_1


def test_coh_u_minus_H_acyclic():
    res = flag_cohomology(RS, Twist(Universal(), -1, 0))
    assert res.determined and res.profile.is_zero


def test_coh_u_tensor_u_dual_via_route_b():
    res = flag_cohomology(RS, Tensor(Universal(), Dual(Universal())))
    assert res.determined
    assert res.profile == K
    assert res.route == "parabolic"


def test_route_b_unavailable_for_mixed_sides():
    assert route_b_cohomology(RS, Tensor(Universal(), IrrP2(1, 0))) is None


def test_route_b_vanishing_fiber_twist():
    # h-coefficient -1 pushes to zero along the P1-side fibration
    for e in [
        Twist(Universal(), 0, -1),
        Twist(Tensor(Universal(), Universal()), -2, -1),
        Twist(Dual(Universal()), 3, -1),
    ]:
        prof = route_b_cohomology(RS, e)
        assert prof is not None and prof.is_zero


def test_route_b_semiorthogonality_workhorse():
    # H*(U(-2H-h)) = 0 exactly, although per-weight Bott is indeterminate.
    e = Twist(Universal(), -2, -1)
    from g2flop.weylbott import filtered_cohomology

    route_a = filtered_cohomology(RS, weights(RS, e))
    assert not route_a.determined
    res = flag_cohomology(RS, e)
    assert res.determined and res.profile.is_zero


def test_route_b_degree_one_pushforward():
    # fiber twist -2 lands in relative degree 1 tensored by det(U)
    e = Twist(Universal(), 0, -2)
    prof = route_b_cohomology(RS, e)
    assert prof is not None and prof.is_zero
    # cross-check against the full flag filtration where it is determined
    res = flag_cohomology(RS, e)
    assert res.determined and res.profile.is_zero


def test_route_b_p2_side():
    res = flag_cohomology(RS, IrrP2(1, -3))
    assert res.determined and res.profile.is_zero
    prof = route_b_cohomology(RS, Twist(IrrP2(1, 0), -1, 2))
    assert prof is not None and prof.is_zero


def test_spinor_cohomology_vanishes():
    res = flag_cohomology(RS, Spinor())
    assert res.determined and res.profile.is_zero


def test_spinor_with_H_twist_minus_one():
    prof = route_b_cohomology(RS, Twist(Spinor(), -1, 0))
    assert prof is not None and prof.is_zero


def test_spinor_self_tensor_indeterminate():
    res = flag_cohomology(RS, Tensor(Dual(Spinor()), Spinor()))
    assert not res.determined


def test_borel_weil_through_expressions():
    for a in range(0, 4):
        for b in range(0, 4):
            res = flag_cohomology(RS, Line(a, b))
            assert res.determined
            assert res.profile.dimensions(RS) == {0: weyl_dim(RS, (a, b))}


def test_route_agreement_on_one_sided_grid():
    # Wherever the filtration route is determined, the parabolic route agrees.
    from g2flop.weylbott import filtered_cohomology

    checked = 0
    atoms = [Universal(), Dual(Universal()), IrrP1(0, 2), IrrP1(1, 1), IrrP1(2, 0)]
    for atom in atoms:
        for ta in range(-3, 4):
            for tb in range(-3, 4):
                e = Twist(atom, ta, tb)
                route_b = route_b_cohomology(RS, e)
                assert route_b is not None
                route_a = filtered_cohomology(RS, weights(RS, e))
                if route_a.determined:
                    assert route_a.profile == route_b
                    checked += 1
    assert checked > 100


# --- the flag_cohomology memo -----------------------------------------------


def reassociate(e):
    """A copy of e with every (a*b)*c regrouped as a*(b*c)."""
    kind = type(e)
    if kind is Tensor:
        left, right = reassociate(e.left), reassociate(e.right)
        if type(left) is Tensor:
            return Tensor(left.left, reassociate(Tensor(left.right, right)))
        return Tensor(left, right)
    if kind is Twist:
        return Twist(reassociate(e.arg), e.a, e.b)
    if kind is Dual:
        return Dual(reassociate(e.arg))
    if kind is Sym:
        return Sym(e.power, reassociate(e.arg))
    return e


def test_memoized_answer_is_the_fresh_one_and_normal_forms_share_it():
    memo = bundles._evaluate
    rng = random.Random(43)
    regrouped = 0
    for _ in range(300):
        e = random_expr(rng, max_rank=64)
        memoized = flag_cohomology(RS, e)
        memo.cache_clear()
        assert flag_cohomology(RS, e) == memoized
        # e, its normal form and a regrouping share one entry
        memo.cache_clear()
        first = flag_cohomology(RS, e)
        misses = memo.cache_info().misses
        copy = reassociate(e)
        regrouped += copy != e
        assert normal_factors(copy) == normal_factors(e)
        assert flag_cohomology(RS, normalize(e)) is first
        assert flag_cohomology(RS, copy) is first
        # the extension route's nested calls are misses of their own
        if bundles._spinor_split(*normal_factors(e)) is None:
            assert misses == 1
        assert memo.cache_info().misses == misses
    assert regrouped > 50


def test_memo_keeps_the_factor_order():
    # U*U' and U'*U have one answer but opposite filtration orders, so a key
    # that sorted the factors would hand one of them the other's E1 page.
    order = {"U*U'": [(0, 0), (-1, 2), (1, -2)], "U'*U": [(0, 0), (1, -2), (-1, 2)]}
    for texts in (["U*U'", "U'*U"], ["U'*U", "U*U'"]):
        bundles._evaluate.cache_clear()
        for text in texts:
            res = flag_cohomology(RS, parse_expr(text))
            assert res.profile == K
            assert [w for w, _, _ in res.e1] == order[text]


def test_memo_stores_no_failure(monkeypatch):
    memo = bundles._evaluate
    for _ in range(2):
        with pytest.raises(BundleError, match="rank-2 irreducible"):
            flag_cohomology(RS, parse_expr("Sym^2 S"))
    monkeypatch.setattr(
        bundles, "route_b_cohomology", lambda rs, e: CohomologyProfile.zero()
    )
    memo.cache_clear()
    for _ in range(2):
        with pytest.raises(bundles.RouteMismatchError, match="routes disagree on U"):
            flag_cohomology(RS, parse_expr("U(h)"))
    assert memo.cache_info().currsize == 0
    monkeypatch.undo()
    res = flag_cohomology(RS, parse_expr("U(h)"))
    assert res.determined and res.profile == K


# --- parser and printer -----------------------------------------------------


def test_parse_examples():
    assert parse_expr("U*U(h)") == Tensor(Universal(), Twist(Universal(), 0, 1))
    assert normalize(parse_expr("O(H-2h)")) == Line(1, -2)
    assert parse_expr("Sym^2 E(1,1)") == Sym(2, IrrP1(1, 1))
    assert parse_expr("U'") == Dual(Universal())
    assert parse_expr("S") == Spinor()
    assert parse_expr("F(1,-3)") == IrrP2(1, -3)
    assert normalize(parse_expr("O(-h-H)")) == Line(-1, -1)
    assert normalize(parse_expr("O(3h)")) == Line(0, 3)
    assert normalize(parse_expr("O(2,3)")) == Line(2, 3)
    assert parse_expr("U(h)'") == Dual(Twist(Universal(), 0, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("X")
    assert err.value.position == 0
    with pytest.raises(ParseError):
        parse_expr("U*")
    with pytest.raises(ParseError):
        parse_expr("O()")
    with pytest.raises(ParseError):
        parse_expr("E(1)")
    with pytest.raises(ParseError):
        parse_expr("U(h")
    with pytest.raises(ParseError):
        parse_expr("U) extra")


def test_long_sym_chains_keep_their_parse_errors():
    with pytest.raises(ParseError, match="unknown atom 'X'") as err:
        parse_expr("Sym^1 " * 3000 + "X")
    assert err.value.position == 18000
    text = "Sym^1 " * 3000 + "Sym^0 " + "Sym^1 " * 10 + "U"
    with pytest.raises(ParseError, match="Sym power must be >= 1") as err:
        parse_expr(text)
    assert err.value.position == text.index("Sym^0") + len("Sym^0")


def test_format_examples():
    assert format_expr(Line(0, 0)) == "O"
    assert format_expr(Line(1, -2)) == "O(H-2h)"
    assert format_expr(Line(-1, -1)) == "O(-H-h)"
    assert format_expr(Twist(Universal(), 0, 1)) == "U(h)"
    assert format_expr(Tensor(Universal(), Twist(Universal(), 0, 1))) == "U*U(h)"
    assert format_expr(Dual(Universal())) == "U'"
    assert format_expr(Twist(Dual(Universal()), 0, -1)) == "U(h)'"
    assert format_expr(Sym(3, IrrP1(1, 1))) == "Sym^3 E(1,1)"


@st.composite
def bundle_exprs(draw, depth=0):
    atoms = [
        Line(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))),
        Universal(),
        Spinor(),
        IrrP1(draw(st.integers(-2, 2)), draw(st.integers(0, 2))),
        IrrP2(draw(st.integers(0, 2)), draw(st.integers(-2, 2))),
        Sym(draw(st.integers(2, 3)), Universal()),
    ]
    if depth >= 2:
        return draw(st.sampled_from(atoms))
    inner = st.deferred(lambda: bundle_exprs(depth + 1))
    builders = st.one_of(
        st.sampled_from(atoms),
        st.builds(Dual, inner),
        st.builds(
            Twist, inner, st.integers(-3, 3), st.integers(-3, 3)
        ),
        st.builds(Tensor, inner, inner),
    )
    return draw(builders)


@given(bundle_exprs())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(e):
    printed = format_expr(e)
    reparsed = parse_expr(printed)
    assert normalize(reparsed) == normalize(e)
    assert wmultiset(reparsed) == wmultiset(e)


@given(bundle_exprs())
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_weights(e):
    assert wmultiset(normalize(e)) == wmultiset(e)
