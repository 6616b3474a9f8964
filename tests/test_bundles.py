"""Bundle DSL: weights, ranks, Clebsch-Gordan, evaluation routes, parser."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flop import bundles, totalspace
from g2flop.bundles import (
    BundleError,
    BundleExpr,
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
    parse_expr,
    route_b_cohomology,
    weights,
)
from g2flop.rootdata import IntegrityError, Value, g2, wadd, wneg
from g2flop.sodengine import k_class
from g2flop.weylbott import (
    ZERO,
    CohomologyProfile,
    combine_pieces,
    euler_characteristic,
    filtered_cohomology,
    format_profile,
    line_cohomology,
    weyl_dim,
)

RS = g2()

K = CohomologyProfile(((0, (0, 0), 1),))
K_SHIFT_1 = CohomologyProfile(((1, (0, 0), 1),))


def wmultiset(e):
    return Counter(weights(RS, e))


def rank(e):
    """Rank of e: the multiplicities of its filtration weights sum to it."""
    return sum(weights(RS, e).values())


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


SYM_REFUSAL = "Sym is only supported on rank-2 irreducible atoms"


def test_sym_rejects_higher_rank():
    # S and a rank-3 irreducible are one factor each, so every reader
    # refuses a Sym of them.
    for e in [Sym(2, IrrP1(0, 2)), Sym(2, Spinor()), parse_expr("Sym^2 S")]:
        for read in (weights, flag_cohomology):
            with pytest.raises(BundleError) as err:
                read(RS, e)
            assert str(err.value) == SYM_REFUSAL
    # A factor holds one Sym power of one atom, so a Sym of a product, of a
    # line (a rank-1 E or F included) or of a Sym is refused as it is built,
    # by the parser too.
    for build in [
        lambda: Sym(2, Tensor(Universal(), Universal())),
        lambda: Sym(3, Line(0, 1)),
        lambda: Sym(2, IrrP1(1, 0)),
        lambda: parse_expr("Sym^2 F(0,1)"),
        lambda: parse_expr("Sym^2 Sym^3 U"),
        lambda: parse_expr("Sym^2 Sym^3 U'"),
        lambda: parse_expr("Sym^2 O(h)"),
    ]:
        with pytest.raises(BundleError) as err:
            build()
        assert str(err.value) == SYM_REFUSAL


def test_a_rank_one_atom_is_its_line():
    # E(a,0) and F(0,b) have a Levi string of one weight, so each is the
    # line O(a,0) or O(0,b), as a value, under duals and under twists.
    for a in range(-2, 3):
        assert IrrP1(a, 0) == Line(a, 0) and IrrP2(0, a) == Line(0, a)
        assert Dual(IrrP1(a, 0)) == Line(-a, 0) == Dual(Line(a, 0))
        assert Twist(IrrP2(0, a), 1, -1) == Line(1, a - 1)
    assert parse_expr("E(0,0)") == parse_expr("O")
    assert parse_expr("F(0,-2)") == parse_expr("O(-2h)")
    assert parse_expr("E(2,0)'(h)") == parse_expr("O(-2H+h)")
    assert format_expr(IrrP1(3, 0)) == "O(3H)"
    assert Sym(1, IrrP1(1, 0)) == Line(1, 0)


def test_a_rank_one_atom_adds_no_side_to_a_product():
    # A rank-1 atom beside an atom of the other parabolic leaves the product
    # one-sided, so route B applies and gives the answer, as it does for the
    # line spelling.
    for text, line, answer in [
        ("F(0,-2)*E(0,1)(-3H-3h)", "O(-2h)*E(0,1)(-3H-3h)", "V(0,4)[-6] + V(1,2)[-6]"),
        ("E(-2,0)*F(1,0)(-3H-3h)", "O(-2H)*F(1,0)(-3H-3h)", "V(3,0)[-5] + V(2,1)[-6]"),
    ]:
        res = flag_cohomology(RS, parse_expr(text))
        assert res.determined
        assert route_b_cohomology(RS, parse_expr(text)) == res.profile
        assert format_profile(res.profile) == answer
        assert res == flag_cohomology(RS, parse_expr(line))


@pytest.mark.parametrize("depth", [2, 600, 1200])
def test_every_sym_chain_is_refused_by_its_rule(depth):
    # A chain of Sym^2 is refused at its second Sym, however deep it is.
    with pytest.raises(BundleError) as err:
        parse_expr("Sym^2 " * depth + "U")
    assert str(err.value) == SYM_REFUSAL


@pytest.mark.parametrize("text", ["Sym^2 E(0,2)", "Sym^2 F(2,0)"])
def test_rank_refuses_sym_of_a_rank_three_atom(text):
    # The Levi pairing 2 makes E(0,2) and F(2,0) rank 3, and Sym^2 of a rank-3
    # bundle (rank 6) is not a Levi irreducible, so every reader, rank
    # included, refuses it rather than answer the power plus one.
    e = parse_expr(text)
    readers = (
        rank,
        lambda e: weights(RS, e),
        lambda e: flag_cohomology(RS, e),
        lambda e: totalspace.hom_v(RS, Line(0, 0), e),
    )
    for read in readers:
        with pytest.raises(BundleError) as err:
            read(e)
        assert str(err.value) == "Sym is only supported on rank-2 irreducible atoms"


@pytest.mark.parametrize(
    "text",
    [
        "Sym^2 E(0,-1)",
        "Sym^3 F(-2,1)'",
        "E(0,-1)",
        "F(-1,0)'",
        "U*E(1,200000)",
        "Sym^2 S",
        "S*Sym^3 E(1,2)(h)",
    ],
)
def test_rank_refuses_every_factor_weights_refuses(text):
    # One decoder refuses a factor for every reader: rank (the sum of the
    # weights' multiplicities) and route B read it with weights' message.
    e = parse_expr(text)
    with pytest.raises(BundleError) as want:
        weights(RS, e)
    for read in (rank, lambda e: route_b_cohomology(RS, e)):
        with pytest.raises(BundleError) as got:
            read(e)
        assert str(got.value) == str(want.value)


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
        assert e == same
        assert format_expr(e) == format_expr(same)
        assert weights(RS, e) == weights(RS, same)
        assert rank(e) == rank(same)
        assert flag_cohomology(RS, e) == flag_cohomology(RS, same)


def test_an_expression_is_its_normal_form():
    u = Universal()
    assert Tensor(Twist(u, 0, 1), u) == Twist(Tensor(u, u), 0, 1)
    assert Tensor(Tensor(u, Spinor()), u) == Tensor(u, Tensor(Spinor(), u))
    assert Dual(Tensor(u, Line(1, 0))) == Tensor(Dual(u), Line(-1, 0))
    assert Sym(3, Dual(Twist(u, 0, 1))) == Twist(Dual(Sym(3, u)), 0, -3)
    assert Tensor(u, Dual(u)) != Tensor(Dual(u), u)
    assert parse_expr("U*U(h)") == BundleExpr((("U", -1, 1, 1, False),) * 2, (0, 1))
    assert Line(2, 3) == BundleExpr((), (2, 3))


def test_long_chains_build_one_flat_value():
    product = parse_expr("*".join(["U(h)"] * 20000))
    assert product.factors == (("U", -1, 1, 1, False),) * 20000
    assert product.twist == (0, 20000)
    e = Universal()
    for _ in range(5001):
        e = Dual(Twist(Sym(1, e), 1, 0))
    assert e == Twist(Dual(Universal()), -1, 0)
    assert rank(e) == 2


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
    assert set(levi_tensor(RS, 1, (-1, 1), (0, 1))) == {(-1, 2), (0, 0)}
    assert set(levi_tensor(RS, 1, (-1, 1), (-1, 1))) == {(-2, 2), (-1, 0)}
    assert levi_tensor(RS, 1, (3, 2), (0, 0)) == ((3, 2),)


def test_levi_tensor_rank_count():
    rng = random.Random(17)
    for _ in range(50):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        lam = (rng.randint(-3, 3), m)
        mu = (rng.randint(-3, 3), n)
        out = levi_tensor(RS, 1, lam, mu)
        assert sum(w[1] + 1 for w in out) == (m + 1) * (n + 1)


def test_levi_tensor_rank_check_raises(monkeypatch):
    # A wrong sum of highest weights loses rank; the check is an explicit
    # raise, so it also holds under python -O.
    monkeypatch.setattr(bundles, "wadd", lambda a, b: a)
    with pytest.raises(IntegrityError, match="rank"):
        levi_tensor(RS, 1, (0, 1), (0, 1))


def test_levi_tensor_rejects_non_dominant():
    with pytest.raises(BundleError):
        levi_tensor(RS, 1, (0, -1), (0, 1))


# --- route B summands as a multiset ----------------------------------------


def one_sided_shape(e):
    """Route B's ``(i, summands, opaque)`` of e, and e's twist."""
    return bundles._one_sided_shape(RS, e.factors), e.twist


def tuple_summands(e):
    """Reference expansion: every Clebsch-Gordan summand kept separately."""
    summands = ((0, 0),)
    for f in e.factors:
        i, hw, _ = bundles._levi_string(f)
        if f[4]:
            hw = wneg(RS.reflect(i, hw))
        summands = tuple(w for s in summands for w in levi_tensor(RS, i, s, hw))
    return summands


def tuple_route_b(e):
    """Route B as a union over tuple_summands, one pushforward per summand,
    each computed afresh: the memo under test is not read."""
    (i, _, _), twist = one_sided_shape(e)
    base = tuple(0 if k == i else t for k, t in enumerate(twist))
    return CohomologyProfile.of(
        entry
        for hw in tuple_summands(e)
        for entry in bundles._pushforward.__wrapped__(
            RS, i, wadd(hw, base), twist[i]
        )
    )


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
    while not e.factors:  # a rank-1 atom is a line, on neither side
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
        (i, summands, _), _ = one_sided_shape(e)
        got = dict(summands)
        assert len(got) == len(summands)
        assert got == Counter(tuple_summands(e))
        alpha = RS.simple_roots[i]
        ranks = (m * (RS.pairing(hw, alpha) + 1) for hw, m in summands)
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


def negated(ws):
    return tuple(tuple(-c for c in w) for w in ws)


def tensored(left, right):
    return tuple(tuple(a + b for a, b in zip(lw, rw)) for lw in left for rw in right)


U_WEIGHTS = tuple_string((-1, 1), 1)
#: S: the sub U, then the quotient U'(-h)
S_WEIGHTS = U_WEIGHTS + tensored(negated(U_WEIGHTS), ((0, -1),))


def random_expr_and_weights(rng, max_rank=256):
    """A random expression, built with the constructors, and its filtration
    weights as a tuple, one entry per weight in filtration order, expanded
    alongside each constructor call as a reference."""

    def atom():
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        i0, i1 = rng.randint(-2, 2), rng.randint(0, 3)
        choices = [
            (Line(a, b), ((a, b),)),
            (Universal(), U_WEIGHTS),
            (Spinor(), S_WEIGHTS),
            (IrrP1(i0, i1), tuple_string((i0, i1), 1)),
            (IrrP2(i1, i0), tuple_string((i1, i0), 0)),
        ]
        m = rng.randint(1, 4)
        f_dual = negated(tuple_string((1, 0), 0))
        arg, (top, low) = rng.choice(
            [(Universal(), U_WEIGHTS), (Dual(IrrP2(1, 0)), f_dual)]
        )
        sym = tuple(
            tuple(m * t - j * (t - b) for t, b in zip(top, low)) for j in range(m + 1)
        )
        choices.append((Sym(m, arg), sym))
        f, ws = rng.choice(choices)
        if rng.random() < 0.3:
            f, ws = Dual(f), negated(ws)
        if rng.random() < 0.3:
            t = (rng.randint(-2, 2), rng.randint(-2, 2))
            f, ws = Twist(f, *t), tensored(ws, (t,))
        return f, ws

    e, ref = atom()
    for _ in range(rng.randint(0, 5)):
        f, fws = atom()
        if len(ref) * len(fws) > max_rank:
            break
        if rng.random() < 0.3:
            e, ref = Tensor(f, e), tensored(fws, ref)
        else:
            e, ref = Tensor(e, f), tensored(ref, fws)
    if rng.random() < 0.2:
        e, ref = Dual(e), negated(ref)
    return e, ref


def random_expr(rng, max_rank=256):
    return random_expr_and_weights(rng, max_rank)[0]


def u_powers(top=12):
    """U^k(h) for k = 1..top, built as the benchmark builds them, with their
    reference weight tuples."""
    e, ref = Universal(), U_WEIGHTS
    for _ in range(top):
        yield Twist(e, 0, 1), tensored(ref, ((0, 1),))
        e, ref = Tensor(e, Universal()), tensored(ref, U_WEIGHTS)


def check_weight_multiset(e, ref):
    ws = weights(RS, e)
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
        check_weight_multiset(*random_expr_and_weights(rng))


def test_weights_of_universal_powers_are_the_tuple_expansion():
    for k, (e, ref) in enumerate(u_powers(), start=1):
        check_weight_multiset(e, ref)
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
        has_spinor = any(kind == "S" for kind, *_ in e.factors)
        split = bundles._spinor_split(e)
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
    cases = [random_expr_and_weights(rng, max_rank=64) for _ in range(150)]
    for e, ref in cases + list(u_powers()):
        ws = weights(RS, e)
        profile, pieces = filtered_cohomology(RS, ws)
        assert [(w, m) for w, _, m in pieces] == list(ws.items())
        assert all(p == line_cohomology(RS, w) for w, p, _ in pieces)
        assert sum(m for _, _, m in pieces) == rank(e)
        assert profile == combine_pieces([(line_cohomology(RS, w), 1) for w in ref])
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

    assert filtered_cohomology(RS, weights(RS, e))[0] is None
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


@pytest.mark.parametrize(
    "text, vanishes",
    [
        ("S(-H)", True),
        ("S'(-H)", True),
        ("S*S'(-H)", True),
        ("S(-h)", False),
        ("S(-2H)", False),
        ("S(H)", False),
    ],
    ids=lambda v: v if isinstance(v, str) else ("zero" if v else "none"),
)
def test_spinor_with_H_twist_minus_one(text, vanishes):
    # S is pulled back from the quadric side, whose Levi index is 0, so route
    # B's opaque branch reads the fiber degree from the H coordinate: only
    # fiber degree -1 vanishes, and S(-h) would vanish under a swapped index.
    prof = route_b_cohomology(RS, parse_expr(text))
    if vanishes:
        assert prof is not None and prof.is_zero
    else:
        assert prof is None


def test_spinor_self_tensor_indeterminate():
    res = flag_cohomology(RS, Tensor(Dual(Spinor()), Spinor()))
    assert not res.determined


def test_only_the_extension_route_settles_s_dual_minus_h():
    # Route A is indeterminate and route B does not apply to S'(-h); its
    # pieces U(h)' and U both vanish, so the extension route settles it.
    e = parse_expr("S'(-h)")
    assert filtered_cohomology(RS, weights(RS, e))[0] is None
    assert route_b_cohomology(RS, e) is None
    res = flag_cohomology(RS, e)
    assert (res.determined, res.profile, res.route) == (
        True,
        ZERO,
        "extension",
    )


def test_the_filtration_settles_s_dual_twisted_by_minus_2h_plus_3h():
    # The E1 page of S'(-2H+3h) has two nonzero pieces, k[-1] and
    # V(0,1)[-1], both in degree 1: no differential joins one degree to
    # itself.  The extension route gives the same answer.
    e = parse_expr("S'(-2H+3h)")
    res = flag_cohomology(RS, e)
    assert (res.determined, format_profile(res.profile), res.route) == (
        True,
        "k[-1] + V(0,1)[-1]",
        "filtration",
    )
    assert bundles._extension_cohomology(RS, e) == res.profile
    assert res.profile.euler(RS) == euler_characteristic(RS, weights(RS, e)) == -8


def corrupt_extension_quotient(monkeypatch):
    """Shift the extension route's quotient piece of S'(-3H), U(-3H+h), up
    by one degree, and forget memoized answers so the route really runs."""
    real = bundles.flag_cohomology
    quotient = parse_expr("U(-3H+h)")

    def corrupted(rs, e):
        res = real(rs, e)
        if e != quotient:
            return res
        shifted = CohomologyProfile.of((d + 1, hw, m) for d, hw, m in res.profile.entries)
        return bundles.CohResult(shifted, res.e1, res.route)

    monkeypatch.setattr(bundles, "flag_cohomology", corrupted)
    bundles._evaluate.cache_clear()


S_DUAL_MINUS_3H_MISMATCH = (
    "routes disagree on S(3H)': "
    "filtration gave k[-5], extension gave k[-6]"
)


def test_a_corrupted_extension_piece_is_a_route_mismatch(monkeypatch):
    # Filtration and extension both give k[-5] for S'(-3H); route B does not
    # apply.  A wrong piece must surface as a mismatch, never as an answer.
    e = parse_expr("S'(-3H)")
    res = flag_cohomology(RS, e)
    assert (res.profile, res.route) == (CohomologyProfile(((5, (0, 0), 1),)), "filtration")
    assert route_b_cohomology(RS, e) is None
    corrupt_extension_quotient(monkeypatch)
    with pytest.raises(bundles.RouteMismatchError) as err:
        flag_cohomology(RS, e)
    assert str(err.value) == S_DUAL_MINUS_3H_MISMATCH


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
    atoms = [
        Universal(),
        Dual(Universal()),
        IrrP1(0, 2),
        IrrP1(1, 1),
        Tensor(IrrP1(2, 0), Universal()),
    ]
    for atom in atoms:
        for ta in range(-3, 4):
            for tb in range(-3, 4):
                e = Twist(atom, ta, tb)
                route_b = route_b_cohomology(RS, e)
                assert route_b is not None
                route_a = filtered_cohomology(RS, weights(RS, e))[0]
                if route_a is not None:
                    assert route_a == route_b
                    checked += 1
    assert checked > 100


# --- the flag_cohomology memo -----------------------------------------------

#: Every process-wide memo of the expression layers but parse_expr's: the
#: twist-free parts of an evaluation, route B's pushforward, then the answers.
MEMOS = (
    bundles._product_weights,
    bundles._one_sided_shape,
    bundles._pushforward,
    bundles._evaluate,
    totalspace._hom_v,
)


def forget_memos():
    """Clear every memo in MEMOS, so that the next evaluation is a first one."""
    for memo in MEMOS:
        memo.cache_clear()


def test_memos_lists_every_memo_of_the_expression_layers():
    # A memo added to bundles or totalspace must join MEMOS, or forget_memos
    # leaves it warm.  Only the memos a module defines count: the Bott caches
    # it imports from weylbott have a module of their own.
    defined = {
        obj
        for module in (bundles, totalspace)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }
    assert defined == {*MEMOS, bundles.parse_expr}


def test_memoized_answer_is_the_fresh_one_and_normal_forms_share_it():
    memo = bundles._evaluate
    rng = random.Random(43)
    for _ in range(300):
        e = random_expr(rng, max_rank=64)
        memoized = flag_cohomology(RS, e)
        forget_memos()
        assert flag_cohomology(RS, e) == memoized
        # e and an equal value read back from its text share one entry
        memo.cache_clear()
        first = flag_cohomology(RS, e)
        misses = memo.cache_info().misses
        copy = parse_expr.__wrapped__(format_expr(e))
        assert copy == e and copy is not e
        assert flag_cohomology(RS, copy) is first
        # the extension route's nested calls are misses of their own
        if bundles._spinor_split(e) is None:
            assert misses == 1
        assert memo.cache_info().misses == misses


def test_a_memo_hit_runs_no_python_level_value_comparison(monkeypatch):
    # A normal factor is a tuple of str, int and bool, so a repeated query
    # hashes and compares its memo key in C: neither Value.__eq__ nor
    # Value.__hash__ runs, however often the query repeats.
    exprs = [parse_expr(text) for text in QUERY_TEXTS]

    def queries():
        for e in exprs:
            flag_cohomology(RS, e)
            totalspace.hom_v(RS, e, Twist(e, 0, 1))

    queries()
    calls = count_value_comparisons(monkeypatch)
    for _ in range(80):
        queries()
    assert calls == Counter()


def count_value_comparisons(monkeypatch):
    """A Counter of the Value.__eq__ and Value.__hash__ calls from now on."""
    calls = Counter()

    def counting(name):
        real = getattr(Value, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)

        return counted

    for name in ("__eq__", "__hash__"):
        monkeypatch.setattr(Value, name, counting(name))
    return calls


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
        bundles, "route_b_cohomology", lambda rs, e: ZERO
    )
    memo.cache_clear()
    for _ in range(2):
        with pytest.raises(bundles.RouteMismatchError, match="routes disagree on U"):
            flag_cohomology(RS, parse_expr("U(h)"))
    assert memo.cache_info().currsize == 0
    monkeypatch.undo()
    res = flag_cohomology(RS, parse_expr("U(h)"))
    assert res.determined and res.profile == K


def test_routes_run_in_order_filtration_parabolic_extension(monkeypatch):
    # When several routes raise, the first in evaluation order surfaces.
    def fail(route):
        def raising(*args):
            raise IntegrityError(route)

        return raising

    # route A's Bott pieces, route B, and the extension route's nested calls
    routes = ("filtered_cohomology", "route_b_cohomology", "flag_cohomology")
    real = {route: getattr(bundles, route) for route in routes}
    for route in routes:
        monkeypatch.setattr(bundles, route, fail(route))
    for route in routes:
        bundles._evaluate.cache_clear()
        with pytest.raises(IntegrityError, match=route):
            flag_cohomology(RS, parse_expr("S'(-3H)"))
        monkeypatch.setattr(bundles, route, real[route])


# --- the twist-free memos ----------------------------------------------------


QUERY_TEXTS = [
    "U*U(h)",
    "S'(-3H)",
    "S*U'(-h)*S",
    "Sym^3 U*E(1,1)'(2H)",
    "F(1,0)*F(0,1)'*O(h)",
    "Sym^2 E(1,1)'",
    "O(H-2h)",
]


def test_a_new_twist_reuses_the_twist_free_parts():
    forget_memos()
    flag_cohomology(RS, parse_expr("U*U(h)"))
    twist_free = (bundles._product_weights, bundles._one_sided_shape)
    before = [memo.cache_info() for memo in twist_free]
    res = flag_cohomology(RS, parse_expr("U*U(2h)"))
    for memo, info in zip(twist_free, before):
        after = memo.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
    forget_memos()
    fresh = flag_cohomology(RS, parse_expr("U*U(2h)"))
    assert res == fresh
    assert [w for w, _, _ in res.e1] == [w for w, _, _ in fresh.e1]
    assert [(w, m) for w, _, m in res.e1] == [((-2, 4), 1), ((-1, 2), 2), ((0, 0), 1)]


@pytest.mark.parametrize(
    "bound, refusal",
    [("MAX_PRODUCT_WEIGHTS", "more than the 12 distinct weights"),
     ("MAX_PRODUCT_PAIRS", "16 pairs, more than the 12 supported")],
    ids=["weights", "pairs"],
)
def test_an_over_bound_product_is_refused_again_and_stored_nowhere(
    monkeypatch, bound, refusal
):
    monkeypatch.setattr(bundles, bound, 12)
    forget_memos()
    # the factors on their own are in bound; their memo entries come first
    weights(RS, IrrP1(1, 3))
    weights(RS, IrrP2(3, 1))
    sizes = [memo.cache_info().currsize for memo in MEMOS]
    product = parse_expr("E(1,3)*F(3,1)")
    for _ in range(2):
        with pytest.raises(BundleError, match=refusal):
            flag_cohomology(RS, product)
        with pytest.raises(BundleError, match=refusal):
            totalspace.hom_v(RS, Line(0, 0), product)
    assert [memo.cache_info().currsize for memo in MEMOS] == sizes


def spinor_product(n, twist="(h)"):
    """n factors alternating S and S', the last one twisted."""
    return parse_expr("*".join((["S", "S'"] * n)[:n]) + twist)


def test_a_product_past_the_spinor_bound_is_refused_before_evaluation():
    assert bundles.MAX_SPINOR_FACTORS == 10
    forget_memos()
    refusal = "a product of 11 S or S' factors has more than the 10 supported"
    for _ in range(2):
        with pytest.raises(BundleError) as err:
            flag_cohomology(RS, spinor_product(11))
        assert str(err.value) == refusal
        # A'⊗B of hom_v counts the factors of both arguments
        with pytest.raises(BundleError) as err:
            totalspace.hom_v(RS, spinor_product(5), spinor_product(6, ""))
        assert str(err.value) == refusal
    assert [memo.cache_info().currsize for memo in MEMOS] == [0, 0, 0, 0, 0]


def test_a_product_at_the_spinor_bound_is_answered(monkeypatch):
    # Evaluating at the real bound takes seconds (2047 evaluations), so the
    # comparison is checked at a bound of 3.
    monkeypatch.setattr(bundles, "MAX_SPINOR_FACTORS", 3)
    forget_memos()
    flag_cohomology(RS, spinor_product(3))
    assert bundles._evaluate.cache_info().currsize == 15  # 2^(3+1) - 1
    totalspace.hom_v(RS, Spinor(), parse_expr("S*S'(h)"))
    with pytest.raises(BundleError, match="4 S or S' factors has more than the 3"):
        flag_cohomology(RS, spinor_product(4))
    with pytest.raises(BundleError, match="4 S or S' factors has more than the 3"):
        totalspace.hom_v(RS, parse_expr("S*S"), parse_expr("S*S"))


def test_a_product_past_the_spinor_work_budget_is_refused_before_any_route():
    # Ten S times U*U is inside the factor bound, but each of its 2047
    # evaluations expands the other factors: 143 distinct weights.  Only
    # products of weights are memoized: the factors', which the budget
    # reads, and those of the two pieces of S that it is built from.
    assert bundles.MAX_SPINOR_WORK == 250_000
    forget_memos()
    e = parse_expr("*".join(["S"] * 10) + "*U*U")
    refusal = (
        "a product of 10 S or S' factors on 143 distinct weights needs 2047 "
        "evaluations of them, 292721 weights in all, more than the 250000 supported"
    )
    for _ in range(2):
        with pytest.raises(BundleError) as err:
            flag_cohomology(RS, e)
        assert str(err.value) == refusal
        with pytest.raises(BundleError) as err:
            totalspace.hom_v(RS, Line(0, 0), e)
        assert str(err.value) == refusal
    assert [memo.cache_info().currsize for memo in MEMOS] == [3, 0, 0, 0, 0]


def test_a_product_at_the_spinor_work_budget_is_answered(monkeypatch):
    # S*S'(h): 7 evaluations on its distinct weights, at a budget of exactly
    # that, is answered, and refused one below it.
    e = spinor_product(2)
    work = 7 * len(bundles.weights(RS, e))
    monkeypatch.setattr(bundles, "MAX_SPINOR_WORK", work)
    forget_memos()
    flag_cohomology(RS, e)
    assert bundles._evaluate.cache_info().currsize == 7
    monkeypatch.setattr(bundles, "MAX_SPINOR_WORK", work - 1)
    forget_memos()
    with pytest.raises(BundleError, match=f"{work} weights in all, more than the"):
        flag_cohomology(RS, e)
    assert bundles._evaluate.cache_info().currsize == 0


def test_a_changed_weights_dict_cannot_change_a_later_answer():
    for text in ["U*U", "U*U(h)", "S'(-3H)", "Sym^2 E(1,1)'"]:
        e = parse_expr(text)
        first = weights(RS, e)
        kept = list(first.items())
        answer = flag_cohomology(RS, e)
        # every twist-free memo behind these calls is warm now
        first.clear()
        first[(7, 7)] = 3
        assert list(weights(RS, e).items()) == kept
        assert weights(RS, e) is not weights(RS, e)
        forget_memos()
        assert flag_cohomology(RS, e) == answer


# --- route B's pushforward memo ---------------------------------------------


def test_memoized_route_b_is_a_fresh_recomputation():
    # Random one-sided expressions, twice: the second pass reads warm entries,
    # and both equal a recomputation that never reads the memo.
    rng = random.Random(61)
    exprs = [random_one_sided(rng) for _ in range(120)]
    forget_memos()
    for _ in range(2):
        hits = bundles._pushforward.cache_info().hits
        for e in exprs:
            assert route_b_cohomology(RS, e) == tuple_route_b(e)
    assert bundles._pushforward.cache_info().hits > hits
    # Levi-dominant summands and fiber degrees on both sides, directly.
    for _ in range(300):
        i = rng.choice((0, 1))
        hw = [rng.randint(-4, 4), rng.randint(-4, 4)]
        hw[i] = rng.randint(0, 4)
        key = (RS, i, tuple(hw), rng.randint(-5, 5))
        entries = bundles._pushforward(*key)
        assert type(entries) is tuple
        assert entries == bundles._pushforward.__wrapped__(*key)
        assert bundles._pushforward(*key) is entries


def test_twists_that_differ_in_the_base_direction_share_one_pushforward():
    # E(1,1) and E(0,1), twisted by -H+h and by h, land on one summand
    # (0,1) of fiber degree 1: U(H+h) too, from (-1,1).  Only a new fiber
    # degree is a new entry.
    memo = bundles._pushforward
    forget_memos()
    answers = {
        route_b_cohomology(RS, parse_expr(text))
        for text in ["E(1,1)(-H+h)", "E(0,1)(h)", "U(H+h)"]
    }
    assert len(answers) == 1
    assert (memo.cache_info().hits, memo.cache_info().misses) == (2, 1)
    route_b_cohomology(RS, parse_expr("E(0,1)(H+2h)"))
    assert (memo.cache_info().hits, memo.cache_info().misses) == (2, 2)


def test_a_failed_pushforward_is_not_memoized(monkeypatch):
    memo = bundles._pushforward
    forget_memos()
    for _ in range(2):
        with pytest.raises(BundleError, match="Levi-dominant"):
            memo(RS, 1, (0, -1), 1)
    # The wrong sum of highest weights of test_levi_tensor_rank_check_raises,
    # reached through route B once its shape is memoized.
    e = parse_expr("E(0,1)(h)")
    route_b_cohomology(RS, e)
    memo.cache_clear()
    monkeypatch.setattr(bundles, "wadd", lambda a, b: a)
    for _ in range(2):
        with pytest.raises(IntegrityError, match="rank"):
            route_b_cohomology(RS, e)
    assert memo.cache_info().currsize == 0
    monkeypatch.undo()
    assert route_b_cohomology(RS, e) == tuple_route_b(e)


def test_a_pushforward_memo_hit_runs_no_python_level_value_comparison(monkeypatch):
    # The key is ints, int tuples and the identity-hashed root system, so a
    # hit hashes and compares it in C.
    exprs = [random_one_sided(random.Random(seed)) for seed in range(20)]
    for e in exprs:
        route_b_cohomology(RS, e)
    before = bundles._pushforward.cache_info()
    calls = count_value_comparisons(monkeypatch)
    for e in exprs:
        route_b_cohomology(RS, e)
    after = bundles._pushforward.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert calls == Counter()


# --- the parse_expr memo ----------------------------------------------------


def test_equal_texts_share_one_parsed_tree():
    for text in ["U*U(h)", "Sym^2 E(1,1)'", "S*U'(-h)", "O(H-2h)", "F(1,-3)"]:
        # a copy built at run time, so the memo's key is equality, not identity
        copy = "".join(list(text))
        assert copy is not text
        first = parse_expr(text)
        assert parse_expr(copy) is first
        assert first == parse_expr.__wrapped__(text)


def test_parse_memo_stores_no_error():
    from bench import queries

    malformed = [q[1] for q in queries.pools()[queries.MALFORMED]]
    assert len(malformed) == 120
    size = parse_expr.cache_info().currsize
    for text in malformed:
        positions = []
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_expr(text)
            positions.append(err.value.position)
        assert positions[0] == positions[1]
    assert parse_expr.cache_info().currsize == size


# --- parser and printer -----------------------------------------------------


def test_parse_examples():
    assert parse_expr("U*U(h)") == Tensor(Universal(), Twist(Universal(), 0, 1))
    assert parse_expr("O(H-2h)") == Line(1, -2)
    assert parse_expr("Sym^2 E(1,1)") == Sym(2, IrrP1(1, 1))
    assert parse_expr("U'") == Dual(Universal())
    assert parse_expr("S") == Spinor()
    assert parse_expr("F(1,-3)") == IrrP2(1, -3)
    assert parse_expr("O(-h-H)") == Line(-1, -1)
    assert parse_expr("O(3h)") == Line(0, 3)
    assert parse_expr("O(2,3)") == Line(2, 3)
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


#: (text, message, position): a position is a 0-based offset into the whole
#: text, inside a pair twist too
PARSE_ERRORS = [
    ("O(1,x)", "expected an integer", 4),
    ("U*O(1, x)", "expected an integer", 7),
    ("O(1 2,3)", "expected ','", 4),
    ("O(  )", "empty twist", 2),
    ("O(--h)", "expected 'h' or 'H' in twist", 3),
    ("O(1,2", "expected ')'", 5),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS)
def test_parse_errors_point_into_the_whole_text(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def parse_message(err: ParseError) -> str:
    return str(err).removesuffix(f" (at position {err.position})")


#: pieces of a text, weighted towards twists, so that about one draw in 30
#: fails inside a pair twist
PARSE_PIECES = [
    "O", "U", "S", "E(", "Sym^2 ", "O(", "U(", "'(", ")", ",", ", ", "'", "*",
    "h", "H", "-", "1", "-2", " ", "x",
]


@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=10).map("".join))
@settings(max_examples=500, deadline=None)
def test_a_leading_space_shifts_every_parse_error_by_one(text):
    try:
        tree = parse_expr(text)
    except ParseError as err:
        with pytest.raises(ParseError) as shifted:
            parse_expr(" " + text)
        assert parse_message(shifted.value) == parse_message(err)
        assert shifted.value.position == err.position + 1
    except BundleError as err:
        # a refused Sym, which has no position
        with pytest.raises(BundleError) as shifted:
            parse_expr(" " + text)
        assert str(shifted.value) == str(err)
    else:
        assert parse_expr(" " + text) == tree


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
    assert parse_expr(format_expr(e)) == e


@given(bundle_exprs())
@settings(max_examples=200, deadline=None)
def test_dual_is_an_involution_and_sym_one_the_identity(e):
    assert Dual(Dual(e)) == e
    assert Sym(1, e) == e
    assert hash(Dual(Dual(e))) == hash(e)
