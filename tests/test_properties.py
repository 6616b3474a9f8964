"""Randomized algebraic property suites; exact equality everywhere.

The acceptance criteria require at least 1000 randomized cases across these
suites with zero tolerance; each test reports its case count through the
module-level tally, which the acceptance module asserts against.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from g2flop import weylbott
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
    route_b_cohomology,
    weights,
)
from g2flop.rootdata import g2, wneg
from g2flop.weylbott import (
    euler_characteristic,
    filtered_cohomology,
    line_cohomology,
)
from tests.test_bundles import forget_memos
from tests.test_rootdata import negative_root
from tests.test_weyl_oracle import apply_word, weyl_elements

RS = g2()
U = Universal()

CASE_TALLY: dict[str, int] = {}


def _record(name: str, count: int) -> None:
    CASE_TALLY[name] = CASE_TALLY.get(name, 0) + count


def test_serre_duality_flip():
    cases = 0
    rng = random.Random(101)
    grid = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    sample = grid + [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(200)]
    for lam in sample:
        left = line_cohomology(RS, lam).dimensions(RS)
        # omega_{G/B} = O(-2 rho) gives the Serre partner -2 rho - lam.
        partner = tuple(-2 - c for c in lam)
        right = line_cohomology(RS, partner).dimensions(RS)
        assert left == {6 - d: n for d, n in right.items()}
        cases += 1
    _record("serre-duality", cases)
    assert cases >= 300


def test_orbit_invariance_of_regularity():
    cases = 0
    rng = random.Random(103)
    sample = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    sample += [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(100)]
    for mu in sample:
        orbit = {apply_word(RS, w, mu) for w in weyl_elements(RS)}
        flags = {0 not in RS.coroot_pairings(nu) for nu in orbit}
        assert len(flags) == 1
        cases += 1
    _record("orbit-regularity", cases)


def test_pairing_weyl_invariance():
    cases = 0
    rng = random.Random(107)
    mus = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(30)]
    for w in weyl_elements(RS):
        for alpha in RS.positive_roots:
            image = apply_word(RS, w, alpha.weight_coords)
            target = None
            for beta in RS.positive_roots:
                if beta.weight_coords == image:
                    target = beta
                elif wneg(beta.weight_coords) == image:
                    target = negative_root(beta)
            assert target is not None
            for mu in mus:
                w_mu = apply_word(RS, w, mu)
                assert RS.pairing(w_mu, target) == RS.pairing(mu, alpha)
                cases += 1
    _record("pairing-invariance", cases)
    assert cases == 12 * 6 * 30


def test_route_a_equals_route_b_wherever_both_apply():
    cases = comparable = 0
    atoms = [
        U,
        Dual(U),
        IrrP1(0, 1),
        IrrP1(1, 1),
        IrrP1(-2, 2),
        Tensor(IrrP1(2, 0), U),
        Tensor(U, U),
        Tensor(U, Dual(U)),
        Tensor(IrrP1(1, 1), U),
    ]
    for atom, ta, tb in product(atoms, range(-3, 4), range(-3, 4)):
        e = Twist(atom, ta, tb)
        exact = route_b_cohomology(RS, e)
        assert exact is not None
        route_a = filtered_cohomology(RS, weights(RS, e))[0]
        cases += 1
        if route_a is not None:
            comparable += 1
            assert route_a == exact
    _record("route-agreement", cases)
    assert cases >= 400 and comparable >= 150


def test_route_agreement_quadric_side():
    cases = 0
    atoms = [IrrP2(a, b) for a in range(1, 4) for b in range(-3, 1)]
    for atom, ta, tb in product(atoms, range(-2, 3), range(-2, 3)):
        e = Twist(atom, ta, tb)
        exact = route_b_cohomology(RS, e)
        assert exact is not None
        route_a = filtered_cohomology(RS, weights(RS, e))[0]
        cases += 1
        if route_a is not None:
            assert route_a == exact
    _record("route-agreement-quadric", cases)


def test_euler_additivity_across_both_sequences():
    cases = 0
    rng = random.Random(109)
    u_dual_mh = Twist(Dual(U), 0, -1)

    def chi(e):
        return euler_characteristic(RS, weights(RS, e))

    factors = [Line(0, 0), U, Dual(U), IrrP1(1, 1), IrrP2(1, 0), Spinor()]
    for _ in range(250):
        x = Twist(
            rng.choice(factors), rng.randint(-3, 3), rng.randint(-3, 3)
        )
        assert chi(Tensor(x, Spinor())) == chi(Tensor(x, U)) + chi(
            Tensor(x, u_dual_mh)
        )
        assert chi(Tensor(x, u_dual_mh)) == chi(Tensor(x, Line(1, -2))) + chi(
            Tensor(x, Line(0, 0))
        )
        cases += 2
    _record("euler-additivity", cases)


def test_pushforward_route_satisfies_euler():
    # The one-sided route is exact, so its profile must reproduce the
    # filtration-independent Euler characteristic on every input, including
    # the relative-degree-1 twists; this pins the pushforward partner
    # weights from an independent direction.
    cases = 0
    atoms = [
        U,
        Dual(U),
        IrrP1(1, 1),
        IrrP1(-1, 2),
        Tensor(U, U),
        IrrP2(1, 0),
        IrrP2(2, -2),
        Tensor(IrrP2(1, 0), IrrP2(1, -3)),
    ]
    for atom, ta, tb in product(atoms, range(-4, 5), range(-4, 5)):
        e = Twist(atom, ta, tb)
        exact = route_b_cohomology(RS, e)
        assert exact is not None
        assert exact.euler(RS) == euler_characteristic(RS, weights(RS, e))
        cases += 1
    _record("pushforward-euler", cases)
    assert cases >= 600


def test_flag_cohomology_never_contradicts_euler():
    # Every line bundle with weight in [-6, 6]^2 comes first: together they
    # meet each of the twelve G2 chambers, read off the reference pairings'
    # signs, so a wrong length stored for any chamber contradicts chi on a
    # determined answer before any other route can disagree.
    cases = 0
    chambers = set()
    rng = random.Random(113)
    pool = [U, Dual(U), Spinor(), IrrP1(1, 1), Line(0, 0)]
    lines = [Line(a, b) for a, b in product(range(-6, 7), repeat=2)]
    for e in lines + [
        Twist(rng.choice(pool), rng.randint(-3, 3), rng.randint(-3, 3))
        for _ in range(150)
    ]:
        res = flag_cohomology(RS, e)
        chi = euler_characteristic(RS, weights(RS, e))
        if res.determined:
            euler = res.profile.euler(RS)
            assert euler == chi, f"{e}: the profile's Euler number {euler}, chi {chi}"
            for w in weights(RS, e):
                pairings = RS.coroot_pairings(tuple(c + 1 for c in w))
                if 0 not in pairings:
                    chambers.add(tuple(p < 0 for p in pairings))
        cases += 1
    assert len(chambers) == RS.weyl_order, f"{len(chambers)} chambers reached"
    _record("euler-consistency", cases)


def test_euler_catches_a_chamber_length_one_too_long(monkeypatch):
    # Negative control, for each of the twelve chambers in turn: once the
    # walk's checks have passed for it, its stored length is made one too
    # long, so line_cohomology puts every weight of that chamber one degree
    # up.  A line bundle has one route, which reads that chamber, so only
    # chi, which reads none, can see it; the Euler test's line bundles come
    # before any mixed bundle whose parabolic route could disagree.
    for lam in product(range(-8, 9), repeat=2):
        line_cohomology(RS, lam)
    chambers = weylbott._bott(RS)[3]
    assert len(chambers) == RS.weyl_order
    for key, (w, length, *slots) in list(chambers.items()):
        monkeypatch.setitem(chambers, key, (w, length + 1, *slots))
        line_cohomology.cache_clear()
        forget_memos()
        try:
            with pytest.raises(AssertionError, match="Euler number"):
                test_flag_cohomology_never_contradicts_euler()
        finally:
            monkeypatch.undo()
            line_cohomology.cache_clear()
            forget_memos()
    assert line_cohomology(RS, (-2, 3)).degrees() == (1,)


def test_forget_memos_lets_a_corrupted_chamber_reach_route_b(monkeypatch):
    # Negative control for the control above: with every chamber one too
    # long, a warm route B pushforward still hands out the old answer, so a
    # corruption run must forget that memo too; once forgotten, route B
    # reads the corrupted chambers and moves every degree up by one.
    for lam in product(range(-8, 9), repeat=2):
        line_cohomology(RS, lam)
    e = Twist(Tensor(U, U), 0, 1)
    warm = route_b_cohomology(RS, e)
    assert not warm.is_zero
    chambers = weylbott._bott(RS)[3]
    for key, (w, length, *slots) in list(chambers.items()):
        monkeypatch.setitem(chambers, key, (w, length + 1, *slots))
    line_cohomology.cache_clear()
    try:
        assert route_b_cohomology(RS, e) == warm
        forget_memos()
        shifted = [(d + 1, w, m) for d, w, m in warm.entries]
        assert list(route_b_cohomology(RS, e).entries) == shifted
    finally:
        monkeypatch.undo()
        line_cohomology.cache_clear()
        forget_memos()
    assert route_b_cohomology(RS, e) == warm


def test_tally_meets_thousand_case_floor():
    total = sum(CASE_TALLY.values())
    assert total >= 1000, CASE_TALLY
