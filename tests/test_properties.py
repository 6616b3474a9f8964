"""Randomized algebraic property suites; exact equality everywhere.

The acceptance criteria require at least 1000 randomized cases across these
suites with zero tolerance; each test reports its case count through the
module-level tally, which the acceptance module asserts against.
"""

from __future__ import annotations

import random
from itertools import product

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
from tests.test_weyl_oracle import weyl_elements

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
        orbit = {w.apply(mu) for w in weyl_elements(RS)}
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
            image = w.apply(alpha.weight_coords)
            target = None
            for beta in RS.positive_roots:
                if beta.weight_coords == image:
                    target = beta
                elif wneg(beta.weight_coords) == image:
                    target = -beta
            assert target is not None
            for mu in mus:
                assert RS.pairing(w.apply(mu), target) == RS.pairing(mu, alpha)
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
        IrrP1(2, 0),
        Tensor(U, U),
        Tensor(U, Dual(U)),
        Tensor(IrrP1(1, 1), U),
    ]
    for atom, ta, tb in product(atoms, range(-3, 4), range(-3, 4)):
        e = Twist(atom, ta, tb)
        exact = route_b_cohomology(RS, e)
        assert exact is not None
        route_a = filtered_cohomology(RS, weights(RS, e))
        cases += 1
        if route_a.determined:
            comparable += 1
            assert route_a.profile == exact
    _record("route-agreement", cases)
    assert cases >= 400 and comparable >= 150


def test_route_agreement_quadric_side():
    cases = 0
    atoms = [IrrP2(a, b) for a in range(0, 3) for b in range(-3, 1)]
    for atom, ta, tb in product(atoms, range(-2, 3), range(-2, 3)):
        e = Twist(atom, ta, tb)
        exact = route_b_cohomology(RS, e)
        assert exact is not None
        route_a = filtered_cohomology(RS, weights(RS, e))
        cases += 1
        if route_a.determined:
            assert route_a.profile == exact
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
    cases = 0
    rng = random.Random(113)
    pool = [U, Dual(U), Spinor(), IrrP1(1, 1), Line(0, 0)]
    for _ in range(150):
        e = Twist(rng.choice(pool), rng.randint(-3, 3), rng.randint(-3, 3))
        res = flag_cohomology(RS, e)
        chi = euler_characteristic(RS, weights(RS, e))
        if res.determined:
            assert res.profile.euler(RS) == chi
        cases += 1
    _record("euler-consistency", cases)


def test_tally_meets_thousand_case_floor():
    total = sum(CASE_TALLY.values())
    assert total >= 1000, CASE_TALLY
