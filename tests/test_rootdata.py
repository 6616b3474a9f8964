"""Root-system construction, reflections and pairings against independent oracles."""

from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from functools import cache
from math import gcd, prod
from pathlib import Path

import pytest

from g2flop import rootdata
from g2flop.rootdata import (
    IntegrityError,
    RootSystem,
    RootSystemError,
    build_root_system,
    g2,
    g2_flipped,
    wneg,
)
from g2flop.weylbott import weyl_dim
from tests.test_weyl_oracle import weyl_elements

# Independent G2 oracle data (standard tables, alpha_1 long / alpha_2 short):
# positive roots in simple-root coordinates, with squared lengths.
G2_POSITIVE = {
    (1, 0): 6,
    (0, 1): 2,
    (1, 1): 2,
    (1, 2): 2,
    (1, 3): 6,
    (2, 3): 6,
}

E6_CARTAN = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]

# Gram matrix of the fundamental weights, computed by hand from the inverse
# Cartan matrix and the symmetrizer d = (3, 1): (w_i, w_j) = (A^-1)_ij d_i.
GRAM = ((Fraction(6), Fraction(3)), (Fraction(3), Fraction(2)))


def oracle_pairing(mu, alpha_simple):
    """<mu, alpha^v> straight from the Gram matrix, no engine machinery."""
    a_omega = {
        (1, 0): (2, -3),
        (0, 1): (-1, 2),
        (1, 1): (1, -1),
        (1, 2): (0, 1),
        (1, 3): (-1, 3),
        (2, 3): (1, 0),
    }[alpha_simple]
    form = sum(GRAM[i][j] * mu[i] * a_omega[j] for i in range(2) for j in range(2))
    norm = sum(GRAM[i][j] * a_omega[i] * a_omega[j] for i in range(2) for j in range(2))
    value = 2 * form / norm
    assert value.denominator == 1
    return int(value)


def test_g2_shape():
    rs = g2()
    assert rs.rank == 2
    assert len(rs.positive_roots) == 6
    assert rs.weyl_order == 12
    assert rs.rho == (1, 1)
    found = {r.simple_coords: int(r.length_sq) for r in rs.positive_roots}
    assert found == G2_POSITIVE


def test_g2_simple_roots_in_weight_basis():
    rs = g2()
    assert rs.simple_roots[0].weight_coords == (2, -3)
    assert rs.simple_roots[1].weight_coords == (-1, 2)
    assert rs.simple_roots[0].length_sq == 6  # long
    assert rs.simple_roots[1].length_sq == 2  # short


def test_a1():
    rs = build_root_system([[2]])
    assert len(rs.positive_roots) == 1
    assert rs.weyl_order == 2


def test_a1_times_a1():
    rs = build_root_system([[2, 0], [0, 2]])
    assert len(rs.positive_roots) == 2
    assert rs.weyl_order == 4


@pytest.mark.parametrize(
    "cartan,n_roots,order",
    [
        ([[2, -1], [-1, 2]], 3, 6),  # A2
        ([[2, -1], [-2, 2]], 4, 8),  # B2
        ([[2, -2], [-1, 2]], 4, 8),  # C2
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 6, 24),  # A3
        (E6_CARTAN, 36, 51840),
    ],
)
def test_small_types(cartan, n_roots, order):
    rs = build_root_system(cartan)
    assert len(rs.positive_roots) == n_roots
    assert rs.weyl_order == order
    assert rs.longest_element.length == n_roots


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],  # affine A1~
        [[2, -1], [0, 2]],  # not a GCM: zero pattern asymmetric
        [[2, 1], [1, 2]],  # positive off-diagonal
        [[1]],  # bad diagonal
        [[2, -1], [-4, 2]],  # indefinite
    ],
)
def test_rejects_bad_matrices(cartan):
    with pytest.raises(RootSystemError):
        build_root_system(cartan)


#: (positive roots, Weyl order) of every type the benchmark builds, plus G2
#: and E6, from the standard tables.
TYPE_COUNTS = {
    "B3": (9, 48),
    "C3": (9, 48),
    "A4": (10, 120),
    "D4": (12, 192),
    "B4": (16, 384),
    "F4": (24, 1152),
    "A5": (15, 720),
    "D5": (20, 1920),
    "B5": (25, 3840),
    "G2": (6, 12),
    "E6": (36, 51840),
}


def test_accepts_every_benchmark_type_and_g2_and_e6(monkeypatch):
    # Exercises the integer symmetrizer and the Bareiss definiteness test on
    # every finite type in use.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    cartans = dict(importlib.import_module("worker").CARTAN)
    cartans.update(G2=rootdata.G2_CARTAN, E6=E6_CARTAN)
    assert set(cartans) == set(TYPE_COUNTS)
    for name, cartan in cartans.items():
        rs = build_root_system(cartan)
        assert (len(rs.positive_roots), rs.weyl_order) == TYPE_COUNTS[name], name
        d = rs.symmetrizer
        assert min(d) > 0 and gcd(*d) == 1, name
        pairs = itertools.product(range(len(d)), repeat=2)
        assert all(d[i] * cartan[i][j] == d[j] * cartan[j][i] for i, j in pairs), name


def test_weyl_order_from_heights_equals_the_rho_orbit_count(monkeypatch):
    # Macdonald's identity against an independent count: the free orbit of
    # rho has one point per group element.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    cartans = dict(importlib.import_module("worker").CARTAN)
    cartans.update(
        G2=rootdata.G2_CARTAN,
        E6=E6_CARTAN,
        G2xA1=((2, -1, 0), (-3, 2, 0), (0, 0, 2)),
        A1=((2,),),
        A2=((2, -1), (-1, 2)),
        B2=((2, -1), (-2, 2)),
    )
    for name, cartan in cartans.items():
        rs = build_root_system(cartan)
        assert rs.weyl_order == sum(1 for _ in weyl_elements(rs)), name


@pytest.mark.parametrize("shift", [1, -1])
def test_weyl_order_refuses_root_heights_off_by_one(monkeypatch, shift):
    monkeypatch.setattr(
        rootdata.Root, "height", property(lambda r: sum(r.simple_coords) + shift)
    )
    with pytest.raises(IntegrityError, match="not a positive integer"):
        build_root_system(rootdata.G2_CARTAN)


def test_weyl_order_refuses_disagreeing_root_and_coroot_products(monkeypatch):
    # The highest root of G2 reported at height 1 makes the root-side product
    # 480/24 = 20: an exact division, but not the coroot side's 12.
    monkeypatch.setattr(
        rootdata.Root,
        "height",
        property(lambda r: 1 if r.simple_coords == (2, 3) else sum(r.simple_coords)),
    )
    with pytest.raises(IntegrityError, match="differs"):
        build_root_system(rootdata.G2_CARTAN)


@pytest.mark.parametrize(
    "cartan, symmetrizer",
    [
        (((2, -1), (-3, 2)), (3, 1)),
        (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (2, 2, 1)),
        # Disconnected: the first node of every component gets the same value.
        (((2, -1, 0), (-3, 2, 0), (0, 0, 2)), (3, 1, 3)),
        (((2, 0, 0), (0, 2, -1), (0, -3, 2)), (3, 3, 1)),
    ],
)
def test_symmetrizer_pinned(cartan, symmetrizer):
    assert build_root_system(cartan).symmetrizer == symmetrizer


@pytest.mark.parametrize(
    "cartan, message",
    [
        ([[2, -2], [-2, 2]], "not positive definite"),  # affine A1^(1)
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "not positive definite"),  # A2^(1)
        ([[2, -1], [-5, 2]], "not positive definite"),  # hyperbolic, rank 2
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], "not positive definite"),  # hyperbolic
        ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
    ],
)
def test_rejection_messages(cartan, message):
    with pytest.raises(RootSystemError, match=message):
        build_root_system(cartan)


def test_reflect_pinned_example():
    rs = g2()
    # (-1,4) + 1*alpha_1 with alpha_1 = (2,-3)
    assert rs.reflect(0, (-1, 4)) == (1, 1)


def test_reflect_is_involution_and_fixes_walls():
    rs = g2()
    rng = random.Random(1)
    for _ in range(200):
        mu = (rng.randint(-10, 10), rng.randint(-10, 10))
        for i in range(2):
            assert rs.reflect(i, rs.reflect(i, mu)) == mu
            wall = list(mu)
            wall[i] = 0
            assert rs.reflect(i, tuple(wall)) == tuple(wall)


def test_reflect_bad_index():
    with pytest.raises(IndexError):
        g2().reflect(2, (0, 0))


def test_pairing_simple_roots_read_off_coordinates():
    rs = g2()
    rng = random.Random(2)
    for _ in range(50):
        mu = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert rs.pairing(mu, rs.simple_roots[0]) == mu[0]
        assert rs.pairing(mu, rs.simple_roots[1]) == mu[1]


def test_pairing_matches_gram_oracle_everywhere():
    rs = g2()
    rng = random.Random(3)
    for _ in range(100):
        mu = (rng.randint(-10, 10), rng.randint(-10, 10))
        for alpha in rs.positive_roots:
            assert rs.pairing(mu, alpha) == oracle_pairing(mu, alpha.simple_coords)


def test_pairing_pinned_values():
    rs = g2()
    # The weight (-1,1) = -alpha_1-alpha_2 is orthogonal to alpha_1+3alpha_2
    # and pairs to -1 with alpha_1+2alpha_2 (Gram-matrix oracle).
    roots = {r.simple_coords: r for r in rs.positive_roots}
    assert rs.pairing((-1, 1), roots[(1, 3)]) == 0
    assert rs.pairing((-1, 1), roots[(1, 2)]) == -1
    assert oracle_pairing((-1, 1), (1, 3)) == 0
    assert oracle_pairing((-1, 1), (1, 2)) == -1


def test_rho_pairs_positively_with_positive_roots():
    rs = g2()
    assert all(p > 0 for p in rs.coroot_pairings(rs.rho))


def test_pairing_rejects_non_roots():
    rs = g2()
    from g2flop.rootdata import Root

    fake = Root((5, 5), (5, 5), Fraction(2))
    with pytest.raises(ValueError):
        rs.pairing((1, 0), fake)


def test_negative_roots_accepted_by_pairing():
    rs = g2()
    for alpha in rs.positive_roots:
        assert rs.pairing((1, 1), -alpha) == -rs.pairing((1, 1), alpha)


def test_weyl_invariance_of_pairing():
    rs = g2()
    rng = random.Random(4)
    mus = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(25)]
    for w in weyl_elements(rs):
        for alpha in rs.positive_roots:
            w_alpha_omega = w.apply(alpha.weight_coords)
            # find w(alpha) among +-positive roots
            target = None
            for beta in rs.positive_roots:
                if beta.weight_coords == w_alpha_omega:
                    target = beta
                elif wneg(beta.weight_coords) == w_alpha_omega:
                    target = -beta
            assert target is not None, "Weyl image of a root must be a root"
            for mu in mus:
                assert rs.pairing(w.apply(mu), target) == rs.pairing(mu, alpha)


def test_length_counts_inverted_positive_roots():
    rs = g2()
    for w in weyl_elements(rs):
        inverted = 0
        for alpha in rs.positive_roots:
            image = w.apply(alpha.weight_coords)
            if any(
                wneg(beta.weight_coords) == image for beta in rs.positive_roots
            ):
                inverted += 1
        assert inverted == w.length


def test_longest_element_is_minus_identity():
    rs = g2()
    w0 = rs.longest_element
    assert w0.length == 6
    assert w0.matrix == ((-1, 0), (0, -1))


def test_regularity_is_orbit_invariant():
    rs = g2()
    rng = random.Random(5)
    for _ in range(60):
        mu = (rng.randint(-6, 6), rng.randint(-6, 6))
        orbit = {w.apply(mu) for w in weyl_elements(rs)}
        flags = {0 not in rs.coroot_pairings(nu) for nu in orbit}
        assert len(flags) == 1


def test_flipped_convention_differs():
    assert g2().simple_roots[0].weight_coords != g2_flipped().simple_roots[0].weight_coords
    assert g2_flipped().simple_roots[0].length_sq == 2  # short under the flip


def fraction_pairing(rs, mu, alpha):
    """The coroot pairing by 2(mu, alpha)/(alpha, alpha) in Fractions."""
    d = rs.symmetrizer
    form = sum(c * d[j] * mu[j] for j, c in enumerate(alpha.simple_coords))
    norm = sum(c * d[j] * alpha.weight_coords[j] for j, c in enumerate(alpha.simple_coords))
    return Fraction(2 * form, norm)


@pytest.mark.parametrize(
    "cartan",
    [
        g2().cartan,
        [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],  # B3
        [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],  # C3
        [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],  # F4
    ],
)
def test_coroot_table_matches_fraction_formula(cartan):
    rs = build_root_system(cartan)
    roots = list(rs.positive_roots) + [-alpha for alpha in rs.positive_roots]
    assert len(rs.coroots) == len(roots)
    basis = [tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank)]
    for alpha in roots:
        assert rs.coroots[alpha.simple_coords] == tuple(
            fraction_pairing(rs, omega, alpha) for omega in basis
        )
        assert rs.pairing(rs.rho, alpha) == fraction_pairing(rs, rs.rho, alpha)


def test_coroot_table_depends_on_the_convention():
    assert g2().coroots != g2_flipped().coroots


def test_dominance_walk_guard_stops_a_stuck_walk(monkeypatch):
    # A reduced word is no longer than the number of positive roots, so a
    # walk that has not reached the dominant chamber by then is stopped.
    rs = build_root_system(g2().cartan)
    steps = []
    monkeypatch.setattr(RootSystem, "reflect", lambda self, i, mu: steps.append(i) or mu)
    with pytest.raises(RuntimeError, match="failed to terminate"):
        rs.to_dominant((-1, 4))
    assert len(steps) == len(rs.positive_roots) + 1


KERNEL_CARTANS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [list(row) for row in g2().cartan],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "E6": E6_CARTAN,
}


@cache
def kernel_system(name):
    return build_root_system(KERNEL_CARTANS[name])


@pytest.mark.parametrize("name", sorted(KERNEL_CARTANS))
def test_coroot_pairings_match_dot_products(name):
    # The height chain must reproduce the plain dot product with every
    # positive coroot, in the order of positive_roots, as a tuple.
    rs = kernel_system(name)
    coroots = [rs.coroots[r.simple_coords] for r in rs.positive_roots]
    side = range(-2, 3) if rs.rank <= 4 else range(-1, 2)
    for mu in itertools.product(side, repeat=rs.rank):
        got = rs.coroot_pairings(mu)
        assert type(got) is tuple
        assert got == tuple(sum(c * m for c, m in zip(co, mu)) for co in coroots)
    assert rs.weyl_denominator == prod(rs.coroot_pairings(rs.rho))


@pytest.mark.parametrize(
    "name, dims",
    [("F4", [26, 52, 273, 1274]), ("E6", [27, 27, 78, 351, 351, 2925])],
)
def test_fundamental_dimensions_of_exceptional_types(name, dims):
    rs = kernel_system(name)
    basis = [tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank)]
    assert sorted(weyl_dim(rs, omega) for omega in basis) == dims


def test_broken_g2_pin_raises(monkeypatch):
    # The pin is an explicit check, so it also holds under python -O.
    a2 = build_root_system([[2, -1], [-1, 2]])
    monkeypatch.setattr(rootdata, "build_root_system", lambda cartan: a2)
    with pytest.raises(IntegrityError, match="G2 pin"):
        rootdata.g2.__wrapped__()
