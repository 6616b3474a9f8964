"""Root-system construction, reflections and pairings against independent oracles."""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from fractions import Fraction
from functools import cache
from math import gcd, prod
from pathlib import Path

import pytest

from g2flop import rootdata
from g2flop.rootdata import (
    IntegrityError,
    Root,
    RootSystem,
    RootSystemError,
    build_root_system,
    g2,
    g2_flipped,
    wneg,
)
from g2flop.bundles import flag_cohomology, parse_expr
from g2flop.checks import run_all
from g2flop.totalspace import hom_v
from g2flop.weylbott import euler_characteristic, weyl_dim
from tests.test_weyl_oracle import apply_word, weyl_elements, word_matrix

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


def simply_laced(n, edges):
    """The Cartan matrix of rank n with -1 on each edge of the Dynkin graph."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return rows


# Bourbaki numbering: the chain 1-3-4-...-n with node 2 on node 4, 0-based.
E7_CARTAN = simply_laced(7, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)])
E8_CARTAN = simply_laced(8, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)])

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


def negative_root(alpha):
    """-alpha: both coordinate vectors negated, the same length."""
    return Root(wneg(alpha.simple_coords), wneg(alpha.weight_coords), alpha.length_sq)


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
    assert len(rs.longest_element) == n_roots


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


def reference_closure(cartan):
    """Positive roots as ``(simple coords, weight coords)`` by height, then
    coordinates: the root-string closure with every pairing summed afresh
    from the Cartan matrix, the reference for the build's carried weight
    coordinates."""
    n = len(cartan)

    def weight_coords(simple):
        return tuple(sum(cartan[r][j] * simple[j] for j in range(n)) for r in range(n))

    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                pair = sum(cartan[i][j] * beta[j] for j in range(n))
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                if p - pair > 0 and up not in known:
                    known.add(up)
                    nxt.append(up)
        frontier = nxt
    ordered = sorted(known, key=lambda c: (sum(c), c))
    return [(c, weight_coords(c)) for c in ordered], [weight_coords(c) for c in simples]


#: Every Cartan matrix the tests build, by name.
ALL_CARTANS = {
    "A1": [[2]],
    "A1xA1": [[2, 0], [0, 2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": rootdata.G2_CARTAN,
    "G2 flipped": ((2, -3), (-1, 2)),
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "G2xA1": ((2, -1, 0), (-3, 2, 0), (0, 0, 2)),
    "A1xG2": ((2, 0, 0), (0, 2, -1), (0, -3, 2)),
    "E6": E6_CARTAN,
    "E7": E7_CARTAN,
    "E8": E8_CARTAN,
}


def test_the_build_matches_the_reference_closure(monkeypatch):
    # The same roots in the same order, with the same weight coordinates,
    # for every Cartan matrix of the tests and of the benchmark.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    cartans = dict(ALL_CARTANS, **importlib.import_module("worker").CARTAN)
    for name, cartan in cartans.items():
        rs = build_root_system(cartan)
        positive, simple = reference_closure(cartan)
        got = [(r.simple_coords, r.weight_coords) for r in rs.positive_roots]
        assert got == positive, name
        assert [r.weight_coords for r in rs.simple_roots] == simple, name
        assert [r.height for r in rs.simple_roots] == [1] * rs.rank, name
        assert all(type(c) is tuple for pair in got for c in pair), name


@pytest.mark.parametrize(
    "cartan, n_roots, order",
    [(E7_CARTAN, 63, 2903040), (E8_CARTAN, 120, 696729600)],
    ids=["E7", "E8"],
)
def test_e7_and_e8_build(cartan, n_roots, order):
    rs = build_root_system(cartan)
    assert (len(rs.positive_roots), rs.weyl_order) == (n_roots, order)
    assert len(rs.longest_element) == n_roots
    assert rs.weyl_denominator == prod(rs.coroot_pairings(rs.rho))


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
    fake = Root((5, 5), (5, 5), Fraction(2))
    with pytest.raises(ValueError):
        rs.pairing((1, 0), fake)


def test_negative_roots_accepted_by_pairing():
    rs = g2()
    for alpha in rs.positive_roots:
        assert rs.pairing((1, 1), negative_root(alpha)) == -rs.pairing((1, 1), alpha)


def test_weyl_invariance_of_pairing():
    rs = g2()
    rng = random.Random(4)
    mus = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(25)]
    for w in weyl_elements(rs):
        for alpha in rs.positive_roots:
            w_alpha_omega = apply_word(rs, w, alpha.weight_coords)
            # find w(alpha) among +-positive roots
            target = None
            for beta in rs.positive_roots:
                if beta.weight_coords == w_alpha_omega:
                    target = beta
                elif wneg(beta.weight_coords) == w_alpha_omega:
                    target = negative_root(beta)
            assert target is not None, "Weyl image of a root must be a root"
            for mu in mus:
                w_mu = apply_word(rs, w, mu)
                assert rs.pairing(w_mu, target) == rs.pairing(mu, alpha)


def test_length_counts_inverted_positive_roots():
    rs = g2()
    for w in weyl_elements(rs):
        inverted = 0
        for alpha in rs.positive_roots:
            image = apply_word(rs, w, alpha.weight_coords)
            if any(
                wneg(beta.weight_coords) == image for beta in rs.positive_roots
            ):
                inverted += 1
        assert inverted == len(w)


def test_longest_element_is_minus_identity():
    rs = g2()
    w0 = rs.longest_element
    assert w0 == (1, 0, 1, 0, 1, 0)
    assert word_matrix(rs, w0) == ((-1, 0), (0, -1))


def test_regularity_is_orbit_invariant():
    rs = g2()
    rng = random.Random(5)
    for _ in range(60):
        mu = (rng.randint(-6, 6), rng.randint(-6, 6))
        orbit = {apply_word(rs, w, mu) for w in weyl_elements(rs)}
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
    roots = list(rs.positive_roots) + [negative_root(a) for a in rs.positive_roots]
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
    # The reference pairings, the dot product with every positive coroot in
    # the order of positive_roots, must be the Fraction formula
    # 2(mu, alpha)/(alpha, alpha), as a tuple of ints.
    rs = kernel_system(name)
    side = range(-2, 3) if rs.rank <= 4 else range(-1, 2)
    for mu in itertools.product(side, repeat=rs.rank):
        got = rs.coroot_pairings(mu)
        assert type(got) is tuple
        assert got == tuple(fraction_pairing(rs, mu, a) for a in rs.positive_roots)
    assert rs.weyl_denominator == prod(rs.coroot_pairings(rs.rho))


def test_compiled_pairings_refuse_a_weight_of_the_wrong_length():
    # weyl_dim reads the compiled Bott kernel, which unpacks the weight
    # first; the reference pairings zip it strictly against each coroot.
    rs = build_root_system(rootdata.G2_CARTAN)
    for mu in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="values to unpack"):
            weyl_dim(rs, mu)
        with pytest.raises(ValueError, match="zip"):
            rs.coroot_pairings(mu)


def test_no_answer_reads_the_generic_pairings(monkeypatch):
    # Every simple-coroot pairing in the package is read as a coordinate and
    # every other one comes from the Bott kernel, so the check suites and the
    # benchmark's reference answers hold on a fresh system, whose memos are
    # all empty, with the generic pairing methods unusable.  The one reader
    # of the generic pairings is the Euler oracle, euler_characteristic,
    # which the check suites call: it reads them on purpose, so as not to
    # share the kernel whose answers it checks.  A malformed query never
    # reaches the root system, so it is skipped.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    oracle = importlib.import_module("oracle")
    generic = RootSystem.coroot_pairings

    def unusable(self, *args):
        raise AssertionError("a generic coroot pairing was read")

    def euler_oracle_only(self, *args):
        if sys._getframe(1).f_code is not euler_characteristic.__code__:
            unusable(self, *args)
        return generic(self, *args)

    monkeypatch.setattr(RootSystem, "pairing", unusable)
    monkeypatch.setattr(RootSystem, "coroot_pairings", euler_oracle_only)
    rs = build_root_system(rootdata.G2_CARTAN)
    assert [r.name for r in run_all(rs) if not r.ok] == []
    reference = oracle.load("queries.json")
    # Every 17th query: about 200, from each stratum of the pool, judged as
    # the benchmark judges them, so an answer the reference left
    # indeterminate may now be determined.
    verdict = oracle.Verdict()
    for key, expected in list(reference.items())[::17]:
        kind, *texts = key.split("\t")
        if expected == oracle.PARSE_ERROR:
            continue
        verdict.start()
        exprs = [parse_expr(t) for t in texts]
        if kind == "coh":
            got = oracle.encode_coh(flag_cohomology(rs, *exprs))
        else:
            got = oracle.encode_homv(hom_v(rs, *exprs))
        oracle.compare_answer(verdict, key, expected, got)
    assert verdict.attempted > 190
    assert verdict.failed == 0, verdict.problems


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
