"""The dominance walk and the rho-orbit Weyl group against a matrix oracle.

The oracle group is built here, from the Cartan matrix alone, by
breadth-first closure of the simple-reflection matrices on weight
coordinates; the breadth-first depth of an element is its Weyl length.
``weyl_elements`` enumerates the group a second way, by its free orbit
through rho; the other test modules use it as their Weyl group.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2flop.rootdata import G2_CARTAN, WeylElement, build_root_system, wadd
from g2flop.weylbott import dot_normalize

CARTANS = {
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": G2_CARTAN,
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
}


@lru_cache(maxsize=None)
def system(name):
    return build_root_system(CARTANS[name])


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _apply(m, mu):
    return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in m)


@lru_cache(maxsize=None)
def matrix_group(name):
    """{matrix: Weyl length} for every element, by BFS over s_i matrices.

    alpha_i = sum_r C[r][i] omega_r, and s_i(mu) = mu - mu_i alpha_i.
    """
    cartan = CARTANS[name]
    n = len(cartan)
    gens = [
        tuple(
            tuple(int(r == c) - (cartan[r][i] if c == i else 0) for c in range(n))
            for r in range(n)
        )
        for i in range(n)
    ]
    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    lengths = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _matmul(m, g)
                if prod not in lengths:
                    lengths[prod] = lengths[m] + 1
                    nxt.append(prod)
        frontier = nxt
    return lengths


def weyl_elements(rs):
    """Every Weyl group element once, by increasing length.

    A breadth-first walk over the orbit of rho, which is free because rho is
    regular.  s_i w is longer than w exactly when <w(rho), alpha_i^v> > 0, so
    stepping only along such i leads from length l to length l+1, and
    prepending i to a reduced word keeps it reduced.
    """
    level = {rs.rho: ()}
    while level:
        yield from (WeylElement(word, rs) for word in level.values())
        nxt = {}
        for mu, word in level.items():
            for i, c in enumerate(mu):
                if c > 0:
                    nxt.setdefault(rs.reflect(i, mu), (i,) + word)
        level = nxt


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_walk_matches_matrix_group(data):
    name = data.draw(st.sampled_from(sorted(CARTANS)))
    rs = system(name)
    group = matrix_group(name)
    lam = tuple(data.draw(st.lists(st.integers(-7, 7), min_size=rs.rank, max_size=rs.rank)))
    mu = wadd(lam, rs.rho)
    out = dot_normalize(rs, lam)
    if out.singular:
        assert not any(all(c > 0 for c in _apply(m, mu)) for m in group)
        return
    target = wadd(out.nu, rs.rho)
    assert all(c > 0 for c in target)
    assert out.w.apply(mu) == target
    assert _apply(out.w.matrix, mu) == target
    assert group[out.w.matrix] == out.w.length


@pytest.mark.parametrize("name", sorted(CARTANS))
def test_rho_orbit_enumerates_the_matrix_group(name):
    rs = system(name)
    group = matrix_group(name)
    assert rs.weyl_order == len(group)
    elements = list(weyl_elements(rs))
    assert len(elements) == len(group)
    assert {w.matrix: w.length for w in elements} == group
    w0 = rs.longest_element
    assert w0.length == max(group.values()) == len(rs.positive_roots)
    assert group[w0.matrix] == w0.length
