"""Bott cohomology, Weyl dimensions and the filtration determinacy rule."""

from __future__ import annotations

import gc
import importlib
import random
import sys
from collections import Counter
from itertools import chain, product
from math import prod
from pathlib import Path

import pytest

from g2flop import weylbott
from g2flop.rootdata import (
    G2_CARTAN,
    IntegrityError,
    build_root_system,
    g2,
    g2_flipped,
    wneg,
)
from g2flop.weylbott import (
    ZERO,
    CohomologyProfile,
    combine_pieces,
    compile_pairings,
    dot_normalize,
    euler_characteristic,
    filtered_cohomology,
    line_cohomology,
    weyl_dim,
)
from tests.test_rootdata import E6_CARTAN, E7_CARTAN, E8_CARTAN
from tests.test_weyl_oracle import apply_word, word_matrix

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
    w, length, nu = dot_normalize(RS, (-2, 3))
    assert w == (0,)
    assert length == 1
    assert nu == (0, 0)


def test_dot_normalize_dominant_is_identity():
    for lam in [(0, 0), (3, 1), (5, 7)]:
        w, length, nu = dot_normalize(RS, lam)
        assert w == () and length == 0
        assert nu == lam


def test_dot_normalize_origin_is_singular():
    assert dot_normalize(RS, (-1, -1)) is None


def test_dot_normalize_element_actually_normalizes():
    rng = random.Random(19)
    for _ in range(150):
        lam = (rng.randint(-8, 8), rng.randint(-8, 8))
        out = dot_normalize(RS, lam)
        if out is not None:
            w, _, nu = out
            shifted = (lam[0] + 1, lam[1] + 1)
            target = (nu[0] + 1, nu[1] + 1)
            assert apply_word(RS, w, shifted) == target


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


def _all_negative_kernel(rs, chambers, first):
    # The compiled kernel, reporting every pairing negative to the first
    # weight of each chamber, whatever the weight.
    def all_negative(lam, pairings, signs):
        return first(lam, pairings, (True,) * len(signs))

    return compile_pairings(rs, chambers, all_negative)


def test_dot_normalize_rejects_a_length_mismatch(monkeypatch):
    rs = build_root_system(RS.cartan)
    monkeypatch.setattr(weylbott, "compile_pairings", _all_negative_kernel)
    with pytest.raises(RuntimeError, match="length mismatch"):
        dot_normalize(rs, (-2, 3))
    assert not _chambers_of(rs)


def test_line_cohomology_rejects_a_length_mismatch(monkeypatch):
    # line_cohomology reaches the kernel without going through the
    # dot_normalize cache; the walk-length check must hold on that path too.
    rs = build_root_system(RS.cartan)
    monkeypatch.setattr(weylbott, "compile_pairings", _all_negative_kernel)
    with pytest.raises(IntegrityError, match="length mismatch"):
        line_cohomology(rs, (-2, 3))
    assert not _chambers_of(rs)


@pytest.mark.parametrize("lam", [(-1, 5, 7), (2,), (0, 0, 0)])
def test_a_weight_of_the_wrong_length_is_refused_even_when_singular(lam):
    # (-1, 5, 7) has a zero coordinate in lam+rho, which used to be reported
    # singular and cache the zero profile before any length check.  It is not
    # dominant either, and weyl_dim runs the kernel before that check.
    rs = g2()
    faces = (line_cohomology, dot_normalize, weyl_dim)
    cached = [face.cache_info().currsize for face in faces]
    for face in faces:
        with pytest.raises(ValueError, match="values to unpack"):
            face(rs, lam)
    assert [face.cache_info().currsize for face in faces] == cached


CHAMBER_BOXES = {
    "G2": (G2_CARTAN, 10),
    "B3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), 3),
    "F4": (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 2),
}


SLOT_BOXES = dict(CHAMBER_BOXES, E6=(E6_CARTAN, 2))


def _chambers_of(rs):
    return weylbott._bott(rs)[3]


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
            assert out is None and profile.is_zero
            continue
        top, w = rs.to_dominant(mu)
        nu = tuple(c - 1 for c in top)
        assert out == (w, len(w), nu)
        assert profile == CohomologyProfile(((len(w), nu, 1),))
    chambers = _chambers_of(rs)
    assert 1 < len(chambers) <= rs.weyl_order
    if name == "G2":
        assert len(chambers) == rs.weyl_order


def _same_chamber(rs, key, skip):
    """Regular G2 weights of a small box in the chamber of ``key``."""
    return [
        lam
        for lam in product(range(-8, 9), repeat=2)
        if lam != skip
        and tuple(p < 0 for p in rs.coroot_pairings((lam[0] + 1, lam[1] + 1)))
        == key
        and 0 not in rs.coroot_pairings((lam[0] + 1, lam[1] + 1))
    ]


def test_a_corrupted_chamber_entry_is_refused():
    # Negative control: a stored element of the right length but the wrong
    # chamber, with that wrong element's own slots, sends the next weight of
    # the chamber out of the dominant chamber, on both faces of the kernel.
    rs = build_root_system(G2_CARTAN)
    assert line_cohomology(rs, (-2, 3)).degrees() == (1,)
    (key, (w, *_)), = _chambers_of(rs).items()
    assert w == (0,)
    slots = chain.from_iterable(weylbott._chamber_slots(rs, (1,)))
    _chambers_of(rs)[key] = ((1,), 1, *slots)
    same = _same_chamber(rs, key, (-2, 3))
    assert len(same) >= 2
    with pytest.raises(IntegrityError, match="non-dominant"):
        line_cohomology(rs, same[0])
    with pytest.raises(IntegrityError, match="non-dominant"):
        dot_normalize(rs, same[1])


def test_a_flipped_slot_sign_is_refused():
    # Negative control: the right element with one slot's sign flipped reads
    # a negative image coordinate on the next weight of its chamber.
    rs = build_root_system(G2_CARTAN)
    assert line_cohomology(rs, (-2, 3)).degrees() == (1,)
    (key, (w, length, k, e, *rest)), = _chambers_of(rs).items()
    _chambers_of(rs)[key] = (w, length, k, -e, *rest)
    with pytest.raises(IntegrityError, match="non-dominant"):
        line_cohomology(rs, _same_chamber(rs, key, (-2, 3))[0])


def test_a_row_missing_from_the_coroot_table_is_refused(monkeypatch):
    # Negative control: s_0 sends alpha_0^v to its negative, so a coroot
    # table without that negative coroot cannot complete the slot map of
    # s_0.  The system's first weight raises while the maps are built, and
    # nothing is stored for it: no kernel entry, so no chamber.
    def without_minus_alpha_0(rs):
        table = build_table(rs)
        del table[wneg(rs.coroots[rs.simple_roots[0].simple_coords])]
        return table

    build_table = weylbott._coroot_table
    monkeypatch.setattr(weylbott, "_coroot_table", without_minus_alpha_0)
    rs = build_root_system(G2_CARTAN)
    message = r"s_0 sends the coroot \(1, 0\) to \(-1, 0\), which is not a coroot"
    with pytest.raises(IntegrityError, match=message):
        line_cohomology(rs, (-2, 3))
    assert rs not in weylbott._BOTT


def test_a_corrupted_slot_map_entry_is_refused_by_the_walk_image():
    # Negative control: s_0 sends alpha_1^v to alpha_1^v + 3 alpha_0^v.  A
    # slot map that sends it to alpha_1^v + alpha_0^v instead gives the
    # chamber of (-2, 3), whose word is (0,), a wrong second slot; the
    # walk's image disagrees at that chamber's first weight, on both faces
    # of the kernel, and no chamber is stored.
    rs = build_root_system(G2_CARTAN)
    _, table, maps, chambers = weylbott._bott(rs)
    assert maps[0][table[(0, 1)]] == table[(3, 1)]
    maps[0][table[(0, 1)]] = table[(1, 1)]
    for face in (line_cohomology, dot_normalize):
        with pytest.raises(IntegrityError, match=r"the slots of \(0,\) send"):
            face(rs, (-2, 3))
    assert not chambers
    assert line_cohomology(rs, (0, 0)).degrees() == (0,)


def matrix_row_slots(rs, w):
    """``(k, e)`` per simple i with w^-1 alpha_i^v = e beta_k^v, from w's
    matrix: the reference for the slot maps.

    The rows of w's matrix are built in one pass over the word: the matrix
    starts as the identity and each letter j, last to first, multiplies it
    on the left by s_j, which subtracts alpha_j[r] times row j from row r.
    Each row is then looked up in the coroot table.
    """
    n = rs.rank
    rows = [tuple([int(i == j) for j in range(n)]) for i in range(n)]
    for j in reversed(w):
        pivot = rows[j]
        rows = [
            tuple([x - a * y for x, y in zip(row, pivot)])
            for row, a in zip(rows, rs.simple_roots[j].weight_coords)
        ]
    table = weylbott._bott(rs)[1]
    return tuple(table[row] for row in rows)


@pytest.mark.parametrize("name", sorted(SLOT_BOXES))
def test_stored_slots_reproduce_the_matrix_rows(name):
    # Row i of w's matrix is w^-1 alpha_i^v, and the chamber entry stores it
    # flat as k, e: e times the k-th positive coroot.  word_matrix, which
    # applies the word to each fundamental weight, is the reference.
    cartan, half = SLOT_BOXES[name]
    rs = build_root_system(cartan)
    for lam in product(range(-half, half + 1), repeat=rs.rank):
        line_cohomology(rs, lam)
    chambers = _chambers_of(rs)
    assert len(chambers) > 1
    if name == "G2":
        assert len(chambers) == rs.weyl_order
    positive = [rs.coroots[r.simple_coords] for r in rs.positive_roots]
    for signs, (w, length, *flat) in chambers.items():
        slots = tuple(zip(flat[::2], flat[1::2]))
        assert length == len(w) == signs.count(True)
        assert word_matrix(rs, w) == tuple(
            tuple(e * c for c in positive[k]) for k, e in slots
        )
        assert slots == weylbott._chamber_slots(rs, w) == matrix_row_slots(rs, w)


@pytest.mark.parametrize(
    "cartan, seed", [(E7_CARTAN, 7), (E8_CARTAN, 8)], ids=["E7", "E8"]
)
def test_bott_on_e7_and_e8_agrees_with_a_walk_per_weight(cartan, seed):
    # A seeded sample of weights, nearly each in a chamber of its own: every
    # regular one takes the walk and the slot maps, and must give what a
    # direct dominance walk gives.
    rs = build_root_system(cartan)
    rng = random.Random(seed)
    regular = 0
    for _ in range(500):
        lam = tuple(rng.randint(-40, 40) for _ in range(rs.rank))
        mu = tuple(c + 1 for c in lam)
        out = dot_normalize(rs, lam)
        if 0 in rs.coroot_pairings(mu):
            assert out is None and line_cohomology(rs, lam).is_zero
            continue
        regular += 1
        top, w = rs.to_dominant(mu)
        nu = tuple(c - 1 for c in top)
        assert out == (w, len(w), nu)
        assert line_cohomology(rs, lam) == CohomologyProfile(((len(w), nu, 1),))
    assert regular >= 250
    assert len(_chambers_of(rs)) >= 250


def _benchmark_cartans():
    """``CARTAN`` of bench/worker.py: every type the benchmark builds."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module("worker").CARTAN
    finally:
        sys.path.remove(bench)


#: The benchmark's types, plus A1, G2 and E6: (cartan, half-width of the
#: box).
KERNEL_DEFINITION_BOXES = {
    **{name: (c, 2 if len(c) <= 4 else 1) for name, c in _benchmark_cartans().items()},
    **SLOT_BOXES,
    "A1": ([[2]], 6),
}


def kernel_definition(rs, lam):
    """What the Bott kernel must answer at lam, by its definition.

    The pairings of lam+rho are the dot products with the positive coroots
    in the order of positive_roots; lam is singular exactly when one of
    them is 0, and gets None; otherwise a direct dominance walk gives w and
    w(lam+rho) = nu+rho, and the answer is (w, len(w), nu, pairings).
    """
    mu = tuple(c + 1 for c in lam)
    pairings = rs.coroot_pairings(mu)
    if 0 in pairings:
        return None
    top, w = rs.to_dominant(mu)
    return w, len(w), tuple(c - 1 for c in top), pairings


@pytest.mark.parametrize("name", sorted(KERNEL_DEFINITION_BOXES))
def test_the_compiled_kernel_matches_its_definition(name):
    # The kernel is compiled on a system's first weight, not by the build,
    # and weyl_dim reads its pairings on a dominant box.
    cartan, half = KERNEL_DEFINITION_BOXES[name]
    rs = build_root_system(cartan)
    assert rs not in weylbott._BOTT
    kernel = weylbott._bott(rs)[0]
    singular = 0
    for lam in product(range(-half, half + 1), repeat=rs.rank):
        found = kernel(lam)
        assert found == kernel_definition(rs, lam), lam
        if found is None:
            singular += 1
        else:
            assert type(found[2]) is type(found[3]) is tuple
    assert 0 < singular < (2 * half + 1) ** rs.rank
    for lam in product(range(half + 1), repeat=rs.rank):
        expected = prod(rs.coroot_pairings(tuple(c + 1 for c in lam)))
        assert weyl_dim(rs, lam) == expected // rs.weyl_denominator, lam
    assert rs in weylbott._BOTT


def test_a_kernel_with_one_sign_flipped_is_refused(monkeypatch):
    # Negative control: one wrong sign changes the count of negative
    # pairings, so the walk of the chamber's first weight is one letter off,
    # on both faces of the kernel, and no chamber is stored.
    def flipped(rs, chambers, first):
        def flip(lam, pairings, signs):
            return first(lam, pairings, (not signs[0],) + signs[1:])

        return compile_pairings(rs, chambers, flip)

    rs = build_root_system(G2_CARTAN)
    monkeypatch.setattr(weylbott, "compile_pairings", flipped)
    assert line_cohomology(rs, (-1, 0)).is_zero
    for face in (line_cohomology, dot_normalize):
        for lam in [(0, 0), (-2, 3), (-5, -5)]:
            with pytest.raises(IntegrityError, match="length mismatch"):
                face(rs, lam)
    assert not _chambers_of(rs)


def test_weyl_dim_refuses_a_kernel_that_calls_a_dominant_weight_singular(monkeypatch):
    # Negative control: lam+rho is regular for a dominant lam, so a kernel
    # that returns None there is an engine bug, never a zero dimension.
    rs = build_root_system(G2_CARTAN)
    monkeypatch.setattr(weylbott, "compile_pairings", lambda *_: lambda lam: None)
    with pytest.raises(IntegrityError, match=r"calls the dominant \(0, 1\) singular"):
        weyl_dim(rs, (0, 1))


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
        if out is None:
            assert 0 in pairings
        else:
            w, length, nu = out
            assert len(w) == length == sum(1 for p in pairings if p < 0)
            assert min(nu) >= 0


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
    # the one dot_normalize's image describes, None means a zero coroot
    # pairing of lam+rho (the zero-coordinate early exit included), and a
    # regular image really normalizes, with length = negative pairings.
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
        assert (out is None) == (0 in pairings)
        if out is None:
            singular += 1
            assert profile == CohomologyProfile(())
            continue
        w, length, nu = out
        assert profile == CohomologyProfile(((length, nu, 1),))
        top = tuple(c + 1 for c in nu)
        assert apply_word(rs, w, mu) == top
        assert min(top) > 0
        assert len(w) == length == sum(1 for p in pairings if p < 0)
    assert 0 < singular < (2 * r + 1) ** rs.rank


def test_singular_weights_share_one_outcome_and_one_zero_profile():
    rs = build_root_system(RS.cartan)
    assert dot_normalize(rs, (-1, 0)) is dot_normalize(rs, (-2, 1)) is None
    assert line_cohomology(rs, (-1, 0)) is line_cohomology(rs, (-2, 1))
    assert line_cohomology(rs, (-1, 0)) is ZERO


def _left_tracked(face, rs, weights):
    """The objects that ``face`` leaves tracked by the cyclic garbage
    collector on ``weights``, new to it, once a full collection has run,
    apart from its answers and what they hold."""
    gc.collect()
    before = gc.get_objects()
    known = {id(o) for o in before}
    answers = [face(rs, lam) for lam in weights]
    gc.collect()
    parts, stack = set(), list(answers)
    while stack:
        o = stack.pop()
        if id(o) not in known and id(o) not in parts:
            parts.add(id(o))
            stack.extend(gc.get_referents(o))
    after = gc.get_objects()
    mine = (before, known, answers, parts, stack, after)
    known |= parts | {id(o) for o in mine}
    return [o for o in after if id(o) not in known]


@pytest.mark.parametrize(
    "face",
    [line_cohomology, dot_normalize, weyl_dim],
    ids=["line_cohomology", "dot_normalize", "weyl_dim"],
)
def test_a_bott_miss_leaves_no_tracked_key(face):
    # Each root system has its own Bott memos, keyed by the weight alone.
    # A key is then plain ints, which the collector untracks, so a singular
    # weight leaves no tracked object behind and a regular one only its
    # answer.  A key that held the system could never be untracked, and a
    # batch of new weights would pay for full collections.  The weights are
    # built before the first collection, which untracks them.  The one other
    # object a batch may leave is the memo's own table: the collector
    # untracks a dict while all it holds is untracked, and a new tracked
    # answer tracks it again.
    rs = build_root_system(G2_CARTAN)
    singular = [(-1, b) for b in range(600)]
    dominant = list(product(range(25), repeat=2))
    face(rs, dominant[0])
    batches = [dominant[1:]] if face is weyl_dim else [singular, dominant[1:]]
    for weights in batches:
        left = _left_tracked(face, rs, weights)
        assert len(left) <= 1 and all(type(o) is dict for o in left), left[:3]


def test_each_root_system_keeps_its_own_bott_answers_and_counts():
    # RootSystem hashes by identity, so two systems built from one Cartan
    # matrix keep separate answers and counts.  cache_info() sums the counts
    # over the systems, so hits plus misses is every call, which the
    # benchmark tracer's line_cohomology crosscheck compares with the calls
    # it counts itself.
    first, second = build_root_system(G2_CARTAN), build_root_system(G2_CARTAN)
    for face in (line_cohomology, dot_normalize, weyl_dim):
        start = face.cache_info()
        answer = face(first, (2, 1))
        assert face(first, (2, 1)) is answer
        assert face.cache_info()[:2] == (start.hits + 1, start.misses + 1)
        assert face(second, (2, 1)) == answer
        assert face(second, (1, 2)) != answer
        hits, misses, maxsize, currsize = face.cache_info()
        assert (hits, misses) == (start.hits + 1, start.misses + 3)
        assert (maxsize, currsize) == (None, start.currsize + 3)
    assert line_cohomology(first, (-2, 3)) is not line_cohomology(second, (-2, 3))


def test_cache_clear_lets_a_corrupted_chamber_reach_line_cohomology(monkeypatch):
    # The chamber-corruption controls of the property suite rely on this:
    # a warm memo hands out the old answer, and after cache_clear(), which
    # drops every system's cache, line_cohomology reads the chamber again.
    rs = build_root_system(G2_CARTAN)
    other = build_root_system(G2_CARTAN)
    assert line_cohomology(rs, (-2, 3)).degrees() == (1,)
    assert line_cohomology(other, (-2, 3)).degrees() == (1,)
    ((key, (w, length, *slots)),) = _chambers_of(rs).items()
    monkeypatch.setitem(_chambers_of(rs), key, (w, length + 1, *slots))
    try:
        assert line_cohomology(rs, (-2, 3)).degrees() == (1,)
        line_cohomology.cache_clear()
        assert line_cohomology.cache_info() == (0, 0, None, 0)
        assert line_cohomology(rs, (-2, 3)).degrees() == (2,)
        assert line_cohomology(other, (-2, 3)).degrees() == (1,)
    finally:
        monkeypatch.undo()
        line_cohomology.cache_clear()
    assert line_cohomology(rs, (-2, 3)).degrees() == (1,)


FACES = (line_cohomology, dot_normalize, weyl_dim)
B2_CARTAN = ((2, -1), (-2, 2))


def face_definition(face, rs, lam):
    """What ``face(rs, lam)`` must answer by the kernel's definition, or
    ValueError when it must refuse lam."""
    if len(lam) != rs.rank or (face is weyl_dim and min(lam) < 0):
        return ValueError
    found = kernel_definition(rs, lam)
    if face is weyl_dim:
        return prod(found[3]) // rs.weyl_denominator
    if face is dot_normalize:
        return None if found is None else found[:3]
    return ZERO if found is None else CohomologyProfile(((found[1], found[2], 1),))


def bott_stream(rng, boxes, calls, refusals):
    """``calls`` random calls ``(face, rs, lam)`` over ``boxes``, pairs
    (rs, half-width of its box), about half of them repeats of an earlier
    call.  With ``refusals`` about one weight in ten has the wrong length
    and weyl_dim meets non-dominant weights; without, weyl_dim's weights are
    dominant."""
    stream = []
    while len(stream) < calls:
        if stream and rng.random() < 0.5:
            stream.append(rng.choice(stream))
            continue
        face = rng.choice(FACES)
        rs, half = rng.choice(boxes)
        lam = tuple(rng.randint(-half, half) for _ in range(rs.rank))
        if refusals and rng.random() < 0.1:
            lam += (0,)
        elif face is weyl_dim and not refusals:
            lam = tuple(map(abs, lam))
        stream.append((face, rs, lam))
    return stream


def test_a_singular_weight_is_recomputed_as_a_miss_and_not_stored():
    # The kernel's early exit answers a singular weight no slower than a
    # lookup, so the memo stores no singular answer: every call hands out
    # the shared ZERO, or None, and counts as one miss.
    rs = build_root_system(G2_CARTAN)
    for face, answer in ((line_cohomology, ZERO), (dot_normalize, None)):
        start = face.cache_info()
        for k in range(1, 4):
            assert face(rs, (-1, 4)) is answer
            assert face(rs, (-4, 2)) is answer
            assert face.cache_info() == (
                start.hits, start.misses + 2 * k, None, start.currsize
            )


def test_a_repeated_regular_weight_is_one_stored_answer():
    rs = build_root_system(G2_CARTAN)
    for face, lam in ((line_cohomology, (-5, 2)), (dot_normalize, (-5, 2)),
                      (weyl_dim, (40, 50))):
        start = face.cache_info()
        answer = face(rs, lam)
        assert face.cache_info() == (
            start.hits, start.misses + 1, None, start.currsize + 1
        )
        for k in range(1, 4):
            assert face(rs, lam) is answer
            assert face.cache_info() == (
                start.hits + k, start.misses + 1, None, start.currsize + 1
            )


@pytest.mark.parametrize(
    "face, lam",
    [(line_cohomology, (2,)), (dot_normalize, (-1, 5, 7)), (weyl_dim, (0, 0, 0)),
     (weyl_dim, (-1, 2))],
    ids=["line_cohomology-length", "dot_normalize-length", "weyl_dim-length",
         "weyl_dim-not-dominant"],
)
def test_a_refused_weight_is_a_miss_and_is_not_stored(face, lam):
    rs = build_root_system(G2_CARTAN)
    face(rs, (1, 1))
    start = face.cache_info()
    for k in range(1, 4):
        with pytest.raises(ValueError):
            face(rs, lam)
        assert face.cache_info() == (start.hits, start.misses + k, None, start.currsize)


def test_hits_and_misses_follow_a_model_memo_over_a_mixed_stream_on_two_systems():
    # The model: a call is a hit exactly when an earlier call stored an
    # answer for the same face, system and weight, and only a regular
    # answer is stored.  So hits plus misses is every call.  G2 and B2 have
    # one rank and meet the same weights, so a memo that shared its answers
    # between systems would count hits where the model counts misses.
    boxes = [(build_root_system(G2_CARTAN), 3), (build_root_system(B2_CARTAN), 3)]
    stream = bott_stream(random.Random(36), boxes, 1500, refusals=True)
    start = {face: face.cache_info() for face in FACES}
    stored, hits, misses = set(), Counter(), Counter()
    for face, rs, lam in stream:
        if (face, rs, lam) in stored:
            hits[face] += 1
        else:
            misses[face] += 1
        expected = face_definition(face, rs, lam)
        if expected is ValueError:
            with pytest.raises(ValueError):
                face(rs, lam)
            continue
        answer = face(rs, lam)
        assert answer == expected, (face.__name__, rs.cartan, lam)
        if expected is None or expected is ZERO:
            assert answer is expected
        else:
            stored.add((face, rs, lam))
    for face in FACES:
        info, before = face.cache_info(), start[face]
        counted = (info.hits - before.hits, info.misses - before.misses)
        assert sum(counted) == hits[face] + misses[face]
        assert counted == (hits[face], misses[face]), face.__name__
        new = sum(1 for f, _, _ in stored if f is face)
        assert info.currsize - before.currsize == new, face.__name__
        assert hits[face] and misses[face]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoized_answers_agree_with_the_kernel_definition_over_interleaved_streams(
    seed,
):
    # From cleared memos, a seeded stream interleaves the three faces over
    # weight boxes of five systems, about half of its calls repeats: every
    # answer, a hit's as well as a miss's, is the one the definition of the
    # kernel gives, checked as test_the_compiled_kernel_matches_its_definition
    # checks the kernel itself.
    for face in FACES:
        face.cache_clear()
    cartans = {"A2": ((2, -1), (-1, 2)), "B2": B2_CARTAN, "G2": G2_CARTAN,
               "B3": CHAMBER_BOXES["B3"][0], "F4": CHAMBER_BOXES["F4"][0]}
    half = {"A2": 4, "B2": 4, "G2": 5, "B3": 3, "F4": 2}
    boxes = [(build_root_system(c), half[name]) for name, c in cartans.items()]
    reference = {}
    for face, rs, lam in bott_stream(random.Random(seed), boxes, 3000, refusals=False):
        key = (face, rs, lam)
        if key not in reference:
            reference[key] = face_definition(face, rs, lam)
        assert face(rs, lam) == reference[key], (face.__name__, rs.cartan, lam)
    for face in FACES:
        info = face.cache_info()
        assert info.hits and info.misses and info.currsize


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
    profile, _ = filtered_cohomology(RS, Counter([(-1, 2), (0, 0)]))
    assert profile == CohomologyProfile(((0, (0, 0), 1),))


def test_filtered_u_tensor_u_twisted_by_h():
    profile, _ = filtered_cohomology(RS, Counter([(-2, 3), (-1, 1), (-1, 1), (0, -1)]))
    assert profile == CohomologyProfile(((1, (0, 0), 1),))


def test_filtered_u_tensor_u_dual_is_indeterminate():
    profile, pieces = filtered_cohomology(RS, Counter([(0, 0), (0, 0), (-1, 2), (1, -2)]))
    assert profile is None
    degree_hits = [(p.degrees(), m) for _, p, m in pieces if not p.is_zero]
    assert sorted(degree_hits) == [((0,), 2), ((1,), 1)]
    assert [(w, m) for w, _, m in pieces if w == (0, 0)] == [((0, 0), 2)]


def test_filtered_acyclic_bundle():
    profile, _ = filtered_cohomology(RS, Counter([(-3, 1), (-2, -1)]))
    assert profile is not None and profile.is_zero


def test_filtered_rejects_empty():
    with pytest.raises(ValueError):
        filtered_cohomology(RS, Counter([]))


@pytest.mark.parametrize("mult", [0, -1])
def test_filtered_rejects_non_positive_multiplicities(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        filtered_cohomology(RS, {(0, 0): 1, (1, 1): mult})


@pytest.mark.parametrize("name", sorted(CHAMBER_BOXES))
def test_euler_polynomial_equals_bott_chi(name):
    # The Weyl polynomial reads no chamber, walk or cache; Bott's chi reads
    # all three.  G2 on the box [-12,12]^2, B3 and F4 on 3000 random weights.
    rs = build_root_system(CHAMBER_BOXES[name][0])
    if name == "G2":
        sample = list(product(range(-12, 13), repeat=2))
    else:
        rng = random.Random(17)
        sample = [
            tuple(rng.randint(-10, 10) for _ in range(rs.rank)) for _ in range(3000)
        ]
    for lam in sample:
        assert euler_characteristic(rs, {lam: 1}) == line_cohomology(rs, lam).euler(rs)
    counted = Counter(sample[:50] + sample[:20])
    assert euler_characteristic(rs, counted) == sum(
        m * line_cohomology(rs, lam).euler(rs) for lam, m in counted.items()
    )


def test_a_weyl_polynomial_with_a_remainder_is_refused():
    # Negative control: a denominator seven times too large leaves a
    # remainder at O, whose numerator is the true denominator.
    fields = {name: getattr(RS, name) for name in RS._fields}
    fields["weyl_denominator"] *= 7
    bad = type(RS)(**fields)
    with pytest.raises(IntegrityError, match="not an integer"):
        euler_characteristic(bad, {(0, 0): 1})


def test_filtered_euler_matches_signed_sum():
    rng = random.Random(11)
    for _ in range(100):
        ws = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        ]
        profile, _ = filtered_cohomology(RS, Counter(ws))
        chi = euler_characteristic(RS, Counter(ws))
        if profile is not None:
            assert profile.euler(RS) == chi


# combine_pieces on its own, one test per rule.  The indeterminate cases are
# negative controls: an entry (d, lam) meeting an entry (d+1, lam) of another
# copy must stay refused.
K0 = CohomologyProfile(((0, (0, 0), 1),))
K01 = CohomologyProfile(((0, (0, 0), 1), (1, (0, 0), 1)))
V1 = CohomologyProfile(((1, (0, 1), 1),))
V2 = CohomologyProfile(((2, (1, 0), 1),))


def test_combine_pieces_of_zero_pieces_is_the_shared_zero():
    pieces = [(CohomologyProfile(()), 1), (CohomologyProfile(()), 3)]
    assert combine_pieces(pieces) is ZERO


def test_combine_pieces_returns_a_single_nonzero_piece_itself():
    pieces = [(CohomologyProfile(()), 2), (V1, 1), (CohomologyProfile(()), 1)]
    assert combine_pieces(pieces) is V1


def test_combine_pieces_refuses_a_piece_of_multiplicity_two():
    # k + k[-1] taken twice: the k of one copy meets the k[-1] of the other.
    assert combine_pieces([(K01, 2)]) is None
    assert combine_pieces([(CohomologyProfile(()), 1), (K01, 2)]) is None
    # A piece in one degree is only scaled: (V1, 2) is V1 doubled.
    assert combine_pieces([(V1, 2)]) == CohomologyProfile(((1, (0, 1), 2),))


def test_combine_pieces_unites_copies_in_one_degree():
    # Every differential raises the degree by exactly 1, so copies that
    # share their degree never meet, whatever their labels.
    assert combine_pieces([(K0, 1), (K0, 2)]) == CohomologyProfile(((0, (0, 0), 3),))
    assert combine_pieces([(K0, 2), (V1, 3), (V2, 1)]) == CohomologyProfile(
        ((0, (0, 0), 2), (1, (0, 1), 3), (2, (1, 0), 1))
    )


def test_combine_pieces_refuses_adjacent_degrees():
    # Equal labels in adjacent degrees of two copies: k and k[-1] may cancel.
    k1 = CohomologyProfile(((1, (0, 0), 1),))
    assert combine_pieces([(K0, 1), (k1, 1)]) is None
    assert combine_pieces([(k1, 1), (V2, 1), (K0, 1)]) is None
    assert combine_pieces([(K01, 1), (K0, 1)]) is None


def test_combine_pieces_unites_different_labels_in_adjacent_degrees():
    # The differentials are G-module maps, so by Schur's lemma k cannot meet
    # V(0,1) one degree up, nor V(0,1) meet V(1,0).
    assert combine_pieces([(K0, 1), (V1, 1)]) == CohomologyProfile(
        ((0, (0, 0), 1), (1, (0, 1), 1))
    )
    assert combine_pieces([(V1, 1), (V2, 1)]) == CohomologyProfile(
        ((1, (0, 1), 1), (2, (1, 0), 1))
    )


def test_combine_pieces_lets_one_copy_hold_adjacent_degrees():
    # A piece's own entries are its exact cohomology: only another copy can
    # cancel them, and V(1,0)[-2] carries another label.
    assert combine_pieces([(K01, 1), (V2, 1)]) == CohomologyProfile(
        ((0, (0, 0), 1), (1, (0, 0), 1), (2, (1, 0), 1))
    )


def test_combine_pieces_unites_degrees_two_apart():
    union = CohomologyProfile(((0, (0, 0), 1), (2, (1, 0), 1)))
    assert combine_pieces([(V2, 1), (K0, 1)]) == union
    assert combine_pieces(iter([(K0, 1), (CohomologyProfile(()), 5), (V2, 1)])) == union


def test_parabolic_p1_sections():
    # The P1-irreducible bundle of Levi highest weight (m+k, m) pulls back
    # to the line O(m+k, m), whose sections are its Weyl module.
    for m, k in product(range(0, 4), range(0, 4)):
        prof = line_cohomology(RS, (m + k, m))
        assert prof == CohomologyProfile(((0, (m + k, m), 1),))


def test_parabolic_p1_wall():
    assert line_cohomology(RS, (-1, 2)).is_zero


def test_parabolic_p2_trivial():
    assert line_cohomology(RS, (0, 0)) == CohomologyProfile(((0, (0, 0), 1),))


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
            profile, _ = filtered_cohomology(RS, Counter(string))
            exact = line_cohomology(RS, (a, b))
            if profile is not None:
                assert profile == exact
