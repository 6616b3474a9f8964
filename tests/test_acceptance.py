"""Acceptance suite: one test per criterion, exact equality, pinned runtimes.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

from __future__ import annotations

import time
from collections import Counter

from g2flop.bundles import (
    Dual,
    IrrP1,
    IrrP2,
    Line,
    Spinor,
    Twist,
    Universal,
)
from g2flop.checks import (
    collection_suite,
    total_space_hom_suite,
    hilbert_suite,
    line_acyclicity_suite,
    rank2_cohomology_suite,
)
from g2flop.rootdata import g2, g2_flipped
from g2flop.sodengine import (
    SEED_OBJECTS,
    TARGET_OBJECTS,
    replay_mutation_script,
)
from g2flop.totalspace import hom_v, total_space_canonical
from g2flop.weylbott import K, CohomologyProfile, weyl_dim
from tests.test_sodengine import replay_skipping

RS = g2()


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_line_and_rank2_vanishing():
    started = time.perf_counter()
    lines = line_acyclicity_suite(RS)
    rank2 = rank2_cohomology_suite(RS)
    elapsed = time.perf_counter() - started
    assert lines.status == "pass", lines.details
    assert rank2.status == "pass", rank2.details
    assert elapsed < 1.0, f"suite took {elapsed:.3f}s, budget is 1s"
    _report(
        1,
        f"{lines.checks + rank2.checks} exact cohomology profiles in {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_ext_suite():
    suite = total_space_hom_suite(RS)
    assert suite.status == "pass", suite.details
    # the pinned profiles, spelled out
    u_dual_mh = Twist(Dual(Universal()), 0, -1)
    assert hom_v(RS, u_dual_mh, Universal()).profile == CohomologyProfile(
        ((1, (0, 0), 1),)
    )
    assert hom_v(RS, u_dual_mh, Line(0, 0)).profile == CohomologyProfile(
        ((0, (0, 0), 1),)
    )
    assert hom_v(RS, Line(0, -1), Line(-1, 0)).profile.is_zero
    assert hom_v(RS, u_dual_mh, Line(-1, 0)).profile.is_zero
    assert hom_v(RS, Line(1, -2), Line(0, 1)).profile.is_zero
    _report(2, "all graded-Hom profiles over the total space exact")


def test_criterion_3_replay_and_negative_controls(monkeypatch):
    started = time.perf_counter()
    report = replay_mutation_script(RS)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert len(report.steps) == 12
    assert all(s.ok for s in report.steps)
    assert all(c.passed for s in report.steps for c in s.certificates)
    kinds = Counter(c.kind for s in report.steps for c in s.certificates)
    assert kinds["KClassBalance"] == 3 and kinds["ExactSeq"] == 3
    assert kinds["ExtVanishing"] == 3 and kinds["ExtDim"] == 3
    assert elapsed < 5.0, f"replay took {elapsed:.3f}s, budget is 5s"

    flipped = replay_mutation_script(g2_flipped())
    assert not flipped.passed
    first_bad = [s for s in flipped.steps if not s.ok][0]
    assert first_bad.index == 1  # seed exceptionality is Bott-dependent

    skipped = replay_skipping(monkeypatch, 10)
    assert not skipped.passed and skipped.mismatch is not None
    _report(
        3,
        f"12 steps, {sum(kinds.values())} certificates, negative controls fail "
        f"as documented, {elapsed * 1000:.0f} ms",
    )


def test_criterion_4_collection_matrices():
    for name, objects in (
        ("rank2-side", SEED_OBJECTS),
        ("quadric-side", TARGET_OBJECTS),
    ):
        pairs = 0
        for i in range(len(objects)):
            for j in range(i):
                res = hom_v(RS, objects[i], objects[j])
                assert res.determined and res.profile.is_zero, (name, i, j)
                pairs += 1
        assert pairs == 15
    for e in SEED_OBJECTS + TARGET_OBJECTS:
        res = hom_v(RS, e, e)
        if e == Spinor():
            # reported, may be indeterminate (documented)
            assert not res.determined
            assert res.euler == 1
        else:
            assert res.determined and res.profile == K
    suite = collection_suite(RS, "quadric", TARGET_OBJECTS)
    assert suite.ok
    _report(4, "15+15 semiorthogonality pairs vanish; exceptionality certified")


def test_criterion_5_representation_dimensions():
    assert weyl_dim(RS, (0, 1)) == 7
    assert weyl_dim(RS, (1, 1)) == 64
    assert weyl_dim(RS, (1, 0)) == 14
    assert RS.weyl_order == 12
    assert len(RS.positive_roots) == 6
    assert len(RS.longest_element) == 6
    _report(5, "dimension table and Weyl-group facts")


def test_criterion_6_hilbert_identities():
    started = time.perf_counter()
    suite = hilbert_suite(RS)
    elapsed = time.perf_counter() - started
    assert suite.status == "pass", suite.details
    assert suite.checks >= 300
    assert elapsed < 5.0, f"hilbert suite took {elapsed:.3f}s, budget is 5s"
    _report(6, f"{suite.checks} exact integer identities in {elapsed * 1000:.0f} ms")


def test_criterion_7_calabi_yau():
    assert total_space_canonical(RS, "G", IrrP1(1, 1)) == ((0, 0), True)
    assert total_space_canonical(RS, "Q", IrrP2(1, 1)) == ((0, 0), True)
    assert total_space_canonical(RS, "F", Line(1, 1)) == ((-1, -1), False)
    _report(7, "canonical weights of all three total spaces")


def test_criterion_8_property_suites():
    # The dedicated property module runs the full tally; re-run compact
    # versions here so this module is self-contained, and assert the floor.
    import tests.test_properties as props

    props.CASE_TALLY.clear()
    props.test_serre_duality_flip()
    props.test_orbit_invariance_of_regularity()
    props.test_pairing_weyl_invariance()
    props.test_route_a_equals_route_b_wherever_both_apply()
    props.test_route_agreement_quadric_side()
    props.test_euler_additivity_across_both_sequences()
    props.test_flag_cohomology_never_contradicts_euler()
    total = sum(props.CASE_TALLY.values())
    assert total >= 1000, props.CASE_TALLY
    _report(8, f"{total} randomized exact property cases")
