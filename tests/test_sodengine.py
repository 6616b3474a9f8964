"""Certified SOD moves and the full 12-step mutation replay."""

from __future__ import annotations

from collections import Counter

import pytest

from g2flop import sodengine
from g2flop.bundles import (
    Dual,
    Line,
    Spinor,
    Twist,
    Universal,
    format_expr,
    parse_expr,
    weights,
)
from g2flop.checks import replay_suite
from g2flop.rootdata import g2, g2_flipped
from g2flop.sodengine import (
    CONCLUSION,
    SEED_OBJECTS,
    TARGET_OBJECTS,
    CertificateError,
    LeftMutateThrough,
    MoveError,
    MutateSubcatLeft,
    MutateSubcatRight,
    RightMutateThrough,
    SerreRotateToBack,
    SerreRotateToFront,
    Transpose,
    apply_move,
    k_class,
    render,
    replay_mutation_script,
    seed_state,
)
from g2flop.totalspace import hom_v
from g2flop.weylbott import K, ZERO

RS = g2()

U = Universal()
U_DUAL_MINUS_H = Twist(Dual(U), 0, -1)


def replay_skipping(monkeypatch, skipped: int):
    """The replay with script step ``skipped`` given no moves: a negative
    control whose state must fail a later certificate or the final match."""
    script = tuple(
        (i, text, () if i == skipped else moves)
        for i, text, moves in sodengine._script()
    )
    monkeypatch.setattr(sodengine, "_script", lambda: script)
    return replay_mutation_script(RS)


def test_k_class_examples():
    assert k_class(RS, Spinor()) == Counter(
        {(-1, 1): 1, (0, -1): 1, (0, 0): 1, (1, -2): 1}
    )
    assert k_class(RS, Line(2, -1)) == Counter({(2, -1): 1})
    assert k_class(RS, Twist(U, 1, 0)) == Counter({(0, 1): 1, (1, -1): 1})


def test_seed_state_certifies_exceptionality():
    state, certs = seed_state(RS)
    assert state == SEED_OBJECTS + ("Phi+",)
    assert all(c.passed for c in certs)
    assert render(state)[-1] == "<Phi+>"


def test_left_mutation_produces_spinor_certificates():
    state = (U_DUAL_MINUS_H, U)
    new, certs = apply_move(RS, state, LeftMutateThrough(1, Spinor()))
    assert [c.kind for c in certs] == ["ExtDim", "KClassBalance", "ExactSeq"]
    assert all(c.passed for c in certs)
    assert new[0] == Spinor()
    assert Counter(weights(RS, new[0])) == k_class(RS, Spinor())
    # [S] = [U] + [U'(-h)]
    assert k_class(RS, Spinor()) == k_class(RS, U) + k_class(RS, U_DUAL_MINUS_H)


def test_left_mutation_rejects_wrong_result():
    state = (U_DUAL_MINUS_H, U)
    with pytest.raises(CertificateError):
        apply_move(RS, state, LeftMutateThrough(1, Line(5, 5)))


def test_left_mutation_rejects_wrong_ext_shape():
    # hom(O, O(h)) is 7-dimensional, not k[-1]
    state = (Line(0, 0), Line(0, 1))
    with pytest.raises(CertificateError):
        apply_move(RS, state, LeftMutateThrough(1, Line(0, 2)))


def test_right_mutation_ext4_sequence():
    state = (U_DUAL_MINUS_H, Line(0, 0))
    new, certs = apply_move(RS, state, RightMutateThrough(0, Line(1, -2)))
    assert all(c.passed for c in certs)
    assert new == (Line(0, 0), Line(1, -2))
    # [O(H-2h)] = [U'(-h)] - [O]
    expected = k_class(RS, U_DUAL_MINUS_H)
    expected.subtract(k_class(RS, Line(0, 0)))
    assert +expected == k_class(RS, Line(1, -2))


def test_transpose_requires_vanishing():
    good = (Line(1, -2), Line(0, 1))
    swapped, _ = apply_move(RS, good, Transpose(0))
    assert swapped == (Line(0, 1), Line(1, -2))
    bad = (Line(0, 0), Line(0, 1))
    with pytest.raises(CertificateError):
        apply_move(RS, bad, Transpose(0))


def test_left_then_right_mutation_restores_k_class():
    # mutate U left through U'(-h), then the result right through the same
    # object: the original pair and K-classes come back
    state = (U_DUAL_MINUS_H, U)
    mutated, _ = apply_move(RS, state, LeftMutateThrough(1, Spinor()))
    restored, _ = apply_move(RS, mutated, RightMutateThrough(0, U))
    assert [k_class(RS, b) for b in restored] == [k_class(RS, b) for b in state]
    assert len(restored) == len(state)


def test_serre_rotations_invert():
    state, _ = seed_state(RS)
    objects_only = state[:-1]
    there, _ = apply_move(RS, objects_only, SerreRotateToFront(2))
    back, _ = apply_move(RS, there, SerreRotateToBack(2))
    assert back == objects_only
    # pinned example: O(-H) rotated to the back becomes O(h)
    single = (Line(-1, 0), Line(0, 0))
    rotated, _ = apply_move(RS, single, SerreRotateToBack(1))
    assert rotated[-1] == Line(0, 1)


def test_structural_move_errors():
    state, _ = seed_state(RS)
    with pytest.raises(MoveError):
        apply_move(RS, state, Transpose(5))  # block 6 is the subcategory
    with pytest.raises(MoveError):
        apply_move(RS, state, LeftMutateThrough(0, Line(0, 0)))
    with pytest.raises(MoveError):
        apply_move(RS, state, SerreRotateToFront(0))
    with pytest.raises(MoveError):
        apply_move(RS, state, SerreRotateToFront(7))  # would rotate the subcategory


def test_replay_passes_with_pinned_convention():
    report = replay_mutation_script(RS)
    assert report.passed
    assert [s.index for s in report.steps] == list(range(1, 13))
    assert all(s.ok for s in report.steps)
    assert all(c.passed for s in report.steps for c in s.certificates)
    assert report.conclusion is not None
    # final state is the quadric-side prefix
    assert report.final_state == (
        "O(-3h)",
        "O(-2h)",
        "O(-h)",
        "S",
        "O",
        "O(h)",
        "<Phi3>",
    )


def test_replay_certificates_cover_the_required_profiles():
    report = replay_mutation_script(RS)
    computed = {
        (c.description, c.computed)
        for s in report.steps
        for c in s.certificates
        if c.kind in {"ExtDim", "ExtVanishing"}
    }
    assert ("hom(U(h)', U)", "k[-1]") in computed
    assert ("hom(U(h)', O)", "k") in computed
    assert ("hom(U', O(h))", "k") in computed
    assert ("hom(U(h)', O(-H))", "0") in computed
    assert ("hom(O(-h), O(-H))", "0") in computed
    assert ("hom(O(H-2h), O(h))", "0") in computed


def test_replay_fails_under_flipped_convention_at_seed():
    # The seed's exceptionality certificates are the first Bott-dependent
    # computation, and under the flipped convention U is not exceptional:
    # its self-Hom picks up V(1,0) in degree 1.
    report = replay_mutation_script(g2_flipped())
    assert not report.passed
    failed = [s for s in report.steps if not s.ok]
    assert failed and failed[0].index == 1
    bad = [c for c in failed[0].certificates if not c.passed]
    assert bad and "V(1,0)[-1]" in bad[0].computed


def test_replay_suite_counts_the_steps_that_ran():
    # The flipped replay halts at its seed, so the suite reports one check,
    # not the script's twelve.
    assert len(replay_mutation_script(g2_flipped()).steps) == 1
    flipped = replay_suite(g2_flipped())
    assert (flipped.status, flipped.checks) == ("fail", 1)
    passed = replay_suite(RS)
    assert (passed.status, passed.checks) == ("pass", 12)
    assert passed.details[0].startswith("12 steps, ")


def test_replay_with_skipped_transposition_reports_mismatch(monkeypatch):
    report = replay_skipping(monkeypatch, 10)
    assert not report.passed
    assert all(s.ok for s in report.steps)  # no certificate failure
    assert report.steps[9].index == 10 and report.steps[9].moves == ()
    assert report.mismatch is not None
    assert report.conclusion is None


def test_every_replay_state_is_an_exceptional_sequence():
    # Each of the 12 states, its six objects in order: wherever hom_v is
    # determined, every backward Hom is 0 and every self-Hom is k.  The open
    # Homs all involve S: hom(U(h)', S) at steps 5-7 and hom(S, S) from
    # step 5 on.
    report = replay_mutation_script(RS)
    assert len(report.steps) == 12
    homs, open_homs = 0, []
    for step in report.steps:
        objects = [parse_expr(block) for block in step.state if block[0] != "<"]
        assert len(objects) == 6
        for j, later in enumerate(objects):
            for i, earlier in enumerate(objects[: j + 1]):
                homs += 1
                profile = hom_v(RS, later, earlier).profile
                if profile is None:
                    open_homs.append(
                        (step.index, format_expr(later), format_expr(earlier))
                    )
                else:
                    assert profile == (K if i == j else ZERO)
    assert homs == 12 * 21
    assert sorted(open_homs) == sorted(
        [(i, "U(h)'", "S") for i in (5, 6, 7)] + [(i, "S", "S") for i in range(5, 13)]
    )


def test_report_json_round_trip():
    import json

    report = replay_mutation_script(RS)
    payload = json.dumps(report.to_json())
    parsed = json.loads(payload)
    assert parsed["pass"] is True
    assert len(parsed["steps"]) == 12
    assert parsed["final_state"][3] == "S"


#: The replay's endings: a pass, a halt at a failed certificate (step 4,
#: once step 3 is skipped), a run that ends on the wrong state, and a seed
#: that fails its exceptionality certificates.
ENDINGS = {
    "pass": lambda monkeypatch: replay_mutation_script(RS),
    "halt": lambda monkeypatch: replay_skipping(monkeypatch, 3),
    "mismatch": lambda monkeypatch: replay_skipping(monkeypatch, 10),
    "seed-failure": lambda monkeypatch: replay_mutation_script(g2_flipped()),
}


@pytest.mark.parametrize("ending", ENDINGS)
def test_report_derives_its_final_state_and_verdict(monkeypatch, ending):
    report = ENDINGS[ending](monkeypatch)
    assert report.final_state == report.steps[-1].state
    assert report.passed is (report.mismatch is None)
    assert report.passed is (ending == "pass")
    assert report.conclusion == (CONCLUSION if report.passed else None)
    payload = report.to_json()
    assert list(payload) == [
        "steps",
        "final_state",
        "final_matches",
        "mismatch",
        "conclusion",
        "pass",
    ]
    assert payload["final_state"] == list(report.steps[-1].state)
    assert payload["pass"] is payload["final_matches"] is report.passed
    if ending == "seed-failure":
        assert report.final_state == ()


def test_step_certificates_are_those_its_moves_returned(monkeypatch):
    returned = []

    def recording(rs, state, move):
        new, certs = apply_move(rs, state, move)
        returned.append(certs)
        return new, certs

    monkeypatch.setattr(sodengine, "apply_move", recording)
    report = replay_mutation_script(RS)
    assert report.passed
    seed, *steps = report.steps
    assert seed.moves == ("install six objects + subcategory",)
    for step in steps:
        own = [returned.pop(0) for _ in step.moves]
        assert step.certificates == tuple(c for certs in own for c in certs)
    assert returned == []


def test_target_matches_seed_shapes():
    assert len(SEED_OBJECTS) == 6
    assert len(TARGET_OBJECTS) == 6


# --- failure paths of apply_move ---------------------------------------------


def test_right_mutation_rejects_wrong_result():
    state = (U_DUAL_MINUS_H, Line(0, 0))
    with pytest.raises(CertificateError) as info:
        apply_move(RS, state, RightMutateThrough(0, Line(5, 5)))
    certs = info.value.certificates
    assert [c.kind for c in certs] == ["ExtDim", "KClassBalance", "ExactSeq"]
    assert [c.passed for c in certs] == [True, False, False]
    assert str(info.value) == (
        "right mutation blocked: [O(5H+5h)] = [U(h)'] - chi*[O]: "
        "computed (5, 5), required (1, -2)"
    )


def test_right_mutation_rejects_wrong_ext_shape():
    # hom(O, O(h)) is 7-dimensional, not k
    state = (Line(0, 0), Line(0, 1))
    with pytest.raises(CertificateError) as info:
        apply_move(RS, state, RightMutateThrough(0, Line(0, 2)))
    assert [c.kind for c in info.value.certificates] == ["ExtDim"]
    assert str(info.value) == (
        "right mutation blocked: hom(O, O(h)) = V(0,1), required k"
    )


def test_right_mutation_of_the_last_block():
    state = (U_DUAL_MINUS_H, Line(0, 0))
    with pytest.raises(MoveError, match="cannot mutate the last block to the right"):
        apply_move(RS, state, RightMutateThrough(1, Line(0, 0)))


@pytest.mark.parametrize(
    "move",
    [
        MutateSubcatLeft(6, 7, "Phi"),
        MutateSubcatRight(6, 1, "Phi"),
        # a negative span used to insert a second copy of the subcategory
        MutateSubcatLeft(6, -1, "Phi"),
        MutateSubcatRight(6, -1, "Phi"),
    ],
)
def test_subcategory_span_out_of_range(move):
    state, _ = seed_state(RS)  # the subcategory is the last of 7 blocks
    with pytest.raises(MoveError, match="subcategory mutation span out of range"):
        apply_move(RS, state, move)


def test_subcategory_move_on_an_object_block():
    state, _ = seed_state(RS)
    for move in (
        MutateSubcatLeft(3, 1, "Phi"),
        MutateSubcatRight(0, 1, "Phi"),
    ):
        with pytest.raises(MoveError, match=f"block {move.index} is not a subcategory"):
            apply_move(RS, state, move)


def test_serre_rotation_over_a_subcategory():
    state, _ = seed_state(RS)
    for move in (SerreRotateToFront(1), SerreRotateToBack(7)):
        with pytest.raises(MoveError, match="only exceptional objects can be"):
            apply_move(RS, state, move)


def test_serre_rotation_count_out_of_range():
    state, _ = seed_state(RS)
    for move in (SerreRotateToBack(0), SerreRotateToBack(8), SerreRotateToFront(8)):
        with pytest.raises(MoveError, match="rotation count out of range"):
            apply_move(RS, state, move)


# --- pinned negative controls --------------------------------------------------


def test_flipped_convention_mismatch_string():
    report = replay_mutation_script(g2_flipped())
    assert report.mismatch == "seed exceptionality failed: hom(U, U) = k + V(1,0)[-1]"


@pytest.mark.parametrize(
    "skipped, mismatch",
    [
        (3, "halted at step 4: transposition blocked: hom(U, O) = V(0,1), required 0"),
        (
            4,
            "halted at step 5: left mutation blocked: hom(O(-H), U) = V(0,1), "
            "required k[-1]",
        ),
        (5, "halted at step 8: right mutation blocked: hom(U, O) = V(0,1), required k"),
        (
            8,
            "halted at step 10: transposition blocked: hom(O, O(h)) = V(0,1), "
            "required 0",
        ),
        (
            9,
            "halted at step 10: transposition blocked: hom(O(H-2h), U') = V(0,1), "
            "required 0",
        ),
        (10, "block 0 is O(-H) but the mirror pattern has O(-3h)"),
        (12, "block 0 is O(-h) but the mirror pattern has O(-3h)"),
    ],
)
def test_skipped_step_mismatch_strings(monkeypatch, skipped, mismatch):
    report = replay_skipping(monkeypatch, skipped)
    assert not report.passed
    assert report.mismatch == mismatch


def test_a_replay_that_supplies_s_dual_minus_h_mismatches_at_block_3(monkeypatch):
    # S'(-h) has the weights of S, so step 5 supplying it passes every
    # certificate of the replay; only the final comparison, by expression,
    # tells the two apart.
    s_dual_minus_h = Twist(Dual(Spinor()), 0, -1)
    assert k_class(RS, s_dual_minus_h) == k_class(RS, Spinor())
    script = tuple(
        (i, text, (LeftMutateThrough(3, s_dual_minus_h),) if i == 5 else moves)
        for i, text, moves in sodengine._script()
    )
    monkeypatch.setattr(sodengine, "_script", lambda: script)
    report = replay_mutation_script(RS)
    assert all(s.ok for s in report.steps) and len(report.steps) == 12
    assert report.mismatch == "block 3 is S(h)' but the mirror pattern has S"


@pytest.mark.parametrize(
    "skipped, halt",
    [
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 8),
        (6, 7),
        (7, 9),
        (8, 10),
        (9, 10),
        (10, None),
        (11, 12),
        (12, None),
    ],
)
def test_every_single_skipped_step_fails_without_raising(monkeypatch, skipped, halt):
    # A structurally impossible move (MoveError) halts the replay just like a
    # failed certificate; a replay that runs through fails on the final state.
    report = replay_skipping(monkeypatch, skipped)
    assert not report.passed and report.conclusion is None
    failed = [s.index for s in report.steps if not s.ok]
    if halt is None:
        assert failed == [] and report.mismatch.startswith("block 0 is ")
    else:
        assert failed == [halt] and report.steps[-1].index == halt
        assert report.mismatch.startswith(f"halted at step {halt}: ")
