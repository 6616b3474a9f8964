"""CLI behaviour: exit codes, text/JSON agreement, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2flop import bundles
from g2flop.bundles import RouteMismatchError, flag_cohomology, parse_expr
from g2flop.cli import main
from g2flop.rootdata import g2
from g2flop.weylbott import CohomologyProfile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "0", "1")
    assert code == 0
    assert out.strip() == "7"


def test_dim_json_matches_text(capsys):
    _, text_out, _ = run_cli(capsys, "dim", "1", "1")
    code, json_out, _ = run_cli(capsys, "dim", "1", "1", "--json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["value"] == int(text_out.strip()) == 64
    assert payload["status"] == "pass"


def test_dim_rejects_non_dominant(capsys):
    code, _, err = run_cli(capsys, "dim", "-1", "0")
    assert code == 2
    assert "not dominant" in err


def test_coh_text(capsys):
    code, out, _ = run_cli(capsys, "coh", "U*U(h)")
    assert code == 0
    assert out.startswith("k[-1]")


def test_coh_acyclic(capsys):
    code, out, _ = run_cli(capsys, "coh", "U(-H)")
    assert code == 0
    assert out.strip() == "0"


def test_coh_json_profile(capsys):
    code, out, _ = run_cli(capsys, "coh", "O(h)", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["profile"] == [
        {"degree": 0, "weight": [0, 1], "mult": 1, "dim": 7}
    ]


def test_coh_indeterminate_is_reported_not_failed(capsys):
    code, out, _ = run_cli(capsys, "coh", "S'*S")
    assert code == 0
    assert "indeterminate" in out


def test_coh_indeterminate_e1_listing_groups_equal_weights(capsys):
    # One entry per filtration weight, equal weights adjacent at their first
    # occurrence: S*U(h) has (0, 0) twice, from U*U(h) and from U'(-h)*U(h).
    e1 = ["(-2, 3): k[-1]", "(0, 0): k", "(0, 0): k", "(1, -2): k[-1]"]
    code, out, _ = run_cli(capsys, "coh", "S*U(h)")
    assert code == 0
    assert out == "indeterminate; E1 page: " + "; ".join(e1) + "\n"
    code, out, _ = run_cli(capsys, "coh", "S*U(h)", "--json")
    assert code == 0
    assert json.loads(out) == {
        "command": "coh",
        "e1": e1,
        "inputs": {"expr": "S*U(h)"},
        "status": "indeterminate",
    }


def test_coh_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "coh", "Z(h)")
    assert code == 2
    assert "position" in err


def test_route_mismatch_exits_1_without_traceback(capsys, monkeypatch):
    # Corrupt route B: U(h) has H^0 = k by both routes, route B now says 0.
    monkeypatch.setattr(
        bundles, "route_b_cohomology", lambda rs, e: CohomologyProfile.zero()
    )
    # U(h) may already be memoized from an earlier test; forget it, so the
    # corrupted route really runs.
    bundles._evaluate.cache_clear()
    with pytest.raises(RouteMismatchError, match="routes disagree"):
        flag_cohomology(g2(), parse_expr("U(h)"))
    code, out, err = run_cli(capsys, "coh", "U(h)")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failed: routes disagree on U(h)")


def test_homv(capsys):
    code, out, _ = run_cli(capsys, "homv", "U(h)'", "U")
    assert code == 0
    assert out.strip() == "k[-1]"
    code, out, _ = run_cli(capsys, "homv", "O(H-2h)", "O(h)")
    assert out.strip() == "0"


def test_homv_json(capsys):
    code, out, _ = run_cli(capsys, "homv", "U", "U", "--json")
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["euler"] == 1
    assert payload["profile"][0]["dim"] == 1


def test_hilbert_values(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "r", "0", "1")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run_cli(capsys, "hilbert", "s", "0", "0", "--trunc", "1")
    assert code == 0 and out.strip() == "65"
    code, out, _ = run_cli(capsys, "hilbert", "git", "+", "0", "--trunc", "1")
    assert code == 0 and out.strip() == "65"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["s", "0", "0", "--trunc", "-5"], "truncation must be non-negative"),
        (["git", "+", "2", "--trunc", "-3"], "truncation must be non-negative"),
        (["r", "0", "1", "--trunc", "-1"], "truncation must be non-negative"),
        (
            ["s", "0", "0", "--table", "--table-degree", "-1"],
            "table degree must be non-negative",
        ),
    ],
    ids=["s-trunc", "git-trunc", "r-trunc", "table-degree"],
)
def test_hilbert_negative_bounds_are_usage_errors(capsys, argv, message):
    # These used to print 0 (or an empty table) and exit 0.
    code, out, err = run_cli(capsys, "hilbert", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_hilbert_git_rejects_a_bad_side_through_argparse(capsys):
    # argparse's choices refuse the side before cmd_hilbert runs.
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "git", "x", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'x'" in captured.err


def test_hilbert_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "hilbert", "r", "0", "0", "--json", "--table", "--table-degree", "1"
    )
    payload = json.loads(out)
    assert payload["table"]["entries"][0]["dim"] == 1
    assert "grading" in payload["table"]


def test_sod_replay_passes(capsys):
    code, out, _ = run_cli(capsys, "sod-replay")
    assert code == 0
    assert "step 12 PASS" in out
    assert "final state matches the mirror pattern" in out


def test_sod_replay_json(capsys):
    code, out, _ = run_cli(capsys, "sod-replay", "--json")
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["steps"]) == 12


def test_check_all_green(capsys):
    code, out, _ = run_cli(capsys, "check-all")
    assert code == 0
    assert "ALL CHECKS PASSED" in out


def test_check_all_json_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "check-all", "--json")
    code2, out2, _ = run_cli(capsys, "check-all", "--json")
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("timestamp")
    p2.pop("timestamp")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_check_all_and_sod_replay_match_bench_reference(capsys):
    # The benchmark's recorded answers; an indeterminate suite that now
    # passes is allowed, any other difference is not.
    from bench import oracle

    verdict = oracle.Verdict()
    code, out, _ = run_cli(capsys, "check-all", "--json")
    assert code == 0
    oracle.check_all_payload(verdict, out, oracle.load("check_all.json"))
    code, out, _ = run_cli(capsys, "sod-replay", "--json")
    assert code == 0
    oracle.sod_replay_payload(verdict, out, oracle.load("sod_replay.json"))
    assert verdict.failed == 0, verdict.problems


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "command, golden",
    [("sod-replay", "sod_replay.txt"), ("check-all", "check_all.txt")],
)
def test_text_output_matches_golden(capsys, command, golden):
    # The text renderings are pinned byte for byte, like the JSON ones.
    code, out, _ = run_cli(capsys, command)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv, same_as, text",
    [
        (["coh", "*".join(["O"] * 5000)], ["coh", "O"], "k  (degree 0: dim 1)\n"),
        (["coh", "Sym^1 " * 5000 + "U"], ["coh", "U"], "0\n"),
        (["homv", "*".join(["O"] * 5000), "O(h)"], ["homv", "O", "O(h)"], "V(0,1)\n"),
    ],
    ids=["coh-long-product", "coh-nested-sym", "homv-long-product"],
)
def test_long_expression_is_answered(capsys, argv, same_as, text):
    # The expression walk loops over tensor factors and Sym^1 prefixes, so
    # their number is not bounded by the recursion limit.
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == text
    assert run_cli(capsys, *same_as) == (0, text, "")


def test_deeply_nested_expression_is_a_usage_error(capsys):
    # Sym^m with m >= 2 still recurses into its argument.
    code, out, err = run_cli(capsys, "coh", "Sym^2 " * 1200 + "U")
    assert code == 2
    assert out == ""
    assert err == "expression error: expression nested too deeply\n"


def test_sym_of_sym_chain_is_refused_by_its_rule(capsys):
    # Sym^m Sym^n is refused while the normal form is built, so a chain that
    # the walk can still descend gets the rule's message: the memo key is
    # never a deep factor whose hash would exhaust the stack.
    code, out, err = run_cli(capsys, "coh", "Sym^2 " * 600 + "U")
    assert (code, out) == (2, "")
    assert err == "error: Sym is only supported on rank-2 irreducible atoms\n"


def test_roots_convention_dump(capsys):
    code, out, _ = run_cli(capsys, "roots", "--convention-dump", "--json")
    payload = json.loads(out)
    assert payload["conventions"]["cartan"] == [[2, -1], [-3, 2]]
    assert payload["conventions"]["rho"] == [1, 1]
    assert payload["weyl_order"] == 12


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "g2flop.cli", "dim", "1", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "14"


def test_cli_import_skips_dataclasses_inspect_fractions_decimal():
    # Import cost is paid by every cold check-all and sod-replay process;
    # these modules cost about 15 ms there and the package needs none of them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import g2flop.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
