"""CLI behaviour: exit codes, text/JSON agreement, reproducibility."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2flop import bundles, checks, cli, totalspace
from g2flop.bundles import (
    ParseError,
    RouteMismatchError,
    flag_cohomology,
    format_expr,
    parse_expr,
    weights,
)
from g2flop.cli import main
from g2flop.coxring import MAX_TABLE_DEGREE
from g2flop.rootdata import g2, g2_flipped
from g2flop.sodengine import replay_mutation_script
from g2flop.totalspace import hom_v
from g2flop.weylbott import ZERO, CohomologyProfile, euler_characteristic
from tests.test_bundles import forget_memos


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
    # weyl_dim refuses the weight; the CLI prints its ValueError
    code, out, err = run_cli(capsys, "dim", "-1", "0")
    assert (code, out, err) == (2, "", "error: (-1, 0) is not dominant\n")


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
    # One entry per distinct filtration weight, its profile scaled by its
    # multiplicity: S*U(h) has (0, 0) twice, from U*U(h) and from
    # U'(-h)*U(h).  Its k^2 meets the k[-1] of (-2, 3), so it stays open.
    e1 = ["(-2, 3): k[-1]", "(0, 0): k^2", "(1, -2): k[-1]"]
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
        bundles, "route_b_cohomology", lambda rs, e: ZERO
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


def test_homv_route_mismatch_exits_1_without_traceback(capsys, monkeypatch):
    # The same corrupted route B, reached through hom_v's native term U(h).
    monkeypatch.setattr(
        bundles, "route_b_cohomology", lambda rs, e: ZERO
    )
    bundles._evaluate.cache_clear()
    totalspace._hom_v.cache_clear()
    for _ in range(2):
        code, out, err = run_cli(capsys, "homv", "O", "U(h)")
        assert (code, out) == (1, "")
        assert err.startswith("verification failed: routes disagree on U(h)")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def test_extension_route_mismatch_exits_1_without_traceback(capsys, monkeypatch):
    # The extension route's quotient piece of S'(-3H) shifted by one degree;
    # filtration and extension gave k[-5] before.
    from tests.test_bundles import S_DUAL_MINUS_3H_MISMATCH, corrupt_extension_quotient

    corrupt_extension_quotient(monkeypatch)
    code, out, err = run_cli(capsys, "coh", "S'(-3H)")
    assert (code, out) == (1, "")
    assert err == f"verification failed: {S_DUAL_MINUS_3H_MISMATCH}\n"


def test_coh_settled_by_the_extension_route_only(capsys):
    code, out, _ = run_cli(capsys, "coh", "S'(-h)", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["status"], payload["route"], payload["profile"]) == (
        "pass",
        "extension",
        [],
    )


def test_homv_with_adjacent_determined_terms_is_indeterminate(capsys):
    # Both Koszul terms are determined, k[-6] and V(1,1)[-6].  The Koszul map
    # vanishes, so the twisted term sits one degree up beside the native one
    # and nothing cancels: the pair is settled, whatever the name says.
    code, out, _ = run_cli(capsys, "homv", "O", "O(-2H-2h)")
    assert (code, out) == (0, "k[-6] + V(1,1)[-7]\n")
    code, out, _ = run_cli(capsys, "homv", "O", "O(-2H-2h)", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["status"], payload["euler"]) == ("pass", -63)
    assert payload["profile"] == [
        {"degree": 6, "weight": [0, 0], "mult": 1, "dim": 1},
        {"degree": 7, "weight": [1, 1], "mult": 1, "dim": 64},
    ]


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


@pytest.mark.parametrize(
    "argv, walks",
    [(["coh", "U(h)", "--json"], 1), (["homv", "U", "O", "--json"], 2)],
    ids=["coh", "homv"],
)
def test_the_json_answer_formats_each_input_and_builds_its_profile_once(
    capsys, monkeypatch, argv, walks
):
    printed, built = [], []

    def counting(e):
        printed.append(e)
        return format_expr(e)

    def counting_profile(rs, profile):
        built.append(profile)
        return real_profile_json(rs, profile)

    real_profile_json = cli._profile_json
    monkeypatch.setattr(cli, "format_expr", counting)
    monkeypatch.setattr(cli, "_profile_json", counting_profile)
    code, _, _ = run_cli(capsys, *argv)
    assert (code, len(printed), len(built)) == (0, walks, 1)


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
        (
            ["s", "0", "0", "--table", "--table-degree", "-1"],
            "table degree must be non-negative",
        ),
        (["s", "-1", "0"], "total-space bidegrees must be non-negative"),
        (["git", "+", "-2"], "GIT degree must be non-negative"),
    ],
    ids=["s-trunc", "git-trunc", "table-degree", "s-bidegree", "git-degree"],
)
def test_hilbert_negative_bounds_are_usage_errors(capsys, argv, message):
    # These used to print 0 (or an empty table) and exit 0.
    code, out, err = run_cli(capsys, "hilbert", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_hilbert_refuses_a_table_degree_above_the_bound(capsys):
    # Building the (N+1)^2 entries used to end in a MemoryError traceback
    # and exit 1; the bound refuses before the first entry.
    top = str(MAX_TABLE_DEGREE)
    argv = ["hilbert", "r", "0", "0", "--table", "--table-degree"]
    code, out, _ = run_cli(capsys, *argv, top)
    assert code == 0
    entries = json.loads(out.splitlines()[1])["entries"]
    assert len(entries) == (MAX_TABLE_DEGREE + 1) ** 2
    for degree in (MAX_TABLE_DEGREE + 1, 100000):
        code, out, err = run_cli(capsys, *argv, str(degree))
        assert (code, out) == (2, "")
        assert err == f"error: table degree {degree} is above the supported {top}\n"


@pytest.mark.parametrize(
    "argv, hw",
    [
        (["coh", "E(1,100000000000)"], "(1, 100000000000)"),
        (["coh", "F(100000000000,1)"], "(100000000000, 1)"),
        (["coh", "Sym^100000000000 U"], "(-100000000000, 100000000000)"),
        (["homv", "E(1,100000000000)", "O"], "(1, 100000000000)"),
    ],
    ids=["E", "F", "Sym", "homv"],
)
def test_a_huge_atom_label_is_refused_before_enumeration(capsys, argv, hw):
    # Each of these used to enumerate 10^11 weights and end in a MemoryError
    # traceback with exit 1, which reads as a failed verification.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: highest weight {hw} has a string of 100000000001 weights, "
        f"more than the {bundles.MAX_STRING_WEIGHTS} supported\n"
    )


def test_the_longest_supported_string_is_answered(capsys, monkeypatch):
    # The bound counts weights: a string of exactly MAX_STRING_WEIGHTS
    # weights is answered and one more is refused.  A small bound keeps the
    # boundary cheap to reach.
    monkeypatch.setattr(bundles, "MAX_STRING_WEIGHTS", 4)
    # An answer or a product's weights memoized under the real bound would
    # skip the smaller one.
    forget_memos()
    code, out, _ = run_cli(capsys, "coh", "F(3,1)")
    assert (code, out) == (0, "V(3,1)  (degree 0: dim 896)\n")
    code, out, err = run_cli(capsys, "coh", "Sym^4 U")
    assert (code, out) == (2, "")
    assert err.endswith("has a string of 5 weights, more than the 4 supported\n")


@pytest.mark.parametrize(
    "argv, factors, pairs",
    [
        pytest.param(["coh", "E(1,3000)*F(3000,1)"], 3001, 9006001, id="coh"),
        pytest.param(["homv", "E(1,3000)*F(3000,1)", "O"], 3001, 9006001, id="homv"),
        pytest.param(["coh", "Sym^99999 U*Sym^99999 U"], 100000, 10**10, id="collinear"),
    ],
)
def test_a_product_with_too_many_weight_pairs_is_refused(capsys, argv, factors, pairs):
    # Each factor is inside the string bound.  E(1,3000)*F(3000,1) would
    # hold 9*10^6 distinct weights; it used to end in a MemoryError
    # traceback and exit 1, which reads as a failed verification.
    # Sym^99999 U*Sym^99999 U holds only 2*10^5, but expanding its 10^10
    # pairs would take hours.  Both are refused before the expansion.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: a product of {factors} by {factors} distinct weights brings its "
        f"expansion to {pairs} pairs, more than the {bundles.MAX_PRODUCT_PAIRS} "
        "supported\n"
    )


def test_a_product_with_too_many_distinct_weights_is_refused(capsys):
    # 10^6 pairs are within the pair bound, but they are 10^6 distinct
    # weights: the expansion stops at the row that passes the weight bound.
    code, out, err = run_cli(capsys, "coh", "E(1,999)*F(999,1)")
    assert (code, out) == (2, "")
    assert err == (
        "error: a product of 1000 by 1000 distinct weights has more than the "
        f"{bundles.MAX_PRODUCT_WEIGHTS} distinct weights supported\n"
    )


def test_the_largest_supported_product_is_answered(capsys, monkeypatch):
    # The weight bound counts distinct weights, not pairs: E(1,2)*F(3,1), 3
    # by 4 weights in independent directions, holds exactly 12 and is
    # answered, and so is Sym^5 U*Sym^6 U, 42 pairs on 12 weights, while
    # E(1,3)*F(3,1) holds 16 and is refused.  A small bound keeps the
    # boundary cheap.
    assert bundles.MAX_PRODUCT_WEIGHTS == 200_000
    monkeypatch.setattr(bundles, "MAX_PRODUCT_WEIGHTS", 12)
    # A product memoized under the real bound would skip the smaller one.
    forget_memos()
    code, out, _ = run_cli(capsys, "coh", "E(1,2)*F(3,1)")
    assert code == 0
    assert out.startswith("indeterminate; E1 page: (4, 3): V(4,3); (2, 6): V(2,6); ")
    code, out, _ = run_cli(capsys, "coh", "Sym^5 U*Sym^6 U")
    assert code == 0
    assert out.startswith("V(0,6)[-4] + V(1,5)[-4] + ")
    code, out, err = run_cli(capsys, "coh", "E(1,3)*F(3,1)")
    assert (code, out) == (2, "")
    assert err == (
        "error: a product of 4 by 4 distinct weights has more than the "
        "12 distinct weights supported\n"
    )


def test_the_pair_bound_counts_the_whole_expansion(capsys, monkeypatch):
    # U*U*Sym^5 U forms 2*2 + 3*6 = 22 pairs and is answered at a bound of
    # 22; U*Sym^5 U*U, the same bundle in another order, forms 2*6 + 7*2 = 26
    # and is refused before its second step.  A small bound keeps the
    # boundary cheap.
    assert bundles.MAX_PRODUCT_PAIRS == 4_000_000
    monkeypatch.setattr(bundles, "MAX_PRODUCT_PAIRS", 22)
    forget_memos()
    code, out, _ = run_cli(capsys, "coh", "U*U*Sym^5 U")
    assert code == 0
    code, out, err = run_cli(capsys, "coh", "U*Sym^5 U*U")
    assert (code, out) == (2, "")
    assert err == (
        "error: a product of 7 by 2 distinct weights brings its expansion to "
        "26 pairs, more than the 22 supported\n"
    )


def test_hilbert_git_zero_side_refuses_a_nonzero_degree(capsys):
    # This used to print 4890, the weight-0 piece, labelled as degree 5.
    code, out, err = run_cli(capsys, "hilbert", "git", "0", "5", "--trunc", "3")
    assert code == 2
    assert out == ""
    assert err == "error: the weight-0 GIT piece has degree 0 only, not 5\n"


def test_hilbert_git_rejects_a_bad_side_before_the_command_runs(capsys):
    # The parser's choices refuse the side before cmd_hilbert runs.
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "git", "x", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'x'" in captured.err


def hilbert_args(kind, positionals, **options):
    """What ``hilbert <kind>`` parses to, in argparse's key order: the r sum
    has no truncation."""
    defaults = {"trunc": 10, "json": False, "table": False, "table_degree": None}
    if kind == "r":
        del defaults["trunc"]
    return {"command": "hilbert", "kind": kind, **positionals, **defaults, **options}


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["roots"], {"command": "roots", "json": False, "convention_dump": False}),
        (
            ["roots", "--convention-dump", "--json"],
            {"command": "roots", "json": True, "convention_dump": True},
        ),
        (
            ["roots", "--conv", "--js"],
            {"command": "roots", "json": True, "convention_dump": True},
        ),
        (["dim", "1", "0"], {"command": "dim", "a": 1, "b": 0, "json": False}),
        (["dim", "-1", "0"], {"command": "dim", "a": -1, "b": 0, "json": False}),
        (["dim", "1", "--json", "2"], {"command": "dim", "a": 1, "b": 2, "json": True}),
        (
            ["dim", "--json", "-3", "-4"],
            {"command": "dim", "a": -3, "b": -4, "json": True},
        ),
        (["coh", "U*U(h)"], {"command": "coh", "expr": "U*U(h)", "json": False}),
        (["coh", "--json", "--", "-x"], {"command": "coh", "expr": "-x", "json": True}),
        (["coh", "--", "--json"], {"command": "coh", "expr": "--json", "json": False}),
        (["coh", "-H -h"], {"command": "coh", "expr": "-H -h", "json": False}),
        (
            ["homv", "U", "O(h)", "--json"],
            {"command": "homv", "source": "U", "target": "O(h)", "json": True},
        ),
        (["hilbert", "r", "0", "1"], hilbert_args("r", {"k": 0, "l": 1})),
        (
            ["hilbert", "s", "0", "0", "--trunc", "1"],
            hilbert_args("s", {"k": 0, "l": 0}, trunc=1),
        ),
        (
            ["hilbert", "git", "-", "3", "--trunc=-5", "--json"],
            hilbert_args("git", {"side": "-", "n": 3}, trunc=-5, json=True),
        ),
        (
            ["hilbert", "git", "0", "0", "--trunc", "-5"],
            hilbert_args("git", {"side": "0", "n": 0}, trunc=-5),
        ),
        (
            ["hilbert", "r", "0", "0", "--table", "--table-degree", "1"],
            hilbert_args("r", {"k": 0, "l": 0}, table=True, table_degree=1),
        ),
        (
            ["hilbert", "s", "0", "0", "--table-d=7", "--tr", "3", "--table"],
            hilbert_args("s", {"k": 0, "l": 0}, trunc=3, table=True, table_degree=7),
        ),
        (
            ["hilbert", "r", "0", "0", "--table-degree=3", "--table"],
            hilbert_args("r", {"k": 0, "l": 0}, table=True, table_degree=3),
        ),
        (["sod-replay", "--json"], {"command": "sod-replay", "json": True}),
        (["check-all"], {"command": "check-all", "json": False}),
    ],
    ids=lambda v: " ".join(v) if type(v) is list else "",
)
def test_the_parser_reads_every_accepted_form(argv, parsed):
    args = vars(cli.parse_args(argv))
    handler = args.pop("func")
    assert args == parsed
    assert list(args) == list(parsed)
    assert handler is getattr(cli, "cmd_" + parsed["command"].replace("-", "_"))


def table_leaves(entry=(cli.DESCRIPTION, cli.COMMANDS), path=()):
    """Each command of ``cli.COMMANDS`` with its path: ``("dim",)``,
    ``("hilbert", "git")``."""
    if type(entry[1]) is dict:
        for name, sub in entry[1].items():
            yield from table_leaves(sub, (*path, name))
    else:
        yield path, entry


TABLE_LEAVES = list(table_leaves())
PLAIN_VALUES = {int: ["0", "2", "7"], str: ["U", "O(h)"]}
#: The table's names, choices and options, and the tokens where the plain
#: reader and argparse could part: a dash, negative and underscored
#: integers, a leading space, a float, ``--``, help, prefixes and values
#: given with ``=``.
TABLE_TOKENS = [
    *sorted({name for path, _ in TABLE_LEAVES for name in path}),
    *sorted({f"--{name}" for _, entry in TABLE_LEAVES for name in entry[3]}),
    *[
        choice
        for _, entry in TABLE_LEAVES
        for _, kind in entry[2]
        if type(kind) is tuple
        for choice in kind
    ],
    *["0", "2", "U", "--trunc=3"],
    *["-", "-1", "-1_000", "1_0", " 3", "1.5", "--", "-h", "--conv", "--tr"],
    *["--json=1", "--trunc=-5"],
]


@st.composite
def table_argvs(draw):
    """A command's path, then tokens: half of them the command's own options
    and values, so that about one argv in fifteen is plain."""
    path, entry = draw(st.sampled_from(TABLE_LEAVES))
    own = [f"--{name}" for name in entry[3]]
    for _, kind in entry[2]:
        own += kind if type(kind) is tuple else PLAIN_VALUES[kind]
    word = st.sampled_from(own) | st.sampled_from(TABLE_TOKENS)
    return [*path, *draw(st.lists(word, max_size=6))]


@functools.cache
def argparse_parser():
    return cli.build_parser()


@settings(max_examples=1000, deadline=None)
@given(table_argvs())
@example(["hilbert", "r", "0", "0", "--trunc", "-1_000"])
@example(["hilbert", "s", "0", "0", "--trunc", "-1_000"])
@example(["hilbert", "r", "0", "0", "--table-degree", "3"])
@example(["dim", "-1_000", "0"])
def test_the_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parsed = vars(argparse_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
    # Equal items in equal order: the key order and the handler too.
    assert list(plain.items()) == list(parsed.items())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--json", "check-all"],
        ["hilbert", "--json", "r", "0", "0"],
        ["hilbert", "q", "0", "0"],
        ["roots", "--conv"],
        ["roots", "--json=1"],
        ["roots", "--json="],
        ["dim", "-1", "0"],
        ["dim", "1"],
        ["dim", "1", "2", "3"],
        ["dim", "x", "1"],
        ["dim", "1.5", "1"],
        ["coh", "-"],
        ["coh", "-2h"],
        ["coh", "-H -h"],
        ["coh", "--", "U"],
        ["coh", "U", "-h"],
        ["hilbert", "git", "x", "1"],
        ["hilbert", "git", "+", "-"],
        ["hilbert", "r", "0", "0", "--tr", "3"],
        ["hilbert", "r", "0", "0", "--trunc"],
        ["hilbert", "r", "0", "0", "--trunc", "--json"],
        ["hilbert", "r", "0", "0", "--trunc", "-5"],
        ["hilbert", "r", "0", "0", "--trunc=-5"],
        ["hilbert", "r", "0", "0", "--trunc="],
        # int() reads -1_000, but argparse takes it for an option.
        ["hilbert", "r", "0", "0", "--trunc", "-1_000"],
        ["hilbert", "s", "0", "0", "--tr", "3"],
        ["hilbert", "s", "0", "0", "--trunc"],
        ["hilbert", "s", "0", "0", "--trunc", "--json"],
        ["hilbert", "s", "0", "0", "--trunc", "-5"],
        ["hilbert", "s", "0", "0", "--trunc=-5"],
        ["hilbert", "s", "0", "0", "--trunc="],
        ["hilbert", "s", "0", "0", "--trunc", "-1_000"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_the_plain_reader_leaves_every_other_form_to_argparse(argv):
    assert cli._plain_args(argv) is None


#: The r sum is not truncated, and a table degree without a table would be
#: ignored: both are refused, not read and dropped.
UNKNOWN_TRUNC = "unrecognized arguments: --trunc %s"
NO_TABLE = "argument --table-degree: only allowed with argument --table"


@pytest.mark.parametrize(
    "argv, prog, message",
    [
        ([], "g2flop", "the following arguments are required: command"),
        (
            ["foo"],
            "g2flop",
            "argument command: invalid choice: 'foo' (choose from 'roots', 'dim', "
            "'coh', 'homv', 'hilbert', 'sod-replay', 'check-all')",
        ),
        (["--json", "check-all"], "g2flop", "unrecognized arguments: --json"),
        (["dim", "1", "2", "--foo"], "g2flop", "unrecognized arguments: --foo"),
        (["coh", "-2h"], "g2flop coh", "the following arguments are required: expr"),
        (["dim", "1"], "g2flop dim", "the following arguments are required: b"),
        (
            ["homv"],
            "g2flop homv",
            "the following arguments are required: source, target",
        ),
        (["dim", "1", "2", "3"], "g2flop", "unrecognized arguments: 3"),
        (["dim", "x", "1"], "g2flop dim", "argument a: invalid int value: 'x'"),
        (
            ["hilbert", "s", "0", "0", "--trunc", "1.5"],
            "g2flop hilbert s",
            "argument --trunc: invalid int value: '1.5'",
        ),
        (
            ["hilbert", "git", "x", "1"],
            "g2flop hilbert git",
            "argument side: invalid choice: 'x' (choose from '+', '-', '0')",
        ),
        (
            ["hilbert", "q"],
            "g2flop hilbert",
            "argument kind: invalid choice: 'q' (choose from 'r', 's', 'git')",
        ),
        (["hilbert"], "g2flop hilbert", "the following arguments are required: kind"),
        (
            ["hilbert", "s", "0", "0", "--trunc"],
            "g2flop hilbert s",
            "argument --trunc: expected one argument",
        ),
        (
            ["hilbert", "s", "0", "0", "--trunc", "--json"],
            "g2flop hilbert s",
            "argument --trunc: expected one argument",
        ),
        (
            ["hilbert", "s", "0", "0", "--trunc", "-1_000"],
            "g2flop hilbert s",
            "argument --trunc: expected one argument",
        ),
        (
            ["hilbert", "s", "0", "0", "--t", "3"],
            "g2flop hilbert s",
            "ambiguous option: --t could match --trunc, --table, --table-degree",
        ),
        (
            ["hilbert", "r", "0", "0", "--json=1"],
            "g2flop hilbert r",
            "argument --json: ignored explicit argument '1'",
        ),
        (
            ["dim", "1", "7" * 5000],
            "g2flop dim",
            f"argument b: invalid int value: '{'7' * 5000}'",
        ),
        (["hilbert", "r", "1", "1", "--trunc", "5"], "g2flop", UNKNOWN_TRUNC % "5"),
        (["hilbert", "r", "1", "1", "--trunc", "0"], "g2flop", UNKNOWN_TRUNC % "0"),
        (["hilbert", "r", "0", "1", "--trunc", "-1"], "g2flop", UNKNOWN_TRUNC % "-1"),
        (["hilbert", "r", "1", "1", "--table-degree", "3"], "g2flop", NO_TABLE),
        (["hilbert", "git", "+", "2", "--table-degree=3"], "g2flop", NO_TABLE),
    ],
    ids=[
        "no-command",
        "unknown-command",
        "option-before-command",
        "unknown-option",
        "unknown-short-option",
        "missing-positional",
        "missing-positionals",
        "extra-positional",
        "non-integer",
        "non-integer-option",
        "bad-choice",
        "bad-kind",
        "no-kind",
        "no-option-value",
        "option-as-option-value",
        "underscored-negative-option-value",
        "ambiguous-prefix",
        "flag-with-value",
        "past-the-digit-limit",
        "trunc-on-r",
        "zero-trunc-on-r",
        "negative-trunc-on-r",
        "table-degree-without-table",
        "table-degree-without-table-on-git",
    ],
)
def test_usage_errors_exit_2_with_a_usage_and_an_error_line(
    capsys, monkeypatch, argv, prog, message
):
    # argparse wraps a long usage onto indented lines, to the terminal's
    # width; 80 is its width without a terminal.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, *wrapped, error = err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]")
    assert all(line.startswith(" ") for line in wrapped)
    assert error == f"{prog}: error: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        *[[name, "-h"] for name in cli.COMMANDS],
        *[["hilbert", kind, "--help"] for kind in ("r", "s", "git")],
        ["dim", "--he"],
    ],
    ids=" ".join,
)
def test_help_exits_0_with_the_usage_and_the_help_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    prog = " ".join(["g2flop", *argv[:-1]])
    assert out.startswith(f"usage: {prog} [-h]")
    entry = (cli.DESCRIPTION, cli.COMMANDS)
    for name in argv[:-1]:
        entry = entry[1][name]
    assert f"\n\n{entry[0]}\n\n" in out
    if type(entry[1]) is dict:
        # argparse lists a group's names 4 spaces in, under "{r,s,git}".
        for name, sub in entry[1].items():
            row = rf"^    {re.escape(name)} +{re.escape(sub[0])}$"
            assert re.search(row, out, re.M)
        return
    # Every option has a help row; argparse puts the text on the next line
    # when the option is long, and wraps it.
    for name in entry[3]:
        row = rf"^  --{re.escape(name)}(?: [A-Z_]+)?(?: {{2,}}|\n {{3,}})\S"
        assert re.search(row, out, re.M), name
        assert " ".join(cli.OPTION_HELP[name].split()) in " ".join(out.split())


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


def leaf_argv(path, entry):
    """A plain argv of a leaf of ``cli.COMMANDS``: the first choice or the
    first plain value of each positional."""
    values = [
        kind[0] if type(kind) is tuple else PLAIN_VALUES[kind][0]
        for _, kind in entry[2]
    ]
    return [*path, *values]


#: Every leaf of the command table, two indeterminate queries, and the two
#: commands that can fail, which replay the mutation script on the flipped G2.
ANSWER_CASES = [
    *[(leaf_argv(path, entry), "pass") for path, entry in TABLE_LEAVES],
    (["coh", "S'*S"], "indeterminate"),
    (["homv", "S", "S"], "indeterminate"),
    (["sod-replay"], "fail"),
    (["check-all"], "fail"),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, status",
    ANSWER_CASES,
    ids=[f"{' '.join(argv)}-{status}" for argv, status in ANSWER_CASES],
)
def test_every_command_returns_its_answer_and_main_alone_prints_it(
    capsys, monkeypatch, argv, status, as_json
):
    if status == "fail":

        def flipped(rs):
            return replay_mutation_script(g2_flipped())

        monkeypatch.setattr(cli, "replay_mutation_script", flipped)
        monkeypatch.setattr(checks, "replay_mutation_script", flipped)
    argv = [*argv, "--json"] if as_json else argv
    args = cli.parse_args(argv)
    answer = args.func(args, g2())
    assert capsys.readouterr() == ("", "")
    assert type(answer) is tuple and len(answer) == 2
    payload, text = answer
    assert (type(payload), type(text), payload["status"]) == (dict, str, status)
    assert "command" not in payload
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1 if status == "fail" else 0, "")
    if as_json:
        # One document, the handler's payload with the command added.
        printed = json.loads(out)
        if "timestamp" in payload:
            payload["timestamp"] = printed["timestamp"]
        payload["command"] = argv[0]
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        assert out == text + "\n"


def test_every_pool_query_matches_bench_reference():
    # The benchmark's recorded answers to its whole query pool, judged as
    # the query-mix workload judges them: a malformed key must raise
    # ParseError, and an indeterminate answer that is now determined is
    # allowed.
    from bench import oracle

    rs = g2()
    verdict = oracle.Verdict()
    malformed = 0
    for key, expected in oracle.load("queries.json").items():
        command, *texts = key.split("\t")
        verdict.start()
        if expected == oracle.PARSE_ERROR:
            malformed += 1
            with pytest.raises(ParseError):
                [parse_expr(text) for text in texts]
            continue
        exprs = [parse_expr(text) for text in texts]
        if command == "coh":
            res = flag_cohomology(rs, *exprs)
            got = oracle.encode_coh(res)
            # The reference has no Euler tail for coh; check chi here.
            chi = euler_characteristic(rs, weights(rs, *exprs))
        else:
            res = hom_v(rs, *exprs)
            got = oracle.encode_homv(res)
            chi = res.euler
        if res.determined:
            assert res.profile.euler(rs) == chi, key
        oracle.compare_answer(verdict, key, expected, got)
    assert (verdict.attempted, malformed) == (3436, 120)
    assert verdict.failed == 0, verdict.problems
    # 687 parseable answers are indeterminate in the reference; the split
    # Koszul terms and the equal-label, adjacent-degree rule settle 560.
    assert verdict.newly_determined == 560


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "command, golden",
    [
        ("sod-replay", "sod_replay.txt"),
        ("check-all", "check_all.txt"),
        ("roots --convention-dump", "roots.txt"),
    ],
)
def test_text_output_matches_golden(capsys, command, golden):
    # The text renderings are pinned byte for byte, like the JSON ones.
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_e1_pages_match_golden(capsys):
    # The benchmark's oracle writes "?" for every indeterminate answer, so
    # only this golden pins an E1 page: its pieces, and their order, the
    # filtration order of first occurrence.  Each query line is followed by
    # the CLI's text answer.  The memos are cleared first, so that the pages
    # are computed here rather than recalled from an earlier test.
    lines = (GOLDEN / "e1_pages.txt").read_text().splitlines()
    assert lines and len(lines) % 2 == 0
    forget_memos()
    for query, expected in zip(lines[::2], lines[1::2]):
        assert expected.startswith("indeterminate; E1 page: "), query
        code, out, _ = run_cli(capsys, *query.split(" ", 1))
        assert code == 0
        assert out == expected + "\n", query


@pytest.mark.parametrize(
    "command, golden",
    [("sod-replay", "sod_replay.json"), ("check-all", "check_all.json")],
)
def test_json_output_matches_golden(capsys, command, golden):
    # Serialized as the CLI prints it; check-all's timestamp key is removed.
    code, out, _ = run_cli(capsys, command, "--json")
    assert code == 0
    payload = json.loads(out)
    if payload.pop("timestamp", None) is not None:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    # The parser loops over tensor factors and Sym^1 prefixes, so their
    # number is not bounded by the recursion limit.
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == text
    assert run_cli(capsys, *same_as) == (0, text, "")


def test_deeply_nested_expression_is_a_usage_error(capsys):
    # Nothing recurses on an expression, so a deep Sym^2 chain is refused by
    # the rule that refuses a short one, at its second Sym.
    code, out, err = run_cli(capsys, "coh", "Sym^2 " * 1200 + "U")
    assert code == 2
    assert out == ""
    assert err == "error: Sym is only supported on rank-2 irreducible atoms\n"


SYM_REFUSAL = "error: Sym is only supported on rank-2 irreducible atoms"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["coh", "Sym^2 O*"], SYM_REFUSAL),
        (["homv", "Sym^2 Sym^2 U", "X"], SYM_REFUSAL),
        (["homv", "Sym^3 O", "U*"], SYM_REFUSAL),
        (["coh", "X*Sym^2 O"], "expression error: unknown atom 'X' (at position 0)"),
    ],
    ids=["coh", "homv-source", "homv-line", "earlier-syntax-error"],
)
def test_a_sym_refusal_wins_over_a_later_syntax_error(capsys, argv, err):
    # The parser builds each term as it reads it, so a refused Sym stops it
    # before it reaches a syntax error further on, and not before one that
    # comes earlier.
    assert run_cli(capsys, *argv) == (2, "", err + "\n")


def test_a_spinor_product_past_the_bound_is_a_usage_error(capsys):
    # 13 factors would take minutes through the extension route.
    code, out, err = run_cli(capsys, "coh", "*".join(["S"] * 13))
    assert (code, out) == (2, "")
    assert err == (
        "error: a product of 13 S or S' factors has more than the 10 supported\n"
    )


def test_a_spinor_product_past_the_work_budget_is_a_usage_error(capsys):
    # Inside the factor bound, but each of the 2047 evaluations would expand
    # E(1,3)*F(3,1) in full: a cold coh took 44 s before the budget.
    text = "*".join(["S"] * 10) + "*E(1,3)*F(3,1)"
    code, out, err = run_cli(capsys, "coh", text)
    assert (code, out) == (2, "")
    assert err == (
        "error: a product of 10 S or S' factors on 226 distinct weights needs "
        "2047 evaluations of them, 462622 weights in all, more than the 250000 "
        "supported\n"
    )


@pytest.mark.parametrize(
    "text, position",
    [("O(1,{})", 4), ("O({}h)", 2), ("Sym^{} U", 4)],
    ids=["pair-twist", "twist-coefficient", "sym-power"],
)
def test_an_integer_past_the_digit_limit_is_an_expression_error(
    capsys, text, position
):
    # Refused at the literal's first character before int() sees it, so the
    # message does not depend on the interpreter's own digit limit.
    code, out, err = run_cli(capsys, "coh", text.format("7" * 5000))
    assert (code, out) == (2, "")
    assert err == (
        "expression error: integer with more than 640 digits "
        f"(at position {position})\n"
    )


@pytest.fixture
def digit_floor():
    """The interpreter's int/str digit limit at its floor, 640, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


NINES = "9" * 600
HALF = str(6 * 10**99)


@pytest.mark.parametrize(
    "argv, position",
    [
        (["coh", f"O({NINES}h)"], 2),
        (["coh", "--json", f"U*O({NINES}H)"], 4),
        (["coh", f"O(h)*Sym^{NINES} U"], 9),
        (["coh", f"O({HALF}h) * E({HALF},1)"], len(f"O({HALF}h) * E(")),
        (["coh", f"Sym^3 E({4 * 10**99},1)"], 0),
        (["homv", "U", f"U'({HALF}H-{HALF}h)"], len(f"U'({HALF}H-")),
    ],
    ids=["twist", "json-twist", "sym-power", "sum", "sym-scaled", "homv-target"],
)
def test_an_answer_past_the_digit_limit_is_refused_where_it_passes(
    capsys, digit_floor, argv, position
):
    # O(<600 nines>h) has a Weyl dimension of about 3000 digits, which no
    # digit limit of 640 can print: it is refused as it is parsed, at the
    # integer, or the Sym, that takes the expression's size past 10^100.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "expression error: weights past 10^100 are not supported "
        f"(at position {position})\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["coh", "O(" + "9" * 100 + "h)"],
        ["coh", "--json", f"O({HALF}H)*E({10**98},1)"],
        ["coh", f"Sym^2 E({10**99},1)(-{HALF}H)"],
        ["homv", "--json", "U*U", f"U'({4 * 10**99}H-{4 * 10**99}h)"],
    ],
    ids=["twist", "json-product", "sym-twist", "homv"],
)
def test_answers_just_inside_the_weight_bound_print_at_the_digit_limit(
    capsys, digit_floor, argv
):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert max(len(d) for d in re.findall(r"\d+", out)) > 400


BOUND = 10**90


@pytest.mark.parametrize(
    "argv, name",
    [
        (["dim", "0", NINES], "b"),
        (["dim", str(BOUND), "0", "--json"], "a"),
        (["dim", f"-{NINES}", "0"], "a"),
        (["hilbert", "s", NINES, "0"], "k"),
        (["hilbert", "r", "0", str(-BOUND)], "l"),
        (["hilbert", "git", "+", NINES], "n"),
        (["hilbert", "s", "0", "0", "--trunc", NINES], "trunc"),
        (["hilbert", "r", "0", "0", "--table", "--table-degree", NINES], "table-degree"),
    ],
    ids=[
        "dim",
        "dim-at-bound",
        "dim-negative",
        "hilbert-s",
        "hilbert-r",
        "git",
        "trunc",
        "table-degree",
    ],
)
def test_an_argument_past_the_bound_is_refused_at_the_digit_limit(
    capsys, digit_floor, argv, name
):
    # dim 0 <600 nines> has a Weyl dimension of about 3000 digits: refused
    # before anything is computed, naming the argument.
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: integers past 10^90 are not supported (argument {name})\n",
    )


@pytest.mark.parametrize(
    "argv, digits",
    [
        (["dim", str(BOUND - 1), str(BOUND - 1)], 541),
        (["hilbert", "s", str(BOUND - 1), str(BOUND - 1), "--trunc", str(BOUND - 1)], 632),
        (["hilbert", "git", "-", str(BOUND - 1), "--trunc", str(BOUND - 1), "--json"], 631),
        (["hilbert", "s", "0", "0", "--trunc", str(10**12)], 84),
    ],
    ids=["dim", "hilbert-s", "git-json", "long-trunc"],
)
def test_arguments_inside_the_bound_print_at_the_digit_limit(
    capsys, digit_floor, argv, digits
):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert max(len(d) for d in re.findall(r"\d+", out)) == digits


def test_sym_of_sym_chain_is_refused_by_its_rule(capsys):
    # A normal factor holds one Sym power, so Sym^m Sym^n is refused while
    # the expression is built.
    code, out, err = run_cli(capsys, "coh", "Sym^2 " * 600 + "U")
    assert (code, out) == (2, "")
    assert err == "error: Sym is only supported on rank-2 irreducible atoms\n"


# --- fuzzing ----------------------------------------------------------------

#: mostly small numbers, some huge ones that a string bound must refuse or
#: Bott must take whole
HUGE = [10**6, -(10**6), 10**12, 2**64, -(10**30)]
FUZZ_INTS = st.one_of(st.integers(0, 4), st.integers(-4, 4), st.sampled_from(HUGE))
FUZZ_POWERS = st.one_of(st.integers(1, 4), st.sampled_from([p for p in HUGE if p > 0]))
#: the grammar's own characters, then any character but a lone surrogate
FUZZ_CHARS = st.one_of(
    st.sampled_from(list("OUSEF^*()',+-hH0123456789 ")),
    st.characters(exclude_categories=("Cs",)),
)


@st.composite
def grammar_texts(draw):
    """An expression from the grammar: up to three terms, each an atom under
    up to two Sym powers with optional twists and a dual, the whole maybe
    nested under a long chain of Sym powers."""

    def twist():
        if draw(st.booleans()):
            return f"{draw(FUZZ_INTS)},{draw(FUZZ_INTS)}"
        return draw(st.sampled_from(["h", "H", "-h", "2H-3h", "H+h", "-2h-H"]))

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("OUSEF"))
        term = kind if kind in "OUS" else f"{kind}({draw(FUZZ_INTS)},{draw(FUZZ_INTS)})"
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            term = f"Sym^{draw(FUZZ_POWERS)} {term}"
        if draw(st.booleans()):
            term += f"({twist()})"
        if draw(st.booleans()):
            term += "'"
            if draw(st.booleans()):
                term += f"({twist()})"
        terms.append(term)
    depth = draw(st.sampled_from([0] * 7 + [40, 1500, 3000]))
    return draw(st.sampled_from(["Sym^1 ", "Sym^2 "])) * depth + "*".join(terms)


@st.composite
def fuzz_texts(draw):
    """A grammar text under up to three edits: a character inserted, one
    deleted, or a short slice repeated up to 50 times."""
    text = draw(grammar_texts())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if edit == "insert":
            text = text[:i] + draw(FUZZ_CHARS) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            j = draw(st.integers(i, min(len(text), i + 8)))
            text = text[:i] + text[i:j] * draw(st.integers(2, 50)) + text[j:]
    return text


def captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(
    command=st.sampled_from(["coh", "homv"]),
    as_json=st.booleans(),
    texts=st.tuples(fuzz_texts(), fuzz_texts()),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_expressions_get_a_meaningful_exit(command, as_json, texts):
    # "--" hands a text that starts with "-" to the expression parser, not
    # to the argument parser.  Smaller bounds keep every in-bound input cheap.  The
    # second run may read what the first one memoized, and must print the
    # same bytes.
    argv = [command, *(["--json"] if as_json else []), "--"]
    argv += texts[:1] if command == "coh" else texts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundles, "MAX_STRING_WEIGHTS", 2_000)
        patch.setattr(bundles, "MAX_PRODUCT_WEIGHTS", 5_000)
        patch.setattr(bundles, "MAX_PRODUCT_PAIRS", 50_000)
        first = captured_main(argv)
        assert captured_main(argv) == first
    code, _, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert err.endswith("\n") and err.count("\n") == 1


def test_roots_convention_dump(capsys):
    code, out, _ = run_cli(capsys, "roots", "--convention-dump", "--json")
    payload = json.loads(out)
    assert payload["conventions"]["cartan"] == [[2, -1], [-3, 2]]
    assert payload["conventions"]["rho"] == [1, 1]
    assert payload["conventions"]["total_space_canonical_twist"] == [-1, -1]
    assert payload["weyl_order"] == 12
    code, out, _ = run_cli(capsys, "roots", "--convention-dump")
    assert "\n  total_space_canonical_twist: [-1, -1]\n" in out


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "g2flop.cli", "dim", "1", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "14"


SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_dataclasses_inspect_fractions_decimal():
    # Import cost is paid by every cold check-all and sod-replay process;
    # these modules cost about 20 ms there and the package needs none of them.
    skipped = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext")
    code = (
        "import g2flop.cli, sys; "
        f"print(' '.join(m for m in {skipped!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_the_plain_forms_never_load_argparse():
    # The certify workload's cold check-all and sod-replay processes, and
    # every README example, are read without argparse; a form that only
    # argparse reads loads it and is still refused in one line.
    readme = (SRC.parent / "README.md").read_text()
    examples = [
        shlex.split(line) for line in re.findall(r"^g2flop (.+?) +#", readme, re.M)
    ]
    assert examples
    argvs = [
        ["check-all", "--json"],
        ["sod-replay", "--json"],
        ["homv", "U", "O(h)", "--json"],
        ["hilbert", "git", "-", "3", "--trunc", "1000000000000", "--json"],
        *examples,
    ]
    code = (
        "import contextlib, io, sys, g2flop.cli as cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(cli.main(argv), file=sys.stderr)\n"
        "print(' '.join(m for m in ('argparse', 'gettext') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stderr) == (0, "0\n" * len(argvs))
    assert result.stdout == "\n"
    code = (
        "import sys, g2flop.cli as cli; "
        "code = cli.main(['dim', '-1', '0']); "
        "print(code, 'argparse' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stdout) == (0, "2 True\n")
    assert result.stderr == "error: (-1, 0) is not dominant\n"


def test_the_console_entry_freezes_the_heap_after_main():
    # Frozen objects are skipped by the collections at interpreter exit.
    code = (
        "import gc, sys, g2flop.cli as cli; "
        "code = cli.run(['dim', '1', '0']); "
        "print(code, gc.get_freeze_count() > 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "14\n0 True\n"
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert '\n[project.scripts]\ng2flop = "g2flop.cli:run"\n' in pyproject


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "r", "0", "0", "--table", "--table-degree", "100", "--json"],
        ["dim", "1", "0"],
    ],
    ids=["while-main-prints", "at-the-final-flush"],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # The reader is gone before anything is written, as with "| head -c 1"
    # once head has its byte: a long answer fails inside main's print, a
    # short one at run's flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "g2flop.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, "")
