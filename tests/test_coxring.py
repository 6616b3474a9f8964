"""Cox-ring graded dimensions and GIT pieces against the Bott routes."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from g2flop import cli, coxring, weylbott
from g2flop.coxring import (
    flag_cox_dim,
    git_piece,
    git_piece_via_parabolic,
    hilbert_table,
    total_cox_dim,
)
from g2flop.rootdata import IntegrityError, g2
from g2flop.weylbott import CohomologyProfile, line_cohomology

RS = g2()
#: Degree bound of a partial sum along a diagonal line: |Phi+| + 1.
DEGREE = len(RS.positive_roots) + 1
#: Start of the line that each side of ``git_piece`` sums along.
GIT_START = {"+": lambda n: (n, 0), "-": lambda n: (0, n), "0": lambda n: (0, 0)}


def explicit_sum(k, l, trunc):
    """The term-by-term sum the helper replaces: the reference."""
    return sum(flag_cox_dim(RS, k + m, l + m) for m in range(trunc + 1))


def lagrange_sum(k, l, trunc, nodes=range(20, 29)):
    """Partial sum at trunc, interpolated in Fractions through ``nodes``.

    Nine nodes fix any polynomial of degree <= 8, and none of them is one of
    the helper's nodes 0..DEGREE+1, so this is an independent evaluation.
    """
    values = {t: explicit_sum(k, l, t) for t in nodes}
    total = Fraction(0)
    for i in nodes:
        term = Fraction(values[i])
        for j in nodes:
            if j != i:
                term *= Fraction(trunc - j, i - j)
        total += term
    assert total.denominator == 1
    return total.numerator


def test_flag_cox_pinned_dims():
    assert flag_cox_dim(RS, 0, 1) == 7
    assert flag_cox_dim(RS, -1, 0) == 0
    assert flag_cox_dim(RS, 1, 1) == 64


def test_total_cox_pinned_dims():
    assert total_cox_dim(RS, 0, 0, 1) == 65
    assert total_cox_dim(RS, 0, 1, 0) == 7
    assert total_cox_dim(RS, 5, 0, 0) == flag_cox_dim(RS, 5, 0)


def test_total_cox_rejects_negative_bidegrees():
    with pytest.raises(ValueError):
        total_cox_dim(RS, -1, 0, 3)


def test_git_zero_weight_consistency():
    assert git_piece(RS, "+", 0, 1) == 65
    assert git_piece(RS, "+", 0, 1) == total_cox_dim(RS, 0, 0, 1)


def test_git_piece_monotone_in_truncation():
    for n in range(4):
        for side in ("+", "-", "0") if n == 0 else ("+", "-"):
            dims = [git_piece(RS, side, n, m) for m in range(5)]
            assert dims == sorted(dims)


def test_git_sides_agree_at_zero():
    for m in range(6):
        assert git_piece(RS, "+", 0, m) == git_piece(RS, "-", 0, m)
        assert git_piece(RS, "+", 0, m) == git_piece(RS, "0", 0, m)


def test_git_piece_matches_parabolic_route():
    for n in range(6):
        for m in range(6):
            assert git_piece(RS, "+", n, m) == git_piece_via_parabolic(RS, "+", n, m)
            assert git_piece(RS, "-", n, m) == git_piece_via_parabolic(RS, "-", n, m)


def test_total_cox_matches_line_cohomology():
    for k in range(0, 9):
        for l in range(0, 9):
            for m in range(0, 9, 4):
                independent = 0
                for j in range(m + 1):
                    dims = line_cohomology(RS, (k + j, l + j)).dimensions(RS)
                    assert set(dims) <= {0}
                    independent += dims.get(0, 0)
                assert total_cox_dim(RS, k, l, m) == independent


def test_parabolic_route_rejects_sections_outside_degree_zero(monkeypatch):
    # The degree-0 check is an explicit raise, so it also holds under -O.
    monkeypatch.setattr(
        coxring,
        "line_cohomology",
        lambda rs, lam: CohomologyProfile(((1, lam, 1),)),
    )
    with pytest.raises(IntegrityError, match="degrees"):
        git_piece_via_parabolic(RS, "+", 1, 2)


def test_sections_outside_degree_zero_fail_check_all(monkeypatch, capsys):
    # Negative control: the Hilbert suite reads the one Bott sum of coxring,
    # so a Bott term in degree 1 ends check-all as a verification failure,
    # one stderr line, not a traceback.
    monkeypatch.setattr(
        coxring,
        "line_cohomology",
        lambda rs, lam: CohomologyProfile(((1, lam, 1),)),
    )
    assert cli.main(["check-all"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failed: Bott put sections in degrees [1], not only 0\n"
    )


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        git_piece(RS, "x", 0, 0)
    with pytest.raises(ValueError):
        git_piece(RS, "+", -1, 0)
    # Side "0" used to answer the weight-0 piece for every n.
    with pytest.raises(ValueError, match="weight-0 GIT piece has degree 0 only"):
        git_piece(RS, "0", 5, 3)


def test_hilbert_table_shapes():
    table = hilbert_table(RS, "r", 0, 2)
    assert table["entries"][0] == {"degree": [0, 0], "dim": 1}
    assert len(table["entries"]) == 9
    table = hilbert_table(RS, "git", 3, 2)
    sides = {tuple(e["degree"]) for e in table["entries"]}
    assert ("0", 0) in sides and ("+", 2) in sides and ("-", 1) in sides
    with pytest.raises(ValueError):
        hilbert_table(RS, "bogus", 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: total_cox_dim(RS, 0, 0, -1),
        lambda: git_piece(RS, "+", 2, -3),
        lambda: git_piece(RS, "0", 0, -1),
        lambda: git_piece_via_parabolic(RS, "+", 0, -1),
        lambda: hilbert_table(RS, "s", -5, 2),
    ],
    ids=["total", "git", "git-zero", "git-parabolic", "table-s"],
)
def test_negative_truncation_rejected(call):
    # A negative truncation used to sum an empty range and answer 0.
    with pytest.raises(ValueError, match="truncation must be non-negative"):
        call()


def test_the_r_table_has_no_truncation(capsys):
    # The r sum is not truncated: its table says so whatever trunc it is
    # handed, and the CLI, which gives r no --trunc, prints null.
    for trunc in (None, 0, -1):
        assert hilbert_table(RS, "r", trunc, 2)["truncation"] is None
    assert cli.main(["hilbert", "r", "0", "0", "--table", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["table"]["truncation"] is None
    assert hilbert_table(RS, "s", 3, 1)["truncation"] == 3


@pytest.mark.parametrize("kind", ["r", "s", "git"])
def test_hilbert_table_refuses_a_negative_degree(kind):
    with pytest.raises(ValueError, match="^table degree must be non-negative$"):
        hilbert_table(RS, kind, 3, -1)


def test_total_cox_dim_equals_the_explicit_sum():
    for trunc in range(61):
        for k in range(4):
            for l in range(4):
                assert total_cox_dim(RS, k, l, trunc) == explicit_sum(k, l, trunc)


def test_git_piece_equals_the_explicit_sum():
    for trunc in range(61):
        for side, start in GIT_START.items():
            for n in range(5) if side != "0" else (0,):
                assert git_piece(RS, side, n, trunc) == explicit_sum(*start(n), trunc)


def test_scale_probe_values_are_pinned():
    # The four Cox/GIT values recorded in bench/reference/scale.json.
    assert total_cox_dim(RS, 0, 0, 1000) == 144363657876991196501
    assert total_cox_dim(RS, 1, 0, 3000) == 313952448098522754213264
    assert git_piece(RS, "+", 2, 1000) == 145550404314238693627
    assert git_piece(RS, "-", 3, 3000) == 314432551371154878767677


@pytest.mark.parametrize("trunc", [10**6, 10**12])
def test_long_sums_match_an_independent_interpolation(trunc):
    for k, l in [(0, 0), (1, 0), (0, 1), (3, 2)]:
        assert total_cox_dim(RS, k, l, trunc) == lagrange_sum(k, l, trunc)
    for side, start in GIT_START.items():
        for n in (0, 3) if side != "0" else (0,):
            assert git_piece(RS, side, n, trunc) == lagrange_sum(*start(n), trunc)


def test_long_tables_match_an_independent_interpolation():
    trunc = 10**9
    for entry in hilbert_table(RS, "s", trunc, 5)["entries"]:
        assert entry["dim"] == lagrange_sum(*entry["degree"], trunc)
    for entry in hilbert_table(RS, "git", trunc, 5)["entries"]:
        side, n = entry["degree"]
        assert entry["dim"] == lagrange_sum(*GIT_START[side](n), trunc)


def test_long_sums_through_the_cli(capsys):
    trunc = 10**12
    assert cli.main(["hilbert", "s", "0", "0", "--trunc", str(trunc)]) == 0
    assert capsys.readouterr().out == f"{lagrange_sum(0, 0, trunc)}\n"
    assert cli.main(["hilbert", "git", "-", "3", "--trunc", str(trunc), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == lagrange_sum(0, 3, trunc)


@pytest.mark.parametrize("trunc", [0, 1, DEGREE, DEGREE + 1, DEGREE + 2, 1000])
def test_a_sum_evaluates_at_most_degree_plus_two_terms(monkeypatch, trunc):
    seen = []

    def counted(rs, k, l):
        seen.append((k, l))
        return flag_cox_dim(rs, k, l)

    monkeypatch.setattr(coxring, "flag_cox_dim", counted)
    total_cox_dim(RS, 1, 0, trunc)
    assert seen == [(1 + m, m) for m in range(min(trunc, DEGREE + 1) + 1)]


def _bumped_at(m):
    """``flag_cox_dim`` off by one at the m-th term of every line from an axis."""

    def bumped(rs, k, l):
        return flag_cox_dim(rs, k, l) + (min(k, l) == m)

    return bumped


# Each call sums a line that starts on an axis, so min(k, l) is its term index.
LONG_SUMS = {
    "total": (lambda: total_cox_dim(RS, 1, 0, 1000), ["s", "1", "0"]),
    "git+": (lambda: git_piece(RS, "+", 2, 1000), ["git", "+", "2"]),
    "git-": (lambda: git_piece(RS, "-", 3, 1000), ["git", "-", "3"]),
    "git0": (lambda: git_piece(RS, "0", 0, 1000), ["git", "0", "0"]),
}


# A wrong first term shifts every partial sum by the same constant, which
# still fits the degree bound; only the terms after it are certified.
@pytest.mark.parametrize("m", range(1, DEGREE + 2))
@pytest.mark.parametrize("name", LONG_SUMS)
def test_a_wrong_term_breaks_the_certificate(monkeypatch, capsys, name, m):
    call, argv = LONG_SUMS[name]
    monkeypatch.setattr(coxring, "flag_cox_dim", _bumped_at(m))
    with pytest.raises(IntegrityError, match=f"do not fit degree {DEGREE}"):
        call()
    assert cli.main(["hilbert", *argv, "--trunc", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: partial sums along")
    assert captured.err.count("\n") == 1


class _OneRootShort:
    """G2 with one positive root hidden from the degree bound only.

    ``weyl_dim`` reads the denominator of the real system and, once the test
    hands it the real system's Bott kernel, its pairings, so every term stays
    right; the bound |Phi+| + 1 comes out one too small.
    """

    def __init__(self, rs):
        self._rs = rs
        self.positive_roots = rs.positive_roots[:-1]

    def __getattr__(self, name):
        return getattr(self._rs, name)


def test_a_degree_bound_one_too_small_breaks_the_certificate(monkeypatch, capsys):
    short = _OneRootShort(RS)
    monkeypatch.setitem(weylbott._BOTT, short, weylbott._bott(RS))
    assert flag_cox_dim(short, 2, 3) == flag_cox_dim(RS, 2, 3)
    with pytest.raises(IntegrityError, match=f"do not fit degree {DEGREE - 1}"):
        total_cox_dim(short, 0, 0, 1000)
    for side in GIT_START:
        with pytest.raises(IntegrityError, match=f"do not fit degree {DEGREE - 1}"):
            git_piece(short, side, 0, 1000)
    monkeypatch.setattr(cli, "g2", lambda: short)
    for argv in (["s", "0", "0"], ["git", "-", "3"]):
        assert cli.main(["hilbert", *argv, "--trunc", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failed: partial sums along")
