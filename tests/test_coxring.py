"""Cox-ring graded dimensions and GIT pieces against the Bott routes."""

from __future__ import annotations

import pytest

from g2flop import coxring
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
        for side in ("+", "-", "0"):
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
        "parabolic_cohomology",
        lambda rs, levi, lam: CohomologyProfile(((1, lam, 1),)),
    )
    with pytest.raises(IntegrityError, match="degrees"):
        git_piece_via_parabolic(RS, "+", 1, 2)


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        git_piece(RS, "x", 0, 0)
    with pytest.raises(ValueError):
        git_piece(RS, "+", -1, 0)


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
        lambda: hilbert_table(RS, "r", -1, 2),
    ],
    ids=["total", "git", "git-zero", "git-parabolic", "table-s", "table-r"],
)
def test_negative_truncation_rejected(call):
    # A negative truncation used to sum an empty range and answer 0.
    with pytest.raises(ValueError, match="truncation must be non-negative"):
        call()
