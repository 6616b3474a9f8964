"""Graded dimension series of the Cox rings and their GIT pieces.

The flag-variety Cox ring has one graded piece per dominant bidegree, of
dimension given by the Weyl formula; the total-space Cox ring stacks the
diagonal twists on top.  The one-parameter subgroup acting on the spectrum
acts anti-diagonally, alpha |-> (alpha, alpha^{-1}), so the GIT weight of the
(i, j) piece is i - j.  (The displayed total-degree grading one might read off
instead contradicts that action and fails to match the Grassmannian-side Cox
chain; the anti-diagonal reading is the implemented one, and it is the unique
choice under which the plus piece coincides with the pushed-forward sections
of the rank-2 side, which the test suite checks degree by degree.)

All series are explicit truncations; no closed forms.
"""

from __future__ import annotations

from .rootdata import IntegrityError, RootSystem
from .weylbott import parabolic_cohomology, weyl_dim


def _check_trunc(trunc: int) -> None:
    if trunc < 0:
        raise ValueError("truncation must be non-negative")


def flag_cox_dim(rs: RootSystem, k: int, l: int) -> int:
    """Dimension of the (k, l) piece of the flag-variety Cox ring.

    Zero off the dominant cone k, l >= 0, tested on the integers before any
    tuple is built; ``weyl_dim`` keeps its own dominance and integrality
    checks.
    """
    if k < 0 or l < 0:
        return 0
    return weyl_dim(rs, (k, l))


def total_cox_dim(rs: RootSystem, k: int, l: int, trunc: int) -> int:
    """Dimension of the (k, l) piece of the total-space Cox ring, truncated.

    Sections pick up every diagonal twist: sum over m <= trunc of the
    (k+m, l+m) flag piece.
    """
    if k < 0 or l < 0:
        raise ValueError("bidegrees of the total-space Cox ring are non-negative")
    _check_trunc(trunc)
    return sum(flag_cox_dim(rs, k + m, l + m) for m in range(trunc + 1))


def git_piece(rs: RootSystem, side: str, n: int, trunc: int) -> int:
    """Dimension of the GIT-weight piece of the flag Cox ring, truncated.

    Side "+" collects weight +n pieces (i - j = n), side "-" weight -n, and
    side "0" the invariants; n must be non-negative.
    """
    if n < 0:
        raise ValueError("GIT piece index must be non-negative")
    _check_trunc(trunc)
    if side == "+":
        return sum(flag_cox_dim(rs, m + n, m) for m in range(trunc + 1))
    if side == "-":
        return sum(flag_cox_dim(rs, m, m + n) for m in range(trunc + 1))
    if side == "0":
        return sum(flag_cox_dim(rs, m, m) for m in range(trunc + 1))
    raise ValueError(f"unknown side {side!r}; expected '+', '-' or '0'")


def git_piece_via_parabolic(rs: RootSystem, side: str, n: int, trunc: int) -> int:
    """Independent route for the +/- GIT pieces through parabolic Bott.

    The plus piece is the degree-n part of the Cox ring of the total space of
    the dual rank-2 bundle on the Grassmannian side: sections of the
    irreducible (m+n, m) bundles.  The minus piece mirrors through the quadric
    side.  Each term enters as a degree-0 parabolic cohomology dimension.
    """
    if n < 0:
        raise ValueError("GIT piece index must be non-negative")
    _check_trunc(trunc)
    total = 0
    for m in range(trunc + 1):
        if side == "+":
            profile = parabolic_cohomology(rs, {1}, (m + n, m))
        elif side == "-":
            profile = parabolic_cohomology(rs, {0}, (m, m + n))
        else:
            raise ValueError("parabolic route exists for sides '+' and '-' only")
        dims = profile.dimensions(rs)
        if set(dims) - {0}:
            raise IntegrityError(
                f"parabolic Bott put sections in degrees {sorted(dims)}, not only 0"
            )
        total += dims.get(0, 0)
    return total


def hilbert_table(
    rs: RootSystem, kind: str, trunc: int, max_degree: int
) -> dict:
    """JSON-ready table of graded dimensions.

    kind "r": flag Cox ring over bidegrees up to max_degree;
    kind "s": total-space Cox ring (truncated at trunc);
    kind "git": the three GIT series up to degree max_degree.
    """
    _check_trunc(trunc)
    if kind == "r":
        entries = [
            {"degree": [k, l], "dim": flag_cox_dim(rs, k, l)}
            for k in range(max_degree + 1)
            for l in range(max_degree + 1)
        ]
        grading = "Picard bidegree (k,l)"
    elif kind == "s":
        entries = [
            {"degree": [k, l], "dim": total_cox_dim(rs, k, l, trunc)}
            for k in range(max_degree + 1)
            for l in range(max_degree + 1)
        ]
        grading = "Picard bidegree (k,l), diagonal twists summed"
    elif kind == "git":
        entries = [
            {"degree": [side, n], "dim": git_piece(rs, side, n, trunc)}
            for side in ("+", "-", "0")
            for n in range(max_degree + 1)
            if side != "0" or n == 0
        ]
        grading = "anti-diagonal GIT weight, wt(i,j) = i-j"
    else:
        raise ValueError(f"unknown table kind {kind!r}")
    return {"grading": grading, "truncation": trunc, "entries": entries}
