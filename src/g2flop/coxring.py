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

Each truncated series sums the flag pieces along a diagonal line (k+m, l+m)
for m <= trunc.  Its partial sums are a polynomial of degree at most
|Phi+|+1 in the truncation, so ``_diagonal_sum`` sums a short series term by
term and extrapolates a long one exactly, under a finite-difference
certificate.  ``bott_diagonal_sum`` is the one term-by-term Bott sum along
such a line, one ``line_cohomology`` section space per term; the Hilbert
suite compares both the total-space pieces and, through
``git_piece_via_parabolic``, the GIT pieces against it.  It is not
independent of them: each of its sections is a Weyl module, whose dimension
is ``weyl_dim``, the same function every term of ``_diagonal_sum`` reads.

Every refusal of a Hilbert query lives here: a negative bidegree, GIT degree,
truncation or table degree, or a table degree past ``MAX_TABLE_DEGREE``,
raises ``ValueError``, whose message the CLI prints as it is.
"""

from __future__ import annotations

from math import comb

from .rootdata import IntegrityError, RootSystem
from .weylbott import line_cohomology, weyl_dim


#: The largest degree ``hilbert_table`` tabulates: a table has up to
#: (degree + 1)^2 entries, each a Weyl-formula sum.
MAX_TABLE_DEGREE = 100


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


def _diagonal_sum(rs: RootSystem, k: int, l: int, trunc: int) -> int:
    """Sum of ``flag_cox_dim(rs, k+m, l+m)`` over m = 0..trunc, for k, l >= 0.

    Each term is a product of |Phi+| affine forms in m (the Weyl formula), so
    the partial sum Q(t) is a polynomial of degree at most D = |Phi+| + 1.
    Q(0..min(trunc, D+1)) is always summed term by term, each term through
    ``flag_cox_dim`` and so through ``weyl_dim``'s checks; for trunc <= D+1
    that explicit sum is the answer.  Past it, Newton's forward-difference
    formula Q(trunc) = sum over i <= D of comb(trunc, i) * Delta^i Q(0)
    extrapolates it in integers, once the certificate Delta^{D+1} Q(0) = 0
    shows that the D+2 computed sums fit degree D.  One wrong term after the
    first, or a degree bound that is too small, breaks it: ``IntegrityError``.
    """
    _check_trunc(trunc)
    degree = len(rs.positive_roots) + 1
    partial = []
    total = 0
    for m in range(min(trunc, degree + 1) + 1):
        total += flag_cox_dim(rs, k + m, l + m)
        partial.append(total)
    if trunc <= degree + 1:
        return total
    leading = []
    while partial:
        leading.append(partial[0])
        partial = [b - a for a, b in zip(partial, partial[1:])]
    if leading[degree + 1]:
        raise IntegrityError(
            f"partial sums along ({k}+m,{l}+m) do not fit degree {degree}: "
            f"difference {degree + 1} is {leading[degree + 1]}, not 0"
        )
    return sum(comb(trunc, i) * d for i, d in enumerate(leading[: degree + 1]))


def total_cox_dim(rs: RootSystem, k: int, l: int, trunc: int) -> int:
    """Dimension of the (k, l) piece of the total-space Cox ring, truncated.

    Sections pick up every diagonal twist: the sum over m <= trunc of the
    (k+m, l+m) flag piece, explicit up to trunc = |Phi+|+2 and extrapolated
    past it under the certificate of ``_diagonal_sum``.
    """
    if k < 0 or l < 0:
        raise ValueError("total-space bidegrees must be non-negative")
    return _diagonal_sum(rs, k, l, trunc)


def git_piece(rs: RootSystem, side: str, n: int, trunc: int) -> int:
    """Dimension of the GIT-weight piece of the flag Cox ring, truncated.

    Side "+" collects weight +n pieces (i - j = n), side "-" weight -n, and
    side "0" the invariants, which have degree n = 0 only; n must be
    non-negative.  The sum runs along (m+n, m), (m, m+n) or (m, m), explicit
    up to trunc = |Phi+|+2 and extrapolated past it under the certificate of
    ``_diagonal_sum``.
    """
    if n < 0:
        raise ValueError("GIT degree must be non-negative")
    if side == "+":
        return _diagonal_sum(rs, n, 0, trunc)
    if side == "-":
        return _diagonal_sum(rs, 0, n, trunc)
    if side == "0":
        if n:
            raise ValueError(f"the weight-0 GIT piece has degree 0 only, not {n}")
        return _diagonal_sum(rs, 0, 0, trunc)
    raise ValueError(f"unknown side {side!r}; expected '+', '-' or '0'")


def bott_diagonal_sum(rs: RootSystem, k: int, l: int, trunc: int) -> int:
    """Sum of the section spaces of the (k+m, l+m) line bundles, m <= trunc.

    Term by term: each term is the degree-0 dimension of one
    ``line_cohomology``, and a term with cohomology in any other degree
    raises ``IntegrityError``.
    """
    _check_trunc(trunc)
    total = 0
    for m in range(trunc + 1):
        dims = line_cohomology(rs, (k + m, l + m)).dimensions(rs)
        if set(dims) - {0}:
            raise IntegrityError(
                f"Bott put sections in degrees {sorted(dims)}, not only 0"
            )
        total += dims.get(0, 0)
    return total


def git_piece_via_parabolic(rs: RootSystem, side: str, n: int, trunc: int) -> int:
    """The +/- GIT pieces as term-by-term Bott sums.

    The plus piece is the degree-n part of the Cox ring of the total space of
    the dual rank-2 bundle on the Grassmannian side: sections of the
    irreducible (m+n, m) bundles.  The minus piece mirrors through the quadric
    side, along (m, m+n).  Each highest weight is Levi-dominant, so
    ``bott_diagonal_sum`` sums them.
    """
    if n < 0:
        raise ValueError("GIT degree must be non-negative")
    if side == "+":
        return bott_diagonal_sum(rs, n, 0, trunc)
    if side == "-":
        return bott_diagonal_sum(rs, 0, n, trunc)
    raise ValueError("parabolic route exists for sides '+' and '-' only")


def hilbert_table(
    rs: RootSystem, kind: str, trunc: int | None, max_degree: int
) -> dict:
    """JSON-ready table of graded dimensions.

    kind "r": flag Cox ring over bidegrees up to max_degree, not truncated,
    so its table reports no truncation whatever trunc is;
    kind "s": total-space Cox ring (truncated at trunc);
    kind "git": the three GIT series up to degree max_degree.

    A max_degree below 0 or above ``MAX_TABLE_DEGREE`` raises ``ValueError``,
    and so does a negative trunc, through the first entry of an s or git
    table.
    """
    if max_degree < 0:
        raise ValueError("table degree must be non-negative")
    if max_degree > MAX_TABLE_DEGREE:
        raise ValueError(
            f"table degree {max_degree} is above the supported {MAX_TABLE_DEGREE}"
        )
    if kind == "r":
        trunc = None
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
