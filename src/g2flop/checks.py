"""Batch verification suites: every finite computation the argument rests on.

Each suite returns a ``SuiteResult`` with a pass/fail/indeterminate-ok status
and per-check detail lines, so the CLI and the acceptance tests share one
source of truth.  All checks are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from typing import Callable

from .bundles import (
    SPINOR_QUOTIENT,
    BundleExpr,
    Dual,
    IrrP1,
    IrrP2,
    Line,
    Spinor,
    Tensor,
    Twist,
    Universal,
    flag_cohomology,
    format_expr,
    weights,
)
from .coxring import (
    bott_diagonal_sum,
    git_piece,
    git_piece_via_parabolic,
    total_cox_dim,
)
from .rootdata import RootSystem, Value
from .sodengine import (
    SEED_OBJECTS,
    TARGET_OBJECTS,
    k_class,
    replay_mutation_script,
)
from .totalspace import hom_v, total_space_canonical
from .weylbott import (
    K,
    K1,
    ZERO,
    CohomologyProfile,
    euler_characteristic,
    format_profile,
    line_cohomology,
    weyl_dim,
)

U = Universal()


class SuiteResult(Value):
    # status: "pass" | "fail" | "indeterminate-ok"
    _fields = ("name", "status", "checks", "details")

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "indeterminate-ok")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "checks": self.checks,
            "details": list(self.details),
        }


def _run_expectations(
    name: str, expectations: list[tuple[str, Callable[[], bool]]]
) -> SuiteResult:
    failures = []
    for label, check in expectations:
        try:
            ok = check()
        except Exception as err:  # surface, never swallow
            ok = False
            label = f"{label} raised {err!r}"
        if not ok:
            failures.append(label)
    status = "pass" if not failures else "fail"
    return SuiteResult(name, status, len(expectations), tuple(failures))


def line_acyclicity_suite(rs: RootSystem) -> SuiteResult:
    """Acyclic line-bundle families and the two pinned nonzero vectors."""
    expectations: list[tuple[str, Callable[[], bool]]] = []
    for t in range(-10, 11):
        expectations.append(
            (
                f"O({t}h-H) acyclic",
                lambda t=t: line_cohomology(rs, (-1, t)).is_zero,
            )
        )
        expectations.append(
            (
                f"O({t}H-h) acyclic",
                lambda t=t: line_cohomology(rs, (t, -1)).is_zero,
            )
        )
    expectations += [
        ("O(-2H) acyclic", lambda: line_cohomology(rs, (-2, 0)).is_zero),
        ("O(2h-2H) acyclic", lambda: line_cohomology(rs, (-2, 2)).is_zero),
        (
            "H(O(3h-2H)) = k[-1]",
            lambda: line_cohomology(rs, (-2, 3)) == K1,
        ),
    ]
    return _run_expectations("line-bundle-acyclicity", expectations)


def rank2_cohomology_suite(rs: RootSystem) -> SuiteResult:
    """The rank-2 items: twisted U bundles and U tensor U."""
    UU = Tensor(U, U)
    cases: list[tuple[BundleExpr, CohomologyProfile, str]] = [
        (Twist(U, -2, 0), ZERO, "U(-2H)"),
        (Twist(U, -1, 0), ZERO, "U(-H)"),
        (Twist(U, -1, 1), ZERO, "U(h-H)"),
        (Twist(UU, -1, 0), ZERO, "U*U(-H)"),
        (Twist(U, 0, 1), K, "U(h)"),
        (Twist(UU, 0, 1), K1, "U*U(h)"),
    ]
    expectations = [
        (
            f"H({label}) = {format_profile(expected)}",
            lambda e=e, expected=expected: flag_cohomology(rs, e).profile == expected,
        )
        for e, expected, label in cases
    ]
    return _run_expectations("rank2-bundle-cohomology", expectations)


def total_space_hom_suite(rs: RootSystem) -> SuiteResult:
    """The four graded-Hom statements over the total space."""
    cases = [
        (Line(0, -1), Line(-1, 0), ZERO, "orthogonality of O(-h) to O(-H)"),
        (SPINOR_QUOTIENT, Line(-1, 0), ZERO, "orthogonality of U'(-h) to O(-H)"),
        (SPINOR_QUOTIENT, U, K1, "hom(U'(-h), U) = k[-1]"),
        (SPINOR_QUOTIENT, Line(0, 0), K, "hom(U'(-h), O) = k"),
        (Line(1, -2), Line(0, 1), ZERO, "hom(O(H-2h), O(h)) = 0"),
    ]
    expectations = [
        (
            label,
            lambda a=a, b=b, expected=expected: hom_v(rs, a, b).profile == expected,
        )
        for a, b, expected, label in cases
    ]
    return _run_expectations("ext-over-total-space", expectations)


def extension_consistency_suite(rs: RootSystem) -> SuiteResult:
    """Multiset and Euler identities of the two recorded exact sequences."""
    expectations = [
        (
            "rank-4 extension weights = sub + quotient",
            lambda: k_class(rs, Spinor())
            == k_class(rs, U) + k_class(rs, SPINOR_QUOTIENT),
        ),
        (
            "rank of the extension is 4",
            lambda: sum(weights(rs, Spinor()).values()) == 4,
        ),
        (
            "two-line sequence weights: O(H-2h) + O = U'(-h)",
            lambda: k_class(rs, Line(1, -2)) + k_class(rs, Line(0, 0))
            == k_class(rs, SPINOR_QUOTIENT),
        ),
    ]

    def chi(e):
        return euler_characteristic(rs, weights(rs, e))

    for x in [Line(0, 0), Line(0, 1), U, Dual(U)]:
        expectations.append(
            (
                f"chi additivity of the extension against {format_expr(x)}",
                lambda x=x: chi(Tensor(x, Spinor()))
                == chi(Tensor(x, U)) + chi(Tensor(x, SPINOR_QUOTIENT)),
            )
        )
        expectations.append(
            (
                f"chi additivity of the two-line sequence against {format_expr(x)}",
                lambda x=x: chi(Tensor(x, SPINOR_QUOTIENT))
                == chi(Tensor(x, Line(1, -2))) + chi(Tensor(x, Line(0, 0))),
            )
        )
    return _run_expectations("exact-sequence-consistency", expectations)


def collection_suite(
    rs: RootSystem, name: str, objects: tuple[BundleExpr, ...]
) -> SuiteResult:
    """Semiorthogonality matrix + exceptionality for one collection.

    All hom(later, earlier) pairs must be Determined zero.  Exceptionality
    must be exactly k for every object except the rank-4 extension, whose
    self-Hom may be honestly indeterminate (reported, not failed).
    """
    failures = []
    checks = 0
    indeterminate_notes = []
    for i in range(len(objects)):
        for j in range(i):
            checks += 1
            res = hom_v(rs, objects[i], objects[j])
            if res.profile != ZERO:
                failures.append(
                    f"hom({format_expr(objects[i])}, {format_expr(objects[j])}) "
                    f"should vanish, got "
                    + (format_profile(res.profile) if res.determined else "indeterminate")
                )
    for e in objects:
        checks += 1
        res = hom_v(rs, e, e)
        if res.profile == K:
            continue
        if e == Spinor() and not res.determined:
            indeterminate_notes.append(
                f"self-hom of {format_expr(e)} is indeterminate "
                "(allowed for the rank-4 extension; Euler characteristic "
                f"{res.euler})"
            )
            continue
        failures.append(f"{format_expr(e)} failed exceptionality")
    if failures:
        return SuiteResult(name, "fail", checks, tuple(failures))
    if indeterminate_notes:
        return SuiteResult(name, "indeterminate-ok", checks, tuple(indeterminate_notes))
    return SuiteResult(name, "pass", checks, ())


def representation_suite(rs: RootSystem) -> SuiteResult:
    expectations = [
        ("dim V(0,1) = 7", lambda: weyl_dim(rs, (0, 1)) == 7),
        ("dim V(1,1) = 64", lambda: weyl_dim(rs, (1, 1)) == 64),
        ("dim V(1,0) = 14", lambda: weyl_dim(rs, (1, 0)) == 14),
        ("Weyl group order 12", lambda: rs.weyl_order == 12),
        ("6 positive roots", lambda: len(rs.positive_roots) == 6),
        ("longest element length 6", lambda: len(rs.longest_element) == 6),
    ]
    return _run_expectations("representation-dimensions", expectations)


def calabi_yau_suite(rs: RootSystem) -> SuiteResult:
    expectations = [
        (
            "ambient total space has canonical weight (-1,-1)",
            lambda: total_space_canonical(rs, "F", Line(1, 1)) == ((-1, -1), False),
        ),
        (
            "rank-2-side total space is Calabi-Yau",
            lambda: total_space_canonical(rs, "G", IrrP1(1, 1)) == ((0, 0), True),
        ),
        (
            "quadric-side total space is Calabi-Yau",
            lambda: total_space_canonical(rs, "Q", IrrP2(1, 1)) == ((0, 0), True),
        ),
    ]
    return _run_expectations("calabi-yau", expectations)


def hilbert_suite(rs: RootSystem) -> SuiteResult:
    """Graded-dimension identities against one term-by-term Bott sum,
    ``coxring.bott_diagonal_sum``, which serves both the total-space and the
    GIT comparisons and reads ``weyl_dim`` as the extrapolated sums do.  A
    Bott term with sections outside degree 0 raises ``IntegrityError``."""
    bound = 8
    failures = []
    checks = 0
    for k in range(bound + 1):
        for l in range(bound + 1):
            for m in (0, bound // 2, bound):
                checks += 1
                if bott_diagonal_sum(rs, k, l, m) != total_cox_dim(rs, k, l, m):
                    failures.append(f"total Cox dim mismatch at ({k},{l},{m})")
    for n in range(bound + 1):
        for m in range(bound + 1):
            for side in ("+", "-"):
                checks += 1
                if git_piece(rs, side, n, m) != git_piece_via_parabolic(rs, side, n, m):
                    failures.append(f"GIT piece mismatch at ({side},{n},{m})")
            checks += 1
            if n == 0 and git_piece(rs, "+", 0, m) != git_piece(rs, "0", 0, m):
                failures.append(f"zero-weight piece side mismatch at trunc {m}")
    status = "pass" if not failures else "fail"
    return SuiteResult("hilbert-series", status, checks, tuple(failures))


def replay_suite(rs: RootSystem) -> SuiteResult:
    report = replay_mutation_script(rs)
    details = []
    if not report.passed:
        details.append(report.mismatch or "replay failed")
    steps = len(report.steps)
    certs = sum(len(s.certificates) for s in report.steps)
    return SuiteResult(
        "mutation-replay",
        "pass" if report.passed else "fail",
        steps,
        tuple(details) if details else (f"{steps} steps, {certs} certificates",),
    )


def run_all(rs: RootSystem) -> list[SuiteResult]:
    return [
        line_acyclicity_suite(rs),
        rank2_cohomology_suite(rs),
        total_space_hom_suite(rs),
        extension_consistency_suite(rs),
        collection_suite(rs, "collection-rank2-side", SEED_OBJECTS),
        collection_suite(rs, "collection-quadric-side", TARGET_OBJECTS),
        representation_suite(rs),
        calabi_yau_suite(rs),
        hilbert_suite(rs),
        replay_suite(rs),
    ]
