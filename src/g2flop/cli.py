"""Command-line front end for batch verification and exploration.

Exit codes: 0 = all checks pass / query answered; 1 = a verification failed,
including two routes disagreeing or another internal check failing;
2 = usage or expression-parse error.  Indeterminate cohomology in a query
context is a distinct reported status, not a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .bundles import ParseError, flag_cohomology, format_expr, parse_expr
from .checks import run_all
from .coxring import flag_cox_dim, git_piece, hilbert_table, total_cox_dim
from .rootdata import IntegrityError, RootSystem, g2
from .sodengine import replay_mutation_script
from .totalspace import base_canonical_weight, hom_v, omega_v
from .weylbott import CohomologyProfile, format_profile, weyl_dim

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

#: The integer arguments of dim and hilbert stay below 10^MAX_ARGUMENT_DIGITS,
#: so that every answer prints under the 640-digit floor of the interpreter's
#: limit, as ``bundles.MAX_WEIGHT`` bounds an expression's weights.  A Weyl
#: dimension is a product of six pairings, each at most a few times the
#: largest coordinate, and a Cox or GIT sum adds up to trunc+1 of them along
#: a diagonal whose coordinates stay below twice the largest argument.  So an
#: answer is below 64 * 10^(7 * 90), 633 digits; ``main`` refuses the first
#: argument past the bound.
MAX_ARGUMENT_DIGITS = 90
MAX_ARGUMENT = 10**MAX_ARGUMENT_DIGITS


def _profile_json(rs: RootSystem, profile: CohomologyProfile) -> list[dict]:
    return [
        {"degree": d, "weight": list(hw), "mult": m, "dim": m * weyl_dim(rs, hw)}
        for d, hw, m in profile.entries
    ]


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _conventions(rs: RootSystem) -> dict:
    return {
        "cartan": [list(row) for row in rs.cartan],
        "symmetrizer": list(rs.symmetrizer),
        "rho": list(rs.rho),
        "picard_basis": "(a,b) = a*H + b*h, H from the rank-2 side, h from the quadric side",
        "simple_roots_in_weight_basis": [
            list(r.weight_coords) for r in rs.simple_roots
        ],
        "orientation": "dominant weights have their cohomology in degree 0",
        "canonical_weights": {
            "flag": list(base_canonical_weight(rs, "F")),
            "rank2_side": list(base_canonical_weight(rs, "G")),
            "quadric_side": list(base_canonical_weight(rs, "Q")),
        },
        "total_space_canonical_twist": list(omega_v(rs)),
    }


def cmd_roots(args, rs: RootSystem) -> int:
    payload = {
        "command": "roots",
        "inputs": {},
        "status": "pass",
        "rank": rs.rank,
        "positive_roots": [
            {
                "simple_coords": list(r.simple_coords),
                "weight_coords": list(r.weight_coords),
                "length_sq": int(r.length_sq),
            }
            for r in rs.positive_roots
        ],
        "weyl_order": rs.weyl_order,
        "longest_length": len(rs.longest_element),
    }
    if args.convention_dump:
        payload["conventions"] = _conventions(rs)
    lines = [
        f"rank {rs.rank}, {len(rs.positive_roots)} positive roots, "
        f"Weyl order {rs.weyl_order}, longest element length "
        f"{len(rs.longest_element)}"
    ]
    for r in rs.positive_roots:
        lines.append(
            f"  root {list(r.simple_coords)} = {list(r.weight_coords)} in "
            f"weight basis, length^2 {int(r.length_sq)}"
        )
    if args.convention_dump:
        lines.append("conventions:")
        for key, value in _conventions(rs).items():
            lines.append(f"  {key}: {value}")
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_dim(args, rs: RootSystem) -> int:
    lam = (args.a, args.b)
    value = weyl_dim(rs, lam)
    payload = {
        "command": "dim",
        "inputs": {"weight": list(lam)},
        "status": "pass",
        "value": value,
    }
    _emit(payload, args.json, str(value))
    return EXIT_OK


def cmd_coh(args, rs: RootSystem) -> int:
    expr = parse_expr(args.expr)
    res = flag_cohomology(rs, expr)
    if res.determined:
        dims = res.profile.dimensions(rs)
        text = format_profile(res.profile)
        if not res.profile.is_zero:
            text += "  (" + ", ".join(
                f"degree {d}: dim {n}" for d, n in sorted(dims.items())
            ) + ")"
    else:
        # One entry per distinct weight, its profile scaled by its multiplicity.
        pieces = []
        for w, p, m in res.e1:
            if not p.is_zero:
                scaled = CohomologyProfile.of((d, hw, k * m) for d, hw, k in p.entries)
                pieces.append(f"{w}: {format_profile(scaled)}")
        text = "indeterminate; E1 page: " + "; ".join(pieces)
    payload = {}
    # Text mode never prints the payload, so only --json builds it.
    if args.json:
        payload = {"command": "coh", "inputs": {"expr": format_expr(expr)}}
        if res.determined:
            payload.update(
                status="pass", profile=_profile_json(rs, res.profile), route=res.route
            )
        else:
            payload.update(status="indeterminate", e1=pieces)
    _emit(payload, args.json, text)
    return EXIT_OK


def cmd_homv(args, rs: RootSystem) -> int:
    a = parse_expr(args.source)
    b = parse_expr(args.target)
    res = hom_v(rs, a, b)
    if res.determined:
        text = format_profile(res.profile)
    else:
        text = f"indeterminate (Euler characteristic {res.euler})"
    payload = {}
    if args.json:
        inputs = {"source": format_expr(a), "target": format_expr(b)}
        payload = {"command": "homv", "inputs": inputs, "euler": res.euler}
        if res.determined:
            payload.update(status="pass", profile=_profile_json(rs, res.profile))
        else:
            payload.update(
                status="indeterminate",
                native_term=format_profile(res.p0.profile) if res.p0.determined else None,
                twisted_term=format_profile(res.p1.profile) if res.p1.determined else None,
            )
    _emit(payload, args.json, text)
    return EXIT_OK


def cmd_hilbert(args, rs: RootSystem) -> int:
    trunc = args.trunc
    if trunc < 0:
        print("error: truncation must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    if args.table_degree < 0:
        print("error: table degree must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "r":
        value = flag_cox_dim(rs, args.k, args.l)
        inputs = {"kind": "r", "degree": [args.k, args.l]}
    elif args.kind == "s":
        if args.k < 0 or args.l < 0:
            print("error: total-space bidegrees must be non-negative", file=sys.stderr)
            return EXIT_USAGE
        value = total_cox_dim(rs, args.k, args.l, trunc)
        inputs = {"kind": "s", "degree": [args.k, args.l], "trunc": trunc}
    else:
        side = args.side
        if args.n < 0:
            print("error: GIT degree must be non-negative", file=sys.stderr)
            return EXIT_USAGE
        value = git_piece(rs, side, args.n, trunc)
        inputs = {"kind": "git", "side": side, "degree": args.n, "trunc": trunc}
    payload = {
        "command": "hilbert",
        "inputs": inputs,
        "status": "pass",
        "value": value,
        "table": hilbert_table(rs, args.kind, trunc, args.table_degree)
        if args.table
        else None,
    }
    text = str(value)
    if args.table:
        text += "\n" + json.dumps(payload["table"], sort_keys=True)
    _emit(payload, args.json, text)
    return EXIT_OK


def cmd_sod_replay(args, rs: RootSystem) -> int:
    report = replay_mutation_script(rs)
    payload = {"command": "sod-replay", "inputs": {}}
    payload.update(report.to_json())
    payload["status"] = "pass" if report.passed else "fail"
    lines = []
    for step in report.steps:
        flag = "PASS" if step.ok else "FAIL"
        lines.append(f"step {step.index:2d} {flag}  {step.description}")
        for cert in step.certificates:
            mark = "ok" if cert.passed else "FAILED"
            lines.append(
                f"    [{cert.kind}] {cert.description}: {cert.computed} "
                f"(required {cert.required}) {mark}"
            )
    lines.append("final state: " + ", ".join(report.final_state))
    if report.passed:
        lines.append("final state matches the mirror pattern")
        lines.append(report.conclusion)
    else:
        lines.append(f"FAILED: {report.mismatch}")
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def cmd_check_all(args, rs: RootSystem) -> int:
    started = time.time()
    suites = run_all(rs)
    all_ok = all(s.ok for s in suites)
    payload = {
        "command": "check-all",
        "inputs": {},
        "status": "pass" if all_ok else "fail",
        "suites": [s.to_json() for s in suites],
        "timestamp": started,
    }
    lines = []
    for s in suites:
        mark = {"pass": "PASS", "fail": "FAIL", "indeterminate-ok": "PASS*"}[s.status]
        lines.append(f"{mark:5s} {s.name} ({s.checks} checks)")
        for d in s.details:
            lines.append(f"      {d}")
    lines.append(
        "ALL CHECKS PASSED" if all_ok else "VERIFICATION FAILURES PRESENT"
    )
    _emit(payload, args.json, "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2flop",
        description=(
            "Exact verification engine for equivariant cohomology, total-space "
            "Ext groups, Cox-ring Hilbert series and semiorthogonal mutations "
            "on the G2 flag variety."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root system summary")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--convention-dump",
        action="store_true",
        help="dump the pinned conventions (Cartan matrix, rho, orientation)",
    )
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("dim", help="irreducible representation dimension")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("coh", help="cohomology of a bundle expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coh)

    p = sub.add_parser("homv", help="graded Hom over the total space")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_homv)

    p = sub.add_parser("hilbert", help="Cox ring graded dimensions")
    hsub = p.add_subparsers(dest="kind", required=True)
    pr = hsub.add_parser("r", help="flag Cox ring piece")
    pr.add_argument("k", type=int)
    pr.add_argument("l", type=int)
    ps = hsub.add_parser("s", help="total-space Cox ring piece")
    ps.add_argument("k", type=int)
    ps.add_argument("l", type=int)
    pg = hsub.add_parser("git", help="GIT weight piece")
    pg.add_argument("side", choices=["+", "-", "0"])
    pg.add_argument("n", type=int)
    for sp in (pr, ps, pg):
        sp.add_argument("--trunc", type=int, default=10)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--table", action="store_true", help="emit the full table")
        sp.add_argument("--table-degree", type=int, default=5)
    pr.set_defaults(func=cmd_hilbert)
    ps.set_defaults(func=cmd_hilbert)
    pg.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("sod-replay", help="replay the certified mutation script")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sod_replay)

    p = sub.add_parser("check-all", help="run every verification suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_all)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if type(value) is int and abs(value) >= MAX_ARGUMENT:
            print(
                f"error: integers past 10^{MAX_ARGUMENT_DIGITS} are not supported "
                f"(argument {name.replace('_', '-')})",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        return args.func(args, g2())
    except ParseError as err:
        print(f"expression error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrityError as err:
        # Route mismatches and failed internal checks: an engine fault.
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
