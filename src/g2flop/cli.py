"""Command-line front end for batch verification and exploration.

Exit codes: 0 = all checks pass / query answered; 1 = a verification failed,
including two routes disagreeing or another internal check failing;
2 = usage or expression-parse error; 141 = stdout was closed before the
answer was written, as ``g2flop ... | head -c 1`` may do.  Indeterminate
cohomology in a query context is a distinct reported status, not a failure.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace
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
#: 128 + SIGPIPE, what a shell reports for a filter whose reader went away.
EXIT_BROKEN_PIPE = 141

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


# Each handler returns its answer as ``(payload, text)``: the JSON document,
# without the ``command`` key that ``main`` adds, and its text rendering.
# Handlers print nothing; ``main`` prints one of the two and reads the exit
# code from the payload's ``status``.


def cmd_roots(args, rs: RootSystem) -> tuple[dict, str]:
    payload = {
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
        conventions = payload["conventions"] = _conventions(rs)
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
        for key, value in conventions.items():
            lines.append(f"  {key}: {value}")
    return payload, "\n".join(lines)


def cmd_dim(args, rs: RootSystem) -> tuple[dict, str]:
    lam = (args.a, args.b)
    value = weyl_dim(rs, lam)
    payload = {"inputs": {"weight": list(lam)}, "status": "pass", "value": value}
    return payload, str(value)


def cmd_coh(args, rs: RootSystem) -> tuple[dict, str]:
    expr = parse_expr(args.expr)
    res = flag_cohomology(rs, expr)
    payload = {"inputs": {"expr": format_expr(expr)}}
    if res.determined:
        payload.update(
            status="pass", profile=_profile_json(rs, res.profile), route=res.route
        )
        text = format_profile(res.profile)
        if not res.profile.is_zero:
            dims = res.profile.dimensions(rs)
            text += "  (" + ", ".join(
                f"degree {d}: dim {n}" for d, n in sorted(dims.items())
            ) + ")"
        return payload, text
    # One entry per distinct weight, its profile scaled by its multiplicity.
    pieces = []
    for w, p, m in res.e1:
        if not p.is_zero:
            scaled = CohomologyProfile.of((d, hw, k * m) for d, hw, k in p.entries)
            pieces.append(f"{w}: {format_profile(scaled)}")
    payload.update(status="indeterminate", e1=pieces)
    return payload, "indeterminate; E1 page: " + "; ".join(pieces)


def cmd_homv(args, rs: RootSystem) -> tuple[dict, str]:
    a = parse_expr(args.source)
    b = parse_expr(args.target)
    res = hom_v(rs, a, b)
    inputs = {"source": format_expr(a), "target": format_expr(b)}
    payload = {"inputs": inputs, "euler": res.euler}
    if res.determined:
        payload.update(status="pass", profile=_profile_json(rs, res.profile))
        return payload, format_profile(res.profile)
    payload.update(
        status="indeterminate",
        native_term=format_profile(res.p0.profile) if res.p0.determined else None,
        twisted_term=format_profile(res.p1.profile) if res.p1.determined else None,
    )
    return payload, f"indeterminate (Euler characteristic {res.euler})"


def cmd_hilbert(args, rs: RootSystem) -> tuple[dict, str]:
    # The r sum takes no --trunc, so its table reports no truncation.  Every
    # bad bound is refused by coxring, with the ValueError main prints.
    trunc = getattr(args, "trunc", None)
    table_degree = args.table_degree
    if table_degree is None:
        table_degree = DEFAULT_TABLE_DEGREE
    if args.kind == "r":
        value = flag_cox_dim(rs, args.k, args.l)
        inputs = {"kind": "r", "degree": [args.k, args.l]}
    elif args.kind == "s":
        value = total_cox_dim(rs, args.k, args.l, trunc)
        inputs = {"kind": "s", "degree": [args.k, args.l], "trunc": trunc}
    else:
        value = git_piece(rs, args.side, args.n, trunc)
        inputs = {"kind": "git", "side": args.side, "degree": args.n, "trunc": trunc}
    payload = {
        "inputs": inputs,
        "status": "pass",
        "value": value,
        "table": hilbert_table(rs, args.kind, trunc, table_degree)
        if args.table
        else None,
    }
    text = str(value)
    if args.table:
        text += "\n" + json.dumps(payload["table"], sort_keys=True)
    return payload, text


def cmd_sod_replay(args, rs: RootSystem) -> tuple[dict, str]:
    report = replay_mutation_script(rs)
    payload = report.to_json()
    payload.update(inputs={}, status="pass" if report.passed else "fail")
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
    return payload, "\n".join(lines)


def cmd_check_all(args, rs: RootSystem) -> tuple[dict, str]:
    started = time.time()
    suites = run_all(rs)
    all_ok = all(s.ok for s in suites)
    payload = {
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
    return payload, "\n".join(lines)


DESCRIPTION = (
    "Exact verification engine for equivariant cohomology, total-space Ext groups,\n"
    "Cox-ring Hilbert series and semiorthogonal mutations on the G2 flag variety."
)

#: The command table that both ``_plain_args`` and ``build_parser`` read.  A
#: command is either ``(help, handler, positionals, options)`` or
#: ``(help, {name: command})``, a group such as hilbert's three kinds.  A
#: positional is a name with its type: ``int``, ``str`` or a tuple of
#: choices.  An option maps its name to its default: ``False`` for a flag, an
#: int or None for an option taking an integer.  Only the s and git sums are
#: truncated, so r has no ``--trunc``; ``--table-degree`` defaults to None,
#: so that ``parse_args`` can refuse it without ``--table``.
DEFAULT_TRUNC = 10
DEFAULT_TABLE_DEGREE = 5
HILBERT_OPTIONS = {"json": False, "table": False, "table-degree": None}
TRUNCATED_OPTIONS = {"trunc": DEFAULT_TRUNC, **HILBERT_OPTIONS}
COMMANDS = {
    "roots": (
        "root system summary",
        cmd_roots,
        (),
        {"json": False, "convention-dump": False},
    ),
    "dim": (
        "irreducible representation dimension",
        cmd_dim,
        (("a", int), ("b", int)),
        {"json": False},
    ),
    "coh": (
        "cohomology of a bundle expression",
        cmd_coh,
        (("expr", str),),
        {"json": False},
    ),
    "homv": (
        "graded Hom over the total space",
        cmd_homv,
        (("source", str), ("target", str)),
        {"json": False},
    ),
    "hilbert": (
        "Cox ring graded dimensions",
        {
            "r": (
                "flag Cox ring piece",
                cmd_hilbert,
                (("k", int), ("l", int)),
                HILBERT_OPTIONS,
            ),
            "s": (
                "total-space Cox ring piece",
                cmd_hilbert,
                (("k", int), ("l", int)),
                TRUNCATED_OPTIONS,
            ),
            "git": (
                "GIT weight piece",
                cmd_hilbert,
                (("side", ("+", "-", "0")), ("n", int)),
                TRUNCATED_OPTIONS,
            ),
        },
    ),
    "sod-replay": (
        "replay the certified mutation script",
        cmd_sod_replay,
        (),
        {"json": False},
    ),
    "check-all": ("run every verification suite", cmd_check_all, (), {"json": False}),
}
OPTION_HELP = {
    "json": "print the answer as JSON",
    "convention-dump": "dump the pinned conventions (Cartan matrix, rho, orientation)",
    "trunc": f"the sum stops at diagonal twist TRUNC ({DEFAULT_TRUNC} by default)",
    "table": "emit the full table",
    "table-degree": (
        f"with --table: largest degree in the table "
        f"({DEFAULT_TABLE_DEGREE} by default, at most 100)"
    ),
}


def _plain_args(argv: list[str]) -> Optional[dict]:
    """What argparse makes of ``argv``, as a dict in its key order with
    ``func``, when ``argv`` has only plain forms; ``None`` for any other.

    The plain forms are the command and a group's kind, positionals that do
    not start with ``-`` or are one of their choices, and exact long options,
    as ``--opt N``, ``--opt=N`` or a bare flag, with ``int()`` reading N.
    Help, prefixes, ``--``, values that start with ``-`` and every usage
    error are left to ``build_parser``.
    """
    values = {}
    entry, dest, i = (DESCRIPTION, COMMANDS), "command", 0
    while type(entry[1]) is dict:
        if i == len(argv) or argv[i] not in entry[1]:
            return None
        values[dest] = argv[i]
        entry, dest, i = entry[1][argv[i]], "kind", i + 1
    _, handler, positionals, options = entry
    values.update((name, None) for name, _ in positionals)
    values.update((name.replace("-", "_"), d) for name, d in options.items())
    values["func"] = handler
    filled = 0
    args = iter(argv[i:])
    try:
        for arg in args:
            name, eq, text = arg.partition("=")
            if name.startswith("--") and name[2:] in options:
                name = name[2:]
                if options[name] is not False:
                    # A missing value reads as "-", which declines.
                    text = text if eq else next(args, "-")
                    value = None if text.startswith("-") else int(text)
                else:
                    value = None if eq else True
            elif filled < len(positionals):
                name, kind = positionals[filled]
                filled += 1
                if type(kind) is tuple:
                    value = arg if arg in kind else None
                else:
                    value = None if arg.startswith("-") else kind(arg)
            else:
                return None
            if value is None:
                return None
            values[name.replace("-", "_")] = value
    except ValueError:
        return None
    return values if filled == len(positionals) else None


def build_parser():
    """The argparse parser of ``COMMANDS``, for the argvs that
    ``_plain_args`` leaves: its help, its usage errors and the forms that
    only argparse reads.  argparse is imported here, so a plain argv never
    loads it."""
    import argparse

    def add(parser, entry, dest):
        if type(entry[1]) is dict:
            group = parser.add_subparsers(dest=dest, required=True)
            for name, sub in entry[1].items():
                sub_parser = group.add_parser(name, help=sub[0], description=sub[0])
                add(sub_parser, sub, "kind")
            return
        handler, positionals, options = entry[1:]
        for name, kind in positionals:
            if type(kind) is tuple:
                parser.add_argument(name, choices=kind)
            else:
                parser.add_argument(name, type=kind)
        for name, default in options.items():
            how = {"action": "store_true"}
            if default is not False:
                how = {"type": int, "default": default}
            parser.add_argument(f"--{name}", help=OPTION_HELP[name], **how)
        parser.set_defaults(func=handler)

    parser = argparse.ArgumentParser(
        prog="g2flop",
        description=DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add(parser, (DESCRIPTION, COMMANDS), "command")
    return parser


def parse_args(argv: list[str]):
    """The namespace of ``argv``: read by ``_plain_args`` when it can be,
    by ``build_parser`` otherwise, which prints help or a usage error and
    exits 0 or 2.  It holds ``command``, a group's ``kind``, every positional
    and every option (dashes as underscores) and ``func``, the handler.
    ``--table-degree`` without ``--table``, which would be ignored, is a
    usage error too."""
    plain = _plain_args(argv)
    if plain is None:
        args = build_parser().parse_args(argv)
    else:
        args = SimpleNamespace(**plain)
    if getattr(args, "table_degree", None) is not None and not args.table:
        build_parser().error(
            "argument --table-degree: only allowed with argument --table"
        )
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for name, value in vars(args).items():
        if type(value) is int and abs(value) >= MAX_ARGUMENT:
            print(
                f"error: integers past 10^{MAX_ARGUMENT_DIGITS} are not supported "
                f"(argument {name.replace('_', '-')})",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        payload, text = args.func(args, g2())
        payload["command"] = args.command
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
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
    return EXIT_VERIFICATION_FAILED if payload["status"] == "fail" else EXIT_OK


def run(argv: Optional[list[str]] = None) -> int:
    """The console entry point: ``main``, then stdout flushed and the heap
    frozen.

    ``gc.freeze`` moves every object alive after ``main`` to the permanent
    generation, so the collections at interpreter exit no longer walk the
    import-time heap; ``main`` does not freeze, since tests call it
    in-process.  A reader that closes stdout early (``g2flop ... | head``)
    ends the process with ``EXIT_BROKEN_PIPE``, not with 1, which means a
    verification failed.
    """
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit: point it at
        # os.devnull so that flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
