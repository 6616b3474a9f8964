"""Child-process side of the benchmark: one fresh interpreter per call.

    python bench/worker.py certify-work
    python bench/worker.py cli <g2flop cli arguments...>      (always traced)
    python bench/worker.py query-pass --seed N --pass K [--trace]
    python bench/worker.py scale-pass [--trace]

``bench/run.py`` starts these with ``PYTHONPATH=src`` and reads the JSON line
each prints last on stdout (for ``cli``: on stderr, after ``TRACE_MARK``, so
that stdout stays the CLI's own output).  Engine functions are always looked
up on their module at call time, so that an installed tracer sees the call.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from contextlib import nullcontext

import calibrate
import oracle
from tracer import Tracer

TRACE_MARK = "G2FLOP-BENCH-TRACE "

CARTAN = {
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "B4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "A5": tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5))
        for i in range(5)
    ),
    "D5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    ),
    "B5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -1),
        (0, 0, 0, -2, 2),
    ),
}
F4_BOX = 4


def _timed_import():
    t0 = time.perf_counter()
    import g2flop.cli  # noqa: F401  (imports every layer)

    return time.perf_counter() - t0


def _modules():
    import g2flop.bundles as bundles
    import g2flop.checks as checks
    import g2flop.coxring as coxring
    import g2flop.rootdata as rootdata
    import g2flop.totalspace as totalspace
    import g2flop.weylbott as weylbott

    return bundles, checks, coxring, rootdata, totalspace, weylbott


# --- certify ----------------------------------------------------------------


def certify_work() -> dict:
    """Cold ``run_all(g2())`` in this fresh process, after the import."""
    _, checks, _, rootdata, _, _ = _modules()
    rs = rootdata.g2()
    before = calibrate.sample()
    t0 = time.perf_counter()
    suites = checks.run_all(rs)
    work_s = time.perf_counter() - t0
    return {
        "work_s": work_s,
        "cal": [before, calibrate.sample()],
        "suites": [s.to_json() for s in suites],
    }


def traced_cli(argv: list[str]) -> int:
    import_s = _timed_import()
    import g2flop.cli as cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    sys.stdout.flush()
    payload = {"import_s": import_s, "trace": tracer.report()}
    print(TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


# --- query-mix --------------------------------------------------------------


def query_pass(seed: int, pass_index: int, traced: bool) -> dict:
    import queries

    import_s = _timed_import()
    bundles, _, _, rootdata, totalspace, weylbott = _modules()
    ParseError = bundles.ParseError
    rs = rootdata.g2()
    reference = oracle.load("queries.json")
    warmup, stream = queries.make_pass(seed, pass_index)

    def answer(q):
        if q[0] == "coh":
            e = bundles.parse_expr(q[1])
            return e, bundles.flag_cohomology(rs, e)
        a, b = bundles.parse_expr(q[1]), bundles.parse_expr(q[2])
        return (a, b), totalspace.hom_v(rs, a, b)

    for q in warmup:
        answer(q)

    tracer = Tracer() if traced else None
    verdict = oracle.Verdict()
    latencies, cal = [], []
    wellformed = determined = 0
    block = queries.block_size()
    perf = time.perf_counter
    if tracer:
        tracer.install()
    try:
        for i, (_, _, q) in enumerate(stream):
            if i % block == 0:
                cal.append(calibrate.sample())
            key = queries.query_key(q)
            expected = reference[key]
            verdict.start()
            t0 = perf()
            try:
                expr, res = answer(q)
                raised = None
            except Exception as err:  # judged below, never swallowed
                raised = err
            latencies.append((perf() - t0) * 1000.0)
            if expected == oracle.PARSE_ERROR:
                if not isinstance(raised, ParseError):
                    verdict.fail(f"{key!r}: expected ParseError, got {raised!r}")
                continue
            wellformed += 1
            if raised is not None:
                verdict.fail(f"{key!r} raised {raised!r}")
                continue
            got = oracle.encode_coh(res) if q[0] == "coh" else oracle.encode_homv(res)
            oracle.compare_answer(verdict, key, expected, got)
            if not res.determined:
                continue
            determined += 1
            with tracer.pause() if tracer else nullcontext():
                if q[0] == "coh":
                    chi = weylbott.euler_characteristic(rs, bundles.weights(rs, expr))
                else:
                    chi = res.euler
                if res.profile.euler(rs) != chi:
                    verdict.fail(f"{key!r}: Euler characteristic {chi} not matched")
        cal.append(calibrate.sample())
    finally:
        if tracer:
            tracer.restore()
    return {
        "latencies_ms": latencies,
        "block": block,
        "cal": cal,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "newly_determined": verdict.newly_determined,
        "problems": verdict.problems,
        "wellformed": wellformed,
        "determined": determined,
        "import_s": import_s,
        "trace": tracer.report() if tracer else None,
    }


# --- scale ------------------------------------------------------------------


def _encode_box(profiles) -> str:
    digest = hashlib.sha256()
    degrees = {}
    for profile in profiles:
        digest.update(oracle.encode_profile(profile).encode() + b"\n")
        for d in profile.degrees():
            degrees[d] = degrees.get(d, 0) + 1
    hist = ",".join(f"{d}:{n}" for d, n in sorted(degrees.items()))
    return f"{hist}|{digest.hexdigest()[:16]}"


def _encode_build(r) -> str:
    return f"{r.weyl_order},{len(r.positive_roots)}"


def scale_probes():
    """(name, thunk, encoder of the thunk's result) in the fixed probe order.

    Every probe input is distinct.  The encoders run outside the timed thunk.
    """
    bundles, _, coxring, rootdata, _, weylbott = _modules()
    rs = rootdata.g2()
    built = {}

    def u_power(k):
        e = bundles.Universal()
        for _ in range(k - 1):
            e = bundles.Tensor(e, bundles.Universal())
        return bundles.Twist(e, 0, 1)

    def build(name):
        built[name] = rootdata.build_root_system(CARTAN[name])
        return built[name]

    def f4_box():
        box = range(-F4_BOX, F4_BOX + 1)
        return [
            weylbott.line_cohomology(built["F4"], w)
            for w in itertools.product(box, repeat=4)
        ]

    probes = []
    for k in range(8, 13):
        probes.append(
            (
                f"coh U^{k}(h)",
                lambda k=k: bundles.flag_cohomology(rs, u_power(k)),
                oracle.encode_coh,
            )
        )
    for m in (100, 300, 1000):
        probes.append(
            (
                f"coh Sym^{m} U(h)",
                lambda m=m: bundles.flag_cohomology(
                    rs, bundles.parse_expr(f"Sym^{m} U(h)")
                ),
                oracle.encode_coh,
            )
        )
    probes += [
        ("total_cox_dim(0,0) trunc 1000", lambda: coxring.total_cox_dim(rs, 0, 0, 1000), str),
        ("total_cox_dim(1,0) trunc 3000", lambda: coxring.total_cox_dim(rs, 1, 0, 3000), str),
        ("git_piece(+,2) trunc 1000", lambda: coxring.git_piece(rs, "+", 2, 1000), str),
        ("git_piece(-,3) trunc 3000", lambda: coxring.git_piece(rs, "-", 3, 3000), str),
    ]
    for name in CARTAN:
        probes.append((f"build {name}", lambda name=name: build(name), _encode_build))
    probes.append((f"bott F4 box [-{F4_BOX},{F4_BOX}]^4", f4_box, _encode_box))
    return probes


def scale_pass(traced: bool) -> dict:
    import_s = _timed_import()
    reference = oracle.load("scale.json")
    probes = scale_probes()
    tracer = Tracer() if traced else None
    verdict = oracle.Verdict()
    probe_s = {}
    results = {}
    cal = []
    perf = time.perf_counter
    if tracer:
        tracer.install()
    try:
        for name, thunk, _ in probes:
            cal.append(calibrate.sample())
            verdict.start()
            t0 = perf()
            try:
                results[name] = thunk()
            except Exception as err:  # judged below, never swallowed
                verdict.fail(f"{name} raised {err!r}")
            probe_s[name] = perf() - t0
        cal.append(calibrate.sample())
    finally:
        if tracer:
            tracer.restore()
    coh_probes = determined = 0
    for name, _, encode in probes:
        if name not in results:
            continue
        got = encode(results[name])
        if name.startswith("build "):
            order, npos = oracle.CLASSICAL_BUILDS[name.split()[1]]
            if got != f"{order},{npos}":
                verdict.fail(f"{name}: got {got}, classical {order},{npos}")
                continue
        if name.startswith("coh "):
            coh_probes += 1
            determined += got != oracle.INDETERMINATE
        oracle.compare_answer(verdict, name, reference[name], got)
    return {
        "probe_s": probe_s,
        "cal": cal,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "newly_determined": verdict.newly_determined,
        "problems": verdict.problems,
        "wellformed": coh_probes,
        "determined": determined,
        "import_s": import_s,
        "trace": tracer.report() if tracer else None,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return traced_cli(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=["certify-work", "query-pass", "scale-pass"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "certify-work":
        result = certify_work()
    elif args.mode == "query-pass":
        result = query_pass(args.seed, args.pass_index, args.trace)
    else:
        result = scale_pass(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
