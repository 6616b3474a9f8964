"""g2flop benchmark runner.

    python3 bench/run.py --workload {certify,query-mix,scale} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src`` of the checkout this file belongs to.
It is single-threaded and starts at most one child process at a time, each
a fresh interpreter:

* certify   -- rounds of cold ``python -m g2flop.cli check-all --json`` and
               ``sod-replay --json`` processes, plus one process that times
               ``run_all(g2())`` after its import;
* query-mix -- passes of a seeded, stratified stream of ``coh``/``homv``
               queries, each pass one warm process (``worker.py query-pass``);
* scale     -- passes over a fixed list of scale probes, each pass one fresh
               process (``worker.py scale-pass``).

Every answer is checked against ``bench/reference``.  Every timing is scaled
by the calibration kernel of ``calibrate.py``.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the ``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Bytecode of the program and of the benchmark goes under the build directory,
# never next to the sources.
PYCACHE = ROOT / ".bench_build" / "pycache"
sys.pycache_prefix = str(PYCACHE)

import calibrate  # noqa: E402
import oracle  # noqa: E402
from worker import TRACE_MARK  # noqa: E402

PY = sys.executable
WORKER = str(BENCH_DIR / "worker.py")
CHILD_TIMEOUT_S = 120.0
#: Set-up samples taken before a workload starts; one more is taken after
#: every certify round or query pass and two after every scale pass, so that
#: the set-up median spans the whole run.
SETUP_SAMPLES = 5
SETUP_CODE = "import g2flop; g2flop.g2()"
INTERPRETER_SAMPLES = 9
#: Minimum sample counts, so that each reported percentile has at least ten
#: samples beyond it (p75 of certify rounds, p99 of queries).
MIN_ROUNDS = 40
MIN_QUERY_PASSES = 2
MIN_SCALE_PASSES = 3
MIN_TRACED_UNITS = 2
#: No measuring loop starts another unit after this many seconds.
HARD_LIMIT_S = 110.0
WORKLOADS = ("certify", "query-mix", "scale")


@dataclass
class Child:
    code: int
    out: str
    err: str
    start: float
    end: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _child_env() -> dict:
    # Children cache bytecode like an ordinary install, whatever the caller's
    # environment says, so that "cold" means a fresh process, not a recompile.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run_child(argv: list[str], env: dict) -> Child:
    """Run one child to completion; wall time is spawn to reap."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    deadline = t0 + CHILD_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for stream in (proc.stdout, proc.stderr):
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        proc.returncode,
        b"".join(chunks[out_fd]).decode(),
        b"".join(chunks[err_fd]).decode(),
        t0,
        t1,
        usage.ru_maxrss / 1024.0,
    )


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _last_json(child: Child, what: str) -> tuple[dict | None, str | None]:
    """(the JSON object a worker printed last, None) or (None, the problem)."""
    if child.code != 0:
        return None, f"{what}: exit code {child.code}: {child.err.strip()[-300:]}"
    try:
        return json.loads(child.out.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"{what}: no JSON result"


def _trace_payload(child: Child, verdict: oracle.Verdict, what: str):
    for line in reversed(child.err.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    verdict.fail(f"{what}: no trace payload")
    return None


def _local_factor(cal: list) -> float:
    """Scale for a whole worker run, from its own kernel samples."""
    return calibrate.REFERENCE_S / statistics.median(s for _, s in cal)


def _fmt(scaled: list[float], raw: list[float], unit: str = "s") -> str:
    return (
        f"{statistics.median(scaled):.4f} {unit} "
        f"(raw {statistics.median(raw):.4f} {unit}; median of {len(scaled)})"
    )


class Bench:
    """One run: its children, its operation tally and its calibration timeline.

    The timeline holds the kernel samples this process takes after every
    child; child wall times are scaled by it once the run has ended, so that
    every timing has samples on both sides.  Timings taken inside a worker
    are scaled by that worker's own samples.
    """

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.env = _child_env()
        self.verdict = oracle.Verdict()
        self.report: dict[str, str] = {}
        self.timeline = calibrate.Timeline()
        self._setup: list[Child] = []

    def child(self, argv: list[str]) -> Child:
        """Run a child, then take a kernel sample."""
        child = run_child(argv, self.env)
        self.timeline.add(*calibrate.sample())
        return child

    def scaled(self, child: Child) -> float:
        return child.wall_s * self.timeline.factor(child.start, child.end)

    @staticmethod
    def scaled_blocks(raw: list[float], cal: list, block: int) -> list[float]:
        """Scale item i of a worker's series by the samples around its block.

        Block b ran between the worker's kernel samples b and b+1; those and
        their two outer neighbours, all taken in the worker process itself,
        scale it.
        """
        secs = [s for _, s in cal]
        factors = [
            calibrate.REFERENCE_S / statistics.median(secs[max(b - 1, 0) : b + 3])
            for b in range(len(secs) - 1)
        ]
        return [x * factors[i // block] for i, x in enumerate(raw)]

    def _running(self, start: float, done: int, minimum: int) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            return False
        return elapsed < self.seconds or done < minimum

    def _payload(self, child: Child, what: str):
        """A worker's JSON result, with its tally merged into this run's."""
        payload, problem = _last_json(child, what)
        if problem:
            self.verdict.start()
            self.verdict.fail(problem)
            return None
        self.verdict.add(
            oracle.Verdict(
                payload["attempted"],
                payload["failed"],
                payload["newly_determined"],
                payload["problems"],
            )
        )
        return payload

    # --- shared measurements ---------------------------------------------------

    def warm_up(self) -> None:
        """Compile the program once, so no sample pays for it."""
        child = run_child([PY, "-c", "import g2flop.cli"], self.env)
        if child.code != 0:
            raise SystemExit(f"cannot import g2flop from {ROOT / 'src'}:\n{child.err}")
        self.timeline.add(*calibrate.sample())

    def measure_setup(self, count: int = SETUP_SAMPLES) -> None:
        for _ in range(count):
            child = self.child([PY, "-c", SETUP_CODE])
            self.verdict.start()
            if child.code != 0:
                self.verdict.fail(f"setup: exit code {child.code}")
            self._setup.append(child)

    def setup_s(self) -> float:
        scaled = [self.scaled(c) for c in self._setup]
        self.report["setup_s"] = _fmt(scaled, [c.wall_s for c in self._setup])
        return statistics.median(scaled)

    def interpreter_s(self) -> float:
        children = [self.child([PY, "-c", "pass"]) for _ in range(INTERPRETER_SAMPLES)]
        return statistics.median(self.scaled(c) for c in children)

    # --- certify ----------------------------------------------------------------

    def _cli(self, command: str, traced: bool) -> tuple[Child, dict | None]:
        if traced:
            argv = [PY, WORKER, "cli", command, "--json"]
        else:
            argv = [PY, "-m", "g2flop.cli", command, "--json"]
        child = self.child(argv)
        self.verdict.start()
        if child.code != 0:
            self.verdict.fail(f"{command}: exit code {child.code}")
        payload = _trace_payload(child, self.verdict, command) if traced else None
        return child, payload

    def certify_round(self, traced: bool, expected: tuple) -> tuple:
        """One cold re-certification: check-all then sod-replay."""
        check_all, ca_trace = self._cli("check-all", traced)
        passing = oracle.check_all_payload(self.verdict, check_all.out, expected[0])
        replay, sr_trace = self._cli("sod-replay", traced)
        oracle.sod_replay_payload(self.verdict, replay.out, expected[1])
        return check_all, replay, passing, [p for p in (ca_trace, sr_trace) if p]

    def certify(self) -> dict:
        expected = (oracle.load("check_all.json"), oracle.load("sod_replay.json"))
        n_suites = len(expected[0]["suites"])
        pairs, works, rss, determined = [], [], [], []
        start = time.perf_counter()
        while self._running(start, len(pairs), MIN_ROUNDS):
            ca, sr, passing, _ = self.certify_round(False, expected)
            pairs.append((ca, sr))
            rss += [ca.maxrss_mb, sr.maxrss_mb]
            determined.append(passing / n_suites)
            child = self.child([PY, WORKER, "certify-work"])
            self.verdict.start()
            payload, problem = _last_json(child, "certify-work")
            if problem:
                self.verdict.fail(problem)
            else:
                works.append(payload)
                oracle.compare_suites(
                    self.verdict, expected[0]["suites"], payload["suites"], "run_all"
                )
            self.measure_setup(1)
        check_all = [self.scaled(ca) for ca, _ in pairs]
        replay = [self.scaled(sr) for _, sr in pairs]
        rounds = [a + b for a, b in zip(check_all, replay)]
        work = [w["work_s"] * _local_factor(w["cal"]) for w in works]
        self.report.update(
            check_all_s=_fmt(check_all, [ca.wall_s for ca, _ in pairs]),
            sod_replay_s=_fmt(replay, [sr.wall_s for _, sr in pairs]),
            check_all_work_s=_fmt(work, [w["work_s"] for w in works]) if works else "n/a",
            round_s=_fmt(rounds, [ca.wall_s + sr.wall_s for ca, sr in pairs]),
            round_p75_s=f"{percentile(rounds, 75):.4f} s",
        )
        return {
            "op_p50_ms": statistics.median(rounds) * 1000.0,
            "op_tail_ms": percentile(rounds, 75) * 1000.0,
            "ops_per_s": len(rounds) / sum(rounds),
            "peak_rss_mb": statistics.median(rss),
            "determined_ratio": statistics.fmean(determined),
        }

    # --- query-mix --------------------------------------------------------------

    def query_pass(self, index: int, traced: bool):
        argv = [PY, WORKER, "query-pass", "--seed", str(self.seed), "--pass", str(index)]
        child = self.child(argv + (["--trace"] if traced else []))
        return child, self._payload(child, f"query pass {index}")

    def query_mix(self) -> dict:
        payloads, rss = [], []
        start = time.perf_counter()
        passes = 0
        while self._running(start, passes, MIN_QUERY_PASSES):
            child, payload = self.query_pass(passes, False)
            passes += 1
            if payload is not None:
                payloads.append(payload)
                rss.append(child.maxrss_mb)
            self.measure_setup(1)
        if not payloads:
            raise SystemExit("query-mix: no pass completed")
        latencies, raw = [], []
        for p in payloads:
            latencies += self.scaled_blocks(p["latencies_ms"], p["cal"], p["block"])
            raw += p["latencies_ms"]
        wellformed = sum(p["wellformed"] for p in payloads)
        determined = sum(p["determined"] for p in payloads)
        qps = len(latencies) / (sum(latencies) / 1000.0)
        p50, p99 = statistics.median(latencies), percentile(latencies, 99)
        self.report.update(
            query_qps=f"{qps:.1f} 1/s (raw {len(raw) / (sum(raw) / 1000.0):.1f} 1/s; "
            f"{len(latencies)} queries in {passes} passes)",
            query_p50_ms=_fmt(latencies, raw, "ms"),
            query_p99_ms=f"{p99:.4f} ms (raw {percentile(raw, 99):.4f} ms)",
            determined_ratio=f"{determined / wellformed:.4f} ({determined}/{wellformed})",
        )
        return {
            "op_p50_ms": p50,
            "op_tail_ms": p99,
            "ops_per_s": qps,
            "peak_rss_mb": statistics.median(rss),
            "determined_ratio": determined / wellformed,
        }

    # --- scale ------------------------------------------------------------------

    def scale_pass(self, traced: bool):
        child = self.child([PY, WORKER, "scale-pass"] + (["--trace"] if traced else []))
        return child, self._payload(child, "scale pass")

    def scaled_probes(self, payload: dict) -> dict[str, float]:
        names = list(payload["probe_s"])
        values = self.scaled_blocks(list(payload["probe_s"].values()), payload["cal"], 1)
        return dict(zip(names, values))

    def scale(self) -> dict:
        payloads, rss = [], []
        start = time.perf_counter()
        while self._running(start, len(payloads), MIN_SCALE_PASSES):
            child, payload = self.scale_pass(False)
            if payload is not None:
                payloads.append(payload)
                rss.append(child.maxrss_mb)
            self.measure_setup(2)
        if not payloads:
            raise SystemExit("scale: no pass completed")
        probes = [self.scaled_probes(p) for p in payloads]
        # The pass time is assembled from per-probe medians, so that one slow
        # probe in one pass does not move it.
        medians = {name: statistics.median(p[name] for p in probes) for name in probes[0]}
        median = sum(medians.values())
        raw = sum(
            statistics.median(p["probe_s"][name] for p in payloads) for name in medians
        )
        self.report["scale_s"] = (
            f"{median:.4f} s (raw {raw:.4f} s; sum of per-probe medians over "
            f"{len(payloads)} passes)"
        )
        for name, value in medians.items():
            self.report[f"  {name}"] = f"{value * 1000:.2f} ms"
        wellformed = sum(p["wellformed"] for p in payloads)
        determined = sum(p["determined"] for p in payloads)
        # Fewer than 20 passes fit in a run, so no percentile above the median
        # has ten samples beyond it: the tail is reported as the median, and
        # the rate as its inverse.
        return {
            "op_p50_ms": median * 1000.0,
            "op_tail_ms": median * 1000.0,
            "ops_per_s": 1.0 / median,
            "peak_rss_mb": statistics.median(rss),
            "determined_ratio": determined / wellformed,
        }

    # --- traced run ---------------------------------------------------------------

    def _unit(self, workload: str, k: int, traced: bool, expected: tuple):
        """Run one unit; returns a closure that scales it once the run is over.

        The closure returns (scaled wall, trace dicts, time scale, import
        times, build times).
        """
        if workload == "certify":
            ca, sr, _, payloads = self.certify_round(traced, expected)

            def finish():
                scale = self.timeline.factor(ca.start, sr.end)
                return (
                    self.scaled(ca) + self.scaled(sr),
                    [p["trace"] for p in payloads],
                    scale,
                    [p["import_s"] * scale for p in payloads],
                    {},
                )

            return finish
        if workload == "query-mix":
            _, payload = self.query_pass(k, traced)
        else:
            _, payload = self.scale_pass(traced)
        if payload is None:
            return None

        def finish():
            cal = payload["cal"]
            scale = _local_factor(cal)
            if workload == "query-mix":
                series = self.scaled_blocks(
                    payload["latencies_ms"], cal, payload["block"]
                )
                wall, builds = sum(series) / 1000.0, {}
            else:
                probes = self.scaled_probes(payload)
                wall = sum(probes.values())
                builds = {n: probes[f"build {n}"] for n in ("F4", "B5")}
            trace = [payload["trace"]] if traced else []
            return wall, trace, scale, [payload["import_s"] * scale], builds

        return finish

    def traced(self, workload: str) -> dict:
        """Alternate untraced and traced units of identical input.

        Counts come from the first traced unit (they repeat exactly); times
        are medians over the traced units.
        """
        expected = (oracle.load("check_all.json"), oracle.load("sod_replay.json"))
        pending = []
        start = time.perf_counter()
        k = 0
        while self._running(start, len(pending), MIN_TRACED_UNITS):
            k += 1
            plain = self._unit(workload, k, False, expected)
            traced = plain and self._unit(workload, k, True, expected)
            if traced:
                pending.append((plain, traced))
        interpreter_s = self.interpreter_s()
        units, overhead, imports = [], [], []
        builds: dict[str, list[float]] = {}
        for plain, traced in pending:
            plain_wall = plain()[0]
            wall, traces, scale, import_s, build_s = traced()
            merged: dict[str, float] = {}
            for t in traces:
                self.verdict.start()
                if t.get("trace.line_cohomology_crosscheck") != 1:
                    self.verdict.fail(
                        "line_cohomology wrapper calls differ from the cache_info delta"
                    )
                for key, value in t.items():
                    value = value * scale if _is_time(key) else value
                    merged[key] = merged.get(key, 0) + value
            units.append(merged)
            overhead.append(wall / plain_wall)
            imports += import_s
            for name, s in build_s.items():
                builds.setdefault(name, []).append(s)
        if not units:
            raise SystemExit(f"{workload}: no traced unit completed")
        layer = layer_metrics(units)
        layer["rootdata.build.F4.s"] = _median_or_zero(builds.get("F4"))
        layer["rootdata.build.B5.s"] = _median_or_zero(builds.get("B5"))
        layer["cli.interpreter_s"] = interpreter_s
        layer["cli.import_s"] = _median_or_zero(imports)
        layer["trace.overhead_ratio"] = statistics.median(overhead)
        self.report["traced units"] = str(len(units))
        self.report["trace.overhead_ratio"] = f"{layer['trace.overhead_ratio']:.3f}"
        return layer


def _is_time(key: str) -> bool:
    return key.endswith((".s", "self_s", "_s"))


def layer_metrics(units: list[dict]) -> dict[str, float]:
    """Per-layer values: counts from the first unit, median times over all."""
    first = units[0]
    out: dict[str, float] = {}
    for key in set().union(*units):
        if _is_time(key):
            out[key] = statistics.median(u.get(key, 0.0) for u in units)
        else:
            out[key] = first.get(key, 0)
    hits = out.get("weylbott.line_cohomology.hits", 0)
    misses = out.get("weylbott.line_cohomology.misses", 0)
    out["weylbott.line_cohomology.hit_ratio"] = _ratio(hits, hits + misses)
    out["bundles.route_b_cohomology.applied_ratio"] = _ratio(
        out.get("bundles.route_b_cohomology.applied", 0),
        out.get("bundles.route_b_cohomology.calls", 0),
    )
    out["totalspace.hom_v.determined_ratio"] = _ratio(
        out.get("totalspace.hom_v.determined", 0), out.get("totalspace.hom_v.calls", 0)
    )
    out["rootdata.pairing.calls"] = out.get("rootdata.RootSystem.pairing.calls", 0)
    out["rootdata.reflect.calls"] = out.get("rootdata.RootSystem.reflect.calls", 0)
    # The cli layer's own time: argument parsing, dispatch, payload and JSON.
    out["cli.main.self_s"] = sum(
        v for k, v in out.items() if k.startswith("cli.") and k.endswith(".self_s")
    )
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "g2flop" / "__init__.py").is_file():
        print(f"error: no g2flop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    bench = Bench(args.seed, args.seconds)
    bench.warm_up()
    if args.trace:
        values = bench.traced(args.workload)
        wanted = spec["per_layer"]
    else:
        bench.measure_setup()
        values = {
            "certify": bench.certify,
            "query-mix": bench.query_mix,
            "scale": bench.scale,
        }[args.workload]()
        values["setup_s"] = bench.setup_s()
        wanted = spec["end_to_end"]

    v = bench.verdict
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}  (times scaled to the calibration kernel)"
    )
    for key, text in bench.report.items():
        print(f"  {key}: {text}")
    print(f"  failed_ratio: {_ratio(v.failed, v.attempted)} ({v.failed}/{v.attempted})")
    print(f"  newly_determined: {v.newly_determined}")
    for problem in v.problems:
        print(f"  FAILURE: {problem}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']}: {value} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": v.failed == 0,
                "attempted": v.attempted,
                "failed": v.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
