"""Tests of the benchmark itself (not of g2flop).

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import oracle
import queries
import tracer
import worker

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Per-layer metrics that run.py measures itself rather than reading a trace.
RUN_LEVEL = {
    "rootdata.build.F4.s",
    "rootdata.build.B5.s",
    "cli.interpreter_s",
    "cli.import_s",
    "trace.overhead_ratio",
    "weylbott.line_cohomology.hit_ratio",
    "bundles.route_b_cohomology.applied_ratio",
    "totalspace.hom_v.determined_ratio",
    "rootdata.pairing.calls",
    "rootdata.reflect.calls",
    "cli.main.self_s",
}


def _stream_bytes(seed: int, pass_index: int) -> bytes:
    return json.dumps(queries.make_pass(seed, pass_index)).encode()


def test_same_seed_gives_byte_identical_stream():
    assert _stream_bytes(7, 0) == _stream_bytes(7, 0)
    assert _stream_bytes(7, 3) == _stream_bytes(7, 3)
    assert _stream_bytes(7, 0) != _stream_bytes(8, 0)
    assert _stream_bytes(7, 0) != _stream_bytes(7, 1)


def test_two_seeds_give_the_same_stratum_shares():
    def shape(seed):
        warmup, stream = queries.make_pass(seed, 0)
        return Counter((stratum, is_repeat) for stratum, is_repeat, _ in stream), len(warmup)

    assert shape(1) == shape(2) == shape(12345)
    counts, _ = shape(1)
    total = sum(counts.values())
    repeats = sum(n for (_, is_repeat), n in counts.items() if is_repeat)
    assert total >= 1000
    assert abs(repeats / total - 0.5) < 0.03


def test_warmup_never_appears_in_the_timed_stream():
    warmup, stream = queries.make_pass(3, 0)
    timed = {q for _, _, q in stream}
    assert warmup and not set(warmup) & timed


def test_reference_covers_exactly_the_query_pool():
    reference = oracle.load("queries.json")
    keys = {queries.query_key(q) for pool in queries.pools().values() for q in pool}
    assert keys == set(reference)
    malformed = {queries.query_key(q) for q in queries.pools()[queries.MALFORMED]}
    assert {k for k, v in reference.items() if v == oracle.PARSE_ERROR} == malformed


def _first_determined_key(seed: int) -> str:
    reference = oracle.load("queries.json")
    _, stream = queries.make_pass(seed, 0)
    for _, _, q in stream:
        value = reference[queries.query_key(q)]
        if value not in (oracle.PARSE_ERROR,) and not value.startswith("?"):
            if value.partition("|")[0]:
                return queries.query_key(q)
    raise AssertionError("no determinate nonzero answer in the stream")


def _pass_with_reference(monkeypatch, edit):
    real_load = oracle.load

    def load(name):
        data = real_load(name)
        if name == "queries.json":
            edit(data)
        return data

    monkeypatch.setattr(oracle, "load", load)
    return worker.query_pass(5, 0, traced=False)


def test_oracle_rejects_a_corrupted_reference_answer(monkeypatch):
    key = _first_determined_key(5)

    def corrupt(data):
        body, sep, tail = data[key].partition("|")
        d, hw, m = body.split(";")[0].split(":")
        data[key] = ";".join([f"{d}:{hw}:{int(m) + 1}"] + body.split(";")[1:]) + sep + tail

    result = _pass_with_reference(monkeypatch, corrupt)
    assert result["failed"] >= 1
    assert any(repr(key) in p for p in result["problems"])


def test_indeterminate_reference_becoming_determinate_is_not_a_failure(monkeypatch):
    key = _first_determined_key(5)

    def forget(data):
        _, sep, tail = data[key].partition("|")
        data[key] = oracle.INDETERMINATE + sep + tail

    result = _pass_with_reference(monkeypatch, forget)
    assert result["failed"] == 0
    assert result["newly_determined"] >= 1


def test_untouched_pass_is_correct():
    result = worker.query_pass(5, 0, traced=False)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == len(queries.make_pass(5, 0)[1])


def test_check_all_comparison_rejects_a_changed_suite():
    expected = oracle.load("check_all.json")
    good = dict(expected, timestamp=1.0)
    verdict = oracle.Verdict()
    oracle.check_all_payload(verdict, json.dumps(good), expected)
    assert verdict.failed == 0
    bad = json.loads(json.dumps(good))
    bad["suites"][0]["checks"] += 1
    oracle.check_all_payload(verdict, json.dumps(bad), expected)
    assert verdict.failed == 1


def test_tracer_wraps_every_binding_and_restores_them():
    import g2flop
    import g2flop.bundles
    import g2flop.checks
    import g2flop.totalspace
    import g2flop.weylbott

    original = g2flop.weylbott.line_cohomology
    t = tracer.Tracer()
    with t.installed():
        for module in (g2flop, g2flop.weylbott, g2flop.checks):
            assert module.line_cohomology is not original
        for module in (g2flop, g2flop.bundles, g2flop.checks, g2flop.totalspace):
            assert hasattr(module.flag_cohomology, "__wrapped__")
        assert tracer.leftover_wrappers()
    assert tracer.leftover_wrappers() == []
    assert g2flop.checks.line_cohomology is original


def test_traced_pass_cross_checks_and_leaves_no_wrapper():
    result = worker.query_pass(9, 0, traced=True)
    assert result["failed"] == 0, result["problems"]
    assert result["trace"]["trace.line_cohomology_crosscheck"] == 1
    assert tracer.leftover_wrappers() == []


def test_traces_cover_every_per_layer_metric(capsys):
    produced = set(worker.query_pass(9, 0, traced=True)["trace"])
    produced |= set(worker.scale_pass(traced=True)["trace"])
    assert worker.traced_cli(["check-all", "--json"]) == 0
    err = capsys.readouterr().err
    line = next(x for x in err.splitlines() if x.startswith(worker.TRACE_MARK))
    produced |= set(json.loads(line[len(worker.TRACE_MARK):])["trace"])
    assert tracer.leftover_wrappers() == []
    wanted = {m["name"] for m in SPEC["per_layer"]} - RUN_LEVEL
    assert wanted <= produced, sorted(wanted - produced)
