"""Spans and counters around the public functions of each g2flop layer.

The package binds functions across modules with ``from .x import y``, so a
function has one binding in its defining module and one more in every module
that imports it.  ``Tracer.install`` replaces every such binding with one
wrapper per function and ``Tracer.restore`` puts the originals back; the
program itself is not edited.  A span's self time is its duration minus the
durations of the spans it called directly.

Hot helpers (``wadd``, ``wneg``, ``wscale`` and the ``RootSystem.pairing`` and
``RootSystem.reflect`` methods) are counted but not timed, to keep the
tracing overhead small; ``trace.overhead_ratio`` reports what remains.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "rootdata",
    "weylbott",
    "bundles",
    "totalspace",
    "coxring",
    "sodengine",
    "checks",
    "cli",
)
COUNT_ONLY = frozenset({"rootdata.wadd", "rootdata.wneg", "rootdata.wscale"})
COUNT_ONLY_METHODS = ("pairing", "reflect")
#: lru_cache objects whose statistics are read from the original function.
CACHED = ("dot_normalize", "line_cohomology", "weyl_dim")

_MARK = "__g2flop_bench_traced__"


def _modules():
    package = importlib.import_module("g2flop")
    layers = [importlib.import_module(f"g2flop.{name}") for name in LAYERS]
    return package, layers


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class _Span:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Wraps every binding of every public layer function while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.depth = Counter()
        self.paused = False
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._cache_paused = defaultdict(lambda: [0, 0])
        self._observers = {
            "bundles.weights": self._observe_weights,
            "bundles.route_b_cohomology": self._observe_route_b,
            "bundles.flag_cohomology": self._observe_flag,
            "totalspace.hom_v": self._observe_hom_v,
            "sodengine.apply_move": self._observe_apply_move,
            "sodengine.replay_mutation_script": self._observe_replay,
        }
        self._weylbott = None

    # --- wrappers -----------------------------------------------------------

    def _span_wrapper(self, qual: str, fn):
        observer = self._observers.get(qual)
        is_suite = qual.startswith("checks.") and qual.endswith("_suite")
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            depth = self.depth[qual]
            self.depth[qual] = depth + 1
            span = _Span()
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self.depth[qual] = depth
                self.calls[qual] += 1
                self.self_s[qual] += dt - span.child
                if depth == 0:
                    self.total_s[qual] += dt
                else:
                    self.counts[f"{qual}.nested_calls"] += 1
                if stack:
                    stack[-1].child += dt
            if observer is not None:
                observer(args, result, depth, dt)
            if is_suite:
                self.total_s[f"checks.{result.name}"] += dt
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qual: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not self.paused:
                calls[qual] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # --- observers ----------------------------------------------------------

    def _observe_weights(self, args, result, depth, dt):
        if depth == 0:
            self.counts["bundles.weights.weights_out"] += len(result)

    def _observe_route_b(self, args, result, depth, dt):
        self.counts["bundles.route_b_cohomology.applied"] += result is not None

    def _observe_flag(self, args, result, depth, dt):
        if depth == 0:
            self.counts[f"bundles.route.{result.route}"] += 1

    def _observe_hom_v(self, args, result, depth, dt):
        self.counts["totalspace.hom_v.determined"] += bool(result.determined)

    def _observe_apply_move(self, args, result, depth, dt):
        move = type(args[2]).__name__
        self.counts[f"sodengine.apply_move.{move}.calls"] += 1
        self.total_s[f"sodengine.apply_move.{move}"] += dt

    def _observe_replay(self, args, result, depth, dt):
        for step in result.steps:
            for cert in step.certificates:
                self.counts[f"sodengine.certificates.{cert.kind}"] += 1

    # --- install / restore ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        package, layers = _modules()
        wrappers = {}
        for module in layers:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                qual = f"{layer}.{name}"
                make = self._count_wrapper if qual in COUNT_ONLY else self._span_wrapper
                wrappers[id(fn)] = (fn, make(qual, fn))
        for module in [package, *layers]:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, entry[1])
        rootdata = sys.modules["g2flop.rootdata"]
        for name in COUNT_ONLY_METHODS:
            original = rootdata.RootSystem.__dict__[name]
            self._patched.append((rootdata.RootSystem, name, original))
            setattr(
                rootdata.RootSystem,
                name,
                self._count_wrapper(f"rootdata.RootSystem.{name}", original),
            )
        self._weylbott = sys.modules["g2flop.weylbott"]
        for name in CACHED:
            info = self._original(name).cache_info()
            self._cache_start[name] = (info.hits, info.misses)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def pause(self):
        """Run benchmark-side checks without counting them as program work."""
        before = {n: self._original(n).cache_info() for n in CACHED}
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            for n in CACHED:
                info = self._original(n).cache_info()
                self._cache_paused[n][0] += info.hits - before[n].hits
                self._cache_paused[n][1] += info.misses - before[n].misses

    def _original(self, name: str):
        fn = getattr(self._weylbott, name)
        return getattr(fn, _MARK, fn)

    # --- report -------------------------------------------------------------

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name in CACHED:
            info = self._original(name).cache_info()
            h0, m0 = self._cache_start[name]
            ph, pm = self._cache_paused[name]
            out[name] = (info.hits - h0 - ph, info.misses - m0 - pm)
        return out

    def report(self) -> dict:
        """Flat metric dict: counts are exact, ``*_s``/``.s`` values are seconds."""
        out: dict[str, float] = {}
        for qual, n in self.calls.items():
            out[f"{qual}.calls"] = n
        for qual, s in self.self_s.items():
            out[f"{qual}.self_s"] = s
        for qual, s in self.total_s.items():
            out[f"{qual}.s"] = s
        out.update(self.counts)
        for name, (hits, misses) in self.cache_deltas().items():
            out[f"weylbott.{name}.hits"] = hits
            out[f"weylbott.{name}.misses"] = misses
        lc_calls = self.calls["weylbott.line_cohomology"]
        hits, misses = self.cache_deltas()["line_cohomology"]
        out["trace.line_cohomology_crosscheck"] = int(lc_calls == hits + misses)
        return out


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a tracer wrapper."""
    package, layers = _modules()
    found = []
    for module in [package, *layers]:
        for name, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{module.__name__}.{name}")
    rootdata = sys.modules["g2flop.rootdata"]
    for name in COUNT_ONLY_METHODS:
        if hasattr(rootdata.RootSystem.__dict__[name], _MARK):
            found.append(f"g2flop.rootdata.RootSystem.{name}")
    return found
