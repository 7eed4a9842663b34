"""Span recorder wrapped around the program's public entry points.

The traced run installs :func:`install` in a fresh interpreter before the
program runs. Every wrapped call records a span ``[layer, start, end,
parent]`` in memory; counts (simulated cycles, cache bytes, result
bytes) are recorded at the same boundaries. Nothing under ``src/`` is
edited: functions are replaced in every loaded module that holds them,
methods on their class.

Pool workers forked by the program's engine inherit the wrappers. A
worker appends its spans to ``<dir>/worker-<pid>.jsonl`` each time an
outermost span ends (and when it pickles a result for the parent), so the
parent can fold worker-side layer time into the ledger after the run.

:func:`ledger` turns spans into self time per layer: a span's duration
minus the part of it covered by its child spans. :func:`span_costs`
measures what one span costs, so the parent can estimate the tracer's
overhead without a second, untraced run.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Root layer the benchmark opens around the measured work; its self
#: time is the time no layer accounts for.
ROOT = "bench.work"


class Tracer:
    """Spans and counts of one process. A forked child starts empty and
    appends what it records to its own file under ``out_dir``."""

    def __init__(self, out_dir: Path,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.out_dir = Path(out_dir)
        self.clock = clock
        self.in_worker = False
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.in_worker = True
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount
        if self.in_worker and not self._stack():
            self.flush()

    def call(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, self.clock(), None,
                               stack[-1] if stack else -1])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index][2] = self.clock()
            if self.in_worker and not stack:
                self.flush()

    def wrap(self, layer: str, fn, on_result=None,
             layer_of: Optional[Callable] = None):
        tracer = self

        def traced(*args, **kwargs):
            name = layer_of(args, kwargs) if layer_of else layer
            result = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__qualname__ = getattr(fn, "__qualname__", layer)
        traced.__module__ = getattr(fn, "__module__", __name__)
        return traced

    def flush(self) -> None:
        """Worker side: append buffered spans and counts to this
        worker's file and forget them."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        if not spans and not counts:
            return
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps({"spans": spans,
                                     "counts": dict(counts)}) + "\n")

    def worker_chunks(self) -> List[dict]:
        chunks = []
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                chunks.extend(json.loads(line) for line in handle if line)
        return chunks


def _replace_everywhere(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _patch_function(tracer: Tracer, fn, layer: str, **kw) -> None:
    if _replace_everywhere(fn, tracer.wrap(layer, fn, **kw)) == 0:
        raise RuntimeError(f"no module binds {fn.__qualname__}")


def _patch_method(tracer: Tracer, cls, name: str, layer: str, **kw) -> None:
    setattr(cls, name, tracer.wrap(layer, getattr(cls, name), **kw))


def _count_pipeline(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("pipeline.sims")
    tracer.count("pipeline.sim_cycles", result.cycles)


def _count_cache_get(tracer: Tracer, value, args, kwargs) -> None:
    from repro.runtime.cache import MISS

    cache, key = args[0], args[1]
    tracer.count("runtime.cache_gets")
    if value is not MISS:
        tracer.count("runtime.cache_hits")
        tracer.count("runtime.cache_read_bytes",
                     os.stat(cache.path_for(key)).st_size)


def _count_cache_put(tracer: Tracer, stored, args, kwargs) -> None:
    cache, key = args[0], args[1]
    if stored:
        tracer.count("runtime.cache_write_bytes",
                     os.stat(cache.path_for(key)).st_size)


def _functional_layer(args, kwargs) -> str:
    record = kwargs.get("record_trace", args[1] if len(args) > 1 else True)
    return "arch.execute" if record else "arch.reexec"


def _patch_result_pickler(tracer: Tracer) -> None:
    """Count the bytes a pool worker pickles to ship a result back."""
    import multiprocessing.queues as queues

    base = queues._ForkingPickler

    class SizedPickler(base):
        @classmethod
        def dumps(cls, obj, protocol=None):
            data = base.dumps(obj, protocol)
            if tracer.in_worker:
                tracer.count("runtime.result_bytes", len(data))
            return data

    queues._ForkingPickler = SizedPickler


def install(out_dir: Path,
            clock: Callable[[], float] = time.perf_counter) -> Tracer:
    """Wrap the program's public entry points; returns the tracer."""
    import repro.cli  # noqa: F401  (loads every module the CLI reaches)
    from repro.analysis.deadcode import analyze_deadness
    from repro.arch.executor import FunctionalSimulator
    from repro.avf.avf_calc import compute_iq_avf
    from repro.faults import batch, campaign
    from repro.pipeline.core import PipelineSimulator
    from repro.runtime import cache, engine
    from repro.serve import protocol, server
    from repro.workloads.codegen import synthesize

    tracer = Tracer(out_dir, clock)
    _patch_function(tracer, synthesize, "workloads.synthesize")
    _patch_function(tracer, analyze_deadness, "analysis.deadness")
    _patch_function(tracer, compute_iq_avf, "avf.report")
    _patch_function(tracer, engine.run_benchmarks_parallel, "runtime.engine")
    _patch_function(tracer, engine.functional_parallel, "runtime.engine")
    _patch_function(tracer, cache.cache_key, "runtime.cache_key")
    _patch_function(tracer, campaign.run_campaign, "faults.campaign")
    _patch_function(tracer, batch.draw_strike_batch, "faults.draw")
    _patch_function(tracer, server.resolve_query, "serve.compute")
    _patch_function(tracer, protocol.parse_query, "serve.parse")
    _patch_function(tracer, protocol.canonical_dumps, "serve.encode")
    _patch_method(tracer, FunctionalSimulator, "run", "arch.execute",
                  layer_of=_functional_layer)
    _patch_method(tracer, PipelineSimulator, "run", "pipeline.timing",
                  on_result=_count_pipeline)
    _patch_method(tracer, cache.ResultCache, "get", "runtime.cache_get",
                  on_result=_count_cache_get)
    _patch_method(tracer, cache.ResultCache, "put", "runtime.cache_put",
                  on_result=_count_cache_put)
    _patch_method(tracer, batch.BatchClassifier, "classify",
                  "faults.classify")
    _patch_result_pickler(tracer)
    return tracer


def self_times(chunks: List[dict]) -> Dict[str, dict]:
    """Per layer: summed self time, summed span time and call count."""
    layers: Dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for chunk in chunks:
        spans = chunk["spans"]
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if end is None:
                continue
            if parent >= 0:
                child_time[parent] += end - start
        for index, (layer, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            entry = layers[layer]
            entry["self_s"] += (end - start) - child_time[index]
            entry["total_s"] += end - start
            entry["calls"] += 1
    return dict(layers)


def ledger(tracer: Tracer) -> dict:
    """Self time per layer and summed counts, over this process and
    every worker it forked."""
    chunks = [{"spans": tracer.spans, "counts": dict(tracer.counts)}]
    chunks.extend(tracer.worker_chunks())
    counts: Counter = Counter()
    for chunk in chunks:
        counts.update(chunk["counts"])
    return {"layers": self_times(chunks), "counts": dict(counts),
            "main_layers": self_times(chunks[:1]),
            "spans": {"main": len(tracer.spans),
                      "workers": sum(len(c["spans"]) for c in chunks[1:])}}


def span_costs(clock: Callable[[], float], calls: int = 20_000,
               rounds: int = 5) -> List[float]:
    """Seconds one traced call adds to a plain call, once per round: a
    no-op function timed bare and then through a scratch tracer's
    wrapper, in this process, right after each other."""
    scratch = Tracer(Path(os.devnull), clock)

    def noop():
        return None

    traced = scratch.wrap("calibration", noop)
    costs = []
    for _ in range(rounds):
        scratch.spans = []
        began = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - began
        began = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - began - plain) / calls)
    return costs
