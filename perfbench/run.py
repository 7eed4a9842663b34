"""The repository benchmark: paper-scale workloads, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads (the program runs unmodified, at its defaults, from ``src/``):

``table1-cold``        ``repro table1`` over 26 profiles x 3 squash
                       triggers at 20,000 instructions, serial, no
                       persistent cache, in a fresh process.
``table1-jobs2-cache`` the same exhibit with ``--jobs 2`` and an empty
                       ``--cache-dir``: a cold fill pass, then a warm
                       re-read pass in a fresh process.
``campaign-mix``       crafty, mcf and swim: a single-bit parity, a
                       single-bit unprotected and a terrestrial-MBU
                       SEC-DED campaign each, serial.
``serve-open``         a ``repro serve`` subprocess at its defaults, driven
                       open-loop by this process at a fixed rate.

``--seed n`` picks workload seed ``2004 + (n - 2004) mod 10``. The
table1 workloads use it as the program seed; campaign-mix uses it for
the strike streams and serve-open for its traffic, both over the
programs of the calibration seed 2004. Every answer is checked against
``pins.json``; a wrong answer, an error, a shed or late request counts
as a failed operation.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once traced (with :mod:`tracer` wrapped
around the program's public entry points) and prints the per-layer
ledger. ``peak_rss_mb`` is the peak summed PSS of this process and
every process under it, polled while the workload runs. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import serveload
import spec
import tracer as tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: Set-up samples per run, the measured pass's own included; setup_s is
#: their median.
SETUP_SAMPLES = 3
#: A child process taking longer than this is killed and its work failed.
CHILD_TIMEOUT_S = 150.0
MIB = float(1 << 20)

#: Workloads, metric names and units, as ``BENCHMARK.json`` declares them.
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

#: Workload-specific figures printed beside the end-to-end metrics.
READOUT_UNITS = {
    "warm_s": "s", "cache_mb": "MiB", "warm_pipeline_sims": "count",
    "trials_per_s": "1/s", "req_p50_ms": "ms", "req_p99_ms": "ms",
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def tree_pss_kib(root: int) -> int:
    """Summed proportional set size of ``root`` and its descendants.
    PSS splits a page shared by several processes among them, so pool
    workers forked from a large parent are not counted twice."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    total, pending = 0, [root]
    while pending:
        pid = pending.pop()
        pending.extend(parents.get(pid, ()))
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


class PeakMemory:
    """Polls :func:`tree_pss_kib` of this process from a thread; the
    peak is the memory the benchmark and the program's processes held
    at one time."""

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while True:
            self.peak_kib = max(self.peak_kib, tree_pss_kib(os.getpid()))
            if self._stop.wait(self.INTERVAL_S):
                return

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_kib * 1024 / MIB


def disk_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / MIB


class Bench:
    """One invocation: a workload at one seed, traced or not."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.wseed = spec.workload_seed(seed)
        self.seconds = seconds
        self.pins = spec.load_pins()
        self.work = Path(".bench_work") / str(os.getpid())
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.readouts: Dict[str, float] = {}

    # -- accounting -----------------------------------------------------

    def account(self, label: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{label}: {failed} of {attempted} failed")

    # -- child processes ------------------------------------------------

    def child(self, mode: str, *extra: str,
              trace_dir: Optional[Path] = None) -> dict:
        """Run ``child.py`` in a fresh interpreter; returns its JSON with
        ``setup_s`` (spawn to imports done) added."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path = self.work / f"child-{time.monotonic_ns()}.json"
        argv = [sys.executable, str(CHILD), mode, "--out", str(out_path),
                "--seed", str(self.wseed), *extra]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        spawned = time.time()
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{mode} child exceeded {CHILD_TIMEOUT_S}s")
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}: "
                              f"{err.strip()[-2000:]}")
        out = json.loads(out_path.read_text())
        out["setup_s"] = out["ready"] - spawned
        return out

    def probes(self, count: int) -> List[float]:
        return [self.child("probe")["setup_s"] for _ in range(count)]

    def repeat(self, one_pass: Callable[[], dict]) -> List[dict]:
        """Closed batches are indivisible: run whole passes until
        ``--seconds`` have been measured, at least one."""
        passes, started = [], time.perf_counter()
        while not passes or time.perf_counter() - started < self.seconds:
            passes.append(one_pass())
        return passes

    @staticmethod
    def median_of(passes: List[dict]) -> dict:
        return {name: statistics.median(p[name] for p in passes)
                for name in passes[0]}

    # -- checks ---------------------------------------------------------

    def check_table1(self, label: str, out: dict) -> None:
        pins = self.pins["table1"][str(self.wseed)]
        attempted = len(pins["cells"]) + 1
        if out.get("exit") != 0:
            self.account(label, attempted, attempted)
            return
        wrong = sum(out["cells"].get(cell) != want
                    for cell, want in pins["cells"].items())
        wrong += out["body"] != pins["body"]
        self.account(label, attempted, wrong)

    def check_campaigns(self, label: str, out: dict) -> None:
        pins = self.pins["campaign_mix"][str(self.wseed)]
        for campaign in out["campaigns"]:
            ok = campaign["tally"] == pins.get(campaign["id"])
            self.account(f"{label} {campaign['id']}", campaign["trials"],
                         0 if ok else campaign["trials"])

    def served_ok(self, request: serveload.Request) -> bool:
        if request.done is None or request.error is not None:
            return False
        if not request.canonical_line:
            return False
        kind, name = request.label.split(":", 1)
        if kind == "avf":
            want = self.pins["table1"][str(spec.CALIBRATION_SEED)][
                "cells"].get(name)
        else:
            want = self.pins["serve_campaigns"][str(self.wseed)].get(name)
        return spec.digest(spec.canonical(request.value)) == want

    # -- table1 workloads -------------------------------------------------

    def table1_pass(self, label: str, jobs: int = 1,
                    cache: Optional[Path] = None,
                    trace_dir: Optional[Path] = None) -> dict:
        extra = ["--jobs", str(jobs)]
        if cache is not None:
            extra += ["--cache-dir", str(cache)]
        out = self.child("table1", *extra, trace_dir=trace_dir)
        self.check_table1(label, out)
        return out

    def table1_cold(self, trace: bool) -> dict:
        if trace:
            traced = self.table1_pass("traced", trace_dir=self.trace_dir())
            return self.layers([traced])
        probes = self.probes(SETUP_SAMPLES - 1)

        def one_pass() -> dict:
            out = self.table1_pass("table1")
            return {"setup_s": statistics.median(probes + [out["setup_s"]]),
                    "work_s": out["work_s"],
                    "sim_kips": out["committed"] / 1000.0 / out["work_s"],
                    "avf_err_pp": spec.avf_error_pp(out["means"])}

        return self.median_of(self.repeat(one_pass))

    def table1_jobs2_cache(self, trace: bool) -> dict:
        if trace:
            cache = self.fresh_dir("cache")
            cold = self.table1_pass("cold traced", 2, cache,
                                    self.trace_dir())
            cache_mb = disk_mb(cache)
            warm = self.table1_pass("warm traced", 2, cache,
                                    self.trace_dir())
            layers = self.layers([cold, warm], jobs=2)
            layers["runtime.warm_pass_s"] = warm["work_s"]
            layers["runtime.cache_disk_mb"] = cache_mb
            return layers
        probes = self.probes(SETUP_SAMPLES - 2)

        def one_pass() -> dict:
            cache = self.fresh_dir("cache")
            cold = self.table1_pass("cold pass", 2, cache)
            cache_mb = disk_mb(cache)
            warm = self.table1_pass("warm pass", 2, cache)
            shutil.rmtree(cache, ignore_errors=True)
            return {
                "setup_s": statistics.median(
                    probes + [cold["setup_s"], warm["setup_s"]]),
                "work_s": cold["work_s"] + warm["work_s"],
                "sim_kips": cold["committed"] / 1000.0 / cold["work_s"],
                "avf_err_pp": spec.avf_error_pp(cold["means"]),
                "warm_s": warm["work_s"], "cache_mb": cache_mb,
                "warm_pipeline_sims": warm["counters"].get(
                    "pipeline_sims", 0)}

        metrics = self.median_of(self.repeat(one_pass))
        for name in ("warm_s", "cache_mb", "warm_pipeline_sims"):
            self.readouts[name] = metrics.pop(name)
        return metrics

    # -- campaign-mix -----------------------------------------------------

    def campaign_pass(self, label: str,
                      trace_dir: Optional[Path] = None) -> dict:
        out = self.child("campaign", trace_dir=trace_dir)
        self.check_campaigns(label, out)
        return out

    def campaign_mix(self, trace: bool) -> dict:
        if trace:
            traced = self.campaign_pass("traced", self.trace_dir())
            layers = self.layers([traced])
            layers["faults.trials_per_s"] = ratio(
                sum(c["trials"] for c in traced["campaigns"]),
                traced["work_s"])
            return layers
        # Set-up here is imports plus the baseline runs, which are all
        # the timing simulation campaign-mix does: sample it whole.
        setups = [self.child("campaign", "--setup-only")
                  for _ in range(SETUP_SAMPLES - 1)]

        def one_pass() -> dict:
            out = self.campaign_pass("campaigns")
            samples = setups + [out]
            return {"setup_s": statistics.median(
                        s["setup_s"] + s["baseline_s"] for s in samples),
                    "work_s": out["work_s"],
                    "sim_kips": statistics.median(
                        s["committed"] / 1000.0 / s["baseline_s"]
                        for s in samples),
                    "avf_err_pp": spec.avf_error_pp(out["means"]),
                    "trials_per_s": ratio(
                        sum(c["trials"] for c in out["campaigns"]),
                        out["work_s"])}

        metrics = self.median_of(self.repeat(one_pass))
        self.readouts["trials_per_s"] = metrics.pop("trials_per_s")
        return metrics

    # -- serve-open -------------------------------------------------------

    def serve_open(self, trace: bool) -> dict:
        return asyncio.run(self._serve_open(trace))

    async def _serve_open(self, trace: bool) -> dict:
        if trace:
            trace_dir = self.trace_dir()
            out_path = self.work / "serve-ledger.json"
            argv = [sys.executable, str(CHILD), "serve", "--out",
                    str(out_path), "--trace-dir", str(trace_dir), "--",
                    *serveload.serve_argv()[3:]]
            traced = await self.serve_session(argv)
            out = json.loads(out_path.read_text())
            layers = self.layers([out])
            spans = sum(entry["self_s"]
                        for entry in out["ledger"]["layers"].values())
            layers["trace.unattributed_frac"] = ratio(
                out["cpu_s"] - spans, out["cpu_s"])
            layers.update(traced["layers"])
            return layers
        boots = []
        for _ in range(SETUP_SAMPLES - 1):
            server = serveload.Server(serveload.serve_argv(), self.env,
                                      os.getcwd())
            boots.append(server.boot_s)
            await server.shutdown()
        session = await self.serve_session(serveload.serve_argv(), boots)
        self.readouts.update(req_p50_ms=session["layers"]["serve.req_p50_ms"],
                             req_p99_ms=session["layers"]["serve.req_p99_ms"])
        return {"setup_s": session["setup_s"],
                "work_s": session["cpu_s"],
                "sim_kips": session["sim_kips"],
                "avf_err_pp": session["avf_err_pp"]}

    async def serve_session(self, argv: List[str],
                            boots: Optional[List[float]] = None) -> dict:
        server = serveload.Server(argv, self.env, os.getcwd())
        result = {"setup_s": statistics.median(
            (boots or []) + [server.boot_s])}
        connections: List[serveload.Connection] = []
        try:
            first = await serveload.Connection.open(server.host, server.port)
            connections.append(first)
            started = time.perf_counter()
            keys = serveload.warm_keys(self.wseed)
            avf = await first.ask([k for k in keys if k[0].startswith("avf")])
            rest = await first.ask([k for k in keys
                                    if not k[0].startswith("avf")])
            result["setup_s"] += time.perf_counter() - started
            prewarm = avf + rest
            self.account("serve prewarm", len(prewarm),
                         sum(not self.served_ok(r) for r in prewarm))
            if any(r.value is None for r in avf):
                raise RuntimeError("prewarm avf answers missing")
            # One compute thread answers the batch in order, so the avf
            # answers span their computations.
            result["sim_kips"] = sum(
                r.value["committed"] for r in avf) / 1000.0 / (
                max(r.done for r in avf) - started)
            result["avf_err_pp"] = spec.avf_error_pp({
                trigger: tuple(
                    statistics.fmean(r.value[k] for r in avf
                                     if r.label.endswith(trigger))
                    for k in ("sdc_avf", "due_avf"))
                for trigger in spec.TRIGGERS})
            result.update(await self.window(server, connections))
        finally:
            for connection in connections:
                await connection.close()
            if server.proc.poll() is None:
                await server.shutdown()
            else:
                server.kill()
        return result

    async def window(self, server: serveload.Server,
                     connections: List[serveload.Connection]) -> dict:
        stats = ("stats", {"op": "stats"})
        before = (await connections[0].ask([stats]))[0].value
        while len(connections) < spec.SERVE_CONNECTIONS:
            connections.append(await serveload.Connection.open(
                server.host, server.port))
        cpu = server.cpu_seconds()
        requests = await serveload.open_loop(
            connections, serveload.schedule(self.wseed, self.seconds))
        cpu = server.cpu_seconds() - cpu
        after = (await connections[0].ask([stats]))[0].value
        limit = spec.SERVE_LATENCY_LIMIT_MS
        failed = [r for r in requests
                  if not self.served_ok(r) or r.latency_ms > limit]
        self.account("serve window", len(requests), len(failed))
        latencies = [r.latency_ms for r in requests if r.done is not None]
        warm = [r.latency_ms for r in requests
                if r.done is not None and r.accepted is None]
        cold = [r.latency_ms for r in requests
                if r.done is not None and r.accepted is not None]

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        layers = {
            "serve.req_p50_ms": percentile(latencies, 0.50),
            "serve.req_p99_ms": percentile(latencies, 0.99),
            "serve.warm_p50_ms": percentile(warm, 0.50) if warm else 0.0,
            "serve.cold_p50_ms": percentile(cold, 0.50) if cold else 0.0,
            "serve.cold_computes": delta("serve_cold_computes"),
            "serve.warm_hits": delta("serve_warm_hits"),
            "serve.coalesced": delta("serve_coalesced"),
            "serve.shed": delta("serve_shed_requests"),
            "serve.gen_lag_ms": 1000.0 * max(r.sent - r.due
                                             for r in requests),
        }
        return {"cpu_s": cpu, "layers": layers}

    # -- the per-layer ledger ---------------------------------------------

    def trace_dir(self) -> Path:
        return self.fresh_dir("trace")

    def fresh_dir(self, name: str) -> Path:
        path = self.work / f"{name}-{time.monotonic_ns()}"
        path.mkdir(parents=True)
        return path

    def overhead_frac(self, outs: List[dict], jobs: int) -> float:
        """Estimated tracer time over estimated untraced time: spans
        recorded times the per-span cost measured in the traced process.
        Worker spans run ``jobs`` at a time. The traced time is the root
        span's (the server's CPU time for serve-open)."""
        traced_s = spans = 0.0
        costs: List[float] = []
        for out in outs:
            ledger = out["ledger"]
            root = ledger["main_layers"].get(tracing.ROOT)
            traced_s += root["total_s"] if root else out["cpu_s"]
            spans += (ledger["spans"]["main"]
                      + ledger["spans"]["workers"] / jobs)
            costs += out["span_cost_s"]
        q1, median, q3 = statistics.quantiles(costs, n=4)
        fracs = [ratio(cost * spans, traced_s - cost * spans)
                 for cost in (q1, median, q3)]
        self.notes.append(f"trace.overhead_frac {fracs[1]:.4f} (q1 "
                          f"{fracs[0]:.4f}, q3 {fracs[2]:.4f} over "
                          f"{len(costs)} span-cost rounds, {spans:.0f} spans)")
        return fracs[1]

    def layers(self, outs: List[dict], jobs: int = 1) -> dict:
        """Per-layer metrics summed over traced child outputs."""
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        counts: Dict[str, float] = {}
        telemetry: Dict[str, float] = {}
        root_self = root_total = busy = engine_total = 0.0
        for out in outs:
            ledger = out["ledger"]
            for layer, entry in ledger["layers"].items():
                self_s[layer] = self_s.get(layer, 0.0) + entry["self_s"]
                calls[layer] = calls.get(layer, 0) + entry["calls"]
            for name, value in ledger["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for name, value in out["counters"].items():
                telemetry[name] = telemetry.get(name, 0) + value
            root = ledger["main_layers"].get(tracing.ROOT)
            if root:
                root_self += root["self_s"]
                root_total += root["total_s"]
            engine = ledger["main_layers"].get("runtime.engine")
            if engine:
                engine_total += engine["total_s"]
            if jobs > 1:
                # The serial campaign path records in-process "worker"
                # timings too; only pooled fan-outs have workers.
                busy += out["worker_busy_s"]
        metrics = {name: 0.0 for name in LAYER_UNITS}
        for layer, seconds in self_s.items():
            if layer + "_s" in metrics:
                metrics[layer + "_s"] = seconds
        cycles = counts.get("pipeline.sim_cycles", 0)
        memo = (telemetry.get("chunk_memo_hits", 0)
                + telemetry.get("chunk_memo_misses", 0))
        snapshots = (telemetry.get("warm_hierarchy_hits", 0)
                     + telemetry.get("warm_hierarchy_misses", 0))
        metrics.update({
            "arch.reexec_calls": calls.get("arch.reexec", 0),
            "pipeline.sims": counts.get("pipeline.sims", 0),
            "pipeline.sim_cycles": cycles,
            "pipeline.host_us_per_kcycle": ratio(
                1e6 * self_s.get("pipeline.timing", 0.0), cycles / 1000.0),
            "pipeline.chunk_memo_hit_ratio": ratio(
                telemetry.get("chunk_memo_hits", 0), memo),
            "pipeline.warm_snapshot_hit_ratio": ratio(
                telemetry.get("warm_hierarchy_hits", 0), snapshots),
            "runtime.worker_busy_s": busy,
            "runtime.worker_util": ratio(busy, engine_total * jobs),
            "runtime.result_mb": counts.get("runtime.result_bytes", 0) / MIB,
            "runtime.cache_read_mb":
                counts.get("runtime.cache_read_bytes", 0) / MIB,
            "runtime.cache_write_mb":
                counts.get("runtime.cache_write_bytes", 0) / MIB,
            "runtime.cache_hit_ratio": ratio(
                counts.get("runtime.cache_hits", 0),
                counts.get("runtime.cache_gets", 0)),
            "faults.oracle_executions": telemetry.get("oracle_executions", 0),
            "faults.static_kills": telemetry.get("oracle_static_kills", 0),
            "faults.vector_kill_ratio": ratio(
                telemetry.get("batch_vector_kills", 0),
                telemetry.get("batch_trials", 0)),
            "trace.unattributed_frac": ratio(root_self, root_total),
            "trace.overhead_frac": self.overhead_frac(outs, jobs),
        })
        self.check_simulated(outs, cycles)
        return metrics

    def check_simulated(self, outs: List[dict], cycles: float) -> None:
        """Simulated cycles counted under the tracer must equal the
        untraced sum the pins hold (table1 workloads, which simulate
        every cell once)."""
        if not any("cells" in out for out in outs):
            return
        want = self.pins["table1"][str(self.wseed)]["cycles"]
        self.account("traced sim_cycles", 1, int(cycles != want))


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    bench = Bench(seed, seconds)
    method = getattr(bench, name.replace("-", "_"))
    memory = PeakMemory()
    try:
        metrics = method(trace)
        if not trace:
            metrics["peak_rss_mb"] = memory.stop_mb()
    except Exception as exc:
        # Report the failure in the result line instead of dying.
        traceback.print_exc()
        bench.notes.append(f"{name}: {type(exc).__name__}: {exc}")
        bench.account(name, 1, 1)
        metrics = {}
    finally:
        memory.stop_mb()
        shutil.rmtree(bench.work, ignore_errors=True)
    return bench, metrics


def report(name: str, bench: Bench, metrics: dict, trace: bool) -> dict:
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    print(f"# {name}: workload seed {bench.wseed}, "
          f"{bench.attempted} operations, {bench.failed} failed")
    for note in bench.notes:
        print(f"#   {note}")
    for metric, value in list(metrics.items()) + list(
            bench.readouts.items()):
        unit = units.get(metric) or READOUT_UNITS[metric]
        print(f"#   {metric:34s} {value:14.4f} {unit}")
    if not trace:
        print(f"#   {'failed_frac':34s} "
              f"{ratio(bench.failed, bench.attempted):14.4f} ratio")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=spec.CALIBRATION_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench, measured = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    printed = report(args.workload, bench, measured, bool(args.trace))
    expected = LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"correct": bench.failed == 0
                      and len(printed) == len(expected),
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": printed}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak memory is
    the workload's own; metrics are keyed ``workload/metric``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{m}": v
                        for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
