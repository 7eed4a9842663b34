"""One fresh interpreter running the program for the benchmark.

``run.py`` starts this file with ``PYTHONPATH=src`` and reads back the
JSON it writes to ``--out``. Modes:

``probe``     import what the CLI imports, then stop (a set-up sample);
``table1``    run ``repro table1`` through ``repro.cli.main`` exactly as a
              user would, capturing its output and the exhibit result;
``campaign``  the campaign-mix: baseline runs, then every campaign
              (``--setup-only``: the baseline runs alone, a set-up sample);
``serve``     ``repro serve`` with the tracer installed (traced runs
              only; untraced runs start ``python -m repro serve``).

``--trace-dir`` installs :mod:`tracer` first and adds the ledger to the
output. Every mode reports the wall-clock instant its imports finished,
so the parent can time set-up from the moment it spawned the process.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import spec
import tracer as tracing


def _telemetry() -> dict:
    from repro.runtime.context import get_runtime

    telemetry = get_runtime().telemetry
    return {
        "counters": dict(telemetry.counters),
        "worker_busy_s": sum(t.seconds for t in telemetry.worker_timings),
    }


def _clock(args):
    return time.thread_time if args.mode == "serve" else time.perf_counter


def _install(args):
    if not args.trace_dir:
        return None
    Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    return tracing.install(Path(args.trace_dir), _clock(args))


def _ledger(args, tracer, out: dict) -> None:
    """The traced run's ledger, then (outside the measured work) what
    one span costs in this process."""
    out["ledger"] = tracing.ledger(tracer)
    out["span_cost_s"] = tracing.span_costs(_clock(args))


def run_table1(args, out: dict) -> None:
    import repro.cli
    from repro.experiments import table1

    out["ready"] = time.time()
    tracer = _install(args)
    captured = {}
    exhibit = table1.run

    def capture(*a, **kw):
        captured["result"] = exhibit(*a, **kw)
        return captured["result"]

    table1.run = capture
    argv = ["table1", "--instructions", str(spec.INSTRUCTIONS),
            "--seed", str(args.seed)]
    if args.jobs > 1:
        argv += ["--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    buffer = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(buffer):
        if tracer is None:
            code = repro.cli.main(argv)
        else:
            code = tracer.call(tracing.ROOT, repro.cli.main, (argv,), {})
    out["work_s"] = time.perf_counter() - started
    out["exit"] = code
    text = buffer.getvalue()
    out["body"] = spec.digest(text.split("\n\n[table1 regenerated")[0])
    out.update(spec.summarize_table1(captured["result"]))
    out.update(_telemetry())
    if tracer is not None:
        _ledger(args, tracer, out)


def run_campaign_mix(args, out: dict) -> None:
    import repro.experiments.common as common
    import repro.faults.campaign as campaign
    from repro.pipeline.config import Trigger
    from repro.runtime.context import configure
    from repro.workloads.spec2000 import get_profile

    out["ready"] = time.time()
    tracer = _install(args)
    # Looked up after the tracer is installed, so traced runs call the
    # wrapped entry points.
    run_benchmark, run_campaign = common.run_benchmark, campaign.run_campaign
    if tracer is not None:
        run_benchmark = tracer.wrap(tracing.ROOT, run_benchmark)
        run_campaign = tracer.wrap(tracing.ROOT, run_campaign)
    configure()
    settings = common.ExperimentSettings(
        target_instructions=spec.INSTRUCTIONS, seed=spec.CALIBRATION_SEED)
    started = time.perf_counter()
    runs = {name: run_benchmark(get_profile(name), settings, Trigger.NONE)
            for name in spec.CAMPAIGN_PROFILES}
    out["baseline_s"] = time.perf_counter() - started
    reports = [run.report for run in runs.values()]
    out["committed"] = sum(report.committed for report in reports)
    out["means"] = {"none": (
        sum(report.sdc_avf for report in reports) / len(reports),
        sum(report.due_avf for report in reports) / len(reports))}
    if args.setup_only:
        return
    campaigns = []
    for name, run in runs.items():
        for entry in spec.CAMPAIGN_CONFIGS:
            config = spec.campaign_config(entry, args.seed)
            began = time.perf_counter()
            result = run_campaign(run.program, run.execution, run.pipeline,
                                  config)
            campaigns.append({"id": f"{name}|{entry[0]}",
                              "seconds": time.perf_counter() - began,
                              "trials": config.trials,
                              "tally": spec.campaign_tally(result)})
    out["campaigns"] = campaigns
    out["work_s"] = sum(c["seconds"] for c in campaigns)
    out.update(_telemetry())
    if tracer is not None:
        _ledger(args, tracer, out)


def run_serve(args, out: dict) -> None:
    import repro.cli

    tracer = _install(args)
    cpu_started = time.process_time()
    code = repro.cli.main(args.cli)
    out["exit"] = code
    out["cpu_s"] = time.process_time() - cpu_started
    out.update(_telemetry())
    _ledger(args, tracer, out)


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark child process")
    parser.add_argument("mode", choices=["probe", "table1", "campaign",
                                         "serve"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=spec.CALIBRATION_SEED)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    # Serve mode: everything after "--" is passed to repro.cli.main.
    argv = sys.argv[1:]
    cli = argv[argv.index("--") + 1:] if "--" in argv else []
    args = parser.parse_args(argv[:len(argv) - len(cli) - bool(cli)])
    args.cli = cli
    out: dict = {}
    if args.mode == "probe":
        import repro.cli  # noqa: F401

        out["ready"] = time.time()
    elif args.mode == "table1":
        run_table1(args, out)
    elif args.mode == "campaign":
        run_campaign_mix(args, out)
    else:
        run_serve(args, out)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
