"""Before/after benchmark of the strike-evaluation fast path.

Times one parity fault-injection campaign three ways on the same
workload and strike sequence:

* ``seed`` — the seed-era loop: one throwaway evaluator per trial, no
  memoization, no static filter. Every committed read strike re-executes
  the whole program from seq 0: a one-shot oracle builds its golden
  checkpoint table only on a second re-execution, which never comes;
* ``cold`` — the campaign-scoped evaluator with an empty effect oracle
  (memo + static filter fill in as the campaign runs, re-executions
  resume from golden checkpoints and stop once they reconverge, and the
  table is persisted through the result cache);
* ``warm`` — the same campaign re-run against the persisted oracle
  table. The campaign *tally* cache entry is deleted first so all trials
  genuinely run; only per-strike re-execution is skipped.

The warm strike *engine* is then timed head-to-head — the same block of
trials classified once through the scalar per-trial loop
(``--no-batch-strikes``) and once through the vectorised strike batcher,
both against the persisted oracle table — to measure what array
sampling and classification buy per trial. Campaign-level plumbing
(cache-key hashing, result persistence) is identical in both modes and
excluded, since it would otherwise swamp the per-trial difference.

All paths must produce bit-identical outcome tallies — the run aborts
if they do not. Results land in ``BENCH_campaign.json`` and the process
exits non-zero when the warm speedup drops below ``--min-speedup`` or
the batched-vs-scalar speedup drops below ``--min-batch-speedup``.

    PYTHONPATH=src python tools/bench_campaign.py
    PYTHONPATH=src python tools/bench_campaign.py \
        --trials 200 --instructions 8000 --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.due.tracking import TrackingLevel
from repro.experiments.common import ExperimentSettings, run_benchmark
from repro.faults.batch import BatchClassifier, draw_strike_batch
from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
    run_trial_block,
    trial_seed,
)
from repro.faults.injector import StrikeEvaluator, evaluate_strike
from repro.faults.model import StrikeModel
from repro.faults.oracle import load_persisted, oracle_cache_key
from repro.pipeline.config import Trigger
from repro.runtime.cache import cache_key
from repro.runtime.context import use_runtime
from repro.util.rng import DeterministicRng
from repro.workloads.spec2000 import get_profile


def seed_slow_path(run, config):
    """The seed-era campaign loop: per-trial evaluator, no fast path."""
    sampler = StrikeModel(run.pipeline)
    counts: Counter = Counter()
    for index in range(config.trials):
        rng = DeterministicRng(trial_seed(config, run.program.name, index))
        verdict = evaluate_strike(
            sampler.sample(rng), run.program, run.execution,
            parity=config.parity, tracking=config.tracking,
            pet_entries=config.pet_entries, ecc=config.ecc)
        counts[verdict.outcome] += 1
    return counts


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def oracle_counters(telemetry):
    return {name: telemetry.counters[name]
            for name in ("oracle_memo_hits", "oracle_static_kills",
                         "oracle_executions", "oracle_early_exits")}


def batch_counters(telemetry):
    return {name: telemetry.counters[name]
            for name in ("batch_trials", "batch_vector_kills",
                         "batch_scalar_kills", "batch_reexecutions")}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Time the strike-evaluation fast path against the "
                    "seed-era slow path and record BENCH_campaign.json.")
    parser.add_argument("--benchmark", default="crafty")
    parser.add_argument("--instructions", type=int, default=12_000)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required warm-vs-seed wall-clock ratio "
                             "(default 3.0)")
    parser.add_argument("--min-batch-speedup", type=float, default=2.0,
                        help="required warm batched-vs-scalar wall-clock "
                             "ratio (default 2.0)")
    parser.add_argument("--output", default="BENCH_campaign.json")
    args = parser.parse_args()

    settings = ExperimentSettings(target_instructions=args.instructions,
                                  seed=args.seed)
    config = CampaignConfig(trials=args.trials, seed=args.seed, parity=True,
                            tracking=TrackingLevel.PARITY_ONLY)
    run = run_benchmark(get_profile(args.benchmark), settings, Trigger.NONE)
    print(f"workload: {args.benchmark} x{args.instructions} "
          f"({len(run.execution.trace)} committed), "
          f"{args.trials}-trial parity campaign")

    golden, seed_s = timed(lambda: seed_slow_path(run, config))
    print(f"seed slow path: {seed_s:.2f}s")

    with TemporaryDirectory(prefix="bench-oracle-") as cache_dir:
        with use_runtime(cache_dir=cache_dir) as context:
            cold, cold_s = timed(lambda: run_campaign(
                run.program, run.execution, run.pipeline, config))
            cold_oracle = oracle_counters(context.telemetry)
        print(f"cold fast path: {cold_s:.2f}s  {cold_oracle}")

        with use_runtime(cache_dir=cache_dir) as context:
            # Drop the tally entry (keep the oracle table) so the warm
            # run re-evaluates every trial against the persisted memo.
            tally_key = cache_key("campaign", run.program, run.pipeline,
                                  config)
            context.cache.path_for(tally_key).unlink()
            warm, warm_s = timed(lambda: run_campaign(
                run.program, run.execution, run.pipeline, config))
            warm_oracle = oracle_counters(context.telemetry)
        print(f"warm fast path: {warm_s:.2f}s  {warm_oracle}")

        # Head-to-head strike engine against the persisted oracle: the
        # scalar per-trial loop vs the vectorised strike batcher. Same
        # memo table, same strike sequence — the difference is pure
        # sampling/classification machinery. Best-of-5, interleaved, to
        # shrug off scheduler noise.
        with use_runtime(cache_dir=cache_dir) as context:
            table = load_persisted(context.cache,
                                   oracle_cache_key(run.program))

    def preloaded_evaluator():
        evaluator = StrikeEvaluator(
            run.program, run.execution, parity=config.parity,
            tracking=config.tracking, pet_entries=config.pet_entries,
            ecc=config.ecc)
        evaluator.oracle.preload(table)
        return evaluator

    def scalar_engine():
        return run_trial_block(run.program, run.execution, run.pipeline,
                               config, 0, config.trials,
                               evaluator=preloaded_evaluator())[0]

    last_classifier = {}

    def batched_engine():
        evaluator = preloaded_evaluator()
        strikes = draw_strike_batch(run.pipeline, config, run.program.name,
                                    0, config.trials)
        classifier = BatchClassifier(evaluator, run.pipeline)
        last_classifier["value"] = classifier
        return run_trial_block(run.program, run.execution, run.pipeline,
                               config, 0, config.trials,
                               evaluator=evaluator, strikes=strikes,
                               classifier=classifier)[0]

    scalar = batched = None
    scalar_s = batched_s = float("inf")
    for _ in range(5):
        scalar, seconds = timed(scalar_engine)
        scalar_s = min(scalar_s, seconds)
        batched, seconds = timed(batched_engine)
        batched_s = min(batched_s, seconds)
    batch_stats = last_classifier["value"].counters()
    print(f"warm scalar engine: {scalar_s * 1000:.1f}ms "
          f"({config.trials / scalar_s:,.0f} trials/s)")
    print(f"warm batched engine: {batched_s * 1000:.1f}ms "
          f"({config.trials / batched_s:,.0f} trials/s)  {batch_stats}")

    failures = []
    if cold.counts != golden or warm.counts != golden:
        failures.append("fast-path tallies differ from the seed slow path")
    if scalar != golden or batched != golden:
        failures.append("batched/scalar tallies differ from the seed "
                        "slow path")
    if warm_oracle["oracle_memo_hits"] <= 0:
        failures.append("warm run never hit the persisted oracle")
    if batch_stats["batch_trials"] != args.trials:
        failures.append("batched run did not classify every trial through "
                        "the batcher")
    speedup_warm = seed_s / warm_s if warm_s > 0 else float("inf")
    speedup_cold = seed_s / cold_s if cold_s > 0 else float("inf")
    speedup_batch = (scalar_s / batched_s if batched_s > 0
                     else float("inf"))
    if speedup_warm < args.min_speedup:
        failures.append(f"warm speedup {speedup_warm:.2f}x below the "
                        f"required {args.min_speedup:.2f}x")
    if speedup_batch < args.min_batch_speedup:
        failures.append(f"batched speedup {speedup_batch:.2f}x below the "
                        f"required {args.min_batch_speedup:.2f}x")

    record = {
        "benchmark": args.benchmark,
        "instructions": args.instructions,
        "committed": len(run.execution.trace),
        "trials": args.trials,
        "campaign": {"parity": True, "tracking": "PARITY_ONLY",
                     "seed": args.seed},
        "seconds": {"seed_slow_path": round(seed_s, 3),
                    "cold_fast_path": round(cold_s, 3),
                    "warm_fast_path": round(warm_s, 3),
                    "warm_scalar_engine": round(scalar_s, 4),
                    "warm_batched_engine": round(batched_s, 4)},
        "trials_per_second": {
            "warm_scalar": round(config.trials / scalar_s, 1)
            if scalar_s > 0 else None,
            "warm_batched": round(config.trials / batched_s, 1)
            if batched_s > 0 else None},
        "speedup": {"cold_vs_seed": round(speedup_cold, 2),
                    "warm_vs_seed": round(speedup_warm, 2),
                    "batched_vs_scalar": round(speedup_batch, 2)},
        "oracle": {"cold": cold_oracle, "warm": warm_oracle},
        "batch": batch_stats,
        "tallies_identical": (cold.counts == golden
                              and warm.counts == golden
                              and scalar == golden
                              and batched == golden),
        "min_speedup_required": args.min_speedup,
        "min_batch_speedup_required": args.min_batch_speedup,
        "passed": not failures,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"cold {speedup_cold:.2f}x, warm {speedup_warm:.2f}x vs seed, "
          f"batched {speedup_batch:.2f}x vs scalar -> {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
