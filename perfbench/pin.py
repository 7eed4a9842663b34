"""Regenerate ``pins.json``: the answers every workload must reproduce.

Each pin comes from a direct, untraced call into the program at its
defaults, so a benchmark run that disagrees with a pin has produced a
different answer from the program as users call it:

* ``table1[seed]``: digest of the printed Table 1 body, a digest of the
  serve encoding of every (profile, trigger) cell, the summed committed
  instructions and simulated cycles, and the error against the paper;
* ``campaign_mix[seed]``: the outcome tally of every campaign-mix entry;
* ``serve_campaigns[seed]``: digests of the serve encoding of every
  campaign query serve-open sends.

Run from the repository root after a change that is meant to alter
simulated results (about a minute per seed)::

    PYTHONPATH=src python3 perfbench/pin.py
    PYTHONPATH=src python3 perfbench/pin.py --seeds 2004 2005 --out pins-new.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import spec


def pin_table1(seed: int) -> dict:
    from repro.experiments import table1
    from repro.experiments.common import ExperimentSettings

    result = table1.run(ExperimentSettings(
        target_instructions=spec.INSTRUCTIONS, seed=seed))
    summary = spec.summarize_table1(result)
    return {"body": spec.digest(table1.format_result(result)),
            "cells": summary["cells"], "committed": summary["committed"],
            "cycles": summary["cycles"],
            "avf_err_pp": spec.avf_error_pp(summary["means"])}


def pin_campaign_mix(seed: int) -> dict:
    from repro.experiments.common import ExperimentSettings, run_benchmark
    from repro.faults.campaign import run_campaign
    from repro.pipeline.config import Trigger
    from repro.workloads.spec2000 import get_profile

    settings = ExperimentSettings(target_instructions=spec.INSTRUCTIONS,
                                  seed=spec.CALIBRATION_SEED)
    tallies = {}
    for name in spec.CAMPAIGN_PROFILES:
        run = run_benchmark(get_profile(name), settings, Trigger.NONE)
        for entry in spec.CAMPAIGN_CONFIGS:
            result = run_campaign(run.program, run.execution, run.pipeline,
                                  spec.campaign_config(entry, seed))
            tallies[f"{name}|{entry[0]}"] = spec.campaign_tally(result)
    return tallies


def pin_serve_campaigns(seed: int) -> dict:
    from repro.experiments.common import ExperimentSettings, run_benchmark
    from repro.faults.campaign import run_campaign
    from repro.serve.protocol import (
        canonical_dumps,
        encode_campaign,
        parse_query,
    )
    from repro.workloads.spec2000 import get_profile

    digests = {}
    for name in spec.SERVE_CAMPAIGN_PROFILES:
        query = parse_query(spec.serve_campaign_request(name, seed))
        run = run_benchmark(
            get_profile(name),
            ExperimentSettings(target_instructions=query.target_instructions,
                               seed=query.seed),
            machine=query.machine)
        result = run_campaign(run.program, run.execution, run.pipeline,
                              query.campaign)
        digests[name] = spec.digest(canonical_dumps(encode_campaign(result)))
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*",
                        default=list(spec.CATALOGUE))
    parser.add_argument("--out", default=str(spec.PINS_PATH),
                        help="pins file to update in place")
    args = parser.parse_args()

    from repro.experiments.common import clear_caches
    from repro.runtime.context import configure

    out = Path(args.out)
    pins = json.loads(out.read_text()) if out.exists() else {}
    pins["instructions"] = spec.INSTRUCTIONS
    for seed in args.seeds:
        configure()
        clear_caches()
        key = str(seed)
        pins.setdefault("table1", {})[key] = pin_table1(seed)
        clear_caches()
        pins.setdefault("campaign_mix", {})[key] = pin_campaign_mix(seed)
        pins.setdefault("serve_campaigns", {})[key] = \
            pin_serve_campaigns(seed)
        out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned seed {seed}: avf_err_pp "
              f"{pins['table1'][key]['avf_err_pp']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
