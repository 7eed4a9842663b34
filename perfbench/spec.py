"""What each benchmark workload runs, and the pinned answers it must give.

Shared by ``run.py`` (the benchmark entry point), ``child.py`` (the
fresh interpreter that runs the program) and ``pin.py`` (which
regenerates ``pins.json`` from direct calls). Nothing here imports the
program at module level, so the load generator stays light.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: Dynamic instructions per benchmark trace: the paper-scale default
#: every workload runs at.
INSTRUCTIONS = 20_000

#: The profiles were calibrated at this seed; it is also the default.
CALIBRATION_SEED = 2004
#: Workload seeds with pinned answers; all but 2004 are held out from
#: calibration. ``--seed n`` selects ``CATALOGUE[(n - 2004) % 10]``, so
#: the default maps to itself and ten consecutive seeds give ten inputs.
CATALOGUE = tuple(range(2004, 2014))


def workload_seed(seed: int) -> int:
    return CATALOGUE[(seed - CALIBRATION_SEED) % len(CATALOGUE)]


#: Paper Table 1 (SDC AVF %, DUE AVF %) per squash trigger value.
PAPER_AVF_PCT = {
    "none": (29.0, 62.0),
    "l1_miss": (22.0, 51.0),
    "l0_miss": (19.0, 48.0),
}
TRIGGERS = tuple(PAPER_AVF_PCT)

# -- campaign-mix -------------------------------------------------------------

CAMPAIGN_PROFILES = ("crafty", "mcf", "swim")
#: (label, trials, CampaignConfig keyword arguments as plain values).
CAMPAIGN_CONFIGS = (
    ("parity", 100, {"parity": True, "tracking": "PARITY_ONLY"}),
    ("unprotected", 100, {}),
    ("mbu-sec-ded", 400, {"mbu_preset": "terrestrial",
                          "scheme": "sec-ded"}),
)


def campaign_config(label_trials_kwargs, seed: int):
    """The program's ``CampaignConfig`` for one campaign-mix entry."""
    from repro.due.tracking import EccScheme, TrackingLevel
    from repro.faults.campaign import CampaignConfig

    _, trials, kwargs = label_trials_kwargs
    kwargs = dict(kwargs)
    if "tracking" in kwargs:
        kwargs["tracking"] = TrackingLevel[kwargs["tracking"]]
    if "scheme" in kwargs:
        kwargs["scheme"] = EccScheme(kwargs["scheme"])
    return CampaignConfig(trials=trials, seed=seed, **kwargs)


def campaign_tally(result) -> dict:
    """A campaign's outcome counts plus tracker misses, as the serve
    protocol encodes them."""
    from repro.serve.protocol import encode_campaign

    encoded = encode_campaign(result)
    return dict(encoded["counts"], tracker_misses=encoded["tracker_misses"])


# -- serve-open ---------------------------------------------------------------

# Host figures measured by ``serve_calibrate.py`` on the reference host
# (2-vCPU shared VM, see BASELINE.json), medians of five rounds: a
# warm-only closed batch over the two connections is answered at
# SERVE_SATURATION_QPS per second; the longest single cold avf compute
# takes SERVE_COLD_MAX_S seconds.
SERVE_SATURATION_QPS = 2059
SERVE_COLD_MAX_S = 0.58
#: Open-loop arrival rate, requests per second, spread over the
#: connections round-robin: a tenth of the warm saturation rate, so warm
#: answers barely queue and the latency tail is set by the cold computes
#: holding the interpreter lock, which is what the workload measures.
SERVE_RATE = round(SERVE_SATURATION_QPS / 10)
SERVE_CONNECTIONS = 2
#: A request answered later than this after its due time has failed.
#: Target: a request waits out at most one cold compute and the backlog
#: it leaves, which in serve-open runs came to about twice the longest
#: cold compute; doubling that again covers the 1.5-2x swings in host
#: speed seen in calibration. 4 x SERVE_COLD_MAX_S, rounded up to 100 ms.
SERVE_LATENCY_LIMIT_MS = math.ceil(40 * SERVE_COLD_MAX_S) * 100.0
#: Zipf exponent over the warm keys' seeded ranking: web request
#: popularity follows Zipf-like laws with exponents 0.64-0.83 (Breslau
#: et al., "Web Caching and Zipf-like Distributions", INFOCOM 1999).
SERVE_ZIPF_S = 0.8
#: Profiles whose three avf keys are prewarmed (and so answer warm).
SERVE_WARM_PROFILES = ("gzip-graphic", "cc-200", "equake", "art-110")
#: Profiles whose avf keys are first asked during the measured window:
#: each of the six is a cold compute (~0.2-0.7 s on the reference host),
#: holding the server's interpreter lock for about a fifth of the window.
SERVE_COLD_PROFILES = ("vpr-route", "applu")
#: Each cold request is followed by this many repeats, 3 slots apart,
#: which coalesce onto the in-flight computation.
SERVE_COLD_REPEATS = 2
#: Small parity campaigns, prewarmed, mixed into the warm traffic (two
#: of the fourteen warm keys). At 30 trials both prewarm in about a
#: second together (16 oracle re-executions in the traced run).
SERVE_CAMPAIGN_PROFILES = ("gzip-graphic", "equake")
SERVE_CAMPAIGN_TRIALS = 30


def serve_avf_request(profile: str, trigger: str) -> dict:
    return {"op": "avf", "profile": profile, "trigger": trigger,
            "target_instructions": INSTRUCTIONS, "seed": CALIBRATION_SEED}


def serve_campaign_request(profile: str, wseed: int) -> dict:
    return {"op": "campaign", "profile": profile,
            "target_instructions": INSTRUCTIONS, "seed": CALIBRATION_SEED,
            "trials": SERVE_CAMPAIGN_TRIALS, "campaign_seed": wseed,
            "parity": True}


# -- digests ------------------------------------------------------------------

def canonical(obj) -> str:
    """The serve protocol's canonical JSON rendering, for the load
    generator, which does not import the program."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ReportOnly:
    """The slice of a ``BenchmarkRun`` the serve encoder reads."""

    def __init__(self, report) -> None:
        self.report = report


def summarize_table1(result) -> dict:
    """Digest of the serve encoding of every (profile, trigger) cell of
    a Table 1 result, mean (SDC, DUE) AVF per trigger, and the summed
    committed instructions and simulated cycles."""
    from repro.serve.protocol import canonical_dumps, encode_benchmark

    cells, means = {}, {}
    committed = cycles = 0
    for row in result.rows:
        means[row.trigger.value] = (row.sdc_avf, row.due_avf)
        for report in result.details[row.design_point].values():
            cells[cell_id(report.name, row.trigger.value)] = digest(
                canonical_dumps(encode_benchmark(ReportOnly(report))))
            committed += report.committed
            cycles += report.cycles
    return {"cells": cells, "means": means, "committed": committed,
            "cycles": cycles}


def cell_id(profile: str, trigger: str) -> str:
    return f"{profile}|{trigger}"


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def avf_error_pp(means_by_trigger: dict) -> float:
    """Mean absolute error, in percentage points, of simulated mean
    (SDC, DUE) AVFs against the paper's Table 1, per trigger covered."""
    errors = []
    for trigger, (sdc, due) in means_by_trigger.items():
        paper_sdc, paper_due = PAPER_AVF_PCT[trigger]
        errors.append(abs(100.0 * sdc - paper_sdc))
        errors.append(abs(100.0 * due - paper_due))
    return sum(errors) / len(errors)
