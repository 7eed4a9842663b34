"""Measure the two host figures serve-open's rate and latency limit
derive from (``spec.SERVE_SATURATION_QPS`` and ``spec.SERVE_COLD_MAX_S``).

Each round boots a fresh ``repro serve`` at its defaults, prewarms the
warm keys, then

* saturation: sends a closed batch of warm requests over the two
  connections, all at once, and divides the count by the time to the
  last answer;
* cold compute: asks each cold avf key alone and times its answer.

Run from the repository root (about a minute)::

    python3 perfbench/serve_calibrate.py --rounds 5
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import time
from pathlib import Path

import serveload
import spec

BATCH = 3000


async def one_round(env: dict) -> dict:
    server = serveload.Server(serveload.serve_argv(), env, os.getcwd())
    connections = []
    try:
        for _ in range(spec.SERVE_CONNECTIONS):
            connections.append(await serveload.Connection.open(
                server.host, server.port))
        warm = serveload.warm_keys(spec.CALIBRATION_SEED)
        await connections[0].ask(warm)
        share = BATCH // len(connections)
        batch = [warm[i % len(warm)] for i in range(share)]
        started = time.perf_counter()
        await asyncio.gather(*(c.ask(batch) for c in connections))
        saturation = share * len(connections) / (
            time.perf_counter() - started)
        cold = []
        for key in serveload.cold_keys():
            started = time.perf_counter()
            await connections[0].ask([key])
            cold.append(time.perf_counter() - started)
    finally:
        for connection in connections:
            await connection.close()
        await server.shutdown()
    return {"saturation_qps": saturation, "cold_max_s": max(cold)}


async def calibrate(rounds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    results = [await one_round(env) for _ in range(rounds)]
    return {name: {"median": statistics.median(r[name] for r in results),
                   "rounds": [r[name] for r in results]}
            for name in results[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    measured = asyncio.run(calibrate(args.rounds))
    print(json.dumps(measured, indent=1))
    print(f"SERVE_SATURATION_QPS ~ {measured['saturation_qps']['median']:.0f}"
          f", SERVE_COLD_MAX_S ~ {measured['cold_max_s']['median']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
