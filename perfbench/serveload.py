"""Open-loop load generator for ``repro serve``, speaking raw NDJSON.

The generator is its own process (the benchmark's), separate from the
server. It sends each request at its due time whether or not earlier
ones were answered, times every answer from that due time, and records
how late it sent, so a stalled generator shows up instead of quietly
lowering the offered load. It uses only the wire protocol, not the
program's client classes.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import spec

#: Request lines and answers can carry pickled timelines; match the
#: server's own line cap.
LINE_LIMIT = 64 * 1024 * 1024


@dataclass
class Request:
    label: str
    payload: dict
    due: float = 0.0
    sent: float = 0.0
    done: Optional[float] = None
    accepted: Optional[str] = None
    error: Optional[str] = None
    value: object = None
    canonical_line: bool = True
    future: Optional[asyncio.Future] = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


class Connection:
    """One multiplexed NDJSON connection; answers matched by ``id``."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Request] = {}
        self.next_id = 0
        self.pump = asyncio.ensure_future(self._pump())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=LINE_LIMIT)
        return cls(reader, writer)

    def send(self, request: Request) -> None:
        self.next_id += 1
        request.future = asyncio.get_running_loop().create_future()
        self.pending[self.next_id] = request
        payload = dict(request.payload, id=self.next_id)
        request.sent = time.perf_counter()
        self.writer.write((json.dumps(payload) + "\n").encode())

    async def _pump(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            now = time.perf_counter()
            text = line.decode().rstrip("\n")
            message = json.loads(text)
            request = self.pending.get(message.get("id"))
            if request is None:
                continue
            if message.get("event") == "accepted":
                request.accepted = message.get("status")
                continue
            del self.pending[message["id"]]
            request.done = now
            request.canonical_line = spec.canonical(message) == text
            if message.get("event") == "result":
                request.value = message.get("value")
            else:
                request.error = message.get("error", {}).get("code", "?")
            request.future.set_result(None)
        for request in self.pending.values():
            if not request.future.done():
                request.future.set_result(None)

    async def ask(self, payloads: List[Tuple[str, dict]]) -> List[Request]:
        """Closed batch: send all, wait for every answer."""
        requests = [Request(label, payload) for label, payload in payloads]
        for request in requests:
            request.due = time.perf_counter()
            self.send(request)
        await self.writer.drain()
        await asyncio.gather(*(r.future for r in requests))
        return requests

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.pump.cancel()
        await asyncio.gather(self.pump, return_exceptions=True)


# -- the traffic mix ----------------------------------------------------------

def warm_keys(wseed: int) -> List[Tuple[str, dict]]:
    keys = [(f"avf:{spec.cell_id(p, t)}", spec.serve_avf_request(p, t))
            for p in spec.SERVE_WARM_PROFILES for t in spec.TRIGGERS]
    keys += [(f"campaign:{p}", spec.serve_campaign_request(p, wseed))
             for p in spec.SERVE_CAMPAIGN_PROFILES]
    return keys


def cold_keys() -> List[Tuple[str, dict]]:
    return [(f"avf:{spec.cell_id(p, t)}", spec.serve_avf_request(p, t))
            for p in spec.SERVE_COLD_PROFILES for t in spec.TRIGGERS]


def schedule(wseed: int, seconds: float) -> List[Tuple[float, str, dict]]:
    """``(due offset, label, payload)`` for the measured window.

    Warm keys are drawn with a Zipf skew over a seeded ranking. Each cold
    key is placed once, evenly through the window, and repeated a few
    slots later so the repeats coalesce onto its computation.
    """
    rng = random.Random(wseed)
    ranked = warm_keys(wseed)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** spec.SERVE_ZIPF_S
               for rank in range(len(ranked))]
    total = int(spec.SERVE_RATE * seconds)
    slots = rng.choices(ranked, weights=weights, k=total)
    colds = cold_keys()
    rng.shuffle(colds)
    for index, key in enumerate(colds):
        slot = int((index + 0.5) * total / len(colds))
        for repeat in range(spec.SERVE_COLD_REPEATS + 1):
            slots[slot + 3 * repeat] = key
    return [(slot / spec.SERVE_RATE, label, payload)
            for slot, (label, payload) in enumerate(slots)]


async def open_loop(connections: List[Connection],
                    plan: List[Tuple[float, str, dict]]) -> List[Request]:
    requests = []
    started = time.perf_counter()
    for index, (offset, label, payload) in enumerate(plan):
        request = Request(label, payload, due=started + offset)
        delay = request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        connections[index % len(connections)].send(request)
        requests.append(request)
    limit = spec.SERVE_LATENCY_LIMIT_MS / 1000.0
    waiting = [r.future for r in requests if not r.future.done()]
    if waiting:
        remaining = requests[-1].due + limit + 1.0 - time.perf_counter()
        await asyncio.wait(waiting, timeout=max(0.0, remaining))
    return requests


# -- the server process -------------------------------------------------------

class Server:
    """A ``repro serve`` subprocess on a free port."""

    def __init__(self, argv: List[str], env: dict, cwd: str) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL,
                                     text=True, start_new_session=True)
        self.host, self.port = self._await_listening(timeout=60.0)
        self.boot_s = time.perf_counter() - self.spawned

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.perf_counter() + timeout
        stream = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                break
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
        self.kill()
        raise RuntimeError("repro serve did not start listening")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    async def shutdown(self) -> None:
        """Stop over the wire and wait for exit; kill if that fails."""
        try:
            connection = await Connection.open(self.host, self.port)
            try:
                await asyncio.wait_for(
                    connection.ask([("shutdown", {"op": "shutdown"})]),
                    timeout=30.0)
            finally:
                await connection.close()
        except (OSError, asyncio.TimeoutError):
            self.kill()
            return
        await asyncio.get_running_loop().run_in_executor(None, self._reap)

    def _reap(self) -> None:
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, 9)
            except ProcessLookupError:
                pass
        self.proc.communicate()


def serve_argv() -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]
