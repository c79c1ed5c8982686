"""Closed-loop load generation against an in-process register cluster.

Inputs come from the seed alone: :class:`OpStream` draws every client's
``(kind, key)`` sequence and the value padding before the cluster starts,
and a written value is its self-certifying header ``key|writer|seq|``
followed by that padding.  The program under test only ever sees those
generated keys and values.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import time
from collections import deque
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.keys import key_name
from repro.core.namespace import DEFAULT_REGISTER
from repro.errors import ReproError
from repro.runtime import AsyncRegisterClient, LocalCluster
from repro.sharding import KeyspaceConfig
from repro.workloads.generator import ZipfSampler

from checks import ValueChecker
from specs import ClientRole, Workload

#: Entries in each client's pre-generated ``(kind, key)`` stream.  A run
#: that issues more operations than this walks the stream again (values
#: stay unique: the sequence number keeps counting).
STREAM_LEN = 1 << 16

#: Per-operation deadline; a timed-out operation counts as failed.
OP_TIMEOUT = 10.0

#: Per-server history bound (``LocalCluster(max_history=...)``).
#: Unbounded, every write grows each server's list ``L`` and every
#: archived key's snapshot, so per-op cost and memory would depend on how
#: long, and how fast, the run has gone.
MAX_HISTORY = 16


def register_names(workload: Workload) -> List[str]:
    """The register names the workload addresses."""
    if workload.keys == 0:
        return [DEFAULT_REGISTER]
    return [key_name(i) for i in range(workload.keys)]


class OpStream:
    """One client's seeded operation stream and value padding."""

    def __init__(self, workload: Workload, role: ClientRole, seed: int) -> None:
        rng = random.Random(f"{seed}/{workload.name}/{role.client_id}")
        names = register_names(workload)
        sampler = (ZipfSampler(len(names), workload.zipf_s)
                   if len(names) > 1 else None)
        self.names = names
        self.is_read = bytearray(STREAM_LEN)
        self.key_index = array("H", bytes(2 * STREAM_LEN))
        for i in range(STREAM_LEN):
            self.is_read[i] = rng.random() < role.read_ratio
            if sampler is not None:
                self.key_index[i] = sampler.sample(rng)
        self.pad = rng.randbytes(workload.value_size)

    def op(self, i: int) -> Tuple[bool, str]:
        i %= STREAM_LEN
        return bool(self.is_read[i]), self.names[self.key_index[i]]


def make_value(header: bytes, pad: bytes) -> bytes:
    """A self-certifying value: ``header`` then the seeded padding."""
    return header + pad[len(header):]


#: Seconds one :func:`probe_unit` takes on the reference host.  Every
#: time the benchmark reports is scaled to that host: a time measured in
#: an interval is multiplied by ``PROBE_REF_S / probe``, where ``probe``
#: is the mean probe time over that interval.  A VM that shares its cores
#: with other tenants changes speed by up to 2x within a tenth of a
#: second (measured on a 2-vCPU Xeon VM); the probe, run every
#: :data:`PROBE_EVERY_S` on the same event loop, tracks that drift so
#: scaled figures stay comparable across runs.
PROBE_REF_S = 0.001

#: Interval between two probes while load runs.
PROBE_EVERY_S = 0.05

#: Measured intervals are cut into slices this long, each scaled by the
#: probes that ran in it.
SLICE_SECONDS = 1.0


def probe_unit() -> int:
    """A fixed piece of interpreter work (integer, dict and bytes ops)."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(6_000):
        acc += i * i % 7
        table[i & 255] = acc
    return acc + len(bytes(table))


def probe() -> float:
    """Seconds one probe unit takes now."""
    start = time.perf_counter()
    probe_unit()
    return time.perf_counter() - start


class Segment:
    """Completions of one measured interval, with host-scaled times.

    ``latencies`` hold host-scaled seconds; ``wall`` and ``cpu`` are raw,
    ``scaled_wall`` and ``scaled_cpu`` host-scaled.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.scaled_wall = 0.0
        self.scaled_cpu = 0.0
        self.probes: List[float] = []

    @property
    def completed(self) -> int:
        return len(self.latencies["read"]) + len(self.latencies["write"])

    @property
    def attempted(self) -> int:
        return self.completed + self.failed


class _Slice:
    """Raw completions and probe times of one slice."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        self.failed = 0
        self.probes: List[float] = []


class ClosedLoop:
    """``depth`` callers per client, each awaiting its reply in turn.

    Completions are attributed to the slice open when they finish;
    between segments (warm-up, drain) nothing is recorded.  Probes run on
    the same loop throughout; a probe blocks the loop, so the probe time
    inside an operation's interval is taken out of its latency.
    """

    def __init__(self, workload: Workload, streams: Sequence[OpStream],
                 clients: Sequence[AsyncRegisterClient],
                 checker: ValueChecker) -> None:
        self.workload = workload
        self.streams = streams
        self.clients = clients
        self.checker = checker
        self._slice: Optional[_Slice] = None
        #: ``(start, end)`` of the most recent probes.
        self._probes: "deque[Tuple[float, float]]" = deque(maxlen=16)
        self._probe_timer: Optional[asyncio.TimerHandle] = None
        self.segments: List[Segment] = []
        self._next = [0] * len(clients)
        self._seq = [0] * len(clients)
        self._stopping = False
        self._tasks: List[asyncio.Task] = []
        #: Failures by exception type, whole run (warm-up included).
        self.errors: Dict[str, int] = {}

    def start(self) -> None:
        for index, role in enumerate(self.workload.clients):
            for _ in range(role.depth):
                self._tasks.append(asyncio.ensure_future(self._caller(index)))
        self._probe_tick()

    async def stop(self) -> None:
        """Stop issuing and wait for every in-flight operation to end."""
        self._stopping = True
        if self._probe_timer is not None:
            self._probe_timer.cancel()
        for task in self._tasks:
            await task

    def _probe_tick(self) -> None:
        start = time.perf_counter()
        probe_unit()
        end = time.perf_counter()
        self._probes.append((start, end))
        if self._slice is not None:
            self._slice.probes.append(end - start)
        self._probe_timer = asyncio.get_running_loop().call_later(
            PROBE_EVERY_S, self._probe_tick)

    async def measure(self, label: str, seconds: float) -> Segment:
        """Record completions for ``seconds``, slice by slice."""
        segment = Segment(label)
        slices = max(1, round(seconds / SLICE_SECONDS))
        for _ in range(slices):
            current = _Slice()
            cpu0, t0 = time.process_time(), time.perf_counter()
            self._slice = current
            await asyncio.sleep(seconds / slices)
            self._slice = None
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if current.probes:
                segment.probes.append(statistics.fmean(current.probes))
            # A slice no probe ran in keeps the previous slice's scale.
            scale = PROBE_REF_S / segment.probes[-1] if segment.probes else 1.0
            for kind, values in current.latencies.items():
                segment.latencies[kind].extend(v * scale for v in values)
            segment.failed += current.failed
            segment.wall += wall
            segment.cpu += cpu
            segment.scaled_wall += wall * scale
            segment.scaled_cpu += cpu * scale
        self.segments.append(segment)
        return segment

    def _unblocked(self, started: float, ended: float) -> float:
        """``ended - started`` minus the probe time inside it."""
        latency = ended - started
        for p_start, p_end in reversed(self._probes):
            if p_end <= started:
                break
            latency -= p_end - max(p_start, started)
        return latency

    async def _caller(self, index: int) -> None:
        client = self.clients[index]
        stream = self.streams[index]
        writer = str(client.client_id)
        checker = self.checker
        clock = time.perf_counter
        while not self._stopping:
            i = self._next[index]
            self._next[index] = i + 1
            is_read, key = stream.op(i)
            if is_read:
                record = checker.begin_read(writer, key, clock())
            else:
                self._seq[index] += 1
                header = f"{key}|{writer}|{self._seq[index]}|".encode()
                record = checker.begin_write(writer, key, header, clock())
            started = clock()
            try:
                if is_read:
                    result = await client.read(register=key)
                else:
                    await client.write(make_value(header, stream.pad),
                                       register=key)
            except (ReproError, OSError, TimeoutError) as exc:
                name = type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                if self._slice is not None:
                    self._slice.failed += 1
                continue
            ended = clock()
            if is_read:
                checker.end_read(key, record, result, ended)
            else:
                checker.end_write(record, ended)
            current = self._slice
            if current is not None:
                current.latencies["read" if is_read else "write"].append(
                    self._unblocked(started, ended))


async def start_cluster(workload: Workload
                        ) -> Tuple[LocalCluster, List[AsyncRegisterClient]]:
    """Start the workload's cluster and connect its clients."""
    keyspace = (KeyspaceConfig(**workload.keyspace)
                if workload.keyspace is not None else None)
    cluster = LocalCluster(workload.algorithm, f=workload.f, n=workload.n,
                           byzantine=dict(workload.byzantine) or None,
                           keyspace=keyspace,
                           max_history=MAX_HISTORY)
    await cluster.start()
    clients = []
    for role in workload.clients:
        client = cluster.client(role.client_id, timeout=OP_TIMEOUT,
                                max_inflight=role.depth)
        connected = await client.connect()
        if connected != workload.n:
            await cluster.stop()
            raise RuntimeError(f"client {role.client_id} reached "
                               f"{connected} of {workload.n} servers")
        clients.append(client)
    return cluster, clients


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of already sorted samples."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_samples(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(q * count))
