"""One benchmark run: set up, warm up, measure, check, report.

A run with ``trace=False`` measures the end-to-end metrics with no
tracing installed.  A run with ``trace=True`` alternates plain and traced
segments (see :mod:`layers`) and reports the per-layer metrics.  Both
check every read and the sampled-key trace, and gate on flow control.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from checks import ValueChecker
from layers import traced_segments
from loadgen import (PROBE_REF_S, ClosedLoop, OpStream, percentile, probe,
                     register_names, start_cluster, tail_samples)
from specs import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Cluster start + client connect is timed this many times per run; the
#: median is ``setup_s``.
SETUP_REPEATS = 15

#: Load runs this long before anything is recorded.
WARMUP_SECONDS = 2.0

#: Highest latency quantile reported, and the samples it needs beyond it.
TAIL_Q = 0.99
MIN_TAIL = 10

#: Counters that must stay zero: a throttled or rejected frame means the
#: run measured flow control, not the request path.
FLOW_CONTROL_GATES = ("client_throttled_total", "node_frames_bad_total")


def _git_rev() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (names and contents).

    Identifies the code measured where there is no ``.git`` to read.
    """
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(package)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, package).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def env_block(seed: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "event_loop": "asyncio",
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


async def _timed_setups(workload: Workload):
    """Start and connect ``SETUP_REPEATS`` clusters; keep the last one.

    Each set-up time is host-scaled by a probe taken just before it.
    """
    times: List[float] = []
    for attempt in range(SETUP_REPEATS):
        scale = PROBE_REF_S / statistics.fmean(probe() for _ in range(5))
        started = time.perf_counter()
        cluster, clients = await start_cluster(workload)
        times.append((time.perf_counter() - started) * scale)
        if attempt < SETUP_REPEATS - 1:
            await cluster.stop()
    return cluster, clients, times


def _gate_totals(snapshot: Dict) -> Dict[str, float]:
    totals = {name: 0.0 for name in FLOW_CONTROL_GATES}
    for entry in snapshot["counters"]:
        if entry["name"] in totals:
            totals[entry["name"]] += entry["value"]
    return totals


def _end_to_end(segments, setups: List[float], metrics: Dict,
                samples: Dict) -> List[str]:
    """Fill the end-to-end metrics; returns notes on thin tails."""
    completed = sum(s.completed for s in segments)
    wall = sum(s.scaled_wall for s in segments)
    metrics["ops_per_s"] = _metric(completed / wall, "1/s")
    notes = []
    for kind in ("read", "write"):
        values = sorted(v for s in segments for v in s.latencies[kind])
        samples[kind] = len(values)
        if not values:
            continue
        beyond = tail_samples(len(values), TAIL_Q)
        samples[f"{kind}_beyond_p99"] = beyond
        if beyond < MIN_TAIL:
            notes.append(f"{kind}_p99_ms rests on {beyond} samples beyond "
                         f"it (fewer than {MIN_TAIL})")
        metrics[f"{kind}_p50_ms"] = _metric(percentile(values, 0.5) * 1e3,
                                            "ms")
        metrics[f"{kind}_p99_ms"] = _metric(percentile(values, TAIL_Q) * 1e3,
                                            "ms")
    metrics["setup_s"] = _metric(statistics.median(setups), "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return notes


async def run_workload(name: str, seed: int, seconds: float,
                       trace: bool) -> Dict[str, Any]:
    """Run one workload; returns ``{"report": ..., "result": ...}``."""
    workload = WORKLOADS[name]
    env = env_block(seed)
    streams = [OpStream(workload, role, seed) for role in workload.clients]
    pads = {role.client_id: stream.pad
            for role, stream in zip(workload.clients, streams)}
    checker = ValueChecker(register_names(workload), pads, seed)
    cluster, clients, setups = await _timed_setups(workload)
    loop = ClosedLoop(workload, streams, clients, checker)
    layers = None
    try:
        loop.start()
        await asyncio.sleep(WARMUP_SECONDS)
        if trace:
            layers = await traced_segments(
                loop, cluster, seconds,
                byzantine_indices=tuple(workload.byzantine),
                spans_path=os.path.join(HERE, "out", f"{name}.spans.jsonl"),
                header={"workload": name, "env": env})
        else:
            await loop.measure("plain", seconds)
    finally:
        await loop.stop()
        snapshot = cluster.registry.snapshot()
        await cluster.stop()
    checker.check_trace()

    plain = [s for s in loop.segments if s.label == "plain"]
    attempted = sum(s.attempted for s in plain)
    failed = sum(s.failed for s in plain)
    gates = _gate_totals(snapshot)
    problems = [f"{gate} = {value:g}" for gate, value in gates.items()
                if value]
    if checker.violations:
        problems.append(f"{checker.violations} violation(s)")
    metrics: Dict[str, Any] = {}
    samples: Dict[str, int] = {}
    notes: List[str] = []
    if trace:
        metrics = layers.metrics
        problems.extend(layers.problems)
    else:
        notes = _end_to_end(plain, setups, metrics, samples)
        problems.extend(f"no {kind} completed" for kind in ("read", "write")
                        if not samples[kind])
    report = {
        "workload": name,
        "trace": int(trace),
        "env": env,
        "seconds": seconds,
        "samples": samples,
        "violations": checker.violations,
        "violation_messages": checker.messages,
        "reads_checked": checker.reads_checked,
        "sampled_trace_ops": len(checker.trace),
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": loop.errors,
        "flow_control": gates,
        "setup_runs_s": setups,
        "problems": problems,
        "notes": notes,
        "probe_s": [p for seg in loop.segments for p in seg.probes],
    }
    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"report": report, "result": result}
