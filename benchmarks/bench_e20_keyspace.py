"""E20: sharded keyspace throughput -- 10k keys at single-register speed.

E19 established the single-register hot-path ceiling on loopback.  E20
asks what the sharded keyspace costs on top of it: a 10,000-key
Zipf(1.1) mixed read/write workload (90 % reads) routed by consistent
hashing through :class:`~repro.sharding.RegisterTable` servers, measured
against the *same* single-register depth-16 references recorded in
``BENCH_hotpath.json``:

* ``e18_depth16_ops_per_sec`` -- the single-register depth-16 BSR rate
  over 1 ms links, the floor every keyed deployment must sustain.  The
  acceptance gate: the sharded keyspace (10,000 registers, lazy state,
  key-routed clients) must not fall below the rate the runtime used to
  deliver for *one* register.
* the E19 v2 depth-16 loopback ceiling -- reported as context (a mixed
  keyed workload pays write quorum rounds and per-key dispatch that a
  read-only single-register pass does not).

Every written value is self-certifying (``<key>|<writer>|<seq>``), so
each read doubles as a consistency probe: a non-genesis value whose
prefix is not the key it was read from means cross-register bleed, and
a follow-up monotonicity sweep re-reads the hottest keys to catch
regressing sequence numbers.  The acceptance count for both is zero.

Three configurations run: a single-register mixed baseline (same mix,
no keyspace) for the like-for-like sharding tax, the sharded keyspace
on an in-process :class:`LocalCluster`, and -- with ``--procs`` (the
default for ``make bench-keyspace``) -- the sharded keyspace against a
real process-per-node cluster under a :class:`ClusterSupervisor`.

Run directly (or via ``make bench-keyspace``) to write
``BENCH_keyspace.json`` at the repository root:

    PYTHONPATH=src python benchmarks/bench_e20_keyspace.py

The pytest entry points are marked ``slow_bench`` and excluded from the
tier-1 run; they assert the acceptance floor above plus zero
consistency violations.
"""

import asyncio
import json
import time
from pathlib import Path

import pytest

from repro.core.keys import key_name
from repro.deploy import ClusterSpec, ClusterSupervisor
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig
from repro.sim.rng import SimRng
from repro.workloads import ZipfSampler

pytestmark = pytest.mark.slow_bench

#: Keyspace size and skew of the acceptance workload.
KEYS = 10_000
ZIPF_S = 1.1

#: Mixed workload: 90 % reads, 10 % writes.
READ_RATIO = 0.9

#: In-flight depth -- matches the E19 reference configuration.
DEPTH = 16

#: Operations measured per timed pass (after warmup).
OPS = 2000

#: Timed passes per configuration; the *fastest* is reported.  Same
#: rationale as E19: host contention only subtracts, so the best pass
#: estimates what the runtime can do.  Consistency violations are
#: accumulated across *all* passes -- a violation in any pass fails.
REPEATS = 3

#: Unmeasured operations to settle connections, caches and hot keys.
WARMUP = 64

#: Cluster shape: one group of 4f+1 so local and procs runs agree.
N = 5
F = 1
GROUP_SIZE = 5
RING_SEED = 11

#: Hottest keys re-read after the timed passes for the monotonicity
#: sweep (two sequential reads each; seq must not regress).
SWEEP_KEYS = 64

#: Acceptance floor when BENCH_hotpath.json is absent: the recorded
#: E18 single-register depth-16 rate.
SINGLE_REGISTER_DEPTH16_FALLBACK = 1252.6

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_keyspace.json"
HOTPATH_REPORT = ROOT / "BENCH_hotpath.json"


def single_register_depth16_reference() -> float:
    """The recorded single-register depth-16 rate from BENCH_hotpath.json."""
    try:
        report = json.loads(HOTPATH_REPORT.read_text())
        return float(report["e18_depth16_ops_per_sec"])
    except (OSError, ValueError, KeyError):
        return SINGLE_REGISTER_DEPTH16_FALLBACK


def e19_ceiling_reference() -> float:
    """The E19 depth-16 loopback ceiling, for context ratios."""
    try:
        report = json.loads(HOTPATH_REPORT.read_text())
        for row in report["results"]:
            if row["depth"] == DEPTH:
                return float(row["ops_per_sec"])
    except (OSError, ValueError, KeyError):
        pass
    return 0.0


def _value_for(key, writer: str, seq: int) -> bytes:
    register = key if key is not None else "the-register"
    return f"{register}|{writer}|{seq}".encode()


def _check_read(key, value: bytes) -> int:
    """1 if ``value`` shows cross-register bleed, else 0.

    The genesis value (``b""`` -- the key was never written) and
    ``None`` are exempt; everything else must carry the key's prefix.
    """
    if value is None or value == b"":
        return 0
    register = key if key is not None else "the-register"
    return 0 if value.startswith(register.encode() + b"|") else 1


def _read_seq(value: bytes) -> int:
    try:
        return int(value.rsplit(b"|", 1)[1])
    except (IndexError, ValueError):
        return -1


async def _measure(client, sampler, ops: int, depth: int, salt: int):
    """One timed pass; returns (seconds, violations)."""
    remaining = ops
    violations = 0

    async def worker(index: int) -> None:
        nonlocal remaining, violations
        rng = SimRng(1000 + salt * depth + index, "e20")
        seq = 0
        while remaining > 0:
            remaining -= 1
            key = sampler.key(rng) if sampler is not None else None
            if rng.random() < READ_RATIO:
                violations += _check_read(key, await client.read(register=key))
            else:
                seq += 1
                await client.write(_value_for(key, f"w{index}", seq),
                                   register=key)

    started = time.perf_counter()
    await asyncio.gather(*(worker(index) for index in range(depth)))
    return time.perf_counter() - started, violations


async def _monotonic_sweep(client, sampler) -> int:
    """Re-read the hottest keys twice; count regressing sequences."""
    regressions = 0
    keys = ([key_name(rank) for rank in range(SWEEP_KEYS)]
            if sampler is not None else [None])
    for key in keys:
        first = await client.read(register=key)
        second = await client.read(register=key)
        if first not in (None, b"") and _read_seq(second) < _read_seq(first):
            regressions += 1
    return regressions


async def _drive(client, sharded: bool, ops: int):
    """Warmup + REPEATS timed passes + sweep on a connected client."""
    sampler = ZipfSampler(KEYS, ZIPF_S) if sharded else None
    rng = SimRng(7, "warmup")
    for index in range(WARMUP):
        key = sampler.key(rng) if sampler is not None else None
        if rng.random() < READ_RATIO:
            await client.read(register=key)
        else:
            await client.write(_value_for(key, "warm", index), register=key)
    seconds, violations = [], 0
    for salt in range(REPEATS):
        elapsed, bad = await _measure(client, sampler, ops, DEPTH, salt)
        seconds.append(elapsed)
        violations += bad
    violations += await _monotonic_sweep(client, sampler)
    return min(seconds), violations


async def _run_local(sharded: bool, ops: int) -> dict:
    keyspace = (KeyspaceConfig(group_size=GROUP_SIZE, seed=RING_SEED)
                if sharded else None)
    cluster = LocalCluster("bsr", f=F, n=N, keyspace=keyspace)
    await cluster.start()
    try:
        client = cluster.client("w000", timeout=30.0, max_inflight=DEPTH)
        await client.connect()
        seconds, violations = await _drive(client, sharded, ops)
        return _row("local", sharded, ops, seconds, violations)
    finally:
        await cluster.stop()


async def _run_procs(ops: int) -> dict:
    spec = ClusterSpec(algorithm="bsr", f=F, n=N, secret="bench-e20",
                       keyspace={"group_size": GROUP_SIZE,
                                 "seed": RING_SEED})
    supervisor = ClusterSupervisor(spec)
    await supervisor.start()
    try:
        client = supervisor.client("w000", timeout=30.0, max_inflight=DEPTH)
        await client.connect()
        seconds, violations = await _drive(client, True, ops)
        return _row("procs", True, ops, seconds, violations)
    finally:
        await supervisor.stop()


def _row(backend: str, sharded: bool, ops: int, seconds: float,
         violations: int) -> dict:
    return {
        "backend": backend,
        "mode": "sharded" if sharded else "single-register",
        "keys": KEYS if sharded else 1,
        "ops": ops,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(ops / seconds, 1),
        "violations": violations,
    }


def run_benchmark(procs: bool = False, ops: int = OPS) -> dict:
    results = [
        asyncio.run(_run_local(False, ops)),
        asyncio.run(_run_local(True, ops)),
    ]
    if procs:
        results.append(asyncio.run(_run_procs(ops)))
    reference = single_register_depth16_reference()
    ceiling = e19_ceiling_reference()
    for row in results:
        row["vs_single_register_depth16"] = round(
            row["ops_per_sec"] / reference, 2)
        if ceiling:
            row["vs_e19_ceiling"] = round(row["ops_per_sec"] / ceiling, 2)
    return {
        "experiment": ("E20: sharded keyspace throughput "
                       f"({KEYS} keys, Zipf s={ZIPF_S}, "
                       f"{int(READ_RATIO * 100)}/"
                       f"{int(round((1 - READ_RATIO) * 100))} "
                       f"read/write, depth {DEPTH})"),
        "ops_per_config": ops,
        "single_register_depth16_ops_per_sec": reference,
        "e19_v2_depth16_ops_per_sec": ceiling,
        "results": results,
    }


def write_report(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def format_report(report: dict) -> str:
    header = (f"{'backend':>7} {'mode':>15} {'keys':>6} {'ops':>6} "
              f"{'seconds':>8} {'ops/sec':>9} {'viol':>5} {'vs 1reg@16':>10}")
    lines = [header, "-" * len(header)]
    for row in report["results"]:
        lines.append(
            f"{row['backend']:>7} {row['mode']:>15} {row['keys']:>6} "
            f"{row['ops']:>6} {row['seconds']:>8.3f} "
            f"{row['ops_per_sec']:>9.1f} {row['violations']:>5} "
            f"{row['vs_single_register_depth16']:>9.2f}x"
        )
    return "\n".join(lines)


def _assert_floor(row: dict, reference: float) -> None:
    assert row["violations"] == 0, (
        f"{row['violations']} consistency violations on the "
        f"{row['backend']} sharded run")
    assert row["ops_per_sec"] >= reference, (
        f"sharded {row['backend']} keyspace at {row['ops_per_sec']} ops/s "
        f"fell below the single-register depth-16 reference {reference}")


def test_sharded_keyspace_sustains_single_register_reference():
    """10k-key Zipf mix on LocalCluster >= single-register depth-16."""
    report = run_benchmark(procs=False)
    sharded = [row for row in report["results"]
               if row["backend"] == "local" and row["mode"] == "sharded"][0]
    _assert_floor(sharded, report["single_register_depth16_ops_per_sec"])


def test_sharded_tax_is_bounded_like_for_like():
    """Sharded mixed >= 60 % of the single-register *mixed* baseline.

    The keyed wire path costs one namespaced wrapper per message; the
    bound pins it from regressing into a multiplicative penalty.
    """
    report = run_benchmark(procs=False)
    by_mode = {row["mode"]: row for row in report["results"]
               if row["backend"] == "local"}
    assert (by_mode["sharded"]["ops_per_sec"]
            >= 0.6 * by_mode["single-register"]["ops_per_sec"])


@pytest.mark.procs
def test_procs_sharded_keyspace_sustains_reference():
    """ISSUE acceptance: the sharded ``--procs`` cluster holds the floor."""
    report = run_benchmark(procs=True)
    sharded = [row for row in report["results"]
               if row["backend"] == "procs"][0]
    _assert_floor(sharded, report["single_register_depth16_ops_per_sec"])


def main() -> None:
    import argparse

    from repro.metrics.report import emit

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-procs", action="store_true",
                        help="skip the process-per-node configuration")
    parser.add_argument("--ops", type=int, default=OPS)
    options = parser.parse_args()
    report = run_benchmark(procs=not options.no_procs, ops=options.ops)
    write_report(report)
    emit(format_report(report))
    emit(f"\nwrote {OUTPUT}")
    reference = report["single_register_depth16_ops_per_sec"]
    for row in report["results"]:
        if row["mode"] != "sharded":
            continue
        emit(f"{row['backend']} sharded {KEYS}-key mix: "
             f"{row['ops_per_sec']:.1f} ops/s = "
             f"{row['vs_single_register_depth16']:.2f}x the "
             f"single-register depth-16 reference ({reference}), "
             f"{row['violations']} violations")


if __name__ == "__main__":
    main()
