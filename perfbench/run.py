"""Register-service benchmark: one closed-loop load generator, one cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-read-mostly --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # every workload

Workloads are defined in ``perfbench/specs.py``; ``BENCHMARK.json`` at the
repository root names them and the metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The line before it is a JSON report with the
environment stamp, sample counts, violations and the error rate.

The load is a closed loop over loopback on one asyncio event loop, with
no injected link delay: latencies are processor time and queueing
behind it on the host, not network time.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':<16} {'metric':<34} {'value':>12}  unit")
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name:<16} FAILED (exit {proc.returncode})")
            status = 1
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<34} {entry['value']:>12.4f}  "
                  f"{entry['unit']}")
        print(f"{name:<16} {'violations':<34} {report['violations']:>12d}")
        print(f"{name:<16} {'error_rate':<34} {report['error_rate']:>12.6f}")
        print(f"{name:<16} {'samples':<34} {json.dumps(report['samples'])}")
        if not result["correct"]:
            print(f"{name:<16} INCORRECT: {report['problems']}")
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}; run "
                         "from a full checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    from specs import WORKLOADS
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    from bench import run_workload
    out = asyncio.run(run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace)))
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
