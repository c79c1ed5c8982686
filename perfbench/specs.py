"""The benchmark's workloads: one register service, three traffic mixes.

Every workload drives an in-process :class:`repro.runtime.LocalCluster`
over loopback from one closed-loop load generator.  There is no chaos
proxy and no injected link delay, so every latency below is processor
time (the whole cluster shares one event loop) plus queueing behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ClientRole:
    """One client object and the closed loop that drives it.

    ``depth`` callers each await their reply before issuing the next
    operation; the client's ``max_inflight`` is set to the same depth.
    ``read_ratio`` is the share of reads in the client's operation
    stream (1.0 = reader only, 0.0 = writer only).
    """

    client_id: str
    depth: int
    read_ratio: float


@dataclass(frozen=True)
class Workload:
    """A cluster configuration plus the traffic the clients send it."""

    name: str
    why: str
    algorithm: str
    f: int
    n: int
    #: Number of keys; 0 means the single unnamed register.
    keys: int
    #: Zipf exponent of key popularity (0 = uniform).
    zipf_s: float
    value_size: int
    clients: Tuple[ClientRole, ...]
    #: ``KeyspaceConfig`` fields when the keyspace is sharded.
    keyspace: Optional[Dict[str, int]] = None
    #: Server index -> Byzantine behaviour name.
    byzantine: Dict[int, str] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="kv-read-mostly",
        why=("the paper's target traffic: one-round reads dominate; a Zipf "
             "tail over 1024 keys with 256 resident forces archive and "
             "rehydrate work in the sharding table"),
        algorithm="bsr", f=1, n=5, keys=1024, zipf_s=0.99, value_size=64,
        clients=(ClientRole("c000", depth=16, read_ratio=0.9),),
        keyspace={"group_size": 5, "max_resident": 256},
    ),
    Workload(
        name="kv-hot-writes",
        why=("half writes on 16 resident keys with 1 KiB values: two-round "
             "writes, the per-key write lock and history appends, so a "
             "read-path gain that costs writes shows here"),
        algorithm="bsr", f=1, n=5, keys=16, zipf_s=0.0, value_size=1024,
        clients=(ClientRole("c000", depth=16, read_ratio=0.5),),
        keyspace={"group_size": 5, "max_resident": 256},
    ),
    Workload(
        name="coded-byzantine",
        why=("the fault run: BCSR n=8 f=1 (k=3) with s007 corrupting its "
             "coded elements; 16 KiB values put erasure encode/decode and "
             "seal/open bytes on every operation's path"),
        algorithm="bcsr", f=1, n=8, keys=0, zipf_s=0.0, value_size=16384,
        clients=(ClientRole("w000", depth=1, read_ratio=0.0),
                 ClientRole("r000", depth=4, read_ratio=1.0)),
        byzantine={7: "corrupt_value"},
    ),
)}
