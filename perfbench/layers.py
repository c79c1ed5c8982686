"""The traced run: per-layer self time from spans around public entry points.

:class:`SpanTracer` wraps each layer's entry points (listed in
:func:`entry_points`) from outside the program, so the program itself
carries no tracing code.  Every wrapped call is a span: name, start, end,
parent span and the operation it serves.  A layer's self time is its
spans' durations minus the parts their child spans cover.  Spans are kept
in memory (the first :data:`SPAN_KEEP` in full, every one in the totals)
and written out when the run ends.

The traced run alternates plain and traced segments on one cluster
(plain, traced, traced, plain, ...), so ``tracing_overhead`` compares
throughput under the same load and host conditions.  Counts come from
the cluster's own :meth:`repro.obs.MetricRegistry.snapshot`, as deltas
over the traced segments.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans written out in full; later spans only enter the totals.
SPAN_KEEP = 50_000

#: Plain/traced segment pairs in a traced run.
SEGMENT_PAIRS = 4

#: Attributed self time may exceed process CPU by at most this share
#: (span clocks are wall clocks; a descheduled process inflates them).
CPU_TOLERANCE = 0.05

#: Layers whose self time is reported per completed op.
PER_OP_LAYERS = (
    "transport.encode", "transport.decode", "transport.seal",
    "transport.open", "transport.frame", "runtime.dispatch",
    "core.server", "core.client", "sharding.table", "sharding.place",
    "obs.metrics", "obs.trace", "byzantine.adversary",
)

#: Every span name; erasure time is reported per write and per read.
LAYERS = PER_OP_LAYERS + ("erasure.encode", "erasure.decode")


def _op_of_message(args: tuple) -> Any:
    """``op_id`` of the message in ``(self, sender, message, ...)``."""
    return getattr(args[2], "op_id", None)


def _op_of_self(args: tuple) -> Any:
    return getattr(args[0], "op_id", None)


def _op_of_state(args: tuple) -> Any:
    return getattr(args[1], "op_id", None)


def entry_points() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """``(layer, owner, attribute, op getter)`` for every wrapped call."""
    from repro.byzantine.behaviors import BEHAVIOR_REGISTRY, Behavior
    from repro.core.bcsr import (BCSRReadOperation, BCSRServer,
                                 BCSRWriteOperation)
    from repro.core.bsr import BSRReadOperation, BSRServer, BSRWriteOperation
    from repro.core.namespace import NamespacedOperation
    from repro.erasure.striping import StripedCodec
    from repro.obs.flight import FlightRecorder
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.obs.tracing import OpSpan, OpTracer
    from repro.runtime import client, dispatch, node
    from repro.sharding.ring import Placement
    from repro.sharding.table import RegisterTable
    from repro.transport.auth import Authenticator
    from repro.transport.codec import FrameAssembler
    from repro.transport.codec2 import CachedDecoder, CachedEncoder

    points = [
        ("transport.encode", CachedEncoder, "__call__", None),
        ("transport.decode", CachedDecoder, "__call__", None),
        ("transport.seal", Authenticator, "seal_frames", None),
        ("transport.open", Authenticator, "open_any", None),
        ("transport.frame", FrameAssembler, "feed", None),
        ("transport.frame", dispatch, "write_frames", None),
        ("transport.frame", node, "write_frames", None),
        ("runtime.dispatch", client.AsyncRegisterClient, "_dispatch_reply",
         _op_of_message),
        ("runtime.dispatch", client.AsyncRegisterClient, "_send_nowait",
         _op_of_state),
        ("runtime.dispatch", client.AsyncRegisterClient, "_servers_for", None),
        ("runtime.dispatch", dispatch.BatchedConnection, "send", None),
        ("runtime.dispatch", node.RegisterServerNode, "_serve_frame", None),
        ("runtime.dispatch", node.RegisterServerNode, "_serve_message",
         _op_of_message),
        ("core.server", BSRServer, "handle", _op_of_message),
        ("core.server", BCSRServer, "handle", _op_of_message),
        ("sharding.table", RegisterTable, "handle", _op_of_message),
        ("sharding.place", Placement, "servers_for", None),
        ("erasure.encode", StripedCodec, "encode", None),
        ("erasure.decode", StripedCodec, "decode", None),
        ("obs.metrics", Counter, "inc", None),
        ("obs.metrics", Gauge, "set", None),
        ("obs.metrics", Histogram, "observe", None),
        ("obs.trace", OpTracer, "start", None),
        ("obs.trace", OpSpan, "begin_phase", None),
        ("obs.trace", OpSpan, "record_reply", None),
        ("obs.trace", OpSpan, "finish", None),
        ("obs.trace", FlightRecorder, "record", None),
    ]
    for cls in (BSRWriteOperation, BSRReadOperation, BCSRWriteOperation,
                BCSRReadOperation, NamespacedOperation):
        points.append(("core.client", cls, "start", _op_of_self))
        points.append(("core.client", cls, "on_reply", _op_of_self))
    behaviors = {Behavior, *BEHAVIOR_REGISTRY.values()}
    for cls in sorted(behaviors, key=lambda c: c.__name__):
        if "on_message" in vars(cls):
            points.append(("byzantine.adversary", cls, "on_message", None))
    return points


class SpanTracer:
    """Span recorder with online self-time totals per layer.

    Wrapped calls are synchronous, and the whole cluster runs on one
    thread, so spans nest strictly: a stack holds the open ones.
    """

    def __init__(self, byzantine_indices: Tuple[int, ...] = ()) -> None:
        self.self_time: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: Sum of root-span durations; must equal the sum of self times.
        self.root_time = 0.0
        #: ``(id, name, start, end, parent id, op)`` of the first spans.
        self.kept: List[tuple] = []
        self.spans = 0
        self.seal_calls = 0
        self.sealed_msgs = 0
        self.sealed_bytes = 0
        self.decodes = 0
        self.decodes_with_byzantine = 0
        self._byzantine = frozenset(byzantine_indices)
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for layer, owner, attr, op_getter in entry_points():
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original, op_getter,
                                 self._hook_for(layer))
            self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _hook_for(self, layer: str) -> Optional[Callable]:
        if layer == "transport.seal":
            return self._count_seal
        if layer == "erasure.decode":
            return self._count_decode
        return None

    def _count_seal(self, args: tuple, result: Any) -> None:
        self.seal_calls += 1
        self.sealed_msgs += len(args[2])
        self.sealed_bytes += sum(len(frame) for frame in result)

    def _count_decode(self, args: tuple, result: Any) -> None:
        self.decodes += 1
        if any(e.index in self._byzantine for e in args[1]):
            self.decodes_with_byzantine += 1

    def _wrap(self, layer: str, fn: Callable, op_getter: Optional[Callable],
              hook: Optional[Callable]) -> Callable:
        stack = self._stack
        kept = self.kept
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            index = tracer.spans
            tracer.spans = index + 1
            parent = stack[-1] if stack else None
            op = op_getter(args) if op_getter is not None else None
            if op is None and parent is not None:
                op = parent[3]
            frame = [clock(), 0.0, index, op]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_time[layer] += duration - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                else:
                    tracer.root_time += duration
                if index < SPAN_KEEP:
                    kept.append((index, layer, frame[0], end,
                                 None if parent is None else parent[2], op))

        span.__wrapped__ = fn
        return span

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the header, then one JSON line per kept span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for index, name, start, end, parent, op in sorted(self.kept):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")


#: Registry counters read as deltas over the traced segments.
COUNTERS = {
    "runtime.replies_stale": "client_replies_stale_total",
    "runtime.ops_queued": "client_ops_queued_total",
    "runtime.send_batches": "client_send_batches_total",
    "runtime.reply_batches": "node_reply_batches_total",
    "sharding.rehydrations": "table_rehydrations_total",
    "sharding.evictions": "table_evictions_total",
}


def _counter_totals(snapshot: Dict) -> Dict[str, float]:
    names = {v: k for k, v in COUNTERS.items()}
    totals = {k: 0.0 for k in COUNTERS}
    for entry in snapshot["counters"]:
        key = names.get(entry["name"])
        if key is not None:
            totals[key] += entry["value"]
    return totals


class LayerResult:
    """Per-layer metrics of a traced run plus the problems it found."""

    def __init__(self, metrics: Dict[str, Dict], problems: List[str]) -> None:
        self.metrics = metrics
        self.problems = problems


async def traced_segments(loop, cluster, seconds: float,
                          byzantine_indices: Tuple[int, ...] = (),
                          spans_path: Optional[str] = None,
                          header: Optional[Dict] = None) -> LayerResult:
    """Alternate plain and traced segments; derive the layer metrics."""
    tracer = SpanTracer(byzantine_indices)
    part = seconds / (2 * SEGMENT_PAIRS)
    counts = {k: 0.0 for k in COUNTERS}
    order = []
    for pair in range(SEGMENT_PAIRS):
        order += ["plain", "traced"] if pair % 2 == 0 else ["traced", "plain"]
    for label in order:
        if label == "plain":
            await loop.measure("plain", part)
            continue
        before = _counter_totals(cluster.registry.snapshot())
        tracer.install()
        try:
            await loop.measure("traced", part)
        finally:
            tracer.uninstall()
        after = _counter_totals(cluster.registry.snapshot())
        for key in counts:
            counts[key] += after[key] - before[key]
    return _layer_metrics(loop.segments, tracer, counts, spans_path, header)


def _layer_metrics(segments, tracer: SpanTracer, counts: Dict[str, float],
                   spans_path: Optional[str],
                   header: Optional[Dict]) -> LayerResult:
    traced = [s for s in segments if s.label == "traced"]
    plain = [s for s in segments if s.label == "plain"]
    ops = sum(s.completed for s in traced) or 1
    reads = sum(len(s.latencies["read"]) for s in traced)
    writes = sum(len(s.latencies["write"]) for s in traced)
    raw_cpu = sum(s.cpu for s in traced)
    # Span times are raw; scale them to the reference host like the
    # segments they fell in (microseconds per raw second of span).
    us = 1e6 * sum(s.scaled_cpu for s in traced) / raw_cpu
    st = tracer.self_time
    m: Dict[str, Dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    for layer in PER_OP_LAYERS:
        put(f"{layer}_us_per_op", st[layer] * us / ops, "us")
    put("erasure.encode_us_per_write",
        st["erasure.encode"] * us / max(writes, 1), "us")
    put("erasure.decode_us_per_read",
        st["erasure.decode"] * us / max(reads, 1), "us")
    put("transport.msgs_per_op", tracer.sealed_msgs / ops, "count")
    put("transport.bytes_per_op", tracer.sealed_bytes / ops, "B")
    put("transport.frames_per_seal",
        tracer.sealed_msgs / max(tracer.seal_calls, 1), "count")
    for key, value in counts.items():
        put(f"{key}_per_op", value / ops, "count")
    put("runtime.loop_busy",
        sum(s.cpu for s in plain) / sum(s.wall for s in plain), "ratio")
    put("erasure.corrected_share",
        tracer.decodes_with_byzantine / max(tracer.decodes, 1), "ratio")
    attributed = sum(st.values())
    cpu_per_op = raw_cpu * us / ops
    residual = cpu_per_op - attributed * us / ops
    put("cpu_us_per_op", cpu_per_op, "us")
    put("residual_us_per_op", residual, "us")
    traced_rate = ops / sum(s.scaled_wall for s in traced)
    plain_rate = (sum(s.completed for s in plain)
                  / sum(s.scaled_wall for s in plain))
    put("tracing_overhead", 1.0 - traced_rate / plain_rate, "ratio")

    # The reported layer figures plus the residual must account for the
    # whole CPU per op: a layer missing from the report would show here.
    reported = (sum(m[f"{layer}_us_per_op"]["value"]
                    for layer in PER_OP_LAYERS)
                + m["erasure.encode_us_per_write"]["value"] * writes / ops
                + m["erasure.decode_us_per_read"]["value"] * reads / ops)
    problems = []
    if abs(attributed - tracer.root_time) > 1e-6 * max(tracer.root_time, 1.0):
        problems.append(f"span self times sum to {attributed:.6f} s but "
                        f"root spans cover {tracer.root_time:.6f} s")
    if attributed > (1 + CPU_TOLERANCE) * raw_cpu:
        problems.append(f"attributed self time exceeds process CPU by "
                        f"{-residual:.1f} us/op")
    if abs(reported + residual - cpu_per_op) > 1e-6 * cpu_per_op:
        problems.append(f"reported layer self times ({reported:.1f} us/op) "
                        f"plus residual ({residual:.1f}) do not sum to the "
                        f"CPU per op ({cpu_per_op:.1f})")
    if spans_path is not None:
        tracer.write(spans_path, dict(header or {},
                                      self_time_s=st, calls=tracer.calls,
                                      spans=tracer.spans,
                                      traced_ops=ops))
    return LayerResult(m, problems)
