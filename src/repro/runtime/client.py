"""Asyncio client executing register operations against TCP server nodes.

The client is *self-healing*: each server has a supervisor task that pumps
replies while the connection is up and re-dials with exponential backoff
plus jitter while it is down (including servers that were unreachable when
:meth:`AsyncRegisterClient.connect` first ran).  When a connection comes
back mid-operation, the frames the in-flight operations already sent to
that server are re-sent -- safe, because every operation is an idempotent
quorum state machine keyed by ``op_id`` (duplicate requests produce
duplicate replies, which the reply filter already tolerates).

The client is also *multiplexed*: any number of operations may be in
flight at once over the same set of connections.  A per-client
:class:`~repro.runtime.dispatch.OpDispatcher` tables each operation's
state (pending frames, reply queue, span), routes every incoming reply
to the operation that owns it by ``op_id``, and admits new operations
through a FIFO gate capped at ``max_inflight``.  Outgoing frames from
all operations are coalesced per connection per event-loop tick into a
single burst plus one ``drain()``
(:class:`~repro.runtime.dispatch.BatchedConnection`).

One ordering rule remains: *writes by the same client to the same
register are serialized* (reads multiplex freely, and writes overlap
with reads and with other clients' writes).  Two overlapping writes by
one writer could query the same tag ceiling and commit two different
values under the same ``(num, writer)`` tag, which breaks the tag
uniqueness every algorithm here relies on -- the paper's executions are
well-formed (each process runs one operation at a time), and the write
lock is what preserves that assumption per register under multiplexing.
"""

from __future__ import annotations

import asyncio
import logging
import random
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.keys import key_error
from repro.core.namespace import DEFAULT_REGISTER, NamespacedOperation
from repro.core.messages import Throttled
from repro.sharding.ring import Placement
from repro.core.operation import ClientOperation
from repro.errors import AuthenticationError, ConfigurationError, LivenessError, ProtocolError
from repro.obs import (
    LogGate,
    MetricRegistry,
    OpTracer,
    SamplingSink,
    phase_name,
)
from repro.protocols import OpContext, get_spec, runtime_names
from repro.runtime.dispatch import BatchedConnection, OpDispatcher, OpState
from repro.transport.auth import Authenticator
from repro.transport.codec import FrameAssembler
from repro.transport.codec2 import CachedDecoder, CachedEncoder
from repro.types import ProcessId

logger = logging.getLogger(__name__)


#: Bytes pulled from a connection per read syscall in the reply pump.
READ_CHUNK = 64 * 1024

#: Per-key client-side caches (reader states, write locks) are LRU-bounded
#: at this many keys so a key-routed client scanning a large keyspace
#: stays within a fixed footprint.  Evicting a reader state just resets
#: that key's semi-fast hint (the next read behaves like a fresh
#: reader's); evicting an uncontended write lock is invisible.
MAX_KEY_STATES = 4096


def _expire(done: "asyncio.Future") -> None:
    """Deadline timer callback: time out an operation still in flight."""
    if not done.done():
        done.set_exception(TimeoutError())


class AsyncRegisterClient:
    """Execute reads/writes of one register over TCP.

    The client opens one connection per server (lazily, tolerating servers
    that are down -- the protocols only need ``n - f`` of them) and drives
    the same operation state machines the simulator uses.  With
    ``reconnect=True`` (the default) lost or never-established connections
    are re-dialed in the background with exponential backoff and jitter.
    Operations may be issued concurrently (``asyncio.gather`` of reads
    and writes on one client); ``max_inflight`` bounds how many execute
    at once, with excess operations queueing FIFO.

    Usage::

        client = AsyncRegisterClient("w000", addresses, f=1, auth=auth)
        await client.connect()
        await client.write(b"hello")
        values = await asyncio.gather(*[client.read() for _ in range(16)])
        print(client.stats())
        await client.close()
    """

    def __init__(self, client_id: ProcessId,
                 addresses: Dict[ProcessId, Tuple[str, int]], f: int,
                 auth: Authenticator, algorithm: str = "bsr",
                 timeout: float = 30.0, initial_value: bytes = b"",
                 namespaced: bool = False, reconnect: bool = True,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 drain_timeout: float = 1.0,
                 max_inflight: Optional[int] = None,
                 registry: Optional[MetricRegistry] = None,
                 trace_sink: Optional[Any] = None,
                 trace_sample: Optional[int] = None,
                 placement: Optional[Placement] = None) -> None:
        spec = get_spec(algorithm)
        if not spec.runtime_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} not supported by the asyncio "
                f"runtime; choose from {runtime_names()}"
            )
        self.spec = spec
        self.client_id = client_id
        self._encode = CachedEncoder()
        self.addresses = dict(addresses)
        self.servers: List[ProcessId] = sorted(self.addresses)
        self.f = f
        self.auth = auth
        self.algorithm = algorithm
        self.timeout = timeout
        self.initial_value = initial_value
        #: Key -> quorum-group resolver of a sharded keyspace.  When set,
        #: every operation is routed to its key's group (a subset of the
        #: connections) instead of the whole fleet; sharded deployments
        #: are namespaced by construction.
        self.placement = placement
        self.namespaced = namespaced or placement is not None
        self.reconnect = reconnect
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.drain_timeout = drain_timeout
        self.max_inflight = max_inflight
        self.reader_state = (spec.make_reader_state(initial_value)
                             if spec.make_reader_state is not None else None)
        self._register_states: "OrderedDict[str, Any]" = OrderedDict()
        self._codec = (spec.make_codec(
            placement.group_size if placement is not None
            else len(self.servers), f)
            if spec.make_codec is not None else None)
        self._connections: Dict[ProcessId, Tuple[asyncio.StreamReader,
                                                 asyncio.StreamWriter]] = {}
        self._senders: Dict[ProcessId, BatchedConnection] = {}
        self._supervisors: Dict[ProcessId, asyncio.Task] = {}
        self._dispatcher = OpDispatcher(max_inflight)
        #: Writes by this client are ordered per register (see module
        #: docstring); reads never touch these locks.
        self._write_locks: "OrderedDict[str, asyncio.Lock]" = OrderedDict()
        #: Per-group operation counters, resolved lazily per group tuple.
        self._group_counters: Dict[Tuple[ProcessId, ...], Any] = {}
        #: Background throttle-backoff tasks (rare; cancelled on close).
        self._throttle_tasks: set = set()
        self._closing = False
        self.registry = registry if registry is not None else MetricRegistry()
        client = str(client_id)
        #: Resilience counters, pre-created so :meth:`stats` always shows
        #: every key.  Labeled per client; the op/phase histograms fed by
        #: the tracer are *not*, so clients sharing a registry (a soak
        #: run) aggregate naturally.
        self._counters = {
            name: self.registry.counter(f"client_{name}_total", client=client)
            for name in ("connects", "reconnects", "disconnects",
                         "frames_dropped", "frames_resent", "ops_retried",
                         "throttled", "drain_timeouts", "drain_failures",
                         "ops_queued", "replies_stale", "send_batches",
                         "connections_pruned")
        }
        #: Servers :meth:`connect` skipped because no declared key routes
        #: to them (group-local pruning).  An operation that does route
        #: to one lazily un-prunes it -- see :meth:`_servers_for`.
        self._pruned: set = set()
        if trace_sink is not None and trace_sample is not None:
            # Deterministic 1-in-N span sampling, aligned with the
            # server-side flight recorders (same op_id modulus) so every
            # sampled operation can be stitched end-to-end.
            trace_sink = SamplingSink(trace_sink, trace_sample)
        self._tracer = OpTracer(self.registry, sink=trace_sink,
                                client_id=client, algorithm=algorithm)
        self._log = LogGate(logger, self.registry,
                            component=f"client/{client}")

    # -- connection management ----------------------------------------------
    async def connect(self, keys: Optional[Sequence[str]] = None) -> int:
        """Open connections to every reachable server; returns the count.

        Servers that are down are not fatal: with ``reconnect`` enabled a
        background supervisor keeps re-dialing them, so a server that
        comes up later joins the quorum without another ``connect`` call.

        ``keys`` enables *group-local pruning* on a key-routed client:
        only servers appearing in at least one of the given keys'
        placement groups are dialed, the rest are skipped and counted as
        ``connections_pruned``.  Pruning is advisory, not a fence -- an
        operation on a key that routes to a pruned server lazily dials it
        through the reconnect supervisor, so a session whose working set
        drifts past its declared keys stays live (it just pays one dial).
        """
        allowed = None
        if keys is not None:
            if self.placement is None:
                raise ConfigurationError(
                    "connect(keys=...) requires a key-routed client "
                    "(placement is not configured)")
            allowed = set()
            for key in keys:
                allowed.update(self.placement.servers_for(key))
        for pid in self.servers:
            if pid in self._connections:
                continue
            if allowed is not None and pid not in allowed:
                if pid not in self._pruned:
                    self._pruned.add(pid)
                    self._counters["connections_pruned"].inc()
                continue
            self._pruned.discard(pid)
            if await self._dial(pid):
                self._counters["connects"].inc()
            elif not self.reconnect:
                continue
            self._ensure_supervisor(pid)
        return len(self._connections)

    async def close(self) -> None:
        """Tear down all connections and supervisor tasks."""
        self._closing = True
        for task in list(self._throttle_tasks):
            task.cancel()
        self._throttle_tasks.clear()
        for task in self._supervisors.values():
            task.cancel()
        for task in self._supervisors.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):  # pragma: no cover
                pass
        self._supervisors.clear()
        for sender in self._senders.values():
            sender.close()
        self._senders.clear()
        for _, writer in self._connections.values():
            writer.close()
        for _, writer in list(self._connections.values()):
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        self._connections.clear()

    def stats(self) -> Dict[str, int]:
        """Resilience counters: reconnects, disconnects, frames dropped /
        resent, operations retried / queued at the admission gate,
        throttle backoffs, drain timeouts, stale replies dropped, live
        connections and in-flight operations.  A compatibility view over
        :attr:`registry`."""
        stats = {name: int(counter.value)
                 for name, counter in self._counters.items()}
        stats["connected"] = len(self._connections)
        stats["inflight"] = self._dispatcher.inflight
        return stats

    async def _dial(self, pid: ProcessId) -> bool:
        if pid in self._connections:
            return True
        host, port = self.addresses[pid]
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            logger.debug("client %s cannot reach %s: %s",
                         self.client_id, pid, exc)
            return False
        self._connections[pid] = (reader, writer)
        self._senders[pid] = BatchedConnection(
            pid, writer, self.drain_timeout,
            on_drain_timeout=self._counters["drain_timeouts"].inc,
            on_failure=self._on_send_failure,
            on_batch=self._note_batch,
            sealer=self._seal_burst,
        )
        return True

    def _seal_burst(self, payloads) -> list:
        """Seal one tick's payloads under one HMAC per envelope."""
        return self.auth.seal_frames(self.client_id, payloads)

    def _note_batch(self, frames: int) -> None:
        self._counters["send_batches"].inc()

    def _on_send_failure(self, pid: ProcessId) -> None:
        self._counters["drain_failures"].inc()
        self._drop_connection(pid)

    def _drop_connection(self, pid: ProcessId) -> None:
        sender = self._senders.pop(pid, None)
        if sender is not None:
            sender.close()
        connection = self._connections.pop(pid, None)
        if connection is not None:
            connection[1].close()

    def _ensure_supervisor(self, pid: ProcessId) -> None:
        task = self._supervisors.get(pid)
        if task is None or task.done():
            self._supervisors[pid] = asyncio.ensure_future(
                self._supervise(pid))

    async def _supervise(self, pid: ProcessId) -> None:
        """Pump replies while connected; re-dial with backoff while not."""
        attempt = 0
        while not self._closing:
            connection = self._connections.get(pid)
            if connection is None:
                if not self.reconnect:
                    return
                delay = min(self.backoff_max,
                            self.backoff_base * (2 ** min(attempt, 16)))
                # Full jitter keeps a fleet of clients from re-dialing a
                # freshly restarted server in lockstep.
                await asyncio.sleep(delay * (0.5 + random.random()))
                if self._closing:
                    return
                if not await self._dial(pid):
                    attempt += 1
                    continue
                attempt = 0
                self._counters["reconnects"].inc()
                await self._resend_pending(pid)
                connection = self._connections.get(pid)
                if connection is None:
                    continue
            await self._pump_replies(pid, connection[0])
            if self._closing:
                return
            self._drop_connection(pid)
            self._counters["disconnects"].inc()

    async def _pump_replies(self, pid: ProcessId,
                            reader: asyncio.StreamReader) -> None:
        """Route verified frames to their owning ops until the link dies.

        Frames are batch-decoded: one read syscall may carry replies to
        several operations.  Every payload is decoded in full, then
        routed by ``op_id`` through the dispatcher.  Replies owned by no
        in-flight operation (late answers and ``Throttled`` frames of
        finished ops) are dropped and counted as ``replies_stale``;
        surplus replies past an operation's quorum are skipped.
        Connection loss returns (it never poisons any op's queue): the
        supervisor decides whether to re-dial.
        """
        assembler = FrameAssembler()
        loop = asyncio.get_running_loop()
        stale = self._counters["replies_stale"]
        decode = CachedDecoder()
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    return
                now = loop.time()
                for frame in assembler.feed(data):
                    try:
                        sender, payloads = self.auth.open_any(frame)
                    except (AuthenticationError, ProtocolError) as exc:
                        self._counters["frames_dropped"].inc()
                        self._log.warning(
                            "bad-frame", "client %s dropping bad frame from "
                            "%s: %s", self.client_id, pid, exc)
                        continue
                    if sender != pid:
                        # A Byzantine server cannot speak for another
                        # server: the signature pins the sender.
                        self._counters["frames_dropped"].inc()
                        self._log.warning(
                            "wrong-sender", "client %s: connection to %s "
                            "delivered a frame signed by %s; dropping",
                            self.client_id, pid, sender)
                        continue
                    for payload in payloads:
                        try:
                            message = decode(payload)
                        except ProtocolError as exc:
                            self._counters["frames_dropped"].inc()
                            self._log.warning(
                                "bad-frame", "client %s dropping bad payload "
                                "from %s: %s", self.client_id, pid, exc)
                            continue
                        if not self._dispatch_reply(sender, message, now):
                            stale.inc()
        except ProtocolError as exc:
            # Oversized frame: treat the stream as poisoned and let the
            # supervisor re-dial from a clean slate.
            self._counters["frames_dropped"].inc()
            self._log.warning("bad-frame", "client %s resetting link to %s: "
                              "%s", self.client_id, pid, exc)
            return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, OSError, asyncio.CancelledError):
            return

    # -- operations -------------------------------------------------------------
    async def _resend_pending(self, pid: ProcessId,
                              only_type: Optional[str] = None,
                              states: Optional[List[OpState]] = None) -> None:
        """Replay in-flight frames to ``pid``.

        By default every in-flight operation's frames for that server
        are replayed (the reconnect path -- a healed link can still
        serve all of them).  ``states`` narrows the replay to specific
        operations (the throttle path replays only the op that owns the
        shed frame), and ``only_type`` to frames of one message type
        (the server names the frame it shed, and replaying anything more
        would spend the refilled token on an already-delivered frame).
        """
        sender_conn = self._senders.get(pid)
        if sender_conn is None:
            return
        if states is None:
            states = self._dispatcher.states()
        flushes = []
        resent = 0
        for state in states:
            frames = state.pending_frames(pid, only_type)
            if not frames:
                continue
            for payload in frames:
                flushes.append(sender_conn.send(payload))
            resent += len(frames)
            if state.span is not None:
                state.span.note_resend(len(frames))
            state.retried = True
        if not flushes:
            return
        for flush in flushes:
            if not flush.done():
                await flush
        self._counters["frames_resent"].inc(resent)

    async def _send(self, state: OpState, envelopes) -> None:
        """Encode and enqueue one operation's outgoing envelopes.

        Payloads are recorded in the op's pending map first (so a link
        that heals mid-operation can be served by replay), then handed
        to the per-connection batch writers, which seal each burst at
        flush time -- one HMAC covers the whole tick's frames on the v2
        wire.  Payloads are destination-agnostic, so one broadcast
        message (a query round sends the same object to every server)
        is encoded exactly once.  Awaiting the flush futures applies
        backpressure -- every reachable connection's burst is written
        and drained (bounded by ``drain_timeout``, adaptively shortened
        on chronically stalled links) before the operation proceeds.
        """
        flushes = []
        encoded_cache: Dict[int, tuple] = {}
        for dest, message in envelopes:
            entry = encoded_cache.get(id(message))
            if entry is None:
                entry = (type(message).__name__, self._encode(message))
                encoded_cache[id(message)] = entry
            state.pending.setdefault(dest, []).append(entry)
            sender_conn = self._senders.get(dest)
            if sender_conn is None:
                continue  # down right now; resent if the link heals in time
            flushes.append(sender_conn.send(entry[1]))
        # The futures are per-connection burst futures (frames enqueued
        # in the same tick share one), so this is a handful of awaits at
        # most -- cheaper than a gather, and later futures are usually
        # already done by the time the first one resolves.
        for flush in flushes:
            if not flush.done():
                await flush

    def _send_nowait(self, state: OpState, envelopes) -> None:
        """Like :meth:`_send` without awaiting the flush futures.

        Used for follow-up rounds sent from the reply pump, where
        blocking on a drain would stall every connection's reply
        processing; the op's liveness is bounded by its deadline either
        way, and the flush happens on the next loop tick regardless.
        """
        encoded_cache: Dict[int, tuple] = {}
        senders = self._senders
        pending = state.pending
        for dest, message in envelopes:
            entry = encoded_cache.get(id(message))
            if entry is None:
                entry = (type(message).__name__, self._encode(message))
                encoded_cache[id(message)] = entry
            pending.setdefault(dest, []).append(entry)
            sender_conn = senders.get(dest)
            if sender_conn is not None:
                sender_conn.send(entry[1])

    def _dispatch_reply(self, sender: ProcessId, message: Any,
                        now: float) -> bool:
        """Run one verified reply through its owning operation, inline.

        Called from the reply pump: the whole chunk's replies are
        processed in a single task step, and each waiting operation is
        woken exactly once -- when its ``done`` future resolves -- rather
        than once per reply through a queue.  Returns ``False`` for
        replies owned by no in-flight operation.
        """
        state = self._dispatcher.lookup(getattr(message, "op_id", None))
        if state is None:
            return False
        operation = state.operation
        if operation.done:
            return True  # surplus reply past the quorum; already decided
        if type(message) is Throttled:
            # The server shed one of this op's frames (rate limit).
            # Backing off means sleeping, which must not stall the pump;
            # a short-lived task handles the pause + replay (rare path).
            task = asyncio.ensure_future(
                self._handle_throttle(state, sender, message))
            self._throttle_tasks.add(task)
            task.add_done_callback(self._throttle_tasks.discard)
            return True
        span = state.span
        # Attribute the reply to the phase that solicited it (before
        # on_reply may advance the round).
        span.record_reply(str(sender), now)
        try:
            envelopes = operation.on_reply(sender, message)
        except Exception as exc:  # surface protocol bugs to the caller
            if state.done is not None and not state.done.done():
                state.done.set_exception(exc)
            return True
        if operation.rounds != state.rounds and not operation.done:
            state.rounds = operation.rounds
            span.begin_phase(
                phase_name(operation.kind, state.rounds, self.algorithm),
                now)
        if envelopes:
            self._send_nowait(state, envelopes)
        if operation.done and state.done is not None and not state.done.done():
            state.done.set_result(None)
        return True

    async def _handle_throttle(self, state: OpState, sender: ProcessId,
                               message: Throttled) -> None:
        """Back off for the server's estimate, then replay the shed frame.

        Only this operation is affected; the pause is bounded by the
        op's deadline.  The op may finish (or time out) while we sleep,
        in which case the replay is skipped.
        """
        if self._dispatcher.lookup(state.op_id) is not state:
            return
        self._counters["throttled"].inc()
        if state.span is not None:
            state.span.note_throttle()
        loop = asyncio.get_running_loop()
        pause = min(max(message.retry_after, self.backoff_base),
                    self.backoff_max,
                    max(state.deadline - loop.time(), 0.0))
        if pause > 0:
            await asyncio.sleep(pause)
        if self._dispatcher.lookup(state.op_id) is not state:
            return
        await self._resend_pending(sender, only_type=message.dropped or None,
                                   states=[state])

    async def _run_operation(self, operation: ClientOperation,
                             servers: Optional[Sequence[ProcessId]] = None
                             ) -> Any:
        loop = asyncio.get_running_loop()
        if await self._dispatcher.gate.acquire():
            self._counters["ops_queued"].inc()
        state = self._dispatcher.register(operation)
        quorum_pool = len(servers) if servers is not None else len(self.servers)
        span = self._tracer.start(
            kind=operation.kind, op_id=operation.op_id, witness=self.f + 1,
            quorum=quorum_pool - self.f, now=loop.time())
        state.span = span
        outcome = "error"
        try:
            # The phase opens before its frames go out, so send/drain time
            # counts toward the phase that caused it.
            span.begin_phase(phase_name(operation.kind, 1, self.algorithm),
                             loop.time())
            deadline = loop.time() + self.timeout
            state.deadline = deadline
            state.done = loop.create_future()
            try:
                # One timer bounds the whole operation (liveness needs
                # n - f live servers).  Replies are processed inline by
                # the pump (see _dispatch_reply); this task only sends
                # the opening round and sleeps until the op decides.
                # The timer is a bare ``call_at`` poking the same done
                # future the pump resolves -- ``asyncio.timeout_at``
                # buys nothing here but two extra coroutines per op.
                envelopes = operation.start()
                state.rounds = operation.rounds or 1
                # No flush await: the burst is written on the next
                # loop tick either way, and the op blocks on its
                # replies (which cannot arrive before the write).
                self._send_nowait(state, envelopes)
                if not operation.done:
                    timer = loop.call_at(deadline, _expire, state.done)
                    try:
                        await state.done
                    finally:
                        timer.cancel()
            except TimeoutError:
                outcome = "timeout"
                raise LivenessError(
                    f"{operation.kind} by {self.client_id} did not complete "
                    f"within {self.timeout}s (are n - f servers up?)"
                )
            if span.throttles:
                outcome = "throttled"
            elif state.retried:
                outcome = "retried"
            else:
                outcome = "ok"
            return operation.result
        finally:
            span.finish(outcome, loop.time())
            self._dispatcher.unregister(state)
            self._dispatcher.gate.release()
            if state.retried:
                self._counters["ops_retried"].inc()

    def _reader_state_for(self, register: str) -> Any:
        if self.spec.make_reader_state is None:
            return None
        if not self.namespaced:
            return self.reader_state
        state = self._register_states.get(register)
        if state is None:
            state = self._register_states[register] = (
                self.spec.make_reader_state(self.initial_value))
            if len(self._register_states) > MAX_KEY_STATES:
                self._register_states.popitem(last=False)
        else:
            self._register_states.move_to_end(register)
        return state

    def _maybe_namespace(self, operation: ClientOperation, register: str):
        if self.namespaced:
            return NamespacedOperation(register, operation)
        return operation

    def _write_lock_for(self, register: str) -> asyncio.Lock:
        lock = self._write_locks.get(register)
        if lock is None:
            lock = self._write_locks[register] = asyncio.Lock()
            if len(self._write_locks) > MAX_KEY_STATES:
                # Only shed idle locks: evicting one that is held (or
                # awaited) would let two writes to its key overlap.
                for key in list(self._write_locks):
                    if len(self._write_locks) <= MAX_KEY_STATES:
                        break
                    candidate = self._write_locks[key]
                    if candidate is not lock and not candidate.locked():
                        del self._write_locks[key]
        else:
            self._write_locks.move_to_end(register)
        return lock

    def _servers_for(self, register: str) -> List[ProcessId]:
        """The servers an operation on ``register`` talks to.

        Key-routed clients resolve the key's quorum group through the
        placement (and count the op per group); plain clients always use
        the whole fleet.  Namespaced keys are validated here, client
        side, so a typo fails fast instead of timing out against servers
        that silently drop the invalid name.
        """
        if self.placement is not None:
            group = self.placement.servers_for(register)
            if self._pruned:
                # The working set drifted past the keys declared at
                # connect time: re-admit this group's pruned servers.
                # The supervisor dials in the background and replays
                # this op's pending frames once the link is up.
                for pid in group:
                    if pid in self._pruned:
                        self._pruned.discard(pid)
                        self._ensure_supervisor(pid)
            counter = self._group_counters.get(group)
            if counter is None:
                counter = self._group_counters[group] = self.registry.counter(
                    "client_group_ops_total", client=str(self.client_id),
                    group=self.placement.group_label(group))
            counter.inc()
            return list(group)
        if self.namespaced:
            reason = key_error(register)
            if reason is not None:
                raise ConfigurationError(
                    f"invalid register name {register!r}: {reason}")
        return self.servers

    async def write(self, value: Any,
                    register: str = DEFAULT_REGISTER) -> Any:
        """Write ``value``; returns the tag the write committed under.

        ``register`` selects the named register on namespaced clusters
        and, on key-routed clients, the quorum group the write is placed
        on.  Concurrent writes by this client to the same register are
        executed in turn (see the module docstring); they still overlap
        freely with this client's reads and with other clients.
        """
        servers, f = self._servers_for(register), self.f
        async with self._write_lock_for(register):
            operation = self.spec.make_write(OpContext(
                client_id=self.client_id, servers=tuple(servers), f=f,
                value=value, initial_value=self.initial_value,
                codec=self._codec))
            return await self._run_operation(
                self._maybe_namespace(operation, register), servers=servers)

    async def read(self, register: str = DEFAULT_REGISTER) -> Any:
        """Read the register; returns the value.

        ``register`` selects the named register on namespaced clusters
        (the key's quorum group on key-routed clients).  Reads multiplex
        freely: any number may be in flight at once (subject to
        ``max_inflight``).
        """
        servers, f = self._servers_for(register), self.f
        operation = self.spec.make_read(OpContext(
            client_id=self.client_id, servers=tuple(servers), f=f,
            initial_value=self.initial_value,
            reader_state=self._reader_state_for(register),
            codec=self._codec))
        return await self._run_operation(
            self._maybe_namespace(operation, register), servers=servers)
