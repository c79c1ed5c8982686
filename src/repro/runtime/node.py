"""A TCP server node hosting one register-server state machine."""

from __future__ import annotations

import asyncio
import logging
import os
import random
import time
from collections import OrderedDict, deque
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.messages import (
    HealthAck,
    HealthPing,
    StatsAck,
    StatsPing,
    Throttled,
    TraceAck,
    TraceDump,
)
from repro.errors import AuthenticationError, ProtocolError
from repro.obs import PHASE_BY_MESSAGE, FlightRecorder, LogGate, MetricRegistry
from repro.runtime.limits import PerClientBuckets
from repro.transport.auth import Authenticator
from repro.transport.codec import FrameAssembler, write_frames
from repro.transport.codec2 import CachedDecoder, CachedEncoder
from repro.types import ProcessId

logger = logging.getLogger(__name__)

#: How many recent ``(sender, op_id, type)`` triples a node remembers to
#: recognize re-sent frames (client retries after reconnect/throttle).
RETRY_WINDOW = 2048

#: Bytes pulled from a connection per read syscall in the frame loop.
READ_CHUNK = 64 * 1024

#: Outbound payloads queued per peer link before the oldest are shed.
#: Broadcast protocols tolerate message loss (that is their point), so
#: shedding under a long partition beats unbounded buffering.
PEER_QUEUE_LIMIT = 4096

#: Encoded payloads parked for parties with no live connection.  Entries
#: flush when the party next sends a frame; the cap bounds what a fleet
#: of vanished clients can pin in memory.
UNDELIVERED_LIMIT = 1024


class _PeerLink:
    """A lazily-dialed, self-healing outbound stream to one peer server.

    Broadcast-based protocols (``rb``, ``rb2``, ``mpr``) emit envelopes
    addressed to other *servers*.  Each such destination gets one of
    these: payloads queue here, a background task dials the peer on
    first use, seals queued payloads with the node's own identity and
    writes them as batched frames.  A dead peer costs nothing but the
    queue -- the task backs off, redials, and requeues what a broken
    pipe may have lost, which is exactly the fair-lossy-link model the
    protocols are built for (delivery is at-least-once attempted, never
    guaranteed).
    """

    def __init__(self, node: "RegisterServerNode", peer_id: ProcessId) -> None:
        self.node = node
        self.peer_id = peer_id
        self.queue: deque = deque()
        self.closed = False
        self._task: Optional[asyncio.Task] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    def send(self, payload: bytes) -> None:
        """Queue one encoded payload; spawns the sender task if idle."""
        if self.closed:
            return
        self.queue.append(payload)
        while len(self.queue) > PEER_QUEUE_LIMIT:
            self.queue.popleft()
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._wakeup.set()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        backoff = 0.05
        while not self.closed:
            if not self.queue:
                self._wakeup.clear()
                if self.queue:  # raced with a send()
                    continue
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=30.0)
                except asyncio.TimeoutError:
                    if not self.queue:
                        return  # idle link; send() respawns the task
                continue
            if self._writer is None:
                host, port = self.node._peers[self.peer_id]
                try:
                    reader, self._writer = await asyncio.open_connection(
                        host, port)
                    # Peers never write back on this link (server traffic
                    # flows over each side's own outbound link), but the
                    # read side must be consumed for close detection.
                    asyncio.get_running_loop().create_task(
                        self._drain_reader(reader))
                    backoff = 0.05
                except OSError:
                    await asyncio.sleep(backoff * (1.0 + random.random()))
                    backoff = min(backoff * 2, 1.0)
                    continue
            batch = []
            while self.queue and len(batch) < 64:
                batch.append(self.queue.popleft())
            try:
                write_frames(self._writer, self.node.auth.seal_frames(
                    self.node.server_id, batch))
                await self._writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                # The peer crashed mid-flight; requeue this batch (what
                # reached the socket may be lost -- the protocols absorb
                # both loss and duplication) and redial after a pause.
                self.queue.extendleft(reversed(batch))
                self._close_writer()
                await asyncio.sleep(backoff * (1.0 + random.random()))
                backoff = min(backoff * 2, 1.0)

    async def _drain_reader(self, reader: asyncio.StreamReader) -> None:
        try:
            while await reader.read(READ_CHUNK):
                pass
        except (ConnectionResetError, OSError):
            pass

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:  # pragma: no cover - teardown races
                pass
            self._writer = None

    async def close(self) -> None:
        self.closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None
        self._close_writer()


class RegisterServerNode:
    """Host a server protocol (``handle(sender, msg) -> envelopes``) on TCP.

    Each inbound connection carries sealed frames; replies addressed to the
    requesting client go back over the same connection.  Envelopes addressed
    elsewhere are routed: to the node itself (a broadcast protocol counting
    its own echo) they loop back through the protocol in place; to a peer
    server (see :meth:`set_peers`) they go out over a dedicated
    :class:`_PeerLink`; to any other party with a live inbound connection
    they are written directly; and otherwise they are parked in a bounded
    stash flushed when that party next sends a frame (a reader whose relay
    raced ahead of its own request).  Only with no peers configured and no
    route at all is an envelope dropped with a warning.

    A ``behavior`` may be supplied to make the node Byzantine: it receives
    the same hooks as in the simulator.

    The node is restartable: :meth:`stop` closes the listener *and* every
    live connection (a crash severs established links too), and a
    subsequent :meth:`start` rebinds the same port and restores state from
    the snapshot, which is how the chaos nemesis models crash-recovery.

    Flow control (both optional): ``max_connections`` caps concurrent
    connections -- excess dials are closed immediately, pushing the
    client into its reconnect backoff -- and ``rate_limit`` applies a
    per-authenticated-client token bucket (``rate_limit`` frames/second,
    ``rate_burst`` tokens deep); frames over budget are shed with a
    :class:`~repro.core.messages.Throttled` reply instead of being
    buffered.  :class:`~repro.core.messages.HealthPing` and
    :class:`~repro.core.messages.StatsPing` frames are answered by the
    node itself (before the protocol, exempt from rate limiting) so
    supervisors can probe readiness -- and scrapers can pull metrics --
    of any algorithm.

    Observability: every event lands in a
    :class:`~repro.obs.MetricRegistry` (pass a shared one, or the node
    creates its own), including a per-phase service-time histogram
    (``node_phase_seconds{phase="get-tag"|"put-data"|"get-data",...}``)
    keyed by the protocol round each inbound frame belongs to.  The
    legacy :attr:`stats` mapping remains as a read-only compatibility
    view over the registry.
    """

    def __init__(self, server_id: ProcessId, protocol: Any,
                 authenticator: Authenticator, host: str = "127.0.0.1",
                 port: int = 0, behavior: Optional[Any] = None,
                 snapshot_path: Optional[str] = None,
                 max_connections: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 registry: Optional[MetricRegistry] = None,
                 flight: Optional[FlightRecorder] = None,
                 flight_sample: int = 64,
                 flight_capacity: int = 1024) -> None:
        self.server_id = server_id
        self.protocol = protocol
        self.auth = authenticator
        self.host = host
        self.port = port
        self.behavior = behavior
        # Stateless calls of the plain v2 codec; they are objects only
        # so the benchmark's traced run can wrap them as transport layers.
        self._encode = CachedEncoder()
        self._decode = CachedDecoder()
        #: When set, the node checkpoints its state here after every
        #: mutation and restores from it on start (crash recovery).
        self.snapshot_path = snapshot_path
        self.max_connections = max_connections
        self.rate_limit = rate_limit
        self._buckets = (PerClientBuckets(rate_limit, rate_burst)
                         if rate_limit is not None else None)
        self.registry = registry if registry is not None else MetricRegistry()
        #: Server-side span records for causal trace stitching.  Sampling
        #: is deterministic by op_id, matching the client's SamplingSink;
        #: ``flight_sample=0`` turns recording off entirely.
        if flight is not None:
            self.flight: Optional[FlightRecorder] = flight
        elif flight_sample > 0:
            self.flight = FlightRecorder(node_id=str(server_id),
                                         capacity=flight_capacity,
                                         sample=flight_sample)
        else:
            self.flight = None
        node = str(server_id)
        self._counters = {
            name: self.registry.counter(f"node_{name}_total", node=node)
            for name in ("frames", "frames_bad", "frames_retried",
                         "frames_throttled", "connections_refused",
                         "health_pings", "stats_pings", "trace_dumps",
                         "wire_frames", "reply_batches")
        }
        self._connections_gauge = self.registry.gauge(
            "node_connections", node=node)
        #: phase name -> pre-resolved ``node_phase_seconds`` histogram,
        #: filled lazily; saves a registry lock + label sort per message.
        self._phase_hists: Dict[str, Any] = {}
        #: message class -> that histogram directly (classes map to one
        #: phase, except namespaced wrappers, which resolve per inner).
        self._hist_by_cls: Dict[type, Any] = {}
        #: Hot-path counters pulled out of the dict (one lookup saved
        #: per inbound message).
        self._c_frames = self._counters["frames"]
        self._c_frames_bad = self._counters["frames_bad"]
        self._c_wire_frames = self._counters["wire_frames"]
        self._c_frames_retried = self._counters["frames_retried"]
        self._log = LogGate(logger, self.registry, component=f"node/{node}")
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._checkpoint_lock: Optional[asyncio.Lock] = None
        self._checkpoint_seq = 0
        self._checkpoint_written = 0
        self._last_snapshot_at: Optional[float] = None
        #: Recently served ``(sender, op_id, type)`` triples, newest last.
        self._recent_frames: "OrderedDict[tuple, None]" = OrderedDict()
        #: Peer server id -> (host, port); set via :meth:`set_peers` for
        #: protocols whose servers talk to each other.
        self._peers: Dict[ProcessId, Tuple[str, int]] = {}
        self._peer_links: Dict[ProcessId, _PeerLink] = {}
        #: Authenticated sender -> the writer of its latest connection,
        #: for pushing server-initiated envelopes (relays, late acks).
        self._parties: Dict[ProcessId, asyncio.StreamWriter] = {}
        #: dest -> encoded payloads with no current route, newest dest
        #: last; flushed into the reply batch when the party next writes.
        self._undelivered: "OrderedDict[ProcessId, list]" = OrderedDict()
        self._undelivered_count = 0

    def set_peers(self, addresses: Dict[ProcessId, Tuple[str, int]]) -> None:
        """Tell the node where its fellow servers listen.

        Required for broadcast-based protocols (``spec.peer_links``):
        envelopes the protocol addresses to these ids are delivered over
        lazily-dialed outbound links instead of being dropped.  Peer
        senders are also exempted from per-client rate limiting --
        server-to-server echo storms are the protocol, not abuse.
        """
        self._peers = {pid: addr for pid, addr in addresses.items()
                       if pid != self.server_id}

    @property
    def stats(self) -> Dict[str, int]:
        """Compatibility view: the registry counters as a plain mapping."""
        return {name: int(counter.value)
                for name, counter in self._counters.items()}

    def _restore_from_snapshot(self) -> None:
        if self.snapshot_path is None or not os.path.exists(self.snapshot_path):
            return
        from repro.core.persistence import restore_server
        with open(self.snapshot_path, "rb") as fh:
            restored = restore_server(
                fh.read(), codec=getattr(self.protocol, "codec", None))
        # Keep the live object (the cluster may hold references); adopt the
        # durable history in place.
        self.protocol.history = restored.history
        logger.info("server %s restored %d history entries from %s",
                    self.server_id, len(restored.history), self.snapshot_path)

    async def _checkpoint(self) -> None:
        """Write a snapshot without stalling the event loop.

        Serialization happens on the loop (a consistent view of the
        protocol state between awaits); the file write and atomic rename
        are offloaded to a thread.  Writes are ordered by a lock, and a
        write is skipped when a newer snapshot already reached disk while
        it waited (coalescing under bursts of mutations).
        """
        if self.snapshot_path is None:
            return
        from repro.core.persistence import snapshot_server
        data = snapshot_server(self.protocol)
        self._checkpoint_seq += 1
        seq = self._checkpoint_seq
        if self._checkpoint_lock is None:
            self._checkpoint_lock = asyncio.Lock()
        async with self._checkpoint_lock:
            if seq <= self._checkpoint_written:
                return  # a newer snapshot is already durable
            await asyncio.to_thread(self._write_snapshot, data)
            self._checkpoint_written = seq

    def _write_snapshot(self, data: bytes) -> None:
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, self.snapshot_path)  # atomic on POSIX
        self._last_snapshot_at = time.monotonic()

    def snapshot_age(self) -> float:
        """Seconds since the last durable checkpoint (-1 when none)."""
        if self._last_snapshot_at is None:
            return -1.0
        return time.monotonic() - self._last_snapshot_at

    async def start(self) -> None:
        """Bind the listener; ``self.port`` is filled in when it was 0."""
        self._restore_from_snapshot()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("server %s listening on %s:%d", self.server_id, self.host, self.port)

    async def stop(self) -> None:
        """Close the listener and every live connection (crash semantics)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.close()
        for link in list(self._peer_links.values()):
            await link.close()
        self._peer_links.clear()
        self._parties.clear()
        self._undelivered.clear()
        if self._checkpoint_lock is not None:
            # Let an in-flight snapshot write finish so a restart does not
            # race a stale file replacing a newer one.
            async with self._checkpoint_lock:
                pass

    @property
    def address(self) -> tuple:
        """``(host, port)`` of the bound listener."""
        return (self.host, self.port)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        if (self.max_connections is not None
                and len(self._conn_writers) >= self.max_connections):
            # Shed the connection outright: the dialling client's backoff
            # spreads the retry, which is the point of the cap.
            self._counters["connections_refused"].inc()
            self._log.warning(
                "conn-cap", "server %s refusing connection (cap %d reached)",
                self.server_id, self.max_connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            return
        self._conn_writers.add(writer)
        self._connections_gauge.set(len(self._conn_writers))
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            # Listener shut down while this connection was idle; wind down
            # quietly rather than spamming the event loop's exception hook.
            pass
        finally:
            self._conn_writers.discard(writer)
            self._connections_gauge.set(len(self._conn_writers))
            for pid, w in list(self._parties.items()):
                if w is writer:
                    del self._parties[pid]
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError):  # pragma: no cover - teardown races
                pass

    def _note_repeat(self, sender: ProcessId, message: Any) -> bool:
        """Count frames the node has already seen (client re-sends).

        Returns whether this frame was a repeat, so the flight recorder
        can tag re-served operations in stitched timelines.
        """
        key = (sender, message.op_id, type(message))
        recent = self._recent_frames
        if key in recent:
            recent.move_to_end(key)
            self._c_frames_retried.inc()
            return True
        recent[key] = None
        if len(recent) > RETRY_WINDOW:
            recent.popitem(last=False)
        return False

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """Serve one connection: batch-decode frames, batch-flush replies.

        One read syscall may deliver several consecutive frames (a
        multiplexed client coalesces its writes into bursts), and one
        *frame* may carry a whole sealed burst of messages.  Every
        message in the chunk is processed back to back; the chunk's
        replies go out sealed together (a single HMAC covers them all),
        under a single write and a single ``drain()``.
        """
        loop = asyncio.get_running_loop()
        assembler = FrameAssembler()
        while True:
            try:
                data = await reader.read(READ_CHUNK)
            except (ConnectionResetError, OSError):
                return
            if not data:
                return
            try:
                frames = assembler.feed(data)
            except ProtocolError as exc:
                # Oversized frame: past this point the stream cannot be
                # re-synchronized, so the connection is dropped.
                self._counters["frames_bad"].inc()
                self._log.warning("bad-frame", "server %s closing "
                                  "connection: %s", self.server_id, exc)
                return
            # One chunk-receipt instant for every frame in the burst:
            # a frame's queue wait is the time it spent behind earlier
            # messages of the same chunk before its handler ran.
            received = loop.time()
            replies: list = []
            needs_checkpoint = False
            for frame in frames:
                self._c_wire_frames.inc()
                if self._serve_frame(frame, replies, loop, received, writer):
                    needs_checkpoint = True
            if needs_checkpoint:
                # One durable snapshot per chunk (the checkpoint path
                # coalesces anyway), taken *before* any ack goes out so
                # acknowledged state is always recoverable.
                await self._checkpoint()
            if replies:
                if len(replies) > 1:
                    self._counters["reply_batches"].inc()
                write_frames(writer, self.auth.seal_frames(
                    self.server_id, replies))
                try:
                    await writer.drain()
                except (ConnectionResetError, OSError):
                    return

    def _serve_frame(self, frame, replies: list,
                     loop: asyncio.AbstractEventLoop,
                     received: Optional[float] = None,
                     writer: Optional[asyncio.StreamWriter] = None) -> bool:
        """Verify one wire frame and serve every message it carries.

        Encoded reply payloads are appended to ``replies``; the
        connection loop seals and flushes them once per decoded chunk.
        Returns whether any message mutated durable state (the caller
        checkpoints before flushing the acks).
        """
        try:
            sender, payloads = self.auth.open_any(frame)
        except (AuthenticationError, ProtocolError) as exc:
            self._c_frames_bad.inc()
            self._log.warning("bad-frame", "server %s dropping bad "
                              "frame: %s", self.server_id, exc)
            return False
        if writer is not None:
            # Remember where this authenticated party lives so pushed
            # envelopes (relays to waiting readers, acks whose trigger
            # arrived via a peer first) can reach it, and flush anything
            # parked for it while it had no route.
            self._parties[sender] = writer
            parked = self._undelivered.pop(sender, None)
            if parked:
                self._undelivered_count -= len(parked)
                replies.extend(parked)
        needs_checkpoint = False
        for payload in payloads:
            try:
                message = self._decode(payload)
            except ProtocolError as exc:
                self._c_frames_bad.inc()
                self._log.warning("bad-frame", "server %s dropping bad "
                                  "payload: %s", self.server_id, exc)
                continue
            if self._serve_message(sender, message, replies, loop, received):
                needs_checkpoint = True
        return needs_checkpoint

    def _serve_message(self, sender: ProcessId, message: Any,
                       replies: list,
                       loop: asyncio.AbstractEventLoop,
                       received: Optional[float] = None) -> bool:
        """Run one verified message through the node/protocol layers.

        Returns whether the message changed the protocol's durable
        history (i.e. a checkpoint is due).
        """
        self._c_frames.inc()
        if isinstance(message, HealthPing):
            # Answered by the node, not the protocol, and exempt from
            # rate limiting: readiness probes must work under load.
            self._counters["health_pings"].inc()
            # RegisterTable occupancy, when the protocol is a sharded
            # table (duck-typed: single-register protocols report -1).
            resident = getattr(self.protocol, "resident_keys", None)
            archived = getattr(self.protocol, "archived_keys", None)
            rehydrations = -1
            if resident is not None:
                rehydrations = int(self.registry.counter_value(
                    "table_rehydrations_total", node=str(self.server_id)))
            ack = HealthAck(
                op_id=message.op_id, node_id=str(self.server_id),
                history_len=len(getattr(self.protocol, "history", ())),
                frames=int(self._counters["frames"].value),
                throttled=int(self._counters["frames_throttled"].value),
                snapshot_age=self.snapshot_age(),
                keys_resident=-1 if resident is None else len(resident),
                keys_archived=-1 if archived is None else len(archived),
                rehydrations=rehydrations,
            )
            replies.append(self._encode(ack))
            return False
        if isinstance(message, StatsPing):
            # The scrape path: same exemption as health pings, so
            # metrics stay readable exactly when the node is drowning.
            self._counters["stats_pings"].inc()
            ack = StatsAck(op_id=message.op_id,
                           node_id=str(self.server_id),
                           metrics=self.registry.snapshot())
            replies.append(self._encode(ack))
            return False
        if isinstance(message, TraceDump):
            # Flight-recorder scrape: node-level like the pings above,
            # so stitched timelines stay reachable under protocol load.
            self._counters["trace_dumps"].inc()
            fl = self.flight
            ack = TraceAck(
                op_id=message.op_id, node_id=str(self.server_id),
                records=(fl.dump(message.target_op, message.limit)
                         if fl is not None else []),
                total=fl.total if fl is not None else 0,
            )
            replies.append(self._encode(ack))
            return False
        fl = self.flight
        if (self._buckets is not None and sender not in self._peers
                and not self._buckets.allow(sender)):
            self._counters["frames_throttled"].inc()
            throttle = Throttled(
                op_id=getattr(message, "op_id", 0),
                retry_after=self._buckets.retry_after(sender),
                dropped=type(message).__name__,
            )
            replies.append(self._encode(throttle))
            op_id = getattr(message, "op_id", None)
            if fl is not None and fl.wants(op_id):
                now = loop.time()
                fl.record({
                    "op_id": op_id, "node": str(self.server_id),
                    "phase": self._frame_phase(message),
                    "recv": received if received is not None else now,
                    "queue_wait": (now - received
                                   if received is not None else 0.0),
                    "service": 0.0, "verdict": "throttled",
                    "repeat": False,
                })
            return False
        repeated = self._note_repeat(sender, message)
        started = loop.time()
        history = getattr(self.protocol, "history", None)
        history_before = -1 if history is None else len(history)
        # Self-addressed envelopes (a broadcast server is one of its own
        # peers) loop back through the protocol right here, so counting
        # the node's own witness/echo never takes a network hop.
        pending = deque(((sender, message),))
        while pending:
            src, msg = pending.popleft()
            envelopes = self.protocol.handle(src, msg)
            if self.behavior is not None:
                envelopes = self.behavior.on_message(
                    self.protocol, src, msg, envelopes
                )
            self._route_envelopes(sender, envelopes, replies, pending)
        mutated = (history is not None
                   and len(self.protocol.history) != history_before)
        # Key the histogram cache by the *inner* class for namespaced
        # wrappers: the phase depends only on the inner message type, so
        # keyed traffic caches one entry per protocol message class
        # instead of re-resolving the phase on every frame.
        inner = getattr(message, "inner", None)
        cls = type(message) if inner is None else type(inner)
        hist = self._hist_by_cls.get(cls)
        if hist is None:
            phase = self._frame_phase(message)
            hist = self._phase_hists.get(phase)
            if hist is None:
                hist = self._phase_hists[phase] = self.registry.histogram(
                    "node_phase_seconds", node=str(self.server_id),
                    phase=phase)
            self._hist_by_cls[cls] = hist
        ended = loop.time()
        hist.observe(ended - started)
        if fl is not None:
            op_id = getattr(message, "op_id", None)
            if fl.wants(op_id):
                fl.record({
                    "op_id": op_id, "node": str(self.server_id),
                    "phase": self._frame_phase(message),
                    "recv": received if received is not None else started,
                    "queue_wait": (started - received
                                   if received is not None else 0.0),
                    "service": ended - started, "verdict": "served",
                    "repeat": repeated,
                })
        return mutated

    def _route_envelopes(self, origin: ProcessId, envelopes, replies: list,
                         pending: deque) -> None:
        """Send each ``(dest, message)`` envelope down its route.

        ``origin`` is the party whose frame is being served.  Order
        matters: a peer destination always takes the mesh link -- even
        when the peer *is* the origin, because peers never read the
        reply side of their outbound connections -- while the origin's
        own replies ride the connection's reply batch for free.
        """
        encode = self._encode
        for dest, reply in envelopes:
            if dest == self.server_id:
                pending.append((self.server_id, reply))
            elif dest in self._peers:
                link = self._peer_links.get(dest)
                if link is None:
                    link = self._peer_links[dest] = _PeerLink(self, dest)
                link.send(encode(reply))
            elif dest == origin:
                replies.append(encode(reply))
            else:
                self._push_to_party(dest, encode(reply))

    def _push_to_party(self, dest: ProcessId, payload: bytes) -> None:
        """Deliver a server-initiated envelope to a non-peer party.

        A live inbound connection gets the frame immediately; otherwise
        the payload is parked until that party next sends us anything
        (the reply batch flushes the stash).  This covers the race where
        a write validates via peer echoes before the writer's own frame
        reaches this server -- the ack would otherwise evaporate.
        """
        writer = self._parties.get(dest)
        if writer is not None and not writer.is_closing():
            try:
                write_frames(writer, self.auth.seal_frames(
                    self.server_id, [payload]))
                return
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass
        if not self._peers:
            # No mesh configured: a stray destination is a protocol bug,
            # same as before peer routing existed.
            self._log.warning(
                "misrouted-envelope",
                "server %s dropping envelope to %s (no route)",
                self.server_id, dest,
            )
            return
        stash = self._undelivered.get(dest)
        if stash is None:
            stash = self._undelivered[dest] = []
        stash.append(payload)
        self._undelivered.move_to_end(dest)
        self._undelivered_count += 1
        while self._undelivered_count > UNDELIVERED_LIMIT and self._undelivered:
            _, dropped = self._undelivered.popitem(last=False)
            self._undelivered_count -= len(dropped)

    def _frame_phase(self, message: Any) -> str:
        """Protocol phase an inbound frame belongs to (for histograms)."""
        inner = getattr(message, "inner", message)  # unwrap namespacing
        name = type(inner).__name__
        return PHASE_BY_MESSAGE.get(name, name)
