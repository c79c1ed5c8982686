"""Server state persistence: snapshot and restore across crashes.

Production storage servers restart; the paper's model treats a restarted
server as having been "slow" (its state must survive).  This module
serialises a server's durable state -- the history list ``L`` -- with the
wire codec (:mod:`repro.transport.codec2`): the v2 magic byte, then one
flat record ``[type name, server id, max_history, history]``, extended
by ``[index, n, k]`` for BCSR servers.  A deployment can checkpoint it to
disk and recover, and :class:`~repro.sharding.RegisterTable` archives
cold keys with it.

Byzantine-safety note: a snapshot is local state, not a protocol message;
restoring a *stale* snapshot turns the server into an honestly-slow replica,
which the protocols already tolerate (at most ``f`` of them, like any
slow/faulty server).  A snapshot is still outside input when it is read
back, so :func:`restore_server` checks it before a server adopts it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.baselines.abd import ABDServer
from repro.core.bcsr import BCSRServer
from repro.core.bsr import BSRServer
from repro.core.regular import RegularBSRServer
from repro.core.tags import TaggedValue
from repro.erasure.striping import StripedCodec
from repro.errors import ProtocolError
from repro.transport.codec2 import MAGIC_V2, decode_value, encode_value

#: Server classes persistence understands, by stable type name.
_SERVER_TYPES = {
    "BSRServer": BSRServer,
    "RegularBSRServer": RegularBSRServer,
    "ABDServer": ABDServer,
    "BCSRServer": BCSRServer,
}


def snapshot_server(server: Any) -> bytes:
    """Serialise a server's durable state to bytes.

    Works for every server class in :mod:`repro.core` and
    :mod:`repro.baselines` whose state is the history list ``L``.
    """
    type_name = type(server).__name__
    if type_name not in _SERVER_TYPES:
        raise ProtocolError(f"cannot snapshot server type {type_name}")
    record = [type_name, server.server_id,
              getattr(server, "max_history", None), server.history]
    if isinstance(server, BCSRServer):
        record += (server.index, server.codec.n, server.codec.k)
    out = bytearray((MAGIC_V2,))
    encode_value(out, record)
    return bytes(out)


def restore_server(snapshot: bytes, codec: Optional[StripedCodec] = None) -> Any:
    """Rebuild a server from :func:`snapshot_server` output.

    ``codec`` overrides the recorded ``[n, k]`` shape for BCSR servers
    (useful when the codec object is shared across a deployment); by
    default the recorded shape is reconstructed.  Raises
    :class:`ProtocolError` unless the whole blob is one well-formed
    record whose history is non-empty, strictly ascending by tag and no
    longer than its ``max_history``.
    """
    try:
        if not snapshot or snapshot[0] != MAGIC_V2:
            raise ProtocolError("snapshot lacks the v2 magic byte")
        record, end = decode_value(snapshot, 1)
        if end != len(snapshot):
            raise ProtocolError(
                f"{len(snapshot) - end} trailing bytes after the snapshot")
        type_name, server_id, max_history, history, *shape = record
        cls = _SERVER_TYPES[type_name]
        if not history or not all(type(p) is TaggedValue for p in history):
            raise ProtocolError("snapshot history is empty or malformed")
        if not all(a.tag < b.tag for a, b in zip(history, history[1:])):
            raise ProtocolError(
                "snapshot history tags are not strictly ascending")
        if max_history is not None and (type(max_history) is not int
                                        or len(history) > max_history):
            raise ProtocolError(
                f"snapshot history of {len(history)} entries exceeds "
                f"max_history={max_history!r}")
        if type(server_id) is not str:
            raise ProtocolError("snapshot server id is not a string")
        if cls is BCSRServer:
            index, n, k = shape
            if codec is None:
                codec = StripedCodec(n, k)
            server = BCSRServer(server_id, index, codec,
                                max_history=max_history)
        elif shape:
            raise ProtocolError(f"{type_name} snapshot carries extra fields")
        else:
            server = cls(server_id, max_history=max_history)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed server snapshot: {exc}") from exc
    server.history = history
    return server
