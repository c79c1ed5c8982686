"""The message codec: compact, length-delimited binary (v2).

Every protocol message is a frozen dataclass (every entry of
:data:`MESSAGE_TYPES`); this module encodes it into a flat tagged
binary form:

* one magic byte (``0xB2``); a payload without it is rejected with
  :class:`~repro.errors.ProtocolError`;
* a varint message-type id (stable: assigned from the sorted registry
  names) and field count, pre-packed per class into one prefix;
* fields in dataclass order as tagged values -- raw ``bytes`` carried
  verbatim (sliced back out of the receive buffer via ``memoryview``,
  copied exactly once into the decoded object), varint integers,
  inlined ``Tag``/``TaggedValue``/``CodedElement`` shapes, and nested
  messages (``NamespacedMessage``) by recursion.

:func:`encode_value` and :func:`decode_value` expose the tagged-value
layer on its own; server snapshots (:mod:`repro.core.persistence`) are
one such value behind the same magic byte.

There is one encode body (:func:`_encode_into`) and one decode body
(:func:`_decode_message_at`), shared by top-level and nested messages,
and nothing is memoised between calls: every payload is encoded and
decoded in full.  :class:`CachedEncoder` and :class:`CachedDecoder`, the
runtime's per-connection entry points, are stateless one-line calls of
:func:`encode_message` and :func:`decode_message`.
"""

from __future__ import annotations

import dataclasses
from struct import Struct
from typing import Any, Dict, List, Tuple

from repro.core import messages as message_module
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import ProtocolError

#: First byte of every v2 payload.
MAGIC_V2 = 0xB2

#: name -> message dataclass, discovered from the messages module.
MESSAGE_TYPES: Dict[str, type] = {
    name: obj for name, obj in vars(message_module).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    and issubclass(obj, message_module.BaseMessage)
}
MESSAGE_TYPES["NamespacedMessage"] = NamespacedMessage

# Value tags.  One byte each; the hot shapes (bytes, ints, tags) come
# first only by convention -- dispatch is by exact byte.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03        # non-negative varint
_T_NEG_INT = 0x04    # varint of -(n + 1)
_T_FLOAT = 0x05      # 8-byte IEEE-754 big-endian
_T_BYTES = 0x06      # varint length + raw bytes
_T_STR = 0x07        # varint length + UTF-8
_T_TAG = 0x08        # varint num + varint writer-length + writer UTF-8
_T_TAGGED = 0x09     # inlined tag + value
_T_CODED = 0x0A      # varint index + varint length + raw bytes
_T_SEQ = 0x0B        # varint count + values (lists and tuples)
_T_DICT = 0x0C       # varint count + alternating key/value values
_T_MSG = 0x0D        # nested message (full v2 encoding, recursive)

_PACK_F64 = Struct(">d")
_UNPACK_F64 = _PACK_F64.unpack_from


def _uvarint(out: bytearray, n: int) -> None:
    """Append ``n >= 0`` as an unsigned LEB128 varint."""
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_uvarint(data, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ProtocolError("varint too long")


# -- registry ---------------------------------------------------------------
# Type ids are assigned from the sorted registry names, so every process
# running this codebase derives the same table without negotiation.

def _build_tables():
    names = sorted(MESSAGE_TYPES)
    by_id: List[type] = []
    prefixes: Dict[type, bytes] = {}
    fields_of: Dict[type, tuple] = {}
    bypass: Dict[type, bool] = {}
    for type_id, name in enumerate(names):
        cls = MESSAGE_TYPES[name]
        by_id.append(cls)
        names_tuple = tuple(f.name for f in dataclasses.fields(cls))
        fields_of[cls] = names_tuple
        prefix = bytearray([MAGIC_V2])
        _uvarint(prefix, type_id)
        _uvarint(prefix, len(names_tuple))
        prefixes[cls] = bytes(prefix)
        # Decoding may skip the dataclass __init__ (building the instance
        # __dict__ directly) only when the class runs no validation on
        # construction and stores fields in a plain __dict__.
        bypass[cls] = (not hasattr(cls, "__post_init__")
                       and not hasattr(cls, "__slots__"))
    return by_id, prefixes, fields_of, bypass


_BY_ID, _PREFIXES, _FIELDS, _BYPASS_INIT = _build_tables()

_NEW = object.__new__

# Tag.__post_init__ only rejects negative numbers, and the wire carries
# tag numbers as unsigned varints -- no byte sequence can decode to a
# negative num -- so decode may skip the frozen-dataclass __init__ and
# fill the instance __dict__ directly (half the construction cost).
_TAG_BYPASS = not hasattr(Tag, "__slots__")
_TV_BYPASS = (not hasattr(TaggedValue, "__post_init__")
              and not hasattr(TaggedValue, "__slots__"))


# encode_value appends one-byte varints (n < 0x80) inline -- small
# lengths and ids dominate real traffic, mirroring the decode fast path.

def encode_value(out: bytearray, value: Any) -> None:
    """Append one tagged value to ``out``; raises ProtocolError if unencodable.

    Values are ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, ``Tag``, ``TaggedValue``, ``CodedElement``, registered
    messages, and lists, tuples and dicts of these.
    """
    kind = type(value)
    if kind is bytes or kind is bytearray or kind is memoryview:
        out.append(_T_BYTES)
        length = len(value)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += value
    elif kind is int:
        if 0 <= value < 0x80:
            out.append(_T_INT)
            out.append(value)
        elif value >= 0:
            out.append(_T_INT)
            _uvarint(out, value)
        else:
            out.append(_T_NEG_INT)
            _uvarint(out, -value - 1)
    elif kind is str:
        raw = value.encode()
        out.append(_T_STR)
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
    elif kind is Tag:
        out.append(_T_TAG)
        num = value.num
        if 0 <= num < 0x80:
            out.append(num)
        else:
            _uvarint(out, num)
        raw = value.writer.encode()
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
    elif value is None:
        out.append(_T_NONE)
    elif kind is TaggedValue:
        out.append(_T_TAGGED)
        tag = value.tag
        num = tag.num
        if 0 <= num < 0x80:
            out.append(num)
        else:
            _uvarint(out, num)
        raw = tag.writer.encode()
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
        encode_value(out, value.value)
    elif kind is CodedElement:
        out.append(_T_CODED)
        _uvarint(out, value.index)
        _uvarint(out, len(value.data))
        out += value.data
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _PACK_F64.pack(value)
    elif kind is tuple or kind is list:
        out.append(_T_SEQ)
        _uvarint(out, len(value))
        for item in value:
            encode_value(out, item)
    elif kind is dict:
        out.append(_T_DICT)
        _uvarint(out, len(value))
        for key, item in value.items():
            encode_value(out, key)
            encode_value(out, item)
    elif kind in _PREFIXES:
        out.append(_T_MSG)
        _encode_into(out, value)
    else:
        # Tolerate subclasses the exact-type fast paths missed.
        if isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            _uvarint(out, len(value))
            out += value
        elif isinstance(value, bool):
            out.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            encode_value(out, int(value))
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _PACK_F64.pack(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_SEQ)
            _uvarint(out, len(value))
            for item in value:
                encode_value(out, item)
        else:
            raise ProtocolError(
                f"cannot serialize {type(value).__name__}: {value!r}")


def _encode_into(out: bytearray, message: Any) -> None:
    cls = type(message)
    prefix = _PREFIXES.get(cls)
    if prefix is None:
        raise ProtocolError(
            f"{cls.__name__} is not a registered message type")
    out += prefix
    encode = encode_value
    for name in _FIELDS[cls]:
        encode(out, getattr(message, name))


def encode_message(message: Any) -> bytes:
    """Serialize one protocol message to compact binary bytes."""
    out = bytearray()
    _encode_into(out, message)
    return bytes(out)


# decode_value inlines the one-byte varint case (b < 0x80) at every
# length/count read -- small fields dominate real traffic, and skipping
# the _read_uvarint call per field is a measurable share of decode time.

def decode_value(data, pos: int) -> Tuple[Any, int]:
    """Decode the tagged value at ``data[pos]``; returns ``(value, end)``.

    Sequences decode as lists.  Malformed input raises ProtocolError or
    another exception (a value cut short raises IndexError); callers
    decoding outside input convert those to ProtocolError, as
    :func:`decode_message` does.
    """
    tag = data[pos]
    pos += 1
    if tag == _T_BYTES:
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated bytes value")
        return bytes(data[pos:end]), end
    if tag == _T_INT:
        value = data[pos]
        if value < 0x80:
            return value, pos + 1
        return _read_uvarint(data, pos)
    if tag == _T_NEG_INT:
        value = data[pos]
        if value < 0x80:
            pos += 1
        else:
            value, pos = _read_uvarint(data, pos)
        return -value - 1, pos
    if tag == _T_STR:
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated string value")
        return str(data[pos:end], "utf-8"), end
    if tag == _T_TAG:
        num = data[pos]
        if num < 0x80:
            pos += 1
        else:
            num, pos = _read_uvarint(data, pos)
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated tag writer")
        if _TAG_BYPASS:
            tag_obj = _NEW(Tag)
            fields = tag_obj.__dict__
            fields["num"] = num
            fields["writer"] = str(data[pos:end], "utf-8")
            return tag_obj, end
        return Tag(num, str(data[pos:end], "utf-8")), end
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TAGGED:
        num = data[pos]
        if num < 0x80:
            pos += 1
        else:
            num, pos = _read_uvarint(data, pos)
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated tagged value")
        writer = str(data[pos:end], "utf-8")
        value, pos = decode_value(data, end)
        if _TAG_BYPASS and _TV_BYPASS:
            tag_obj = _NEW(Tag)
            fields = tag_obj.__dict__
            fields["num"] = num
            fields["writer"] = writer
            pair = _NEW(TaggedValue)
            fields = pair.__dict__
            fields["tag"] = tag_obj
            fields["value"] = value
            return pair, pos
        return TaggedValue(Tag(num, writer), value), pos
    if tag == _T_CODED:
        index, pos = _read_uvarint(data, pos)
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated coded element")
        return CodedElement(index, bytes(data[pos:end])), end
    if tag == _T_SEQ:
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = decode_value(data, pos)
            value, pos = decode_value(data, pos)
            mapping[key] = value
        return mapping, pos
    if tag == _T_MSG:
        return _decode_message_at(data, pos)
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise ProtocolError("truncated float value")
        return _UNPACK_F64(data, pos)[0], pos + 8
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def _decode_message_at(data, pos: int) -> Tuple[Any, int]:
    if pos >= len(data) or data[pos] != MAGIC_V2:
        raise ProtocolError("message lacks the v2 magic byte")
    pos += 1
    type_id = data[pos]
    if type_id < 0x80:
        pos += 1
    else:
        type_id, pos = _read_uvarint(data, pos)
    if type_id >= len(_BY_ID):
        raise ProtocolError(f"unknown message type id {type_id}")
    cls = _BY_ID[type_id]
    field_names = _FIELDS[cls]
    nfields = data[pos]
    if nfields < 0x80:
        pos += 1
    else:
        nfields, pos = _read_uvarint(data, pos)
    if nfields != len(field_names):
        raise ProtocolError(
            f"{cls.__name__} carries {nfields} fields, "
            f"expected {len(field_names)}")
    values = []
    for _ in range(nfields):
        value, pos = decode_value(data, pos)
        values.append(value)
    # Sequences flatten to lists on the wire; restore tuples at the top
    # level for frozen-dataclass equality.
    if _BYPASS_INIT[cls]:
        decoded = _NEW(cls)
        fields = decoded.__dict__
        for name, value in zip(field_names, values):
            fields[name] = tuple(value) if type(value) is list else value
    else:
        decoded = cls(*values)
        for name, value in zip(field_names, values):
            if type(value) is list:
                object.__setattr__(decoded, name, tuple(value))
    return decoded, pos


def decode_message(data) -> Any:
    """Inverse of :func:`encode_message`; raises ProtocolError on garbage.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` into a
    receive buffer -- every field is copied out into an owned object, so
    the caller may recycle the buffer as soon as this returns.
    """
    try:
        decoded, pos = _decode_message_at(data, 0)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed v2 message: {exc}") from exc
    if pos != len(data):
        raise ProtocolError(
            f"{len(data) - pos} trailing bytes after v2 message")
    return decoded


class CachedEncoder:
    """The runtime's encode entry point: exactly :func:`encode_message`.

    Stateless.  Server nodes and clients encode through instances of
    it; the class exists only because the register-service
    benchmark's traced run (``perfbench/layers.py``) wraps
    ``CachedEncoder.__call__`` as its ``transport.encode`` layer.
    Renaming it waits for a change to that benchmark.
    """

    __slots__ = ()

    def __call__(self, message: Any) -> bytes:
        return encode_message(message)


class CachedDecoder:
    """The runtime's decode entry point: exactly :func:`decode_message`.

    Stateless, and kept for the same reason as :class:`CachedEncoder`:
    the benchmark's traced run wraps ``CachedDecoder.__call__`` as its
    ``transport.decode`` layer.
    """

    __slots__ = ()

    def __call__(self, data) -> Any:
        return decode_message(data)
