"""Correctness checks every benchmark run makes on the program's outputs.

Two checks feed the ``violations`` count:

* every read result is checked inline: it must be the initial value
  ``v0`` or exactly a value some writer issued *for that key* (its
  self-certifying ``key|writer|seq|`` header plus that writer's seeded
  padding, byte for byte);
* the operations on a few sampled keys are recorded as an execution
  trace and run through the repository's Definition-1 checker
  (:func:`repro.consistency.check_safety_per_register`).

A sampled key's trace starts at the key's first operation and stops
after :data:`SAMPLE_OPS` invocations (the key's *cut*).  Reads that
respond after the cut are left incomplete, which the checker skips: every
write that such a read could overlap was invoked before it responded, so
the reads it does judge see every write that matters to them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from repro.consistency import check_safety_per_register
from repro.sim.trace import OperationRecord, OpKind, Trace

#: Operations recorded per sampled key before its cut.
SAMPLE_OPS = 256

#: Keys traced for the safety checker (the hottest key plus seeded picks).
SAMPLED_KEYS = 8

#: Violation messages kept for the report (the count is exact).
MAX_MESSAGES = 20

#: The clusters' initial register value.
V0 = b""

_INVALID = b"<not a written value>"


class ValueChecker:
    """Inline read-value validation plus the sampled-key safety trace."""

    def __init__(self, names: Sequence[str], pads: Dict[str, bytes],
                 seed: int) -> None:
        self.pads = pads
        picks = random.Random(f"{seed}/sampled-keys").sample(
            list(names[1:]), min(SAMPLED_KEYS - 1, len(names) - 1))
        #: Sampled key -> invocations recorded so far.
        self._traced: Dict[str, int] = {k: 0 for k in [names[0], *picks]}
        #: Sampled key -> time its trace stopped taking invocations.
        self._cut: Dict[str, float] = {}
        self.trace = Trace()
        self._issued: set = set()
        self.violations = 0
        self.messages: List[str] = []
        self.reads_checked = 0

    def _violation(self, message: str) -> None:
        self.violations += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def _sample(self, key: str, now: float) -> bool:
        count = self._traced.get(key)
        if count is None or key in self._cut:
            return False
        if count >= SAMPLE_OPS:
            self._cut[key] = now
            return False
        self._traced[key] = count + 1
        return True

    # -- called around every operation ------------------------------------
    def begin_write(self, client: str, key: str, header: bytes,
                    now: float) -> Optional[OperationRecord]:
        self._issued.add(header)
        if not self._sample(key, now):
            return None
        record = self.trace.begin(client, OpKind.WRITE, now, value=header)
        record.meta["register"] = key
        return record

    def end_write(self, record: Optional[OperationRecord], now: float) -> None:
        if record is not None:
            self.trace.complete(record, now)

    def begin_read(self, client: str, key: str,
                   now: float) -> Optional[OperationRecord]:
        if not self._sample(key, now):
            return None
        record = self.trace.begin(client, OpKind.READ, now)
        record.meta["register"] = key
        return record

    def end_read(self, key: str, record: Optional[OperationRecord],
                 result: Any, now: float) -> None:
        token = self._identify(key, result)
        if record is None:
            return
        cut = self._cut.get(key)
        if cut is None or now <= cut:
            self.trace.complete(record, now, value=token)

    def _identify(self, key: str, result: Any) -> bytes:
        """The header naming the write ``result`` came from, or ``V0``."""
        self.reads_checked += 1
        if result == V0:
            return V0
        if isinstance(result, (bytes, bytearray)):
            parts = bytes(result[:256]).split(b"|", 3)
            if len(parts) == 4:
                header = b"|".join(parts[:3]) + b"|"
                pad = self.pads.get(parts[1].decode(errors="replace"))
                if (header in self._issued
                        and parts[0] == key.encode()
                        and pad is not None
                        and result[len(header):] == pad[len(header):]):
                    return header
        self._violation(f"read of {key!r} returned {repr(result)[:64]}, "
                        f"not a value written to that key")
        return _INVALID

    # -- after the run ------------------------------------------------------
    def check_trace(self) -> int:
        """Run the Definition-1 checker over the sampled trace."""
        result = check_safety_per_register(self.trace, initial_value=V0)
        for violation in result.violations:
            self._violation(violation.message)
        return result.reads_checked
