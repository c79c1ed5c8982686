"""Wire formats shared by the simulator and the asyncio runtime.

* :mod:`repro.transport.codec2` -- the binary codec every protocol
  message, and every server snapshot, is serialized with.
* :mod:`repro.transport.codec` -- length-prefixed framing for TCP
  streams.
* :mod:`repro.transport.auth` -- HMAC-SHA256 message authentication,
  realising the model's "digital signatures" assumption (Section II-A): a
  Byzantine server cannot impersonate another process.
"""

from repro.transport.auth import Authenticator, KeyChain
from repro.transport.codec import read_frame, write_frame
from repro.transport.codec2 import decode_message, encode_message

__all__ = [
    "encode_message",
    "decode_message",
    "read_frame",
    "write_frame",
    "Authenticator",
    "KeyChain",
]
