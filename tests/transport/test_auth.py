"""Unit tests for HMAC message authentication."""

import pytest

from repro.errors import AuthenticationError
from repro.transport.auth import Authenticator, KeyChain


@pytest.fixture
def auth():
    return Authenticator(KeyChain.from_secret(b"secret", ["a", "b"]))


def seal(auth, sender, payload):
    [frame] = auth.seal_frames(sender, [payload])
    return frame


def opened(auth, frame):
    sender, payloads = auth.open_any(frame)
    return sender, [bytes(p) for p in payloads]


def test_sign_verify_roundtrip(auth):
    # The verifier is a separate Authenticator over the same secret.
    verifier = Authenticator(KeyChain.from_secret(b"secret"))
    assert opened(verifier, seal(auth, "a", b"payload")) == ("a", [b"payload"])


def test_tampered_payload_rejected(auth):
    frame = seal(auth, "a", b"payload")
    tampered = frame[:-len(b"payload")] + b"PAYLOAD"
    with pytest.raises(AuthenticationError):
        auth.open_any(tampered)


def test_wrong_sender_rejected(auth):
    """A process cannot impersonate another: keys differ per process."""
    frame = seal(auth, "a", b"payload")
    # Envelope head: marker(2) | name_len(2) | sender -- rename a -> b.
    forged = frame[:4] + b"b" + frame[5:]
    with pytest.raises(AuthenticationError):
        auth.open_any(forged)


def test_seal_open_roundtrip(auth):
    assert opened(auth, seal(auth, "a", b"hello")) == ("a", [b"hello"])


def test_open_rejects_truncated(auth):
    frame = seal(auth, "a", b"hello")
    for blob in (b"\x00", b"\x00\x05abc", b"\xff\xff", frame[:10],
                 frame[:-1]):
        with pytest.raises(AuthenticationError):
            auth.open_any(blob)


def test_open_rejects_flipped_bit(auth):
    frame = bytearray(seal(auth, "a", b"hello"))
    frame[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        auth.open_any(bytes(frame))


def test_keychain_without_secret_rejects_unknown():
    chain = KeyChain({"a": b"k" * 32})
    assert chain.key_for("a") == b"k" * 32
    with pytest.raises(AuthenticationError):
        chain.key_for("stranger")


def test_keychain_with_secret_derives_on_demand():
    chain = KeyChain.from_secret(b"s")
    key1 = chain.key_for("newcomer")
    key2 = KeyChain.from_secret(b"s").key_for("newcomer")
    assert key1 == key2
    assert chain.key_for("other") != key1


def test_keychain_add_and_contains():
    chain = KeyChain({})
    assert "x" not in chain
    chain.add("x", b"key")
    assert "x" in chain


def test_different_secrets_do_not_interoperate():
    a = Authenticator(KeyChain.from_secret(b"one"))
    b = Authenticator(KeyChain.from_secret(b"two"))
    frame = seal(a, "p", b"data")
    with pytest.raises(AuthenticationError):
        b.open_any(frame)


def test_empty_payload_and_unicode_sender():
    auth = Authenticator(KeyChain.from_secret(b"s"))
    frame = seal(auth, "ünïcode", b"")
    assert opened(auth, frame) == ("ünïcode", [b""])
