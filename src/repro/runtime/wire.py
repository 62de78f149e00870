"""Wire codec for runtime messages (the TCP transport's frame bodies).

The realtime engine's TCP transport and the cluster engine's worker
links move :class:`~repro.runtime.channels.Message` values over sockets
using libcompart-style length-prefixed frames: a 4-byte little-endian
length followed by the body, encoded with the serde generic codec
(:mod:`repro.serde.framing`).  Update payloads carry their
:class:`~repro.runtime.kvtable.Update` fields; serialized data values
(:class:`~repro.serde.framing.SavedData`) are tagged so the schema
survives the round trip without re-encoding the inner blob.

The boundary is hardened against adversarial peers: a frame length
above :data:`MAX_FRAME_LEN` raises :class:`~repro.core.errors.SerdeError`
before any allocation happens (a corrupt 4-byte prefix must never turn
into a multi-gigabyte ``readexactly``), and :func:`decode_message`
raises ``SerdeError`` — never ``ValueError``/``KeyError``/
``UnicodeDecodeError`` — on truncated, garbage or shape-invalid
bodies, so transport read loops have exactly one error type to reject
frames with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import SerdeError
from ..serde.framing import SavedData, decode_generic, encode_generic
from ..serde.framing import _LEN as LEN_PREFIX
from .channels import Message
from .kvtable import Update

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

__all__ = [
    "LEN_PREFIX",
    "MAX_FRAME_LEN",
    "check_frame_length",
    "decode_message",
    "encode_message",
    "frame",
    "read_frame",
]

#: upper bound on a single wire frame (body bytes, excluding the
#: 4-byte prefix).  Runtime messages are KV updates and acks — far
#: below this — so anything larger is a corrupt or hostile prefix.
MAX_FRAME_LEN = 8 * 1024 * 1024


def check_frame_length(length: int) -> int:
    """Validate a decoded frame length before allocating for it."""
    if not 0 <= length <= MAX_FRAME_LEN:
        raise SerdeError(
            f"frame length {length} outside [0, {MAX_FRAME_LEN}] — corrupt "
            "or hostile length prefix"
        )
    return length


async def read_frame(reader: "asyncio.StreamReader") -> bytes:
    """Read one length-prefixed frame body from an asyncio stream,
    enforcing :data:`MAX_FRAME_LEN` before the body allocation.  Raises
    ``asyncio.IncompleteReadError`` at EOF and :class:`SerdeError` on a
    corrupt prefix."""
    header = await reader.readexactly(LEN_PREFIX.size)
    (length,) = LEN_PREFIX.unpack(header)
    return await reader.readexactly(check_frame_length(length))

#: dict tag marking a re-hydratable SavedData value (NUL-prefixed so it
#: cannot collide with substrate dict keys, which are identifiers)
_SAVED_TAG = "\x00saved"


def _enc_value(v: object) -> object:
    if isinstance(v, SavedData):
        return {_SAVED_TAG: [v.schema, v.blob]}
    return v


def _dec_value(v: object) -> object:
    if isinstance(v, dict) and len(v) == 1 and _SAVED_TAG in v:
        pair = v[_SAVED_TAG]
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and (pair[0] is None or isinstance(pair[0], str))
            and isinstance(pair[1], bytes)
        ):
            raise SerdeError("saved data is not a [schema, blob] pair")
        return SavedData(*pair)
    return v


def encode_message(msg: Message) -> bytes:
    """Encode one message into a frame body (no length prefix)."""
    rec: dict[str, object] = {
        "s": msg.src,
        "d": msg.dst,
        "k": msg.kind,
        "i": msg.msg_id,
    }
    if isinstance(msg.payload, Update):
        rec["u"] = [msg.payload.key, _enc_value(msg.payload.value), msg.payload.src]
    else:
        rec["p"] = _enc_value(msg.payload)
    return encode_generic(rec)


def decode_message(body: bytes) -> Message:
    """Decode a frame body back into a message.

    Any malformed input — truncated generic values, garbage suffixes, a
    record of the wrong shape — raises :class:`SerdeError`."""
    try:
        rec = decode_generic(body)
    except SerdeError:
        raise
    except Exception as exc:  # defensive: generic-codec internals
        raise SerdeError(f"undecodable frame body: {exc}") from exc
    if not isinstance(rec, dict) or not {"s", "d", "k", "i"} <= rec.keys():
        raise SerdeError("frame body is not a runtime message")
    if not (
        isinstance(rec["s"], str)
        and isinstance(rec["d"], str)
        and isinstance(rec["k"], str)
        and isinstance(rec["i"], int)
    ):
        raise SerdeError("runtime message fields have the wrong types")
    if "u" in rec:
        u = rec["u"]
        if not isinstance(u, (list, tuple)) or len(u) != 3:
            raise SerdeError("runtime message update payload is malformed")
        key, value, usrc = u
        payload: object = Update(key=key, value=_dec_value(value), src=usrc)
    elif "p" in rec:
        payload = _dec_value(rec["p"])
    else:
        raise SerdeError("runtime message carries neither update nor payload")
    return Message(
        src=rec["s"], dst=rec["d"], kind=rec["k"], payload=payload, msg_id=rec["i"]
    )


def frame(body: bytes) -> bytes:
    """Length-prefix a frame body for the wire."""
    check_frame_length(len(body))
    return LEN_PREFIX.pack(len(body)) + body
