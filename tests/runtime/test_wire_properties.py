"""Property-based tests of the runtime wire boundary under adversarial
input.

The TCP transport and the cluster worker links share one contract
(:mod:`repro.runtime.wire`): well-formed messages round-trip exactly,
and *anything* else — truncated bodies, trailing garbage, random bytes,
hostile length prefixes — is rejected with :class:`SerdeError` (the one
error type the read loops handle) before any oversized allocation can
happen.  Hypothesis hunts the corners enumerated unit tests miss.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerdeError
from repro.runtime.channels import Message
from repro.runtime.kvtable import Update
from repro.runtime.wire import (
    LEN_PREFIX,
    MAX_FRAME_LEN,
    check_frame_length,
    decode_message,
    encode_message,
    frame,
    read_frame,
)
from repro.serde.framing import SavedData

from ..serde.test_properties import json_like

# -- strategies ---------------------------------------------------------------

node_names = st.text(max_size=12)

#: payload values a junction can actually put on the wire: substrate
#: values (json-like), or serialized state blobs (SavedData)
wire_values = st.one_of(
    json_like,
    st.builds(SavedData, st.text(max_size=8), st.binary(max_size=32)),
)

messages = st.one_of(
    # plain payload (acks, pokes, host replies)
    st.builds(
        Message,
        src=node_names,
        dst=node_names,
        kind=st.sampled_from(["update", "ack"]),
        payload=wire_values,
        msg_id=st.integers(min_value=0, max_value=2**62),
    ),
    # KV update payload (the dominant runtime traffic)
    st.builds(
        Message,
        src=node_names,
        dst=node_names,
        kind=st.just("update"),
        payload=st.builds(
            Update, key=st.text(max_size=12), value=wire_values, src=node_names
        ),
        msg_id=st.integers(min_value=0, max_value=2**62),
    ),
)


# -- round-trip ---------------------------------------------------------------


@given(messages)
@settings(max_examples=200)
def test_message_roundtrip(msg):
    assert decode_message(encode_message(msg)) == msg


# -- adversarial bodies -------------------------------------------------------


@given(messages, st.integers(min_value=0))
@settings(max_examples=200)
def test_truncated_body_rejected(msg, cut):
    body = encode_message(msg)
    cut = cut % len(body)  # every strict prefix, including empty
    with pytest.raises(SerdeError):
        decode_message(body[:cut])


@given(messages, st.binary(min_size=1, max_size=16))
@settings(max_examples=200)
def test_trailing_garbage_rejected(msg, suffix):
    # the generic codec consumes exactly one record; any suffix means a
    # corrupt frame, not two messages
    with pytest.raises(SerdeError):
        decode_message(encode_message(msg) + suffix)


@given(st.binary(max_size=64))
@settings(max_examples=300)
def test_random_bytes_never_escape_serde_error(data):
    # the whole contract: a Message out, or SerdeError — never
    # ValueError/KeyError/UnicodeDecodeError, never a hang or crash
    try:
        out = decode_message(data)
    except SerdeError:
        return
    assert isinstance(out, Message)


@given(json_like)
@settings(max_examples=200)
def test_non_message_records_rejected(value):
    # a well-encoded generic value that is not message-shaped must be
    # rejected by the shape validation, not crash field access
    from repro.serde.framing import encode_generic

    body = encode_generic(value)
    try:
        out = decode_message(body)
    except SerdeError:
        return
    # only a value that happens to be message-shaped may decode
    assert isinstance(out, Message)


@pytest.mark.parametrize("shape", [[1, 2, 3], 5, ["s", 7], [None, "notbytes"]])
@pytest.mark.parametrize("where", ["p", "u"])
def test_malformed_saved_data_tag_rejected(shape, where):
    # the tag must carry [schema, blob]: other shapes used to escape as
    # ValueError/TypeError or decode to a SavedData whose blob is not bytes
    from repro.serde.framing import encode_generic

    tagged = {"\x00saved": shape}
    rec = {"s": "a::j", "d": "b::j", "k": "update", "i": 1}
    rec[where] = tagged if where == "p" else ["K", tagged, "a::j"]
    with pytest.raises(SerdeError):
        decode_message(encode_generic(rec))


def test_unencodable_int_is_a_serde_error():
    # an int outside int64 is the codec's error, not struct.error
    msg = Message(src="a::j", dst="b::j", kind="update",
                  payload=Update(key="K", value=2**63, src="a::j"), msg_id=1)
    with pytest.raises(SerdeError, match=str(2**63)):
        encode_message(msg)


# -- length prefix ------------------------------------------------------------


def test_frame_length_bounds():
    assert check_frame_length(0) == 0
    assert check_frame_length(MAX_FRAME_LEN) == MAX_FRAME_LEN
    for bad in (-1, MAX_FRAME_LEN + 1, 0xFFFFFFFF):
        with pytest.raises(SerdeError):
            check_frame_length(bad)


def test_frame_refuses_oversized_body():
    with pytest.raises(SerdeError):
        frame(b"\x00" * (MAX_FRAME_LEN + 1))


@given(st.integers(min_value=MAX_FRAME_LEN + 1, max_value=0xFFFFFFFF),
       st.binary(max_size=32))
@settings(max_examples=50)
def test_hostile_prefix_rejected_before_allocation(length, junk):
    # a corrupt 4-byte prefix must raise before readexactly() is asked
    # for gigabytes
    async def attempt():
        reader = asyncio.StreamReader()
        reader.feed_data(LEN_PREFIX.pack(length) + junk)
        reader.feed_eof()
        await read_frame(reader)

    with pytest.raises(SerdeError):
        asyncio.run(attempt())


@given(messages)
@settings(max_examples=100)
def test_framed_stream_roundtrip(msg):
    # frame() on the wire, read_frame() off it: the transport pairing
    async def pump():
        reader = asyncio.StreamReader()
        reader.feed_data(frame(encode_message(msg)))
        reader.feed_eof()
        return await read_frame(reader)

    assert decode_message(asyncio.run(pump())) == msg
