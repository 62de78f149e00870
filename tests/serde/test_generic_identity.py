"""The generic codec is the wire format of the cluster engine and the
blob format of every schema-less ``save``: the type-dispatched codec in
:mod:`repro.serde.framing` must write the bytes the recursive codec it
replaced wrote (kept verbatim in :mod:`.generic_oracle`) and decode
every byte string — valid, truncated, suffixed or random — to the same
value or the same error."""

import collections
import enum
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerdeError
from repro.serde.framing import decode_generic, encode_generic

from . import generic_oracle as oracle


class Color(enum.IntEnum):
    RED = 1
    LOW = -(2**63)
    HIGH = 2**63 - 1


class Name(str):
    pass


class Rows(list):
    pass


Pair = collections.namedtuple("Pair", "a b")

INT64 = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**31, -(2**31) - 1]),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
TEXT = st.one_of(st.text(max_size=12), st.sampled_from(["", "é", "日本語", "🙂", "a\x00b"]))
SCALARS = st.one_of(
    st.none(), st.booleans(), INT64, FLOATS, TEXT, st.binary(max_size=12),
    st.sampled_from(list(Color)), TEXT.map(Name),
)
KEYS = st.one_of(st.none(), st.booleans(), INT64, TEXT, st.binary(max_size=6), TEXT.map(Name))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(Rows),
        st.builds(Pair, inner, inner),
        st.dictionaries(KEYS, inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=3).map(collections.OrderedDict),
    ),
    max_leaves=20,
)
#: byte strings built mostly from tag bytes and small lengths, so random
#: input reaches containers, dict keys and every truncation branch
TAGGY = st.lists(
    st.sampled_from(list(b"NTFifsbltd") + [0, 1, 2, 0x80, 0xFF]), max_size=48
).map(bytes)


def outcome(decode, data):
    """The same value (``repr`` tells list from tuple, ``True`` from 1,
    ``-0.0`` from 0.0, and shows ``nan``) or the same error."""
    try:
        return "value", repr(decode(data))
    except SerdeError as exc:
        return "SerdeError", str(exc)
    except Exception as exc:  # what the oracle raises beyond SerdeError
        return type(exc).__name__, str(exc)


@given(VALUES)
@settings(max_examples=400)
def test_encoder_writes_the_oracle_bytes(value):
    assert encode_generic(value) == oracle.encode_generic(value)


@given(VALUES)
@settings(max_examples=150)
def test_every_prefix_decodes_like_the_oracle(value):
    blob = oracle.encode_generic(value)
    for cut in range(len(blob) + 1):
        assert outcome(decode_generic, blob[:cut]) == outcome(oracle.decode_generic, blob[:cut])


@given(VALUES, st.binary(min_size=1, max_size=12))
@settings(max_examples=200)
def test_garbage_suffix_decodes_like_the_oracle(value, garbage):
    data = oracle.encode_generic(value) + garbage
    assert outcome(decode_generic, data) == outcome(oracle.decode_generic, data)


@given(st.one_of(st.binary(max_size=64), TAGGY))
@settings(max_examples=600)
def test_random_bytes_decode_like_the_oracle(data):
    assert outcome(decode_generic, data) == outcome(oracle.decode_generic, data)


def test_unsupported_values_fail_alike():
    for value in (object(), bytearray(b"x"), {1, 2}, [1, object()], {"k": 1j}):
        got = outcome(encode_generic, value)
        assert got == outcome(oracle.encode_generic, value)
        assert got[0] == "SerdeError"
