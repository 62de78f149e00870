"""Property-based serde tests: random schemas/values round-trip, and
generated code always agrees with the interpretive oracle
(``schema_oracle.py``)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerdeError
from repro.serde import (
    Array,
    CString,
    Field,
    Pointer,
    Primitive,
    SavedData,
    Serializer,
    SizedBuffer,
    Struct,
    TaggedUnion,
    TypeRegistry,
    decode_generic,
    encode_generic,
    generate_module,
    leaf_paths,
    load_generated,
)

from .schema_oracle import Decoder, Encoder

# -- generic codec -----------------------------------------------------------

json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=15,
)


@given(json_like)
@settings(max_examples=200)
def test_generic_roundtrip(value):
    assert decode_generic(encode_generic(value)) == value


# -- typed codec over random schemas ----------------------------------------

_PRIMS = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
          "uint64", "float64", "bool"]

_RANGES = {
    "int8": (-128, 127),
    "int16": (-(2**15), 2**15 - 1),
    "int32": (-(2**31), 2**31 - 1),
    "int64": (-(2**63), 2**63 - 1),
    "uint8": (0, 255),
    "uint16": (0, 2**16 - 1),
    "uint32": (0, 2**32 - 1),
    "uint64": (0, 2**64 - 1),
}


@st.composite
def schema_and_value(draw, depth=2):
    """Draw a (ctype, value) pair; inline structs and unions nest, so a
    union's variant may itself be a union."""
    choice = draw(st.integers(0, 7 if depth > 0 else 2))
    if choice <= 1:
        kind = draw(st.sampled_from(_PRIMS))
        if kind == "bool":
            return Primitive(kind), draw(st.booleans())
        if kind == "float64":
            return Primitive(kind), draw(
                st.floats(allow_nan=False, allow_infinity=False)
            )
        lo, hi = _RANGES[kind]
        return Primitive(kind), draw(st.integers(lo, hi))
    if choice == 2:
        return CString(64), draw(st.text(max_size=10))
    if choice == 3:
        return SizedBuffer(64), draw(st.binary(max_size=10))
    if choice == 4:
        elem_t, _ = draw(schema_and_value(depth=0))
        n = draw(st.integers(0, 3))
        # regenerate values of the right element type
        elem_values = []
        for _ in range(n):
            t2, v2 = draw(schema_and_value(depth=0).filter(lambda tv: type(tv[0]) is type(elem_t) and tv[0] == elem_t))
            elem_values.append(v2)
        return Array(elem_t, n), elem_values
    if choice == 5:
        inner_t, inner_v = draw(schema_and_value(depth=depth - 1))
        is_null = draw(st.booleans())
        return Pointer(inner_t), (None if is_null else inner_v)
    if choice == 6:
        members = draw(st.lists(schema_and_value(depth=depth - 1), max_size=3))
        fields = tuple(Field(f"m{i}", t) for i, (t, _) in enumerate(members))
        return Struct(f"s{depth}", fields), {f"m{i}": v for i, (_, v) in enumerate(members)}
    tags = draw(st.lists(st.integers(0, 255), min_size=1, max_size=3, unique=True))
    variants = [(tag, draw(schema_and_value(depth=depth - 1))) for tag in tags]
    tag, (_, payload) = variants[draw(st.integers(0, len(variants) - 1))]
    return TaggedUnion(f"u{depth}", tuple((g, t) for g, (t, _) in variants)), (tag, payload)


def box(t):
    """A registry whose one-field struct ``box`` holds the anonymous
    type ``t``: the ``Serializer`` encodes registered schemas only."""
    reg = TypeRegistry()
    reg.struct("box", v=t)
    return reg


@given(schema_and_value())
@settings(max_examples=150)
def test_typed_roundtrip(tv):
    t, v = tv
    ser = Serializer(box(t))
    out = ser.decode(ser.encode("box", {"v": v}))["v"]
    assert out == v or (isinstance(v, list) and list(out) == list(v))


@st.composite
def struct_schema(draw):
    reg = TypeRegistry()
    n_fields = draw(st.integers(1, 4))
    fields = {}
    value = {}
    for i in range(n_fields):
        t, v = draw(schema_and_value(depth=2))
        fields[f"f{i}"] = t
        value[f"f{i}"] = v
    reg.struct("rec", **fields)
    return reg, value


# -- framing robustness ------------------------------------------------------
#
# A receiver must never see a *different* value out of a damaged frame:
# every strict prefix and every garbage-suffixed frame decodes to a
# SerdeError, not to garbage and not to an arbitrary exception.

@given(json_like, st.integers(min_value=0))
@settings(max_examples=200)
def test_truncated_frames_raise_serde_error(value, cut):
    blob = encode_generic(value)
    prefix = blob[: cut % len(blob)]  # every blob has >= 1 tag byte
    with pytest.raises(SerdeError):
        decode_generic(prefix)


@given(json_like, st.binary(min_size=1, max_size=8))
@settings(max_examples=200)
def test_garbage_suffix_raises_serde_error(value, garbage):
    with pytest.raises(SerdeError):
        decode_generic(encode_generic(value) + garbage)


@given(json_like)
@settings(max_examples=100)
def test_serializer_saveddata_roundtrip(value):
    ser = Serializer()
    saved = ser.encode(None, value)
    assert saved.schema is None
    assert len(saved) == len(saved.blob)
    assert ser.decode(saved) == value


@given(json_like, st.integers(min_value=0))
@settings(max_examples=100)
def test_serializer_rejects_truncated_saveddata(value, cut):
    ser = Serializer()
    blob = ser.encode(None, value).blob
    with pytest.raises(SerdeError):
        ser.decode(SavedData(None, blob[: cut % len(blob)]))


# -- codegen stability across equivalent models -------------------------------
#
# Generated codecs are persisted artifacts: two structurally equal
# registries (independently constructed, extra unrelated types, any
# registration order) must generate byte-identical modules, and the
# traversal must report the same leaf paths.

def _rebuild(reg):
    """An independently-constructed registry equal to ``reg``'s rec."""
    clone = TypeRegistry()
    fields = {f.name: copy.deepcopy(f.type) for f in reg.get("rec").fields}
    clone.struct("rec", **fields)
    return clone


@given(struct_schema())
@settings(max_examples=50)
def test_codegen_stable_across_equivalent_models(rv):
    reg, value = rv
    clone = _rebuild(reg)
    src = generate_module(reg, "rec")
    assert generate_module(clone, "rec") == src
    # and the two generated codecs agree on the same value
    enc = load_generated(src)["encode_rec"](value)
    assert load_generated(generate_module(clone, "rec"))["encode_rec"](value) == enc


@given(struct_schema())
@settings(max_examples=50)
def test_codegen_ignores_unrelated_registrations(rv):
    reg, _value = rv
    src = generate_module(reg, "rec")
    reg.struct("unrelated", pad=Primitive("uint32"))
    assert generate_module(reg, "rec") == src


@given(struct_schema())
@settings(max_examples=50)
def test_traversal_stable_across_equivalent_models(rv):
    reg, value = rv
    paths = list(leaf_paths(reg, "rec", value))
    assert list(leaf_paths(_rebuild(reg), "rec", value)) == paths
    # deterministic: repeated traversal of the same model/value agrees
    assert list(leaf_paths(reg, "rec", value)) == paths


@given(struct_schema())
@settings(max_examples=75)
def test_generated_code_agrees_with_interpreter(rv):
    reg, value = rv
    ns = load_generated(generate_module(reg, "rec"))
    interpreted = Encoder(reg).encode("rec", value)
    generated = ns["encode_rec"](value)
    assert generated == interpreted
    assert ns["decode_rec"](generated) == Decoder(reg).decode("rec", interpreted)


# -- the Serializer's typed contract -----------------------------------------
#
# The generated codec is what runs: it must produce the oracle's bytes
# for every value the oracle accepts, and reject everything else —
# values and damaged or random blobs alike — with SerdeError alone.


@given(schema_and_value(), schema_and_value())
@settings(max_examples=300)
def test_serializer_accepts_what_the_oracle_accepts(tv, other):
    # encode each schema's own value and a value drawn for another
    # schema: the second mostly lands on the encoder's rejection paths
    t = tv[0]
    reg = box(t)
    for v in (tv[1], other[1]):
        try:
            expected = Encoder(reg).encode("box", {"v": v})
        except Exception:  # the oracle also leaks TypeError & co.
            expected = None
        try:
            got = Serializer(reg).encode("box", {"v": v}).blob
        except SerdeError:
            got = None
        assert got == expected


@given(struct_schema(), st.integers(min_value=0), st.binary(min_size=1, max_size=8))
@settings(max_examples=150)
def test_serializer_rejects_damaged_typed_blobs(rv, cut, garbage):
    reg, value = rv
    ser = Serializer(reg)
    saved = ser.encode("rec", value)
    assert saved.blob == Encoder(reg).encode("rec", value)
    assert ser.decode(saved) == Decoder(reg).decode("rec", saved.blob)
    if saved.blob:
        with pytest.raises(SerdeError):
            ser.decode(SavedData("rec", saved.blob[: cut % len(saved.blob)]))
    with pytest.raises(SerdeError):
        ser.decode(SavedData("rec", saved.blob + garbage))


@given(struct_schema(), st.binary(max_size=64))
@settings(max_examples=200)
def test_serializer_random_typed_blob_is_a_value_or_serde_error(rv, data):
    reg, _value = rv
    try:
        Serializer(reg).decode(SavedData("rec", data))
    except SerdeError:
        pass
