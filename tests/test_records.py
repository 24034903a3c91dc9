"""Record codec: round-trip properties and fail-closed decoding of malformed input."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead.classic import AttributeDef, TypeTag
from parahead.consistency import make_name_records
from parahead.errors import CorruptHeader, ParaheadError, Truncated, UnrepresentableValue
from parahead.records import (
    AttPayload,
    DimPayload,
    ObjectKind,
    VarPayload,
    decode_record,
    encode_record,
    pack_stream,
    record_name,
    unpack_stream,
)
from parahead.store import RankStore
from parahead.workload import gen_workload, spec_for_dataset

def typed_values(allow_nan: bool):
    """(type tag, values) pairs that encode, for every type tag."""
    elements = {
        TypeTag.BYTE: st.integers(-(2**7), 2**7 - 1),
        TypeTag.SHORT: st.integers(-(2**15), 2**15 - 1),
        TypeTag.INT: st.integers(-(2**31), 2**31 - 1),
        TypeTag.INT64: st.integers(-(2**63), 2**63 - 1),
        TypeTag.FLOAT: st.floats(width=32, allow_nan=allow_nan),
        TypeTag.DOUBLE: st.floats(allow_nan=allow_nan),
    }

    def values_for(tag):
        if tag is TypeTag.CHAR:
            return st.binary(max_size=12)
        return st.lists(elements[tag], min_size=1, max_size=4).map(tuple)

    return st.sampled_from(TypeTag).flatmap(
        lambda tag: values_for(tag).map(lambda values: (tag, values))
    )


names = st.text(max_size=12)  # any code point but surrogates, so non-ASCII too


def definitions(allow_nan: bool):
    tv = typed_values(allow_nan)
    attributes = st.lists(
        st.tuples(names, tv).map(lambda a: AttributeDef(a[0], *a[1])), max_size=3
    ).map(tuple)
    dims = st.builds(DimPayload, st.integers(0, 2**64 - 1))
    atts = tv.map(lambda t: AttPayload(*t))
    variables = st.builds(
        VarPayload,
        st.sampled_from(TypeTag),
        st.lists(names, max_size=4).map(tuple),
        attributes,
    )
    return st.one_of(
        st.tuples(st.just(ObjectKind.DIMENSION), names, dims),
        st.tuples(st.just(ObjectKind.ATTRIBUTE), names, atts),
        st.tuples(st.just(ObjectKind.VARIABLE), names, variables),
    )


@settings(max_examples=300, deadline=None)
@given(definition=definitions(allow_nan=False))
def test_decode_inverts_encode(definition):
    assert decode_record(encode_record(*definition)) == definition


@settings(max_examples=300, deadline=None)
@given(definition=definitions(allow_nan=True))
def test_encode_inverts_decode(definition):
    # what lets RankStore.define_record keep the bytes it was given
    record = encode_record(*definition)
    assert encode_record(*decode_record(record)) == record


def workload_records() -> list[bytes]:
    workload = gen_workload(spec_for_dataset("98M", 0.0005, 2, seed=3))
    out = [
        encode_record(d.kind, d.full_name, d.payload)
        for defs in workload.per_rank
        for d in defs
    ]
    out.append(encode_record(ObjectKind.ATTRIBUTE, "title", AttPayload(TypeTag.CHAR, b"run")))
    out.append(
        encode_record(ObjectKind.ATTRIBUTE, "b0/scale", AttPayload(TypeTag.DOUBLE, (0.5, 2.0)))
    )
    return out


def test_mutated_records_raise_only_parahead_errors():
    records = workload_records()
    kinds = {r[0] for r in records}
    assert kinds == {int(k) for k in ObjectKind}
    rand = random.Random(3)
    rejected = 0
    for _ in range(600):
        buf = bytearray(rand.choice(records))
        if rand.random() < 0.25:
            del buf[rand.randrange(len(buf)) :]
        else:
            for _ in range(rand.randint(1, 3)):
                buf[rand.randrange(len(buf))] = rand.randrange(256)
        try:
            record_name(bytes(buf))
        except ParaheadError:
            pass
        try:
            decode_record(bytes(buf))
        except ParaheadError:
            rejected += 1
    assert 0 < rejected < 600  # some mutations still decode; many must not


DIM_X = encode_record(ObjectKind.DIMENSION, "x", DimPayload(4))
VAR_T = encode_record(
    ObjectKind.VARIABLE,
    "t",
    VarPayload(TypeTag.INT, ("x",), (AttributeDef("units", TypeTag.CHAR, b"K"),)),
)


MALFORMED = [
    pytest.param(b"", Truncated, id="empty"),
    pytest.param(b"\x07" + DIM_X[1:], CorruptHeader, id="unknown-kind"),
    pytest.param(
        VAR_T[:6] + struct.pack(">I", 9) + VAR_T[10:], CorruptHeader, id="unknown-type-tag"
    ),
    pytest.param(DIM_X[:5] + b"\xff" + DIM_X[6:], CorruptHeader, id="name-not-utf8"),
    pytest.param(DIM_X + b"\x00", CorruptHeader, id="bytes-after-payload"),
    pytest.param(DIM_X[:3], Truncated, id="short-name-length"),
    pytest.param(DIM_X[:-1], Truncated, id="short-dimension"),
    pytest.param(VAR_T[:-1], Truncated, id="short-attribute-values"),
    pytest.param(
        DIM_X[:1] + struct.pack(">I", 1000) + DIM_X[5:], Truncated, id="name-past-end"
    ),
]


@pytest.mark.parametrize("buf, error", MALFORMED)
def test_malformed_records_rejected(buf, error):
    with pytest.raises(error):
        decode_record(buf)


def _outcome(path, buf: bytes):
    """The ParaheadError class ``path(buf)`` raises, or None if it succeeds."""
    try:
        path(buf)
    except ParaheadError as exc:
        return type(exc)
    return None


def _define(buf: bytes) -> None:
    """app's path for one gathered record: its name is read, then it is defined."""
    [rec] = make_name_records([[buf]])
    RankStore(0).define_record(rec)


def _decode(buf: bytes) -> None:
    make_name_records([[buf]])
    decode_record(buf)


@pytest.mark.parametrize(
    "buf, error", [p for p in MALFORMED if _outcome(record_name, p.values[0]) is None]
)
def test_define_record_rejects_malformed_payloads(buf, error):
    with pytest.raises(error):
        _define(buf)


def test_define_record_rejects_mutated_records_as_decode_does():
    records = workload_records()
    rand = random.Random(5)
    outcomes = set()
    for _ in range(600):
        buf = bytearray(rand.choice(records))
        if rand.random() < 0.25:
            del buf[rand.randrange(len(buf)) :]
        else:
            for _ in range(rand.randint(1, 3)):
                buf[rand.randrange(len(buf))] = rand.randrange(256)
        outcome = _outcome(_define, bytes(buf))
        assert outcome is _outcome(_decode, bytes(buf)), bytes(buf)
        outcomes.add(outcome)
    assert {None, Truncated, CorruptHeader} <= outcomes


@pytest.mark.parametrize(
    "buf, error",
    [
        pytest.param(b"", Truncated, id="empty"),
        pytest.param(DIM_X[:3], Truncated, id="short-name-length"),
        pytest.param(b"\x01\x00\x00\x00\tab", Truncated, id="name-past-end"),
        pytest.param(DIM_X[:5] + b"\xff" + DIM_X[6:], CorruptHeader, id="name-not-utf8"),
    ],
)
def test_malformed_record_names_rejected(buf, error):
    with pytest.raises(error):
        record_name(buf)


def test_truncated_streams_rejected():
    stream = pack_stream([DIM_X, VAR_T])
    assert unpack_stream(stream) == [DIM_X, VAR_T]
    for cut in range(len(stream)):
        with pytest.raises(Truncated):
            unpack_stream(stream[:cut])


def test_bytes_after_the_last_stream_record_rejected():
    assert unpack_stream(pack_stream([b"ab", b"c"])) == [b"ab", b"c"]
    for stream in (pack_stream([b"ab", b"c"]), pack_stream([])):
        with pytest.raises(CorruptHeader):
            unpack_stream(stream + b"junk")


@pytest.mark.parametrize(
    "type_tag", ["4", 4.7, True, ObjectKind.VARIABLE], ids=["str", "float", "bool", "kind"]
)
def test_variable_type_that_is_no_type_tag_is_unrepresentable(type_tag):
    # a record holds only the type's number, which each of these passes for
    payload = VarPayload(type_tag, (), ())
    with pytest.raises(UnrepresentableValue):
        encode_record(ObjectKind.VARIABLE, "v", payload)
    with pytest.raises(UnrepresentableValue):
        RankStore(0).define(ObjectKind.VARIABLE, "v", payload)
