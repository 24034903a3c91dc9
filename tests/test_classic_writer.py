"""The records writer against the pipelines it replaces: rank 0's classic
header (classic_from_records), new_format's blocks (block_lists), and the
Header encoders (encode_classic, encode_block) that now write through it.

The references decode each record, build a Header, place its data and
encode it with the reference writer (reference.py), which writes the lists
from Header objects; the records writer must give the same bytes, and fail
where they fail.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead import classic, newformat
from parahead.classic import (
    DEFAULT_ALIGN,
    AttributeDef,
    TypeTag,
    compute_offsets,
    encoded_size,
)
from parahead.errors import (
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    ParaheadError,
    Truncated,
    UnrepresentableValue,
    UnsupportedFeature,
)
from parahead.newformat import MetadataBlock, block_lists, split_full_name
from parahead.records import (
    AttPayload,
    DimPayload,
    ObjectKind,
    VarPayload,
    classic_from_records,
    decode_record,
    encode_record,
    record_name,
)
from parahead.strategies import build_classic_header, logical_map_from_classic

from conftest import block_records, random_header, tracked_growth
from reference import encode_block, encode_classic
from test_list_codec import (
    any_headers,
    block_paths,
    blocked_workload,
    headers,
    shared_blocks_workload,
)
from test_records import definitions, workload_records

DIM, VAR, ATT = ObjectKind.DIMENSION, ObjectKind.VARIABLE, ObjectKind.ATTRIBUTE


def reference(records) -> bytes:
    header = build_classic_header(decode_record(r) for r in records)
    return encode_classic(compute_offsets(header, encoded_size(header, 5), DEFAULT_ALIGN, 5), 5)


def outcome(write, records):
    """The bytes ``write`` returns, or the class of the ParaheadError it raises."""
    try:
        return write(records)
    except ParaheadError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_writer_equals_the_pipeline_on_valid_definitions(data):
    header = data.draw(headers(5, allow_nan=True))
    records = [encode_record(kind, name, payload)
               for (kind, name), payload in logical_map_from_classic(header).items()]
    records = data.draw(st.permutations(records))  # kinds interleave, as merged records do
    assert classic_from_records(records) == reference(records)


@settings(max_examples=300, deadline=None)
@given(defs=st.lists(definitions(allow_nan=True), max_size=6))
def test_writer_fails_where_the_pipeline_fails(defs):
    records = [encode_record(*d) for d in defs]
    expected = outcome(reference, records)
    got = outcome(classic_from_records, records)
    if isinstance(expected, bytes):
        assert got == expected
    else:
        assert not isinstance(got, bytes)


@pytest.mark.parametrize("workload", [blocked_workload, shared_blocks_workload])
def test_writer_equals_the_pipeline_on_benchmark_shaped_records(workload):
    records = list(dict.fromkeys(
        encode_record(d.kind, d.full_name, d.payload)
        for defs in workload().per_rank
        for d in defs
    ))
    assert classic_from_records(records) == reference(records)


def test_mutated_records_raise_only_parahead_errors():
    records = list(dict.fromkeys(workload_records()))
    assert isinstance(reference(records), bytes)
    rand = random.Random(5)
    rejected = 0
    for _ in range(300):
        i = rand.randrange(len(records))
        buf = bytearray(records[i])
        if rand.random() < 0.25:
            del buf[rand.randrange(len(buf)) :]
        else:
            for _ in range(rand.randint(1, 3)):
                buf[rand.randrange(len(buf))] = rand.randrange(256)
        mutated = records[:i] + [bytes(buf)] + records[i + 1 :]
        expected = outcome(reference, mutated)
        got = outcome(classic_from_records, mutated)  # anything else propagates
        if isinstance(expected, bytes):
            assert got == expected
        else:
            assert not isinstance(got, bytes)
            rejected += 1
    assert 0 < rejected < 300


_rec = encode_record


UNITS = AttributeDef("units", TypeTag.CHAR, b"K")
BASE = [
    _rec(DIM, "x", DimPayload(4)),
    _rec(VAR, "t", VarPayload(TypeTag.INT, ("x", "y"), (UNITS,))),
    _rec(ATT, "title", AttPayload(TypeTag.CHAR, b"run")),
    _rec(DIM, "y", DimPayload(3)),
    _rec(ATT, "range", AttPayload(TypeTag.DOUBLE, (0.5, 2.0))),
    _rec(DIM, "z", DimPayload(2)),  # no variable uses it
]
T = BASE[1]
NO_VALUES = struct.pack(">II", int(TypeTag.INT), 0)
EMPTY_CHAR = _rec(
    VAR, "t", VarPayload(TypeTag.INT, ("x",), (AttributeDef("u", TypeTag.CHAR, b""),))
)


@pytest.mark.parametrize("index, record, error", [
    pytest.param(5, _rec(DIM, "a//b", DimPayload(4)), CorruptHeader, id="bad-dim-name"),
    pytest.param(1, _rec(VAR, "/t", VarPayload(TypeTag.INT, ("x",))), CorruptHeader,
                 id="bad-var-name"),
    pytest.param(2, _rec(ATT, "tit\tle", AttPayload(TypeTag.CHAR, b"")), CorruptHeader,
                 id="bad-attribute-name"),
    pytest.param(1, _rec(VAR, "t", VarPayload(TypeTag.INT, ("x",), (
        AttributeDef("é", TypeTag.CHAR, b"a"),))), CorruptHeader, id="bad-var-attribute-name"),
    pytest.param(0, _rec(DIM, "x", DimPayload(0)), UnsupportedFeature, id="zero-length-dim"),
    pytest.param(0, _rec(DIM, "x", DimPayload(2**63)), UnrepresentableValue,
                 id="dim-length-past-width"),
    pytest.param(5, _rec(DIM, "x", DimPayload(3)), DuplicateName, id="duplicate-dim"),
    pytest.param(1, _rec(VAR, "t", VarPayload(TypeTag.INT, ("x", "w"))), DanglingDimRef,
                 id="dangling-dim"),
    pytest.param(2, b"\x03" + struct.pack(">I", 5) + b"title" + NO_VALUES, CorruptHeader,
                 id="empty-numeric-attribute"),
    pytest.param(1, EMPTY_CHAR[:-8] + NO_VALUES, CorruptHeader,
                 id="empty-numeric-var-attribute"),
    pytest.param(4, _rec(ATT, "title", AttPayload(TypeTag.CHAR, b"x")), DuplicateName,
                 id="duplicate-attribute"),
    pytest.param(2, _rec(VAR, "t", VarPayload(TypeTag.INT, ("x",))), DuplicateName,
                 id="duplicate-var"),
    pytest.param(1, _rec(VAR, "t", VarPayload(TypeTag.INT, ("x",), (UNITS, UNITS))),
                 DuplicateName, id="duplicate-var-attribute"),
    pytest.param(0, b"\x07" + BASE[0][1:], CorruptHeader, id="unknown-kind"),
    pytest.param(1, T[:6] + struct.pack(">I", 9) + T[10:], CorruptHeader,
                 id="unknown-var-type-tag"),
    pytest.param(1, T[:-9] + b"\x00\x00\x00\x09" + T[-5:], CorruptHeader,
                 id="unknown-var-attribute-type-tag"),
    pytest.param(4, BASE[4][:10] + b"\x00\x00\x00\x09" + BASE[4][14:], CorruptHeader,
                 id="unknown-attribute-type-tag"),
    pytest.param(0, b"", Truncated, id="empty-record"),
    pytest.param(1, T[:-1], Truncated, id="short-record"),
    pytest.param(0, BASE[0] + b"\x00", CorruptHeader, id="bytes-after-dim"),
    pytest.param(1, T + b"\x00", CorruptHeader, id="bytes-after-var"),
    pytest.param(4, BASE[4] + b"\x00", CorruptHeader, id="bytes-after-attribute"),
    pytest.param(1, _rec(VAR, "t", VarPayload(TypeTag.DOUBLE, ("x", "x", "y"))),
                 None, id="valid-repeated-dim"),
])
def test_single_faults_raise_what_the_pipeline_raises(index, record, error):
    records = BASE[:index] + [record] + BASE[index + 1 :]
    expected = outcome(reference, records)
    assert outcome(classic_from_records, records) == expected
    assert expected is error if error else isinstance(expected, bytes)


def test_vsize_and_begin_past_the_width_are_unrepresentable():
    dims = [_rec(DIM, "a", DimPayload(2**31)), _rec(DIM, "c", DimPayload(2**30))]
    # 2**93 DOUBLE elements: a vsize past 2**63 - 1
    huge = [_rec(VAR, "v", VarPayload(TypeTag.DOUBLE, ("a", "a", "a")))]
    # each vsize is 2**62, so the third variable begins past 2**63 - 1
    late = [_rec(VAR, f"v{i}", VarPayload(TypeTag.INT, ("c", "c"))) for i in range(3)]
    for records in (dims + huge, dims + late):
        assert outcome(reference, records) is UnrepresentableValue
        assert outcome(classic_from_records, records) is UnrepresentableValue
    assert classic_from_records(dims + late[:2]) == reference(dims + late[:2])


# --- block writer -----------------------------------------------------------------


def placed_block(path: str, records, start: int) -> MetadataBlock:
    header = build_classic_header((decode_record(r) for r in records), path)
    return MetadataBlock(path, compute_offsets(header, start, 1))


def write_block(path: str, start: int):
    """The block writer on ``path``'s records, placed from ``start``."""
    return lambda records: block_lists(path, records).place(start)


def block_reference(path: str, start: int):
    return lambda records: encode_block(placed_block(path, records, start))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), path=block_paths, content=headers(5, local=True, allow_nan=True))
def test_block_writer_equals_the_pipeline_on_valid_blocks(data, path, content):
    records = data.draw(st.permutations(block_records(MetadataBlock(path, content))))
    start = encoded_size(content, 5) + data.draw(st.integers(0, 2**40))
    block = placed_block(path, records, start)
    raw = encode_block(block)
    lists = block_lists(path, records)
    c = block.content
    data_bytes = sum(v.vsize for v in c.vars)
    assert lists.facts == (len(raw), len(c.dims), len(c.vars), len(c.global_atts), data_bytes)
    assert lists.place(start) == raw


def test_list_writer_keeps_nothing_tracked_per_variable():
    # at the end of its records the writer holds one entry per variable
    # still to place: a dimension-name list or a TypeTag in it stays tracked
    records = [_rec(DIM, "b/d", DimPayload(3))]
    records += [_rec(VAR, f"b/v{i:04d}", VarPayload(TypeTag.INT, ("b/d",))) for i in range(5000)]
    assert tracked_growth(lambda it: block_lists("b", it), records, len(records)) < 50


def test_mutated_block_records_raise_only_parahead_errors():
    records = [
        r for r in dict.fromkeys(workload_records())
        if split_full_name(record_name(r)[1])[0] == "b00000"
    ]
    write, reference = write_block("b00000", 1 << 20), block_reference("b00000", 1 << 20)
    assert isinstance(reference(records), bytes)
    rand = random.Random(9)
    rejected = 0
    for _ in range(300):
        i = rand.randrange(len(records))
        buf = bytearray(records[i])
        if rand.random() < 0.25:
            del buf[rand.randrange(len(buf)) :]
        else:
            for _ in range(rand.randint(1, 3)):
                buf[rand.randrange(len(buf))] = rand.randrange(256)
        mutated = records[:i] + [bytes(buf)] + records[i + 1 :]
        got = outcome(write, mutated)  # anything else propagates
        # the writer trusts the caller's path prefix, so it may accept a
        # record the reference rejects for its name; never the reverse
        expected = outcome(reference, mutated)
        if isinstance(expected, bytes):
            assert got == expected
        rejected += not isinstance(got, bytes)
    assert 0 < rejected < 300


BLOCK = [
    _rec(DIM, "p/x", DimPayload(4)),
    _rec(VAR, "p/t", VarPayload(TypeTag.INT, ("p/x", "p/y"), (UNITS,))),
    _rec(ATT, "p/title", AttPayload(TypeTag.CHAR, b"run")),
    _rec(DIM, "p/y", DimPayload(3)),
    _rec(ATT, "p/range", AttPayload(TypeTag.DOUBLE, (0.5, 2.0))),
]


@pytest.mark.parametrize("index, record, error", [
    pytest.param(2, _rec(ATT, "p/tit\tle", AttPayload(TypeTag.CHAR, b"")), CorruptHeader,
                 id="bad-name"),
    pytest.param(3, _rec(DIM, "p/y", DimPayload(0)), UnsupportedFeature, id="zero-length-dim"),
    pytest.param(1, _rec(VAR, "p/t", VarPayload(TypeTag.INT, ("p/x", "q/y"))), DanglingDimRef,
                 id="dim-of-another-block"),
    pytest.param(4, _rec(ATT, "p/title", AttPayload(TypeTag.CHAR, b"x")), DuplicateName,
                 id="duplicate-attribute"),
    pytest.param(2, b"\x03" + struct.pack(">I", 7) + b"p/title" + NO_VALUES, CorruptHeader,
                 id="empty-numeric-attribute"),
])
def test_block_single_faults_raise_what_the_pipeline_raises(index, record, error):
    records = BLOCK[:index] + [record] + BLOCK[index + 1 :]
    assert isinstance(outcome(block_reference("p", 4096), BLOCK), bytes)
    assert outcome(block_reference("p", 4096), records) is error
    assert outcome(write_block("p", 4096), records) is error


# --- the Header encoders ----------------------------------------------------------


def seeded_headers_and_blocks() -> tuple[list, list[MetadataBlock]]:
    """Criterion 01's draws (seed 101): 1,000 headers, then the blocks of
    1,000 block sets."""
    rng = random.Random(101)
    flat = [random_header(rng, version=2, max_dims=4, max_vars=4) for _ in range(1000)]
    blocks = []
    for _ in range(1000):
        used = set()
        for _ in range(rng.randint(0, 4)):
            path = f"s{rng.randrange(10**5):05d}"
            if path in used:
                continue
            used.add(path)
            blocks.append(MetadataBlock(path, random_header(rng, 5, max_dims=3, max_vars=3)))
    return flat, blocks


def test_header_encoders_equal_the_reference_on_seeded_headers():
    flat, blocks = seeded_headers_and_blocks()
    for header in flat:
        for version in (1, 2, 5):
            assert classic.encode_classic(header, version) == encode_classic(header, version)
    for block in blocks:
        assert newformat.encode_block(block) == encode_block(block)


@pytest.mark.parametrize("version", [1, 2, 5])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_classic_encoder_equals_the_reference_on_valid_headers(version, data):
    header = data.draw(headers(version, allow_nan=True))
    assert classic.encode_classic(header, version) == encode_classic(header, version)


@settings(max_examples=100, deadline=None)
@given(path=block_paths, content=headers(5, local=True, allow_nan=True))
def test_block_encoder_equals_the_reference_on_valid_blocks(path, content):
    block = MetadataBlock(path, content)
    assert newformat.encode_block(block) == encode_block(block)


@settings(max_examples=300, deadline=None)
@given(header=any_headers)
def test_header_encoders_fail_where_the_reference_fails(header):
    """Any values at all: both raise a ParaheadError, or both give the same
    bytes.  The class may differ where several checks fail, or where a value
    has the wrong type."""
    pairs = [
        (lambda h, v=v: classic.encode_classic(h, v), lambda h, v=v: encode_classic(h, v))
        for v in (1, 2, 5)
    ]
    pairs.append((
        lambda h: newformat.encode_block(MetadataBlock("blk", h)),
        lambda h: encode_block(MetadataBlock("blk", h)),
    ))
    for ours, ref in pairs:
        expected = outcome(ref, header)
        got = outcome(ours, header)
        if isinstance(expected, bytes):
            assert got == expected
        else:
            assert not isinstance(got, bytes)
