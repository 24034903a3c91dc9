"""Classic and block list codec: Hypothesis round trips and fail-closed decoding."""

from __future__ import annotations

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead.classic import (
    AttributeDef,
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    align_up,
    decode_classic,
    encode_classic,
    encoded_size,
    fill_vsizes,
    validate_name,
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
from parahead.newformat import (
    IndexEntry,
    IndexTable,
    MetadataBlock,
    assemble_image,
    decode_block,
    decode_image,
    decode_index_table,
    encode_block,
    encode_index_table,
    index_table_encoded_size,
)
from parahead.records import AttPayload, DimPayload, ObjectKind, VarPayload, encode_record
from parahead.store import RankStore
from parahead.strategies import (
    _add_payloads,
    open_new_format,
    read_full_header,
    run_lib_baseline,
    run_new_format,
)
from parahead.workload import Definition, Workload, WorkloadSpec, gen_workload, spec_for_dataset

from test_records import typed_values

PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))


def _storable(name: str) -> bool:
    try:
        validate_name(name)
    except CorruptHeader:
        return False
    return True


# classic names may hold inner slashes; block-local names hold none
names = st.text(PRINTABLE, min_size=1, max_size=10).filter(_storable)
local_names = st.text(PRINTABLE.replace("/", ""), min_size=1, max_size=10)


def attribute_lists(version: int, name_strategy, allow_nan: bool):
    tv = typed_values(allow_nan).filter(lambda t: version == 5 or t[0] is not TypeTag.INT64)
    return st.lists(
        st.tuples(name_strategy, tv), max_size=3, unique_by=lambda a: a[0]
    ).map(lambda atts: tuple(AttributeDef(n, *t) for n, t in atts))


@st.composite
def headers(draw, version: int, local: bool = False, allow_nan: bool = False) -> Header:
    """Valid headers: unique names, vsizes from the dims, regions placed in
    any order with gaps between them."""
    name = local_names if local else names
    dims = tuple(
        DimensionDef(n, draw(st.integers(1, 200)))
        for n in draw(st.lists(name, max_size=5, unique=True))
    )
    types = [t for t in TypeTag if version == 5 or t is not TypeTag.INT64]
    vars_ = []
    for n in draw(st.lists(name, max_size=5, unique=True)):
        refs = draw(st.lists(st.integers(0, len(dims) - 1), max_size=3)) if dims else []
        atts = draw(attribute_lists(version, name, allow_nan))
        vars_.append(VariableDef(n, tuple(refs), draw(st.sampled_from(types)), atts))
    gatts = draw(attribute_lists(version, name, allow_nan))
    header = fill_vsizes(Header(dims, gatts, tuple(vars_)))
    begins = [0] * len(vars_)
    cursor = draw(st.integers(0, 2**30))
    for i in draw(st.permutations(range(len(vars_)))):
        cursor += 4 * draw(st.integers(0, 16))
        begins[i] = cursor
        cursor += header.vars[i].vsize
    placed = tuple(replace(v, begin=b) for v, b in zip(header.vars, begins))
    return replace(header, vars=placed)


block_paths = st.one_of(st.just(""), names)


@pytest.mark.parametrize("version", [1, 2, 5])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_classic_decode_inverts_encode(version, data):
    header = data.draw(headers(version))
    raw = encode_classic(header, version)
    assert len(raw) == encoded_size(header, version)
    assert decode_classic(raw) == header


@pytest.mark.parametrize("version", [1, 2, 5])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_classic_encode_inverts_decode(version, data):
    raw = encode_classic(data.draw(headers(version, allow_nan=True)), version)
    assert encode_classic(decode_classic(raw), version) == raw


@settings(max_examples=150, deadline=None)
@given(path=block_paths, content=headers(5, local=True))
def test_block_decode_inverts_encode(path, content):
    block = MetadataBlock(path, content)
    assert decode_block(encode_block(block)) == block


@settings(max_examples=150, deadline=None)
@given(path=block_paths, content=headers(5, local=True, allow_nan=True))
def test_block_encode_inverts_decode(path, content):
    raw = encode_block(MetadataBlock(path, content))
    assert encode_block(decode_block(raw)) == raw


@settings(max_examples=150, deadline=None)
@given(path=block_paths, content=headers(5, local=True))
def test_lazy_block_map_equals_the_decoded_blocks_objects(path, content):
    # the lazy reader builds its map from the block's bytes, not from decode_block
    block = MetadataBlock(path, content)
    expected = _add_payloads({}, decode_block(encode_block(block)).content, path)
    assert read_full_header(open_new_format(assemble_image([block]))[0]) == expected


# --- mutated images of the benchmark-shaped workloads ---------------------------


def blocked_workload() -> Workload:
    """The 98M profile, one block per rank at P = 8, at a small scale."""
    return gen_workload(spec_for_dataset("98M", 0.0005, 8, seed=1))


def shared_blocks_workload(own_blocks: int = 6, shared_blocks: int = 3) -> Workload:
    """Blocks of 6 dims and 4 vars (each var with one CHAR attribute): some
    defined identically on all 4 ranks, the rest by one rank each."""
    rng = random.Random(5)

    def block(path: str) -> list:
        dims = [
            Definition(ObjectKind.DIMENSION, f"{path}/d{i}", DimPayload(rng.randrange(1, 1000)))
            for i in range(6)
        ]
        vars_ = []
        for i in range(4):
            refs = tuple(d.full_name for d in rng.sample(dims, 2))
            att = AttributeDef("meta", TypeTag.CHAR, rng.randbytes(8))
            tag = rng.choice((TypeTag.FLOAT, TypeTag.INT, TypeTag.DOUBLE))
            vars_.append(
                Definition(ObjectKind.VARIABLE, f"{path}/v{i}", VarPayload(tag, refs, (att,)))
            )
        return dims + vars_

    shared = [d for b in range(shared_blocks) for d in block(f"shared/s{b:04d}")]
    per_rank = tuple(
        tuple(shared + [d for b in range(own_blocks) for d in block(f"r{r}/b{b:04d}")])
        for r in range(4)
    )
    return Workload(WorkloadSpec(total_vars=0, total_dims=0, nranks=4), per_rank)


def images(workload: Workload) -> tuple[bytes, list[tuple[IndexEntry, bytes]]]:
    """The classic image and the index entries and raw blocks of the new_format image."""
    classic = run_lib_baseline(workload, 1024).image.to_bytes()
    new = run_new_format(workload, 1024).image.to_bytes()
    blocks = [(e, new[e.offset : e.offset + e.size]) for e in decode_index_table(new).entries]
    return classic, blocks


def one_block_image(entry: IndexEntry, raw: bytes) -> bytes:
    """A partitioned image of the one block ``raw``, indexed as ``entry`` but
    for its offset and size."""
    offset = align_up(index_table_encoded_size([entry.block_path]), 4)
    index = encode_index_table(
        IndexTable((entry._replace(offset=offset, size=len(raw)),), offset + len(raw))
    )
    return index + bytes(offset - len(index)) + raw


def image_map(image: bytes) -> dict:
    """The objects of a partitioned image as ``decode_image`` reads them."""
    out = {}
    for path, block in decode_image(image)[1].items():
        _add_payloads(out, block.content, path)
    return out


def outcome(read, image: bytes):
    """What ``read(image)`` returns, or the class of the ParaheadError it raises."""
    try:
        return read(image)
    except ParaheadError as exc:
        return type(exc)


def mutate(rand: random.Random, raw: bytes) -> bytes:
    buf = bytearray(raw)
    if rand.random() < 0.2:
        del buf[rand.randrange(len(buf)) :]
    else:
        for _ in range(rand.randint(1, 4)):
            buf[rand.randrange(len(buf))] = rand.randrange(256)
    return bytes(buf)


@pytest.mark.parametrize("build", [blocked_workload, shared_blocks_workload])
def test_mutated_lists_raise_only_parahead_errors(build):
    classic, blocks = images(build())
    assert decode_classic(classic) is not None and len(blocks) > 1
    rand = random.Random(11)
    rejected = 0
    for _ in range(300):
        entry, block = rand.choice(blocks)
        for decode, raw in ((decode_classic, classic), (decode_block, block)):
            mutated = mutate(rand, raw)
            try:
                decode(mutated)
            except ParaheadError:
                rejected += 1
        # decode_image and the lazy reader check a block alike: the same
        # objects, or the same ParaheadError subclass
        image = one_block_image(entry, mutated)
        lazy = outcome(lambda b: read_full_header(open_new_format(b)[0]), image)
        assert outcome(image_map, image) == lazy
    assert rejected > 300  # most mutations are caught


# --- huge counts and malformed lists --------------------------------------------

_Q = struct.Struct(">Q").pack
_I = struct.Struct(">I").pack
HEAD5 = b"CDF\x05" + _Q(0)
EMPTY5 = _I(0) + _Q(0)
NAME_A = _Q(1) + b"a\x00\x00\x00"
DIM_LIST = _I(0x0A) + _Q(1) + NAME_A + _Q(3)


def one_var(ndims: bytes = _Q(1) + _Q(0), atts: bytes = EMPTY5, tail: bytes = b"") -> bytes:
    """A v5 file with dim a(3) and one INT variable over it, parts replaceable."""
    tail = tail or _I(4) + _Q(12) + _Q(64)
    return HEAD5 + DIM_LIST + EMPTY5 + _I(0x0B) + _Q(1) + NAME_A + ndims + atts + tail


def one_gatt(tag: int = 4, count: bytes = _Q(1), values: bytes = _I(7)) -> bytes:
    return HEAD5 + EMPTY5 + _I(0x0C) + _Q(1) + NAME_A + _I(tag) + count + values + EMPTY5


HUGE = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**64 - 1]


@pytest.mark.parametrize("n", HUGE)
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda n: HEAD5 + _I(0x0A) + _Q(n) + NAME_A + _Q(3), id="dimension-count"),
        pytest.param(
            lambda n: HEAD5 + EMPTY5 + _I(0x0C) + _Q(n) + NAME_A + _I(4) + _Q(1),
            id="attribute-count",
        ),
        pytest.param(lambda n: one_gatt(count=_Q(n)), id="attribute-value-count"),
        pytest.param(lambda n: one_gatt(tag=2, count=_Q(n)), id="char-value-count"),
        pytest.param(
            lambda n: HEAD5 + EMPTY5 + EMPTY5 + _I(0x0B) + _Q(n) + NAME_A, id="variable-count"
        ),
        pytest.param(lambda n: one_var(ndims=_Q(n) + _Q(0)), id="dimension-id-count"),
        pytest.param(lambda n: one_var(atts=_I(0x0C) + _Q(n)), id="variable-attribute-count"),
        pytest.param(lambda n: HEAD5 + _I(0x0A) + _Q(1) + _Q(n) + b"a", id="name-length"),
    ],
)
def test_huge_counts_are_truncated(build, n):
    raw = build(n)
    with pytest.raises(Truncated):
        decode_classic(raw)
    with pytest.raises(Truncated):
        decode_block(_Q(0) + raw[len(HEAD5) :])  # the same lists in a root block


def one_dim(entry: bytes, tag: int = 0x0A) -> bytes:
    """A v5 file whose only object is the dimension entry ``entry``."""
    return HEAD5 + _I(tag) + _Q(1) + entry + EMPTY5 + EMPTY5


@pytest.mark.parametrize(
    "raw, error",
    [
        pytest.param(one_var(), None, id="well-formed"),
        pytest.param(HEAD5 + _I(0x0B) + _Q(0) + EMPTY5 + EMPTY5, CorruptHeader, id="empty-list-tag"),
        pytest.param(one_dim(NAME_A + _Q(3), tag=0x0C), CorruptHeader, id="wrong-list-tag"),
        pytest.param(one_dim(_Q(1) + b"a\x00\x01\x00" + _Q(3)), CorruptHeader, id="name-padding"),
        pytest.param(
            one_dim(_Q(1) + b"\x07\x00\x00\x00" + _Q(3)), CorruptHeader, id="non-printable-name"
        ),
        pytest.param(
            one_dim(_Q(1) + b"\xc3\x00\x00\x00" + _Q(3)), CorruptHeader, id="non-ascii-name"
        ),
        pytest.param(one_dim(_Q(2) + b"a/\x00\x00" + _Q(3)), CorruptHeader, id="trailing-slash"),
        pytest.param(one_dim(_Q(0) + _Q(3)), CorruptHeader, id="empty-name"),
        pytest.param(one_dim(NAME_A + _Q(0)), UnsupportedFeature, id="zero-length-dimension"),
        pytest.param(
            HEAD5 + _I(0x0A) + _Q(2) + NAME_A + _Q(3) + NAME_A + _Q(4) + EMPTY5 + EMPTY5,
            DuplicateName, id="duplicate-dimension",
        ),
        pytest.param(one_gatt(count=_Q(0), values=b""), CorruptHeader, id="numeric-no-values"),
        pytest.param(one_gatt(tag=9), CorruptHeader, id="unknown-attribute-type"),
        pytest.param(one_gatt(tag=2, values=b"x\x00\x00\x01"), CorruptHeader, id="value-padding"),
        pytest.param(one_var(ndims=_Q(1) + _Q(1)), DanglingDimRef, id="dangling-dimension-id"),
        pytest.param(one_var(tail=_I(9) + _Q(12) + _Q(64)), CorruptHeader, id="unknown-var-type"),
        pytest.param(one_var(tail=_I(4) + _Q(16) + _Q(64)), CorruptHeader, id="vsize-mismatch"),
        pytest.param(one_var()[:-1], Truncated, id="short-begin"),
    ],
)
def test_malformed_lists_raise_the_documented_error(raw, error):
    if error is None:
        header = decode_classic(raw)
        assert header.vars[0] == VariableDef("a", (0,), TypeTag.INT, (), 64, 12)
        return
    with pytest.raises(error):
        decode_classic(raw)


def test_overlapping_regions_in_any_order_are_rejected():
    dims = (DimensionDef("x", 10),)
    for begins in ((512, 520), (520, 512), (600, 500, 530)):
        vars_ = tuple(
            VariableDef(f"v{i}", (0,), TypeTag.INT, (), b, 40) for i, b in enumerate(begins)
        )
        overlapping = Header(dims, (), vars_)
        with pytest.raises(CorruptHeader):
            encode_classic(overlapping, 5)
        # the same bytes with the check skipped must fail to decode too
        spaced = replace(
            overlapping, vars=tuple(replace(v, begin=1000 * (i + 1)) for i, v in enumerate(vars_))
        )
        raw = bytearray(encode_classic(spaced, 5))
        for i, b in enumerate(begins):
            at = raw.index(_Q(1000 * (i + 1)))
            raw[at : at + 8] = _Q(b)
        with pytest.raises(CorruptHeader):
            decode_classic(bytes(raw))
    disjoint = Header(dims, (), tuple(
        VariableDef(f"v{i}", (0,), TypeTag.INT, (), b, 40) for i, b in enumerate((600, 500, 540))
    ))
    assert decode_classic(encode_classic(disjoint, 5)) == disjoint


# --- encoders fail closed -------------------------------------------------------

# Any Python value: what a caller might put in a field by mistake.
any_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.binary(max_size=6) | st.sampled_from(list(TypeTag) + list(ObjectKind)),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def or_any(valid):
    """A field's well-formed value, or any value at all."""
    return valid | any_value


any_atts = st.builds(
    AttributeDef,
    or_any(st.sampled_from("ab")),
    or_any(st.sampled_from(TypeTag)),
    or_any(st.lists(st.integers(-200, 200), min_size=1, max_size=2).map(tuple)),
)
any_headers = st.builds(
    Header,
    st.lists(
        st.builds(DimensionDef, or_any(st.sampled_from("xy")), or_any(st.integers(1, 9))),
        max_size=2,
    ).map(tuple),
    st.lists(any_atts, max_size=2).map(tuple),
    st.lists(
        st.builds(
            VariableDef,
            or_any(st.sampled_from("uv")),
            or_any(st.lists(st.integers(0, 1), max_size=2).map(tuple)),
            or_any(st.sampled_from(TypeTag)),
            or_any(st.lists(any_atts, max_size=2).map(tuple)),
            or_any(st.integers(0, 99)),
            or_any(st.integers(0, 99)),
        ),
        max_size=2,
    ).map(tuple),
)
any_payloads = any_value | st.one_of(
    st.builds(DimPayload, or_any(st.integers(1, 9))),
    st.builds(AttPayload, or_any(st.sampled_from(TypeTag)), any_value),
    st.builds(
        VarPayload,
        or_any(st.sampled_from(TypeTag)),
        or_any(st.lists(st.sampled_from("xy"), max_size=2).map(tuple)),
        or_any(st.lists(any_atts, max_size=2).map(tuple)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(header=any_headers)
def test_header_encoders_raise_only_parahead_errors_on_any_value(header):
    for encode in (
        lambda: encode_classic(header, 5),
        lambda: encode_classic(header, 1),
        lambda: encode_block(MetadataBlock("blk", header)),
    ):
        try:
            encode()
        except ParaheadError:
            pass


@settings(max_examples=300, deadline=None)
@given(
    kind=or_any(st.sampled_from(ObjectKind)),
    name=or_any(st.sampled_from(["a", "b/c"])),
    payload=any_payloads,
)
def test_record_encoders_raise_only_parahead_errors_on_any_value(kind, name, payload):
    for encode in (
        lambda: encode_record(kind, name, payload),
        lambda: RankStore(0).define(kind, name, payload),
    ):
        try:
            encode()
        except ParaheadError:
            pass


@pytest.mark.parametrize(
    "header",
    [
        Header(global_atts=(AttributeDef("a", TypeTag.BYTE, (300,)),)),
        Header(global_atts=(AttributeDef("a", TypeTag.INT, ("x",)),)),
        Header(dims=(DimensionDef("x", 2.5),)),
    ],
)
def test_out_of_range_and_non_integer_values_are_unrepresentable(header):
    with pytest.raises(UnrepresentableValue):
        encode_classic(header, 5)
    with pytest.raises(UnrepresentableValue):
        encode_block(MetadataBlock("blk", header))
    if header.global_atts:
        att = header.global_atts[0]
        with pytest.raises(UnrepresentableValue):
            encode_record(ObjectKind.ATTRIBUTE, "a", AttPayload(att.type_tag, att.values))


any_index_tables = st.builds(
    IndexTable,
    st.lists(
        st.builds(
            IndexEntry,
            or_any(st.sampled_from(["", "a", "b/c"])),
            or_any(st.integers(0, 200)),
            or_any(st.integers(0, 64)),
            or_any(st.integers(0, 3)),
            or_any(st.integers(0, 3)),
            or_any(st.integers(0, 3)),
        ),
        max_size=3,
    ).map(tuple),
    or_any(st.integers(0, 400)),
)


@settings(max_examples=300, deadline=None)
@given(table=any_index_tables)
def test_index_encoder_raises_only_parahead_errors_on_any_value(table):
    try:
        encode_index_table(table)
    except ParaheadError:
        pass


@pytest.mark.parametrize(
    "entry",
    [
        IndexEntry(5, 100, 10, 1, 0, 0),
        IndexEntry("a", 100, None, 1, 0, 0),
    ],
    ids=["int-path", "size-none"],
)
def test_bad_index_entry_fields_are_unrepresentable(entry):
    with pytest.raises(UnrepresentableValue):
        encode_index_table(IndexTable((entry,), 200))
