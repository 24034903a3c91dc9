"""Classic header codec: byte-exact layout, round trips, offsets, errors."""

from __future__ import annotations

import io
import struct

import pytest

from parahead.classic import (
    AttributeDef,
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    compute_offsets,
    decode_classic,
    encode_classic,
    encoded_size,
    fill_vsizes,
    var_size_bytes,
)
from parahead.errors import (
    BadMagic,
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    ReserveTooSmall,
    Truncated,
    UnrepresentableValue,
    UnsupportedFeature,
)

from conftest import random_header


def scipy_file_bytes(build=None, version=1) -> bytes:
    from scipy.io import netcdf_file

    buf = io.BytesIO()
    f = netcdf_file(buf, "w", version=version)
    if build is not None:
        build(f)
    f.flush()
    return buf.getvalue()


def test_empty_header_matches_reference_writer():
    # independent oracle: a third-party classic-format writer, versions 1 and 2
    for version in (1, 2):
        ours = encode_classic(Header(), version)
        assert ours == scipy_file_bytes(version=version)


def test_empty_header_v5_frozen_bytes():
    # magic + 8-byte zero record count + three (4-byte tag, 8-byte count) zeros
    expected = b"CDF\x05" + b"\x00" * 8 + (b"\x00" * 12) * 3
    assert len(expected) == 48
    assert encode_classic(Header(), 5) == expected


def test_decode_reference_writer_file():
    def build(f):
        f.createDimension("x", 10)
        f.createDimension("y", 3)
        v = f.createVariable("v", "i", ("x",))
        v[:] = list(range(10))
        v.units = b"m"
        w = f.createVariable("w", "d", ("y", "x"))
        w[:] = 0.0
        f.history = b"created for cross-validation"

    for version in (1, 2):
        raw = scipy_file_bytes(build, version)
        header = decode_classic(raw)
        assert {d.name: d.length for d in header.dims} == {"x": 10, "y": 3}
        by_name = {v.name: v for v in header.vars}
        assert by_name["v"].type_tag is TypeTag.INT
        assert by_name["v"].vsize == 40
        assert by_name["w"].type_tag is TypeTag.DOUBLE
        assert by_name["w"].dim_refs == (1, 0)
        assert header.global_atts == (
            AttributeDef("history", TypeTag.CHAR, b"created for cross-validation"),
        )
        # re-encoding must reproduce the reference writer's header bytes exactly
        ours = encode_classic(header, version)
        assert ours == raw[: len(ours)]
        data_start = min(v.begin for v in header.vars)
        assert len(ours) <= data_start


def test_round_trip_random_headers(rng):
    for i in range(150):
        version = (1, 2, 5)[i % 3]
        header = random_header(rng, version)
        raw = encode_classic(header, version)
        assert decode_classic(raw) == header
        # encode is a fixed point under decode-encode
        assert encode_classic(decode_classic(raw), version) == raw


def test_encode_deterministic(rng):
    header = random_header(rng, 5)
    assert encode_classic(header, 5) == encode_classic(header, 5)


def test_encoded_size_matches_encoding(rng):
    for i in range(60):
        version = (1, 2, 5)[i % 3]
        header = random_header(rng, version)
        assert encoded_size(header, version) == len(encode_classic(header, version))
        # an unplaced header has the size of its encoding after compute_offsets,
        # wherever the data goes
        unplaced = random_header(rng, version, with_offsets=False)
        size = encoded_size(unplaced, version)
        placed = compute_offsets(unplaced, size + rng.randrange(4096), 4, version)
        assert size == len(encode_classic(placed, version))


@pytest.mark.parametrize(
    "header, error",
    [
        (Header(dims=(DimensionDef("x", 2), DimensionDef("x", 3))), DuplicateName),
        (
            Header(dims=(DimensionDef("t", 0),), vars=(VariableDef("v", (0,), TypeTag.INT),)),
            UnsupportedFeature,
        ),
        (
            Header(dims=(DimensionDef("x", 2),), vars=(VariableDef("v", (1,), TypeTag.INT),)),
            DanglingDimRef,
        ),
        (
            Header(dims=(DimensionDef("x", 2.5),), vars=(VariableDef("v", (0,), TypeTag.INT),)),
            UnrepresentableValue,
        ),
    ],
    ids=["duplicate-name", "length-0-dimension", "dangling-reference", "non-integer-length"],
)
def test_sizing_rejects_what_the_encoder_rejects(header, error):
    with pytest.raises(error):
        encode_classic(header, 5)
    with pytest.raises(error):
        encoded_size(header, 5)
    with pytest.raises(error):
        compute_offsets(header, 4096, 4, 5)


def test_fill_vsizes_rejects_a_non_integer_length():
    header = Header(dims=(DimensionDef("x", 2.5),), vars=(VariableDef("v", (0,), TypeTag.INT),))
    with pytest.raises(UnrepresentableValue):
        fill_vsizes(header)


def test_trailing_bytes_ignored(rng):
    header = random_header(rng, 5)
    raw = encode_classic(header, 5)
    assert decode_classic(raw + b"\xAA" * 64) == header


# --- offsets ---------------------------------------------------------------


def test_compute_offsets_two_int_vars():
    header = Header(
        dims=(DimensionDef("x", 10),),
        vars=(
            VariableDef("a", (0,), TypeTag.INT),
            VariableDef("b", (0,), TypeTag.INT),
        ),
    )
    placed = compute_offsets(header, 512, 4)
    assert [v.begin for v in placed.vars] == [512, 552]
    assert all(v.vsize == 40 for v in placed.vars)


def test_compute_offsets_empty_vars():
    header = Header(dims=(DimensionDef("x", 4),))
    assert compute_offsets(header, 1024, 8) == header


def test_vsize_rounds_to_four():
    # 3*5 SHORT elements = 30 bytes, padded to 32
    assert var_size_bytes((3, 5), TypeTag.SHORT) == 32
    header = Header(
        dims=(DimensionDef("a", 3), DimensionDef("b", 5)),
        vars=(VariableDef("v", (0, 1), TypeTag.SHORT),),
    )
    placed = fill_vsizes(header)
    assert placed.vars[0].vsize == 32


def test_scalar_variable_vsize():
    assert var_size_bytes((), TypeTag.BYTE) == 4
    assert var_size_bytes((), TypeTag.DOUBLE) == 8


def test_reserve_too_small():
    header = Header(dims=(DimensionDef("x", 10),))
    with pytest.raises(ReserveTooSmall):
        compute_offsets(header, 8, 4)


def test_offsets_monotone_and_disjoint(rng):
    for _ in range(30):
        header = random_header(rng, 5, with_offsets=False)
        reserve = encoded_size(header, 5) + rng.randrange(256)
        placed = compute_offsets(header, reserve, 8)
        begins = [v.begin for v in placed.vars]
        assert begins == sorted(begins)
        for a, b in zip(placed.vars, placed.vars[1:]):
            assert a.begin + a.vsize <= b.begin
        if begins:
            assert begins[0] % 8 == 0 and begins[0] >= reserve


def test_alignment_must_be_power_of_two():
    with pytest.raises(ValueError):
        compute_offsets(Header(), 64, 3)


# --- errors ----------------------------------------------------------------


def test_bad_magic():
    with pytest.raises(BadMagic):
        decode_classic(b"XDF\x05" + b"\x00" * 44)
    with pytest.raises(BadMagic):
        decode_classic(b"CDF\x03" + b"\x00" * 44)


def test_truncated(rng):
    header = random_header(rng, 5, max_dims=4, max_vars=4)
    raw = encode_classic(header, 5)
    with pytest.raises(Truncated):
        decode_classic(raw[: len(raw) // 2])
    with pytest.raises(Truncated):
        decode_classic(raw[:3])


def test_duplicate_name_rejected():
    header = Header(dims=(DimensionDef("x", 1), DimensionDef("x", 2)))
    with pytest.raises(DuplicateName):
        encode_classic(header, 5)


def test_duplicate_name_on_decode():
    good = encode_classic(
        Header(dims=(DimensionDef("ax", 1), DimensionDef("ay", 1))), 5
    )
    bad = good.replace(b"ay", b"ax")
    with pytest.raises(DuplicateName):
        decode_classic(bad)


def test_dangling_dim_ref():
    header = Header(vars=(VariableDef("v", (0,), TypeTag.INT),))
    with pytest.raises(DanglingDimRef):
        encode_classic(header, 5)


def test_vsize_mismatch_rejected():
    header = Header(
        dims=(DimensionDef("x", 10),),
        vars=(VariableDef("v", (0,), TypeTag.INT, (), begin=512, vsize=44),),
    )
    with pytest.raises(CorruptHeader):
        encode_classic(header, 5)


def test_overlapping_regions_rejected():
    header = Header(
        dims=(DimensionDef("x", 10),),
        vars=(
            VariableDef("a", (0,), TypeTag.INT, (), begin=512, vsize=40),
            VariableDef("b", (0,), TypeTag.INT, (), begin=520, vsize=40),
        ),
    )
    with pytest.raises(CorruptHeader):
        encode_classic(header, 5)


def test_int64_attribute_requires_version5():
    header = Header(global_atts=(AttributeDef("big", TypeTag.INT64, (1, 2)),))
    assert decode_classic(encode_classic(header, 5)) == header
    with pytest.raises(UnrepresentableValue):
        encode_classic(header, 2)
    # also when attached to a variable
    nested = fill_vsizes(
        Header(
            dims=(DimensionDef("x", 2),),
            vars=(
                VariableDef(
                    "v", (0,), TypeTag.INT,
                    (AttributeDef("big", TypeTag.INT64, (7,)),), begin=64,
                ),
            ),
        )
    )
    with pytest.raises(UnrepresentableValue):
        encode_classic(nested, 1)


def test_int64_requires_version5():
    header = fill_vsizes(
        Header(
            dims=(DimensionDef("x", 2),),
            vars=(VariableDef("v", (0,), TypeTag.INT64, (), begin=64),),
        )
    )
    raw = encode_classic(header, 5)
    assert decode_classic(raw) == header
    for version in (1, 2):
        with pytest.raises(UnrepresentableValue):
            encode_classic(header, version)


def test_offset_width_limits():
    big = 2**40
    header = Header(
        dims=(DimensionDef("x", 1),),
        vars=(VariableDef("v", (0,), TypeTag.INT, (), begin=big, vsize=4),),
    )
    with pytest.raises(UnrepresentableValue):
        encode_classic(header, 1)
    assert decode_classic(encode_classic(header, 2)) == header


def test_record_dimensions_rejected():
    with pytest.raises(UnsupportedFeature):
        encode_classic(Header(dims=(DimensionDef("t", 0),)), 5)
    # nonzero record count on decode
    raw = bytearray(encode_classic(Header(), 5))
    raw[4:12] = struct.pack(">Q", 3)
    with pytest.raises(UnsupportedFeature):
        decode_classic(bytes(raw))


def test_nonzero_padding_rejected():
    raw = bytearray(encode_classic(Header(dims=(DimensionDef("abc", 7),)), 5))
    # name "abc" is padded with one zero byte; find and dirty it
    idx = raw.index(b"abc") + 3
    raw[idx] = 0x41
    with pytest.raises((CorruptHeader, Truncated, DuplicateName)):
        decode_classic(bytes(raw))


def test_char_attribute_padding():
    header = Header(global_atts=(AttributeDef("note", TypeTag.CHAR, b"abcde"),))
    raw = encode_classic(header, 5)
    assert len(raw) % 4 == 0
    assert decode_classic(raw) == header
