"""Index table and metadata block codec: round trips, layout, validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead.classic import AttributeDef, DimensionDef, Header, TypeTag, VariableDef
from parahead.errors import (
    BadMagic,
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    OverlappingBlocks,
    Truncated,
    UnsortedIndex,
)
from parahead.newformat import (
    INDEX_MAGIC,
    IndexEntry,
    IndexTable,
    MetadataBlock,
    assemble_image,
    block_lists,
    decode_block,
    decode_image,
    decode_index_table,
    encode_block,
    encode_index_table,
    gid_bases,
    index_table_encoded_size,
    layout_from_stats,
    split_full_name,
)
from parahead.records import ObjectKind
from parahead.strategies import (
    flatten_blocks,
    logical_map_from_classic,
    open_new_format,
    partition_header,
    read_full_header,
)

from conftest import block_records, random_header
from test_list_codec import block_paths, headers


def make_entry(path, offset, size, nd=0, nv=0, na=0):
    return IndexEntry(path, offset, size, nd, nv, na)


def random_blocks(rng: random.Random, count: int) -> list[MetadataBlock]:
    used: set = set()
    blocks = []
    for i in range(count):
        path = f"p{rng.randrange(10**6):06d}"
        if path in used:
            continue
        used.add(path)
        blocks.append(MetadataBlock(path, random_header(rng, 5, max_dims=4, max_vars=4)))
    return blocks


def test_empty_table_round_trip():
    table = IndexTable((), header_reserve=20)
    raw = encode_index_table(table)
    assert raw[:4] == INDEX_MAGIC
    assert raw[4:12] == b"\x00" * 8  # entry count 0 follows the magic
    assert decode_index_table(raw) == table


def test_unsorted_input_encoded_sorted():
    idx_size = index_table_encoded_size(["a", "b", "c"])
    entries = (
        make_entry("c", idx_size + 32, 16),
        make_entry("a", idx_size, 16),
        make_entry("b", idx_size + 16, 16),
    )
    raw = encode_index_table(IndexTable(entries, idx_size + 48))
    decoded = decode_index_table(raw)
    assert [e.block_path for e in decoded.entries] == ["a", "b", "c"]


def test_decode_rejects_unsorted():
    idx_size = index_table_encoded_size(["a", "b"])
    good = encode_index_table(
        IndexTable(
            (make_entry("a", idx_size, 8), make_entry("b", idx_size + 8, 8)),
            idx_size + 16,
        )
    )
    # swap the two single-byte paths in place to break ordering only
    swapped = bytearray(good)
    first_path = 20 + 8  # magic + counts + first path-length field
    second_path = 20 + (8 + 4 + 40) + 8
    assert swapped[first_path : first_path + 1] == b"a"
    assert swapped[second_path : second_path + 1] == b"b"
    swapped[first_path], swapped[second_path] = ord("b"), ord("a")
    with pytest.raises(UnsortedIndex):
        decode_index_table(bytes(swapped))


def test_non_adjacent_duplicate_in_unsorted_table_is_a_duplicate():
    idx_size = index_table_encoded_size(["a", "b", "c"])
    good = encode_index_table(
        IndexTable(
            tuple(make_entry(p, idx_size + 8 * i, 8) for i, p in enumerate("abc")),
            idx_size + 24,
        )
    )
    # 'a' -> 'c' gives c, b, c: the first pair is out of order, the
    # duplicate pair is not adjacent
    raw = bytearray(good)
    first_path = 20 + 8
    assert raw[first_path : first_path + 1] == b"a"
    raw[first_path] = ord("c")
    with pytest.raises(DuplicateName):
        decode_index_table(bytes(raw))


def test_regions_checked_when_offsets_do_not_follow_paths():
    idx_size = index_table_encoded_size(["a", "b"])
    # b's block comes first in the file: accepted when disjoint ...
    table = IndexTable(
        (make_entry("a", idx_size + 16, 16), make_entry("b", idx_size, 16)), idx_size + 32
    )
    assert decode_index_table(encode_index_table(table)) == table
    # ... and rejected when it overlaps a's block or the index
    for b_offset, a_offset in ((idx_size, idx_size + 8), (idx_size - 4, idx_size + 16)):
        table = IndexTable(
            (make_entry("a", a_offset, 16), make_entry("b", b_offset, 16)), idx_size + 32
        )
        with pytest.raises(OverlappingBlocks):
            encode_index_table(table)


def test_table_round_trip(rng):
    for _ in range(50):
        paths = sorted({f"g{rng.randrange(1000):04d}" for _ in range(rng.randint(0, 6))})
        idx_size = index_table_encoded_size(paths)
        offset = idx_size
        entries = []
        for p in paths:
            size = rng.randrange(4, 200) * 4
            entries.append(
                make_entry(p, offset, size, rng.randrange(5), rng.randrange(5), rng.randrange(3))
            )
            offset += size
        table = IndexTable(tuple(entries), offset)
        assert decode_index_table(encode_index_table(table)) == table


def test_overlapping_blocks_rejected():
    idx_size = index_table_encoded_size(["a", "b"])
    table = IndexTable(
        (make_entry("a", idx_size, 100), make_entry("b", idx_size + 60, 100)),
        idx_size + 200,
    )
    with pytest.raises(OverlappingBlocks):
        encode_index_table(table)


def test_block_overlapping_index_rejected():
    table = IndexTable((make_entry("a", 4, 100),), 200)
    with pytest.raises(OverlappingBlocks):
        encode_index_table(table)


def test_classic_magic_rejected():
    with pytest.raises(BadMagic):
        decode_index_table(b"CDF\x05" + b"\x00" * 44)


def test_truncated_table():
    idx_size = index_table_encoded_size(["abc"])
    raw = encode_index_table(
        IndexTable((make_entry("abc", idx_size, 8),), idx_size + 8)
    )
    with pytest.raises(Truncated):
        decode_index_table(raw[:-10])
    with pytest.raises(Truncated):
        decode_index_table(raw[:2])


def test_index_width_overflow():
    from parahead.errors import UnrepresentableValue

    idx = index_table_encoded_size(["a"])
    table = IndexTable((make_entry("a", idx, 2**64),), 2**64 + idx)
    with pytest.raises(UnrepresentableValue):
        encode_index_table(table)


def test_duplicate_paths_rejected():
    idx = index_table_encoded_size(["a", "a"])
    table = IndexTable((make_entry("a", idx, 8), make_entry("a", idx + 8, 8)), idx + 16)
    with pytest.raises(DuplicateName):
        encode_index_table(table)


# --- blocks ------------------------------------------------------------------


def test_block_round_trip(rng):
    for _ in range(60):
        block = MetadataBlock(f"b{rng.randrange(100):03d}", random_header(rng, 5))
        assert decode_block(encode_block(block)) == block


def test_root_block_path():
    block = MetadataBlock("", Header(dims=(DimensionDef("x", 3),)))
    assert decode_block(encode_block(block)) == block


def test_bytes_after_a_blocks_lists_rejected():
    raw = encode_block(MetadataBlock("b", Header(dims=(DimensionDef("x", 3),))))
    with pytest.raises(CorruptHeader):
        decode_block(raw + bytes(8))


def test_block_size_hand_computed():
    # one dim "xy" (2 chars), no atts, no vars, path "blk"
    block = MetadataBlock("blk", Header(dims=(DimensionDef("xy", 7),)))
    raw = encode_block(block)
    # path record: 8-byte length + "blk" padded to 4 bytes           = 12
    # dim list: 4-byte tag + 8-byte count
    #   + (8-byte name length + "xy" padded to 4 + 8-byte length)    = 32
    # two empty lists: (4-byte zero tag + 8-byte zero count) each    = 24
    assert len(raw) == 12 + 32 + 24
    assert block_lists("blk", block_records(block)).facts[0] == len(raw)


def test_block_size_matches_encoder(rng):
    # the block writer's size fact, made before any data is placed
    for _ in range(40):
        block = MetadataBlock(f"q{rng.randrange(100):02d}", random_header(rng, 5))
        assert block_lists(block.block_path, block_records(block)).facts[0] == len(
            encode_block(block)
        )


def test_block_dangling_dim_ref():
    content = Header(vars=(VariableDef("v", (2,), TypeTag.INT, (), 64, 4),))
    with pytest.raises(DanglingDimRef):
        encode_block(MetadataBlock("b", content))


def test_block_local_names_must_not_contain_slash():
    for content in (
        Header(dims=(DimensionDef("a/b", 3),)),
        Header(global_atts=(AttributeDef("x/y", TypeTag.CHAR, b"v"),)),
        Header(vars=(VariableDef("a/b", (), TypeTag.INT, (), 0, 4),)),
    ):
        with pytest.raises(CorruptHeader):
            encode_block(MetadataBlock("b", content))


def test_decode_block_rejects_local_name_with_slash():
    # a block "p" whose global attribute "x/y" would read as block "p/x"'s
    for content in (
        Header(dims=(DimensionDef("x_y", 3),)),
        Header(global_atts=(AttributeDef("x_y", TypeTag.CHAR, b"v"),)),
        Header(vars=(VariableDef("x_y", (), TypeTag.INT, (), 0, 4),)),
    ):
        raw = encode_block(MetadataBlock("p", content))
        assert raw.count(b"x_y") == 1
        with pytest.raises(CorruptHeader):
            decode_block(raw.replace(b"x_y", b"x/y"))


def test_split_and_join_full_names():
    assert split_full_name("plain") == ("", "plain")
    assert split_full_name("a/b") == ("a", "b")
    assert split_full_name("a/b/c") == ("a/b", "c")


# --- layout -------------------------------------------------------------------


def test_layout_single_block_arithmetic():
    stats = [("blk", 100, 1, 0, 0)]
    idx_size = index_table_encoded_size(["blk"])
    table = layout_from_stats(stats)
    entry = table.entries[0]
    assert entry.offset == (idx_size + 3) // 4 * 4
    assert table.header_reserve == entry.offset + 100


def test_layout_zero_blocks():
    table = layout_from_stats([])
    assert table.entries == ()
    assert table.header_reserve == (index_table_encoded_size([]) + 3) // 4 * 4


def test_layout_two_blocks_recurrence():
    stats = [("a", 100, 0, 0, 0), ("b", 60, 0, 0, 0)]
    table = layout_from_stats(stats)
    first, second = table.entries
    assert second.offset == (first.offset + first.size + 3) // 4 * 4


def test_layout_independent_of_input_order(rng):
    blocks = random_blocks(rng, 8)
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    assert assemble_image(blocks) == assemble_image(shuffled)


def test_layout_counts_filled(rng):
    blocks = random_blocks(rng, 5)
    table = decode_index_table(assemble_image(blocks))
    by_path = {b.block_path: b for b in blocks}
    for e in table.entries:
        content = by_path[e.block_path].content
        assert (e.n_dims, e.n_vars, e.n_atts) == (
            len(content.dims),
            len(content.vars),
            len(content.global_atts),
        )


def test_gid_bases_and_block_tails_leave_the_collectors_scans(rng):
    import gc

    table = layout_from_stats([("a", 100, 2, 1, 3), ("b", 60, 1, 4, 0), ("c", 8, 0, 0, 0)])
    bases = gid_bases(table.entries)
    block = random_blocks(rng, 1)[0]
    while not block.content.vars:
        block = random_blocks(rng, 1)[0]
    lists = block_lists(block.block_path, block_records(block))
    gc.collect()
    assert not any(gc.is_tracked(b) for b in bases.values())
    gc.collect()  # the tails' items went at the first, the tails at the second
    assert not gc.is_tracked(lists.tails) and len(lists.tails) == len(block.content.vars)
    # the int kinds look up as ObjectKinds
    assert [bases[p][ObjectKind.VARIABLE] for p in "abc"] == [0, 1, 5]
    assert [bases[p][ObjectKind.ATTRIBUTE] for p in "abc"] == [0, 3, 3]


# --- full image ------------------------------------------------------------------


def test_image_round_trip(rng):
    for _ in range(20):
        blocks = random_blocks(rng, rng.randint(0, 6))
        image = assemble_image(blocks)
        table, decoded = decode_image(image)
        assert decoded == {b.block_path: b for b in blocks}
        assert [e.block_path for e in table.entries] == sorted(
            b.block_path for b in blocks
        )


def test_image_count_validation(rng):
    blocks = random_blocks(rng, 3)
    image = bytearray(assemble_image(blocks))
    # corrupt the first entry's n_dims field (magic 4 + counts 16 + path rec)
    path0 = sorted(b.block_path for b in blocks)[0]
    entry_pos = 20 + 8 + len(path0) + (-len(path0)) % 4 + 16
    image[entry_pos : entry_pos + 8] = (99).to_bytes(8, "big")
    with pytest.raises(CorruptHeader):
        decode_image(bytes(image))


# --- block <-> flat mapping ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(contents=st.dictionaries(block_paths, headers(5, local=True), max_size=4))
def test_partition_inverts_flatten(contents):
    blocks = [MetadataBlock(path, content) for path, content in contents.items()]
    flat = flatten_blocks(blocks)
    by_path = {b.block_path: b for b in partition_header(flat)}
    assert by_path == {b.block_path: b for b in blocks if b.content != Header()}
    image = assemble_image(blocks)
    assert logical_map_from_classic(flat) == read_full_header(open_new_format(image)[0])


@pytest.mark.parametrize("ref", [-1, 3])
def test_mapping_rejects_dimension_ids_outside_the_header(ref):
    flat = Header(
        (DimensionDef("a/x", 2), DimensionDef("a/y", 3)),
        (),
        (VariableDef("a/v", (ref,), TypeTag.INT),),
    )
    with pytest.raises(DanglingDimRef):
        partition_header(flat)
    with pytest.raises(DanglingDimRef, match="'a/v'"):
        logical_map_from_classic(flat)
    block = Header(
        (DimensionDef("x", 2), DimensionDef("y", 3)), (), (VariableDef("v", (ref,), TypeTag.INT),)
    )
    with pytest.raises(DanglingDimRef, match="'a/v'"):  # the full name, not 'v'
        flatten_blocks([MetadataBlock("a", block)])


def test_mapping_rejects_a_repeated_full_name():
    with pytest.raises(DuplicateName):
        partition_header(Header((DimensionDef("a/x", 2), DimensionDef("a/x", 3))))
    with pytest.raises(DuplicateName):
        logical_map_from_classic(Header((DimensionDef("x", 2), DimensionDef("x", 3))))
    root = MetadataBlock("", Header((DimensionDef("a/x", 2),)))  # a local name with '/'
    with pytest.raises(DuplicateName):
        flatten_blocks([root, MetadataBlock("a", Header((DimensionDef("x", 2),)))])
