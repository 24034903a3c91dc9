"""Partitioned header codec: an index table plus independent metadata blocks.

File layout::

    file   = index_table  block*            (blocks at the offsets the index declares)
    index  = 'C' 'D' 'H' 0x01 | u64 entry count | u64 header_reserve | entry*
    entry  = u64 path length | path bytes pad4 | u64 offset | u64 size
             | u64 n_dims | u64 n_vars | u64 n_atts
    block  = u64 path length | path bytes pad4 | dim_list gatt_list var_list

Block object lists reuse the classic grammar with 64-bit counts (version 5
widths).  Entries are kept sorted by path so a table laid out from the same
block set is byte-identical no matter which rank produced it.  The reserved
root block uses the empty path; objects named without a path prefix land
there.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .classic import (
    DEFAULT_ALIGN,
    Header,
    align_up,
    decode_header_lists,
    encode_header_lists,
    encoded_size,
    pad4,
    validate_name,
)
from .errors import (
    BadMagic,
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    OverlappingBlocks,
    ParaheadError,
    Truncated,
    UnrepresentableValue,
    UnsortedIndex,
)
from .records import ObjectKind

INDEX_MAGIC = b"CDH\x01"

_BLOCK_VERSION = 5  # block lists always use 64-bit counts
_ENTRY_FIXED = 5 * 8  # offset, size, n_dims, n_vars, n_atts


@dataclass(frozen=True)
class IndexEntry:
    """Directory record for one metadata block."""

    block_path: str
    offset: int
    size: int
    n_dims: int
    n_vars: int
    n_atts: int


@dataclass(frozen=True)
class IndexTable:
    """Front section of the file: entries sorted by path, plus the total reserve."""

    entries: tuple[IndexEntry, ...]
    header_reserve: int


@dataclass(frozen=True)
class MetadataBlock:
    """All objects under one path prefix; the unit of independent creation."""

    block_path: str
    content: Header


def split_full_name(full_name: str) -> tuple[str, str]:
    """Split 'a/b/name' into block path 'a/b' and local name; no slash -> root block."""
    if "/" not in full_name:
        return "", full_name
    path, local = full_name.rsplit("/", 1)
    return path, local


def join_full_name(block_path: str, local: str) -> str:
    return f"{block_path}/{local}" if block_path else local


def _pack_path(path: str) -> bytes:
    if path:  # '' is the root block
        validate_name(path)
    raw = path.encode("ascii")
    return struct.pack(">Q", len(raw)) + raw + b"\x00" * pad4(len(raw))


def _path_record_size(path: str) -> int:
    return 8 + len(path) + pad4(len(path))


def _read_path(buf: bytes, pos: int, what: str) -> tuple[str, int]:
    """Decode a path record at ``pos``; returns (path, end of the record)."""
    if len(buf) < pos + 8:
        raise Truncated(f"{what} path length missing")
    (path_len,) = struct.unpack_from(">Q", buf, pos)
    pos += 8
    padded = path_len + pad4(path_len)
    if len(buf) < pos + padded:
        raise Truncated(f"{what} path cut short")
    if buf[pos + path_len : pos + padded].strip(b"\x00"):
        raise CorruptHeader("non-zero block path padding")
    try:
        path = buf[pos : pos + path_len].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptHeader(f"non-ASCII {what} path at offset {pos}") from exc
    if path:
        validate_name(path)
    return path, pos + padded


def index_table_encoded_size(paths) -> int:
    return len(INDEX_MAGIC) + 16 + sum(_path_record_size(p) + _ENTRY_FIXED for p in paths)


def _check_table(table: IndexTable) -> None:
    paths = [e.block_path for e in table.entries]
    if len(set(paths)) != len(paths):
        raise DuplicateName("duplicate block path in index table")
    if paths != sorted(paths):
        raise UnsortedIndex("index entries not sorted by block path")
    regions = sorted((e.offset, e.offset + e.size, e.block_path) for e in table.entries)
    index_end = index_table_encoded_size(paths)
    for start, end, path in regions:
        if start < index_end:
            raise OverlappingBlocks(f"block {path!r} overlaps the index table")
    for (_, end_a, path_a), (start_b, _, path_b) in zip(regions, regions[1:]):
        if start_b < end_a:
            raise OverlappingBlocks(f"blocks {path_a!r} and {path_b!r} overlap")


def encode_index_table(table: IndexTable) -> bytes:
    """Serialize an index table; entries are emitted in path-sorted order."""
    ordered = tuple(sorted(table.entries, key=lambda e: e.block_path))
    table = IndexTable(ordered, table.header_reserve)
    _check_table(table)
    try:
        parts = [INDEX_MAGIC, struct.pack(">QQ", len(table.entries), table.header_reserve)]
        for e in table.entries:
            parts.append(_pack_path(e.block_path))
            parts.append(
                struct.pack(">QQQQQ", e.offset, e.size, e.n_dims, e.n_vars, e.n_atts)
            )
    except struct.error as exc:
        raise UnrepresentableValue(f"index field out of range: {exc}") from exc
    return b"".join(parts)


def decode_index_table(buf: bytes) -> IndexTable:
    """Decode and validate an index table; trailing (block) bytes are ignored."""
    table, _ = decode_index_table_prefix(buf)
    return table


def decode_index_table_prefix(buf: bytes) -> tuple[IndexTable, int]:
    """Decode the index table and report how many bytes it occupied."""
    if len(buf) < 4:
        raise Truncated("shorter than the magic")
    if buf[:4] != INDEX_MAGIC:
        raise BadMagic(f"not an index table: {buf[:4]!r}")
    pos = 4
    if len(buf) < pos + 16:
        raise Truncated("index table counts missing")
    count, header_reserve = struct.unpack_from(">QQ", buf, pos)
    pos += 16
    entries = []
    for _ in range(count):
        path, pos = _read_path(buf, pos, "index entry")
        if len(buf) < pos + _ENTRY_FIXED:
            raise Truncated("index entry cut short")
        fields = struct.unpack_from(">QQQQQ", buf, pos)
        pos += _ENTRY_FIXED
        entries.append(IndexEntry(path, *fields))
    table = IndexTable(tuple(entries), header_reserve)
    _check_table(table)
    return table, pos


def block_encoded_size(block: MetadataBlock) -> int:
    return _path_record_size(block.block_path) + encoded_size(
        block.content, _BLOCK_VERSION
    ) - (4 + 8)  # lists only: drop magic + numrecs


def encode_block(block: MetadataBlock) -> bytes:
    """Encode one block: path record followed by the classic object lists."""
    for dim in block.content.dims:
        if "/" in dim.name:
            raise CorruptHeader(f"block-local name {dim.name!r} contains '/'")
    for var in block.content.vars:
        if "/" in var.name:
            raise CorruptHeader(f"block-local name {var.name!r} contains '/'")
    return _pack_path(block.block_path) + encode_header_lists(
        block.content, _BLOCK_VERSION
    )


def decode_block(buf: bytes) -> MetadataBlock:
    path, pos = _read_path(buf, 0, "block")
    content, _ = decode_header_lists(buf, _BLOCK_VERSION, pos)
    return MetadataBlock(path, content)


@dataclass(frozen=True)
class BlockStats:
    """Size and object counts of a block, as exchanged before layout."""

    block_path: str
    size: int
    n_dims: int
    n_vars: int
    n_atts: int


def block_stats(block: MetadataBlock) -> BlockStats:
    return BlockStats(
        block.block_path,
        block_encoded_size(block),
        len(block.content.dims),
        len(block.content.vars),
        len(block.content.global_atts),
    )


def layout_from_stats(stats, align: int = DEFAULT_ALIGN) -> IndexTable:
    """Assign file offsets from (path, size, counts) alone; pure in the sorted set."""
    ordered = sorted(stats, key=lambda s: s.block_path)
    paths = [s.block_path for s in ordered]
    if len(set(paths)) != len(paths):
        raise DuplicateName("duplicate block path")
    cursor = align_up(index_table_encoded_size(paths), align)
    entries = []
    for s in ordered:
        entries.append(
            IndexEntry(s.block_path, cursor, s.size, s.n_dims, s.n_vars, s.n_atts)
        )
        cursor = align_up(cursor + s.size, align)
    return IndexTable(tuple(entries), cursor)


def layout_blocks(blocks, align: int = DEFAULT_ALIGN) -> IndexTable:
    """Compute the index table for a block set: offsets, sizes, and counts."""
    return layout_from_stats([block_stats(b) for b in blocks], align)


def assemble_image(blocks, align: int = DEFAULT_ALIGN) -> bytes:
    """Serialize a complete file image (index plus blocks) single-threaded."""
    table = layout_blocks(blocks, align)
    image = bytearray(table.header_reserve)
    index_bytes = encode_index_table(table)
    image[: len(index_bytes)] = index_bytes
    by_path = {b.block_path: b for b in blocks}
    for entry in table.entries:
        raw = encode_block(by_path[entry.block_path])
        if len(raw) != entry.size:
            raise CorruptHeader(
                f"block {entry.block_path!r} encoded to {len(raw)} bytes, "
                f"index says {entry.size}"
            )
        image[entry.offset : entry.offset + entry.size] = raw
    return bytes(image)


def check_block_entry(entry: IndexEntry, block: MetadataBlock) -> None:
    """Raise CorruptHeader unless ``block`` has the path and counts ``entry`` declares."""
    if block.block_path != entry.block_path:
        raise CorruptHeader(
            f"index names {entry.block_path!r} but block says {block.block_path!r}"
        )
    counts = (
        len(block.content.dims),
        len(block.content.vars),
        len(block.content.global_atts),
    )
    if counts != (entry.n_dims, entry.n_vars, entry.n_atts):
        raise CorruptHeader(f"object counts disagree for block {entry.block_path!r}")


def decode_image(buf: bytes) -> tuple[IndexTable, dict[str, MetadataBlock]]:
    """Decode a full image and cross-check every entry against its block."""
    table = decode_index_table(buf)
    blocks: dict[str, MetadataBlock] = {}
    for entry in table.entries:
        if entry.offset + entry.size > len(buf):
            raise Truncated(f"block {entry.block_path!r} extends past the image")
        try:
            block = decode_block(buf[entry.offset : entry.offset + entry.size])
        except ParaheadError as exc:
            raise type(exc)(f"block {entry.block_path!r}: {exc}") from exc
        check_block_entry(entry, block)
        blocks[entry.block_path] = block
    return table, blocks


def gid_bases(entries) -> dict[str, dict[ObjectKind, int]]:
    """Per block path, the GID of its first object of each kind.

    GIDs are per-kind indices in file order, so a block's bases are the
    index counts of the blocks before it: no block needs to be read.
    """
    bases = {}
    running = {k: 0 for k in ObjectKind}
    for e in entries:
        bases[e.block_path] = dict(running)
        running[ObjectKind.DIMENSION] += e.n_dims
        running[ObjectKind.VARIABLE] += e.n_vars
        running[ObjectKind.ATTRIBUTE] += e.n_atts
    return bases


# --- block <-> flat mapping ----------------------------------------------------


def flatten_blocks(blocks) -> Header:
    """One flat header from blocks in path order, names prefixed with their path.

    Dimension references are shifted by the dimensions of earlier blocks;
    ``begin``/``vsize`` are kept, so no variable data moves.
    """
    dims = []
    gatts = []
    vars_ = []
    for block in sorted(blocks, key=lambda b: b.block_path):
        path, content = block.block_path, block.content
        first = len(dims)
        dims += [replace(d, name=join_full_name(path, d.name)) for d in content.dims]
        gatts += [
            replace(a, name=join_full_name(path, a.name)) for a in content.global_atts
        ]
        vars_ += [
            replace(
                v,
                name=join_full_name(path, v.name),
                dim_refs=tuple(first + r for r in v.dim_refs),
            )
            for v in content.vars
        ]
    return Header(tuple(dims), tuple(gatts), tuple(vars_))


def partition_header(header: Header) -> list[MetadataBlock]:
    """Group a flat header into blocks by each name's path prefix.

    Slash-free names land in the reserved root block; prefixed names go to
    the block their path denotes, with references rewritten block-locally.
    ``begin``/``vsize`` are kept, so no variable data moves.  A variable over
    another block's dimension raises DanglingDimRef.
    """
    grouped: dict[str, tuple[list, list, list]] = {}
    dim_homes = []  # flat dim id -> (block path, block-local id)
    for dim in header.dims:
        path, local = split_full_name(dim.name)
        dims = grouped.setdefault(path, ([], [], []))[0]
        dim_homes.append((path, len(dims)))
        dims.append(replace(dim, name=local))
    for att in header.global_atts:
        path, local = split_full_name(att.name)
        grouped.setdefault(path, ([], [], []))[1].append(replace(att, name=local))
    for var in header.vars:
        path, local = split_full_name(var.name)
        refs = []
        for r in var.dim_refs:
            dim_path, local_id = dim_homes[r]
            if dim_path != path:
                raise DanglingDimRef(
                    f"variable {var.name!r} uses dimension {header.dims[r].name!r} "
                    "from another block; cannot partition"
                )
            refs.append(local_id)
        grouped.setdefault(path, ([], [], []))[2].append(
            replace(var, name=local, dim_refs=tuple(refs))
        )
    return [
        MetadataBlock(path, Header(tuple(d), tuple(a), tuple(v)))
        for path, (d, a, v) in grouped.items()
    ]
