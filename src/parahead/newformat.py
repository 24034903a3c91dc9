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
from dataclasses import dataclass
from typing import NamedTuple

from .classic import (
    DEFAULT_ALIGN,
    VALUE_ERRORS,
    Header,
    align_up,
    decode_header_lists,
    pad4,
    validate_name,
)
from .errors import (
    BadMagic,
    CorruptHeader,
    DuplicateName,
    OverlappingBlocks,
    ParaheadError,
    Truncated,
    UnrepresentableValue,
    UnsortedIndex,
)
from .records import ObjectKind, RecordLists, header_lists, record_lists

INDEX_MAGIC = b"CDH\x01"

_BLOCK_VERSION = 5  # block lists always use 64-bit counts
_U64 = struct.Struct(">Q")
_COUNTS = struct.Struct(">QQ")  # entry count, header_reserve
_ENTRY = struct.Struct(">QQQQQ")  # offset, size, n_dims, n_vars, n_atts
_ENTRY_NEXT = struct.Struct(">QQQQQQ")  # the same, then the next entry's path length


class IndexEntry(NamedTuple):
    """Directory record for one metadata block (a tuple: each open makes one per block)."""

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


def _pack_path(path: str) -> bytes:
    if path:  # '' is the root block
        validate_name(path)
    raw = path.encode("ascii")
    return _U64.pack(len(raw)) + raw + b"\x00" * pad4(len(raw))


def _path_record_size(path: str) -> int:
    return 8 + len(path) + pad4(len(path))


def _path_at(buf: bytes, pos: int, path_len: int, what: str) -> str:
    """The path of ``path_len`` bytes at ``pos``, checked: zero padding, ASCII, a name."""
    stop = pos + path_len
    if buf[stop : stop + pad4(path_len)].strip(b"\x00"):
        raise CorruptHeader("non-zero block path padding")
    try:
        path = buf[pos:stop].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptHeader(f"non-ASCII {what} path") from exc
    if path:
        validate_name(path)
    return path


def index_table_encoded_size(paths) -> int:
    return len(INDEX_MAGIC) + 16 + sum(_path_record_size(p) + _ENTRY.size for p in paths)


def _check_table(entries, index_end: int) -> None:
    """Paths unique and sorted; blocks clear of the index (``index_end``) and
    of each other.  Linear when paths and offsets ascend, as laid out."""
    pairs = zip(entries, entries[1:])
    if any(a.block_path >= b.block_path for a, b in pairs):
        paths = [e.block_path for e in entries]
        if len(set(paths)) != len(paths):
            raise DuplicateName("duplicate block path in index table")
        raise UnsortedIndex("index entries not sorted by block path")
    regions = [(e.offset, e.offset + e.size, e.block_path) for e in entries]
    if any(a[0] >= b[0] for a, b in zip(regions, regions[1:])):
        regions.sort()
    if regions and regions[0][0] < index_end:
        raise OverlappingBlocks(f"block {regions[0][2]!r} overlaps the index table")
    for (_, end_a, path_a), (start_b, _, path_b) in zip(regions, regions[1:]):
        if start_b < end_a:
            raise OverlappingBlocks(f"blocks {path_a!r} and {path_b!r} overlap")


def encode_index_table(table: IndexTable) -> bytes:
    """Serialize an index table; entries are emitted in path-sorted order."""
    try:
        ordered = tuple(sorted(table.entries, key=lambda e: e.block_path))
        _check_table(ordered, index_table_encoded_size(e.block_path for e in ordered))
        parts = [INDEX_MAGIC, _COUNTS.pack(len(ordered), table.header_reserve)]
        for e in ordered:
            parts.append(_pack_path(e.block_path))
            parts.append(_ENTRY.pack(e.offset, e.size, e.n_dims, e.n_vars, e.n_atts))
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"index field cannot be encoded: {exc}") from exc
    return b"".join(parts)


class BytesSource:
    """Random-access reads over an in-memory image."""

    def __init__(self, data: bytes):
        self._data = bytes(data)

    def read(self, offset: int, length: int) -> bytes:
        if offset + length > len(self._data):
            raise Truncated(f"read past end: {offset}+{length} > {len(self._data)}")
        return self._data[offset : offset + length]


def read_index_table(read) -> IndexTable:
    """Decode and validate the index table through ``read(offset, length)``,
    which returns exactly ``length`` bytes or raises.

    The magic comes first, so another format raises BadMagic before any
    walk; then the counts, the first path length, and one read per entry:
    its padded path, its fixed fields and the next entry's path length.
    """
    magic = read(0, len(INDEX_MAGIC))
    if magic != INDEX_MAGIC:
        raise BadMagic(f"not an index table: {magic!r}")
    count, header_reserve = _COUNTS.unpack(read(4, _COUNTS.size))
    pos = 4 + _COUNTS.size
    if count:
        (path_len,) = _U64.unpack(read(pos, 8))
        pos += 8
    entries = []
    for left in range(count - 1, -1, -1):
        padded = path_len + (-path_len & 3)
        fixed = _ENTRY_NEXT if left else _ENTRY
        raw = read(pos, padded + fixed.size)
        pos += padded + fixed.size
        path = _path_at(raw, 0, path_len, "index entry")
        if left:
            offset, size, n_dims, n_vars, n_atts, path_len = fixed.unpack_from(raw, padded)
        else:
            offset, size, n_dims, n_vars, n_atts = fixed.unpack_from(raw, padded)
        entries.append(IndexEntry(path, offset, size, n_dims, n_vars, n_atts))
    entries = tuple(entries)
    _check_table(entries, pos)
    return IndexTable(entries, header_reserve)


def decode_index_table(buf: bytes) -> IndexTable:
    """Decode and validate an index table; trailing (block) bytes are ignored."""
    return read_index_table(BytesSource(buf).read)


def _check_local_names(content: Header) -> None:
    """Raise CorruptHeader if a dimension, global attribute or variable name
    of a block contains ``/``: it would read as another block's object."""
    for obj in (*content.dims, *content.global_atts, *content.vars):
        if "/" in obj.name:
            raise CorruptHeader(f"block-local name {obj.name!r} contains '/'")


def encode_block(block: MetadataBlock) -> bytes:
    """Encode one block: path record followed by the classic object lists."""
    try:
        _check_local_names(block.content)
        path = block.block_path
        return header_lists(block.content, _pack_path(path), _BLOCK_VERSION, path)
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"block value cannot be encoded: {exc}") from exc


def block_lists(path: str, records) -> RecordLists:
    """Unplaced object lists of block ``path`` from the records of its objects,
    in creation order; each record names its object ``path/local`` (just
    ``local`` in the root block), and the block stores ``local``."""
    return record_lists(records, _pack_path(path), len(path) + 1 if path else 0)


def decode_block(buf: bytes) -> MetadataBlock:
    if len(buf) < 8:
        raise Truncated("block path length missing")
    (path_len,) = _U64.unpack_from(buf, 0)
    lists = 8 + path_len + pad4(path_len)
    if len(buf) < lists:
        raise Truncated("block path cut short")
    path = _path_at(buf, 8, path_len, "block")
    content, end = decode_header_lists(buf, _BLOCK_VERSION, lists)
    if end != len(buf):
        raise CorruptHeader(f"{len(buf) - end} bytes left over after the block's lists")
    _check_local_names(content)
    return MetadataBlock(path, content)


def layout_from_stats(stats) -> IndexTable:
    """Assign file offsets from ``(path, size, n_dims, n_vars, n_atts)``
    tuples alone, each block at ``DEFAULT_ALIGN``; pure in the sorted set."""
    ordered = sorted(stats)
    paths = [s[0] for s in ordered]
    if len(set(paths)) != len(paths):
        raise DuplicateName("duplicate block path")
    cursor = align_up(index_table_encoded_size(paths), DEFAULT_ALIGN)
    entries = []
    for path, size, n_dims, n_vars, n_atts in ordered:
        entries.append(IndexEntry(path, cursor, size, n_dims, n_vars, n_atts))
        cursor = align_up(cursor + size, DEFAULT_ALIGN)
    return IndexTable(tuple(entries), cursor)


def assemble_image(blocks) -> bytes:
    """Serialize a complete file image (index plus blocks) single-threaded."""
    raws = {}
    stats = []
    for b in blocks:
        raw = raws[b.block_path] = encode_block(b)
        c = b.content
        stats.append((b.block_path, len(raw), len(c.dims), len(c.vars), len(c.global_atts)))
    table = layout_from_stats(stats)
    image = bytearray(table.header_reserve)
    index_bytes = encode_index_table(table)
    image[: len(index_bytes)] = index_bytes
    for entry in table.entries:
        image[entry.offset : entry.offset + entry.size] = raws[entry.block_path]
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
    read = BytesSource(buf).read
    table = read_index_table(read)
    blocks: dict[str, MetadataBlock] = {}
    for entry in table.entries:
        try:
            block = decode_block(read(entry.offset, entry.size))
        except ParaheadError as exc:
            raise type(exc)(f"block {entry.block_path!r}: {exc}") from exc
        check_block_entry(entry, block)
        blocks[entry.block_path] = block
    return table, blocks


def gid_bases(entries) -> dict[str, dict[int, int]]:
    """Per block path, the GID of its first object of each kind, keyed by the
    kind's int, which equals and hashes as its ObjectKind; an ObjectKind key
    would make the collector track every one of these dicts.

    GIDs are per-kind indices in file order, so a block's bases are the
    index counts of the blocks before it: no block needs to be read.
    """
    bases = {}
    running = dict.fromkeys(map(int, ObjectKind), 0)
    for e in entries:
        bases[e.block_path] = dict(running)
        for kind, n in zip(running, (e.n_dims, e.n_vars, e.n_atts)):
            running[kind] += n
    return bases
