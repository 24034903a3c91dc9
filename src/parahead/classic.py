"""Classic self-describing binary header codec (CDF-1/2/5 style).

The on-disk layout is::

    header   = magic  numrecs  dim_list  gatt_list  var_list
    magic    = 'C' 'D' 'F' version        (version byte 1, 2, or 5)
    numrecs  = COUNT                      (always 0 here; record dims rejected)
    xxx_list = tag(4) COUNT entries       ((0, 0) for an empty list)
    dim      = name  COUNT                (dimension length)
    attr     = name  nc_type(4)  COUNT  values  pad4
    var      = name  COUNT  dimids  vatt_list  nc_type(4)  VSIZE  BEGIN
    name     = COUNT  bytes  pad4

All integers are big-endian.  COUNT and VSIZE are 4 bytes wide for versions
1 and 2 and 8 bytes for version 5; BEGIN is 4 bytes for version 1 and
8 bytes for versions 2 and 5.  Dimension ids inside a variable use the
COUNT width.  See docs/FORMAT.md for the full reference.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum

from .errors import (
    BadMagic,
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    ReserveTooSmall,
    Truncated,
    UnrepresentableValue,
    UnsupportedFeature,
)

MAGIC_PREFIX = b"CDF"
SUPPORTED_VERSIONS = (1, 2, 5)
DEFAULT_VERSION = 5
DEFAULT_ALIGN = 4  # data-section alignment of both header formats

TAG_DIMENSIONS = 0x0A
TAG_VARIABLES = 0x0B
TAG_ATTRIBUTES = 0x0C


class TypeTag(IntEnum):
    """Element types storable in attributes and variables."""

    BYTE = 1
    CHAR = 2
    SHORT = 3
    INT = 4
    FLOAT = 5
    DOUBLE = 6
    INT64 = 10

    @property
    def itemsize(self) -> int:
        return _ITEM_SIZES[self]

    @property
    def struct_char(self) -> str:
        return _STRUCT_CHARS[self]


_ITEM_SIZES = {
    TypeTag.BYTE: 1,
    TypeTag.CHAR: 1,
    TypeTag.SHORT: 2,
    TypeTag.INT: 4,
    TypeTag.FLOAT: 4,
    TypeTag.DOUBLE: 8,
    TypeTag.INT64: 8,
}

_STRUCT_CHARS = {
    TypeTag.BYTE: "b",
    TypeTag.SHORT: "h",
    TypeTag.INT: "i",
    TypeTag.FLOAT: "f",
    TypeTag.DOUBLE: "d",
    TypeTag.INT64: "q",
}


@dataclass(frozen=True)
class DimensionDef:
    """A named array extent.  Lengths must be >= 1 (no record dimensions)."""

    name: str
    length: int


@dataclass(frozen=True)
class AttributeDef:
    """A named annotation: CHAR attributes hold ``bytes``, numeric ones a tuple."""

    name: str
    type_tag: TypeTag
    values: tuple | bytes


@dataclass(frozen=True)
class VariableDef:
    """A named array over dimensions, with its data-section placement.

    ``dim_refs`` are indices into the enclosing header's dimension list.
    ``begin``/``vsize`` are filled by :func:`compute_offsets`.
    """

    name: str
    dim_refs: tuple[int, ...]
    type_tag: TypeTag
    attributes: tuple[AttributeDef, ...] = ()
    begin: int = 0
    vsize: int = 0


@dataclass(frozen=True)
class Header:
    """The complete metadata set of a file.  List position defines object ids."""

    dims: tuple[DimensionDef, ...] = ()
    global_atts: tuple[AttributeDef, ...] = ()
    vars: tuple[VariableDef, ...] = ()


def pad4(n: int) -> int:
    """Zero bytes that pad ``n`` bytes to a multiple of four."""
    return -n & 3


def align_up(n: int, align: int) -> int:
    """``n`` rounded up to a multiple of ``align``."""
    return (n + align - 1) // align * align


_S = struct.Struct
# Per version: COUNT, a (tag, COUNT) pair, a variable's (nc_type, VSIZE, BEGIN)
# tail, the struct code of a dimension id, and the largest COUNT and BEGIN.
_WIDTHS = {
    1: (_S(">I"), _S(">II"), _S(">III"), "I", 2**31 - 1, 2**31 - 1),
    2: (_S(">I"), _S(">II"), _S(">IIQ"), "I", 2**31 - 1, 2**63 - 1),
    5: (_S(">Q"), _S(">IQ"), _S(">IQQ"), "Q", 2**63 - 1, 2**63 - 1),
}
# type tag value -> (tag, item size, struct code); CHAR values stay bytes
TYPES = {
    int(t): (t, t.itemsize, None if t is TypeTag.CHAR else t.struct_char) for t in TypeTag
}
# magic, version byte and numrecs (always 0): what a header holds before its lists
_CLASSIC_HEADS = {v: MAGIC_PREFIX + bytes([v]) + _WIDTHS[v][0].pack(0) for v in SUPPORTED_VERSIONS}
_PADS = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")  # indexed by pad length
# What packing a value of the wrong type or range raises (300 as a BYTE, 2.5 as
# a length); encoders catch them around the whole encode, not per value.
VALUE_ERRORS = (struct.error, TypeError, ValueError, OverflowError, AttributeError)


def validate_name(name: str) -> None:
    """Reject names that cannot be stored: empty, non-printable, or bad slashes."""
    if not name:
        raise CorruptHeader("empty object name")
    if not (name.isascii() and name.isprintable()):  # exactly 0x20-0x7E
        raise CorruptHeader(f"non-printable character in name {name!r}")
    if name[0] == "/" or name[-1] == "/" or "//" in name:
        raise CorruptHeader(f"malformed path in name {name!r}")


def var_size_bytes(dim_lengths: tuple[int, ...], type_tag: TypeTag) -> int:
    """Data-region size of a variable: element count times item size, padded to 4."""
    n = 1
    for length in dim_lengths:
        n *= length
    raw = n * type_tag.itemsize
    return raw + pad4(raw)


def _owned(what: str, name: str, owner: str | None) -> str:
    return f"{what} {name!r}" if owner is None else f"{what} {name!r} of {owner!r}"


def _check_regions(vars_) -> None:
    """Raise CorruptHeader if the data regions of two variables overlap."""
    regions = sorted((v.begin, v.begin + v.vsize, v.name) for v in vars_)
    for (_, end_a, name_a), (start_b, _, name_b) in zip(regions, regions[1:]):
        if start_b < end_a:
            raise CorruptHeader(f"data regions of {name_a!r} and {name_b!r} overlap")


# --- encoding ------------------------------------------------------------------


def encode_classic(header: Header, version: int = DEFAULT_VERSION) -> bytes:
    """Encode a header as classic-format bytes.  Deterministic for equal inputs.

    The lists are written by ``records.record_lists`` from the header's
    objects as records; see :func:`records.header_lists` for the checks.
    """
    from .records import header_lists  # records imports this module

    try:
        if version not in _CLASSIC_HEADS:
            raise UnrepresentableValue(f"unknown format version {version}")
        return header_lists(header, _CLASSIC_HEADS[version], version)
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"header value cannot be encoded: {exc}") from exc


# --- decoding ------------------------------------------------------------------


def _read_name(buf: bytes, pos: int, end: int, cnt: struct.Struct) -> tuple[str, int]:
    """Checked name at ``pos``: the name and the offset past its padding."""
    stop = pos + cnt.size
    if stop > end:
        raise Truncated(f"need a name length at offset {pos}")
    n = cnt.unpack_from(buf, pos)[0]
    pad = _PADS[-n & 3]
    padded = stop + n + len(pad)
    if padded > end:
        raise Truncated(f"name at offset {pos} runs past the end")
    if buf[stop + n : padded] != pad:
        raise CorruptHeader(f"non-zero name padding at offset {pos}")
    try:
        name = buf[stop : stop + n].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptHeader(f"non-ASCII name at offset {pos}") from exc
    validate_name(name)
    return name, padded


def _read_list_head(
    buf: bytes, pos: int, end: int, pair: struct.Struct, tag: int, entry_min: int,
    what: str,
) -> tuple[int, int]:
    """Entry count of the list at ``pos`` and the offset of its first entry.

    A count whose entries, ``entry_min`` bytes each at least, cannot fit in
    the rest of the buffer raises Truncated before any entry is read.
    """
    stop = pos + pair.size
    if stop > end:
        raise Truncated(f"need the {what} list head at offset {pos}")
    found, n = pair.unpack_from(buf, pos)
    if n == 0:
        if found != 0:
            raise CorruptHeader(f"empty list with tag {found:#x}")
    elif found != tag:
        raise CorruptHeader(f"{what} list tagged {found:#x}")
    elif n > (end - stop) // entry_min:
        raise Truncated(f"{n} {what} entries cannot fit in {end - stop} bytes")
    return n, stop


def _read_att_list(
    buf: bytes, pos: int, end: int, version: int, owner: str | None
) -> tuple[tuple[AttributeDef, ...], int]:
    cnt, pair, _, _, _, _ = _WIDTHS[version]
    n, pos = _read_list_head(
        buf, pos, end, pair, TAG_ATTRIBUTES, 2 * cnt.size + 4, "attribute"
    )
    atts = []
    seen = set()
    for _ in range(n):
        name, pos = _read_name(buf, pos, end, cnt)
        if name in seen:
            raise DuplicateName(_owned("attribute", name, owner))
        seen.add(name)
        if pos + pair.size > end:
            raise Truncated(f"need an attribute type and count at offset {pos}")
        tag, nelems = pair.unpack_from(buf, pos)
        entry = TYPES.get(tag)
        if entry is None:
            raise CorruptHeader(f"unknown type tag {tag} at offset {pos}")
        type_tag, itemsize, code = entry
        pos += pair.size
        stop = pos + nelems * itemsize
        pad = _PADS[-(stop - pos) & 3]
        if stop + len(pad) > end:
            raise Truncated(f"attribute values at offset {pos} run past the end")
        if buf[stop : stop + len(pad)] != pad:
            raise CorruptHeader(f"non-zero attribute padding at offset {stop}")
        if code is None:
            values = buf[pos:stop]
        elif nelems:
            values = struct.unpack_from(f">{nelems}{code}", buf, pos)
        else:
            raise CorruptHeader(f"numeric {_owned('attribute', name, owner)} has no values")
        atts.append(AttributeDef(name, type_tag, values))
        pos = stop + len(pad)
    return tuple(atts), pos


def decode_header_lists(buf: bytes, version: int, pos: int = 0) -> tuple[Header, int]:
    """Parse the three object lists starting at ``pos``; returns (header, end).

    One pass over offsets that makes every check of the encoder: every
    length is checked against the buffer before it is used (``Truncated``),
    and names, tags, padding, duplicates, dimension references, sizes and
    data regions as they are read.  Malformed input raises only ParaheadError.
    """
    cnt, pair, tail, code, _, _ = _WIDTHS[version]
    cw = cnt.size
    end = len(buf)
    n, pos = _read_list_head(buf, pos, end, pair, TAG_DIMENSIONS, 2 * cw, "dimension")
    dims = []
    lengths = []
    seen = set()
    for _ in range(n):
        name, pos = _read_name(buf, pos, end, cnt)
        if pos + cw > end:
            raise Truncated(f"need a dimension length at offset {pos}")
        length = cnt.unpack_from(buf, pos)[0]
        pos += cw
        if length < 1:
            raise UnsupportedFeature(f"dimension {name!r} has length {length}")
        if name in seen:
            raise DuplicateName(f"dimension {name!r}")
        seen.add(name)
        dims.append(DimensionDef(name, length))
        lengths.append(length)
    gatts, pos = _read_att_list(buf, pos, end, version, None)
    n, pos = _read_list_head(
        buf, pos, end, pair, TAG_VARIABLES, 3 * cw + 4 + tail.size, "variable"
    )
    vars_ = []
    seen = set()
    last_end = 0
    ordered = True  # begins ascend without overlap, so no sort is needed
    for _ in range(n):
        name, pos = _read_name(buf, pos, end, cnt)
        if name in seen:
            raise DuplicateName(f"variable {name!r}")
        seen.add(name)
        if pos + cw > end:
            raise Truncated(f"need a dimension id count at offset {pos}")
        ndims = cnt.unpack_from(buf, pos)[0]
        pos += cw
        if pos + ndims * cw > end:
            raise Truncated(f"dimension ids at offset {pos} run past the end")
        refs = struct.unpack_from(f">{ndims}{code}", buf, pos)
        pos += ndims * cw
        size = 1
        for ref in refs:
            if ref >= len(lengths):
                raise DanglingDimRef(f"variable {name!r} references dim {ref}")
            size *= lengths[ref]
        atts, pos = _read_att_list(buf, pos, end, version, name)
        if pos + tail.size > end:
            raise Truncated(f"need a variable type, size and begin at offset {pos}")
        tag, vsize, begin = tail.unpack_from(buf, pos)
        pos += tail.size
        entry = TYPES.get(tag)
        if entry is None:
            raise CorruptHeader(f"unknown type tag {tag} for variable {name!r}")
        size *= entry[1]
        size += -size & 3
        if vsize != size:
            raise CorruptHeader(f"variable {name!r} vsize {vsize}, expected {size}")
        vars_.append(VariableDef(name, refs, entry[0], atts, begin, vsize))
        ordered = ordered and begin >= last_end
        last_end = begin + vsize
    if not ordered:
        _check_regions(vars_)
    return Header(tuple(dims), gatts, tuple(vars_)), pos


def decode_classic(buf: bytes) -> Header:
    """Decode classic-format bytes; trailing (data section) bytes are ignored."""
    if len(buf) < 4:
        raise Truncated("shorter than the magic")
    if buf[:3] != MAGIC_PREFIX or buf[3] not in SUPPORTED_VERSIONS:
        raise BadMagic(f"not a classic header: {buf[:4]!r}")
    version = buf[3]
    cnt = _WIDTHS[version][0]
    if len(buf) < 4 + cnt.size:
        raise Truncated("need the record count")
    numrecs = cnt.unpack_from(buf, 4)[0]
    if numrecs != 0:
        raise UnsupportedFeature(f"record count {numrecs} unsupported")
    header, _ = decode_header_lists(buf, version, 4 + cnt.size)
    return header


def fill_vsizes(header: Header) -> Header:
    """Return a copy with every variable's vsize computed from its dims and
    type; a value that has no size raises UnrepresentableValue."""
    filled = []
    try:
        for var in header.vars:
            for ref in var.dim_refs:
                if not 0 <= ref < len(header.dims):
                    raise DanglingDimRef(f"variable {var.name!r} references dim {ref}")
            lengths = tuple(header.dims[r].length for r in var.dim_refs)
            vsize = var_size_bytes(lengths, var.type_tag)
            filled.append(var if var.vsize == vsize else replace(var, vsize=vsize))
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"header value cannot be encoded: {exc}") from exc
    return replace(header, vars=tuple(filled))


def _packed(header: Header, start: int) -> Header:
    """A copy with every vsize filled and the variables' data packed in id
    order from ``start``; a value the encoder cannot take raises its error."""
    placed = []
    for var in fill_vsizes(header).vars:
        placed.append(replace(var, begin=start))
        start += var.vsize
    return replace(header, vars=tuple(placed))


def encoded_size(header: Header, version: int = DEFAULT_VERSION) -> int:
    """Byte size of the classic encoding of ``header`` once its variables are
    placed: every field has its version's fixed width, wherever the data starts."""
    return len(encode_classic(_packed(header, 0), version))


def compute_offsets(
    header: Header,
    header_reserve: int,
    alignment: int = 4,
    version: int = DEFAULT_VERSION,
) -> Header:
    """Assign begin offsets in id order, packing variables after header_reserve.

    The first variable starts at header_reserve rounded up to ``alignment``;
    each subsequent variable follows the previous one's data region.  A
    header that :func:`encode_classic` rejects raises what it raises.
    """
    if alignment < 1 or alignment & (alignment - 1):
        raise ValueError(f"alignment {alignment} is not a power of two")
    need = encoded_size(header, version)
    if header_reserve < need:
        raise ReserveTooSmall(f"reserve {header_reserve} < encoded size {need}")
    return _packed(header, align_up(header_reserve, alignment))
