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

# Types that only exist in the 64-bit-count format.
_V5_ONLY_TYPES = frozenset({TypeTag.INT64})


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
    return (4 - n % 4) % 4


def align_up(n: int, align: int) -> int:
    """``n`` rounded up to a multiple of ``align``."""
    return (n + align - 1) // align * align


def _count_width(version: int) -> int:
    return 8 if version == 5 else 4


def _offset_width(version: int) -> int:
    return 4 if version == 1 else 8


def _count_max(version: int) -> int:
    return 2**63 - 1 if version == 5 else 2**31 - 1


def _offset_max(version: int) -> int:
    return 2**31 - 1 if version == 1 else 2**63 - 1


def validate_name(name: str) -> None:
    """Reject names that cannot be stored: empty, non-printable, or bad slashes."""
    if not name:
        raise CorruptHeader("empty object name")
    for ch in name:
        if not (0x20 <= ord(ch) <= 0x7E):
            raise CorruptHeader(f"non-printable character in name {name!r}")
    if name.startswith("/") or name.endswith("/") or "//" in name:
        raise CorruptHeader(f"malformed path in name {name!r}")


def var_size_bytes(dim_lengths: tuple[int, ...], type_tag: TypeTag) -> int:
    """Data-region size of a variable: element count times item size, padded to 4."""
    n = 1
    for length in dim_lengths:
        n *= length
    raw = n * type_tag.itemsize
    return raw + pad4(raw)


def pack_values(type_tag: TypeTag, values) -> bytes:
    """Pack attribute values as big-endian bytes (unpadded)."""
    if type_tag is TypeTag.CHAR:
        if not isinstance(values, (bytes, bytearray)):
            raise CorruptHeader("CHAR attribute values must be bytes")
        return bytes(values)
    if not values:
        raise CorruptHeader("numeric attribute needs at least one value")
    return struct.pack(f">{len(values)}{type_tag.struct_char}", *values)


def unpack_values(type_tag: TypeTag, raw: bytes):
    if type_tag is TypeTag.CHAR:
        return raw
    n = len(raw) // type_tag.itemsize
    return tuple(struct.unpack(f">{n}{type_tag.struct_char}", raw))


def _validate_header(header: Header) -> None:
    seen = set()
    for dim in header.dims:
        validate_name(dim.name)
        if dim.length < 1:
            raise UnsupportedFeature(f"dimension {dim.name!r} has length {dim.length}")
        if dim.name in seen:
            raise DuplicateName(f"dimension {dim.name!r}")
        seen.add(dim.name)
    _validate_atts(header.global_atts, "global attribute")
    seen = set()
    regions = []
    for var in header.vars:
        validate_name(var.name)
        if var.name in seen:
            raise DuplicateName(f"variable {var.name!r}")
        seen.add(var.name)
        for ref in var.dim_refs:
            if not 0 <= ref < len(header.dims):
                raise DanglingDimRef(f"variable {var.name!r} references dim {ref}")
        lengths = tuple(header.dims[r].length for r in var.dim_refs)
        expect = var_size_bytes(lengths, var.type_tag)
        if var.vsize != expect:
            raise CorruptHeader(
                f"variable {var.name!r} vsize {var.vsize}, expected {expect}"
            )
        if var.begin < 0:
            raise CorruptHeader(f"variable {var.name!r} has negative begin")
        _validate_atts(var.attributes, f"attribute of {var.name!r}")
        regions.append((var.begin, var.begin + var.vsize, var.name))
    regions.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(regions, regions[1:]):
        if start_b < end_a:
            raise CorruptHeader(f"data regions of {name_a!r} and {name_b!r} overlap")


def _validate_atts(atts, what: str) -> None:
    seen = set()
    for att in atts:
        validate_name(att.name)
        if att.name in seen:
            raise DuplicateName(f"{what} {att.name!r}")
        seen.add(att.name)
        # pack_values raises on empty numeric values / wrong CHAR payload
        pack_values(att.type_tag, att.values)


class _Writer:
    def __init__(self, version: int):
        self.version = version
        self.parts: list[bytes] = []
        self._cmax = _count_max(version)
        self._cfmt = ">Q" if version == 5 else ">I"

    def u32(self, value: int) -> None:
        self.parts.append(struct.pack(">I", value))

    def count(self, value: int, what: str) -> None:
        if value > self._cmax:
            raise UnrepresentableValue(f"{what} {value} exceeds version width")
        self.parts.append(struct.pack(self._cfmt, value))

    def offset(self, value: int, what: str) -> None:
        if value > _offset_max(self.version):
            raise UnrepresentableValue(f"{what} {value} exceeds version width")
        fmt = ">I" if _offset_width(self.version) == 4 else ">Q"
        self.parts.append(struct.pack(fmt, value))

    def name(self, text: str) -> None:
        raw = text.encode("ascii")
        self.count(len(raw), "name length")
        self.parts.append(raw + b"\x00" * pad4(len(raw)))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def _write_atts(w: _Writer, atts) -> None:
    if not atts:
        w.u32(0)
        w.count(0, "attribute count")
        return
    w.u32(TAG_ATTRIBUTES)
    w.count(len(atts), "attribute count")
    for att in atts:
        if att.type_tag in _V5_ONLY_TYPES and w.version != 5:
            raise UnrepresentableValue(
                f"type {att.type_tag.name} needs format version 5"
            )
        w.name(att.name)
        w.u32(int(att.type_tag))
        raw = pack_values(att.type_tag, att.values)
        nelems = len(raw) // att.type_tag.itemsize
        w.count(nelems, "attribute value count")
        w.parts.append(raw + b"\x00" * pad4(len(raw)))


def encode_header_lists(header: Header, version: int) -> bytes:
    """Encode the three object lists (no magic/numrecs); shared with block encoding."""
    if version not in SUPPORTED_VERSIONS:
        raise UnrepresentableValue(f"unknown format version {version}")
    _validate_header(header)
    w = _Writer(version)
    if header.dims:
        w.u32(TAG_DIMENSIONS)
        w.count(len(header.dims), "dimension count")
        for dim in header.dims:
            w.name(dim.name)
            w.count(dim.length, "dimension length")
    else:
        w.u32(0)
        w.count(0, "dimension count")
    _write_atts(w, header.global_atts)
    if header.vars:
        w.u32(TAG_VARIABLES)
        w.count(len(header.vars), "variable count")
        for var in header.vars:
            w.name(var.name)
            w.count(len(var.dim_refs), "dimension id count")
            for ref in var.dim_refs:
                w.count(ref, "dimension id")
            _write_atts(w, var.attributes)
            if var.type_tag in _V5_ONLY_TYPES and version != 5:
                raise UnrepresentableValue(
                    f"type {var.type_tag.name} needs format version 5"
                )
            w.u32(int(var.type_tag))
            w.count(var.vsize, "variable size")
            w.offset(var.begin, "variable begin")
    else:
        w.u32(0)
        w.count(0, "variable count")
    return w.getvalue()


def encode_classic(header: Header, version: int = DEFAULT_VERSION) -> bytes:
    """Encode a header as classic-format bytes.  Deterministic for equal inputs."""
    if version not in SUPPORTED_VERSIONS:
        raise UnrepresentableValue(f"unknown format version {version}")
    lists = encode_header_lists(header, version)
    numrecs = struct.pack(">Q" if version == 5 else ">I", 0)
    return MAGIC_PREFIX + bytes([version]) + numrecs + lists


class _Reader:
    def __init__(self, buf: bytes, version: int, pos: int = 0):
        self.buf = buf
        self.pos = pos
        self.version = version

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise Truncated(f"need {n} bytes at offset {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def count(self) -> int:
        width = _count_width(self.version)
        fmt = ">Q" if width == 8 else ">I"
        return struct.unpack(fmt, self.take(width))[0]

    def offset(self) -> int:
        width = _offset_width(self.version)
        fmt = ">Q" if width == 8 else ">I"
        return struct.unpack(fmt, self.take(width))[0]

    def name(self) -> str:
        n = self.count()
        raw = self.take(n)
        pad = self.take(pad4(n))
        if pad.strip(b"\x00"):
            raise CorruptHeader("non-zero name padding")
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CorruptHeader(f"non-ASCII name at offset {self.pos}") from exc


def _read_atts(r: _Reader) -> tuple[AttributeDef, ...]:
    tag = r.u32()
    n = r.count()
    if n == 0:
        if tag != 0:
            raise CorruptHeader(f"empty list with tag {tag:#x}")
        return ()
    if tag != TAG_ATTRIBUTES:
        raise CorruptHeader(f"attribute list tagged {tag:#x}")
    atts = []
    for _ in range(n):
        name = r.name()
        try:
            type_tag = TypeTag(r.u32())
        except ValueError as exc:
            raise CorruptHeader(str(exc)) from exc
        nelems = r.count()
        raw = r.take(nelems * type_tag.itemsize)
        pad = r.take(pad4(len(raw)))
        if pad.strip(b"\x00"):
            raise CorruptHeader("non-zero attribute padding")
        atts.append(AttributeDef(name, type_tag, unpack_values(type_tag, raw)))
    return tuple(atts)


def decode_header_lists(buf: bytes, version: int, pos: int = 0) -> tuple[Header, int]:
    """Parse the three object lists starting at ``pos``; returns (header, end)."""
    r = _Reader(buf, version, pos)
    tag = r.u32()
    n = r.count()
    dims = []
    if n:
        if tag != TAG_DIMENSIONS:
            raise CorruptHeader(f"dimension list tagged {tag:#x}")
        for _ in range(n):
            name = r.name()
            length = r.count()
            if length < 1:
                raise UnsupportedFeature(f"dimension {name!r} has length {length}")
            dims.append(DimensionDef(name, length))
    elif tag != 0:
        raise CorruptHeader(f"empty list with tag {tag:#x}")
    gatts = _read_atts(r)
    tag = r.u32()
    n = r.count()
    vars_ = []
    if n:
        if tag != TAG_VARIABLES:
            raise CorruptHeader(f"variable list tagged {tag:#x}")
        for _ in range(n):
            name = r.name()
            ndims = r.count()
            refs = tuple(r.count() for _ in range(ndims))
            atts = _read_atts(r)
            try:
                type_tag = TypeTag(r.u32())
            except ValueError as exc:
                raise CorruptHeader(str(exc)) from exc
            vsize = r.count()
            begin = r.offset()
            vars_.append(VariableDef(name, refs, type_tag, atts, begin, vsize))
    elif tag != 0:
        raise CorruptHeader(f"empty list with tag {tag:#x}")
    header = Header(tuple(dims), gatts, tuple(vars_))
    _validate_header(header)
    return header, r.pos


def decode_classic(buf: bytes) -> Header:
    """Decode classic-format bytes; trailing (data section) bytes are ignored."""
    if len(buf) < 4:
        raise Truncated("shorter than the magic")
    if buf[:3] != MAGIC_PREFIX or buf[3] not in SUPPORTED_VERSIONS:
        raise BadMagic(f"not a classic header: {buf[:4]!r}")
    version = buf[3]
    r = _Reader(buf, version, 4)
    numrecs = r.count()
    if numrecs != 0:
        raise UnsupportedFeature(f"record count {numrecs} unsupported")
    header, _ = decode_header_lists(buf, version, r.pos)
    return header


def encoded_size(header: Header, version: int = DEFAULT_VERSION) -> int:
    """Byte size of encode_classic output, computed without encoding."""
    cw = _count_width(version)
    size = 4 + cw  # magic + numrecs

    def name_size(text: str) -> int:
        return cw + len(text) + pad4(len(text))

    def atts_size(atts) -> int:
        total = 4 + cw
        for att in atts:
            raw_len = (
                len(att.values)
                if att.type_tag is TypeTag.CHAR
                else len(att.values) * att.type_tag.itemsize
            )
            total += name_size(att.name) + 4 + cw + raw_len + pad4(raw_len)
        return total

    size += 4 + cw
    for dim in header.dims:
        size += name_size(dim.name) + cw
    size += atts_size(header.global_atts)
    size += 4 + cw
    for var in header.vars:
        size += name_size(var.name) + cw + cw * len(var.dim_refs)
        size += atts_size(var.attributes)
        size += 4 + cw + _offset_width(version)
    return size


def fill_vsizes(header: Header) -> Header:
    """Return a copy with every variable's vsize computed from its dims and type."""
    filled = []
    for var in header.vars:
        for ref in var.dim_refs:
            if not 0 <= ref < len(header.dims):
                raise DanglingDimRef(f"variable {var.name!r} references dim {ref}")
        lengths = tuple(header.dims[r].length for r in var.dim_refs)
        vsize = var_size_bytes(lengths, var.type_tag)
        filled.append(var if var.vsize == vsize else replace(var, vsize=vsize))
    return replace(header, vars=tuple(filled))


def compute_offsets(
    header: Header,
    header_reserve: int,
    alignment: int = 4,
    version: int = DEFAULT_VERSION,
) -> Header:
    """Assign begin offsets in id order, packing variables after header_reserve.

    The first variable starts at header_reserve rounded up to ``alignment``;
    each subsequent variable follows the previous one's data region.
    """
    if alignment < 1 or alignment & (alignment - 1):
        raise ValueError(f"alignment {alignment} is not a power of two")
    header = fill_vsizes(header)
    need = encoded_size(header, version)
    if header_reserve < need:
        raise ReserveTooSmall(f"reserve {header_reserve} < encoded size {need}")
    cursor = align_up(header_reserve, alignment)
    placed = []
    for var in header.vars:
        placed.append(replace(var, begin=cursor))
        cursor += var.vsize
    return replace(header, vars=tuple(placed))
