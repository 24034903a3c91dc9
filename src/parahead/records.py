"""Canonical serialized form of a single object definition.

Records are the unit exchanged between ranks, digested for fast payload
comparison, and used for logical-size accounting.  A record is
self-describing::

    record    = kind(1)  name_rec  payload
    name_rec  = u32 length + UTF-8 bytes (unpadded)
    DIMENSION = u64 length
    VARIABLE  = u32 type | u32 ndims | ndims * name_rec | u32 natts | natts * attr
    ATTRIBUTE = attr body without the name
    attr      = name_rec | u32 type | u32 count | value bytes

All integers big-endian.  Variables reference dimensions by full name:
numeric ids only exist after end-define assigns the file order.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from .classic import TYPES, VALUE_ERRORS, AttributeDef, TypeTag, pack_values
from .errors import CorruptHeader, Truncated, UnrepresentableValue


class ObjectKind(IntEnum):
    DIMENSION = 1
    VARIABLE = 2
    ATTRIBUTE = 3


@dataclass(frozen=True)
class DimPayload:
    length: int


@dataclass(frozen=True)
class AttPayload:
    type_tag: TypeTag
    values: tuple | bytes


@dataclass(frozen=True)
class VarPayload:
    type_tag: TypeTag
    dim_names: tuple[str, ...]
    attributes: tuple[AttributeDef, ...] = ()


Payload = DimPayload | AttPayload | VarPayload

_U32 = struct.Struct(">I")
_U32X2 = struct.Struct(">II")
_U64 = struct.Struct(">Q")
KINDS = {int(k): k for k in ObjectKind}


def digest64(data: bytes) -> int:
    """Deterministic 64-bit non-cryptographic digest (fast-path filter only)."""
    return zlib.crc32(data) | zlib.crc32(b"\x9e\x37\x79\xb9" + data) << 32


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _pack_att_body(type_tag: TypeTag, values) -> bytes:
    raw = pack_values(type_tag, values)
    nelems = len(raw) // type_tag.itemsize
    return struct.pack(">II", int(type_tag), nelems) + raw


def encode_record(kind: ObjectKind, full_name: str, payload: Payload) -> bytes:
    """Canonical record of a definition; bad values raise UnrepresentableValue."""
    try:
        parts = [bytes([kind]), _pack_name(full_name)]
        if kind is ObjectKind.DIMENSION:
            parts.append(struct.pack(">Q", payload.length))
        elif kind is ObjectKind.VARIABLE:
            parts.append(struct.pack(">II", int(payload.type_tag), len(payload.dim_names)))
            for dim_name in payload.dim_names:
                parts.append(_pack_name(dim_name))
            parts.append(struct.pack(">I", len(payload.attributes)))
            for att in payload.attributes:
                parts.append(_pack_name(att.name))
                parts.append(_pack_att_body(att.type_tag, att.values))
        elif kind is ObjectKind.ATTRIBUTE:
            parts.append(_pack_att_body(payload.type_tag, payload.values))
        else:
            raise UnrepresentableValue(f"unknown kind {kind!r}")
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"record value cannot be encoded: {exc}") from exc
    return b"".join(parts)


def _read_name(buf: bytes, pos: int, end: int) -> tuple[str, int]:
    """Name record at ``pos``: the decoded name and the offset just past it."""
    if pos + 4 > end:
        raise Truncated(f"record needs a name length at offset {pos}")
    stop = pos + 4 + _U32.unpack_from(buf, pos)[0]
    if stop > end:
        raise Truncated(f"record name at offset {pos} runs past the end")
    try:
        return buf[pos + 4 : stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise CorruptHeader(f"record name at offset {pos} is not UTF-8") from exc


def _read_typed_values(buf: bytes, pos: int, end: int) -> tuple[TypeTag, tuple | bytes, int]:
    """Attribute body at ``pos``: type tag, values and the offset just past it."""
    if pos + 8 > end:
        raise Truncated(f"record needs an attribute type and count at offset {pos}")
    tag, nelems = _U32X2.unpack_from(buf, pos)
    entry = TYPES.get(tag)
    if entry is None:
        raise CorruptHeader(f"unknown type tag {tag} at offset {pos}")
    type_tag, itemsize, fmt = entry
    pos += 8
    stop = pos + nelems * itemsize
    if stop > end:
        raise Truncated(f"attribute values at offset {pos} run past the end")
    if fmt is None:
        return type_tag, buf[pos:stop], stop
    return type_tag, struct.unpack_from(f">{nelems}{fmt}", buf, pos), stop


def decode_record(buf: bytes) -> tuple[ObjectKind, str, Payload]:
    """Inverse of :func:`encode_record`; malformed input raises a ParaheadError.

    One pass over offsets: every read is bounds-checked first (``Truncated``),
    unknown kind or type tags and non-UTF-8 names raise ``CorruptHeader``, and
    so do bytes left over after the payload.
    """
    end = len(buf)
    if end < 1:
        raise Truncated("empty record")
    kind = KINDS.get(buf[0])
    if kind is None:
        raise CorruptHeader(f"unknown record kind {buf[0]}")
    full_name, pos = _read_name(buf, 1, end)
    if kind is ObjectKind.DIMENSION:
        if pos + 8 > end:
            raise Truncated(f"record needs a dimension length at offset {pos}")
        payload = DimPayload(_U64.unpack_from(buf, pos)[0])
        pos += 8
    elif kind is ObjectKind.ATTRIBUTE:
        type_tag, values, pos = _read_typed_values(buf, pos, end)
        payload = AttPayload(type_tag, values)
    else:
        if pos + 8 > end:
            raise Truncated(f"record needs a variable type and rank at offset {pos}")
        tag, ndims = _U32X2.unpack_from(buf, pos)
        entry = TYPES.get(tag)
        if entry is None:
            raise CorruptHeader(f"unknown type tag {tag} at offset {pos}")
        pos += 8
        dim_names = []
        for _ in range(ndims):
            dim_name, pos = _read_name(buf, pos, end)
            dim_names.append(dim_name)
        if pos + 4 > end:
            raise Truncated(f"record needs an attribute count at offset {pos}")
        natts = _U32.unpack_from(buf, pos)[0]
        pos += 4
        atts = []
        for _ in range(natts):
            att_name, pos = _read_name(buf, pos, end)
            att_tag, values, pos = _read_typed_values(buf, pos, end)
            atts.append(AttributeDef(att_name, att_tag, values))
        payload = VarPayload(entry[0], tuple(dim_names), tuple(atts))
    if pos != end:
        raise CorruptHeader(f"{end - pos} bytes left over after the record")
    return kind, full_name, payload


def record_name(rec: bytes) -> tuple[bytes, str]:
    """Namespace key (kind byte + UTF-8 name bytes) and full name of a record,
    read without decoding its payload."""
    stop = 5 + int.from_bytes(rec[1:5], "big")
    raw = rec[5:stop]
    return rec[:1] + raw, raw.decode("utf-8")


def pack_stream(records: list[bytes]) -> bytes:
    """Frame a record list for a collective exchange buffer."""
    parts = [struct.pack(">I", len(records))]
    for rec in records:
        parts.append(struct.pack(">I", len(rec)))
        parts.append(rec)
    return b"".join(parts)


def unpack_stream(buf: bytes) -> list[bytes]:
    """Inverse of :func:`pack_stream`; a short buffer raises ``Truncated``."""
    end = len(buf)
    if end < 4:
        raise Truncated("record stream needs a count")
    count = _U32.unpack_from(buf, 0)[0]
    pos = 4
    out = []
    for _ in range(count):
        if pos + 4 > end:
            raise Truncated(f"record stream needs a length at offset {pos}")
        stop = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if stop > end:
            raise Truncated(f"record at offset {pos} runs past the stream's end")
        out.append(buf[pos + 4 : stop])
        pos = stop
    return out
