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

from .classic import AttributeDef, TypeTag, pack_values, unpack_values
from .errors import Truncated


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
        raise ValueError(f"unknown kind {kind!r}")
    return b"".join(parts)


class _Cursor:
    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise Truncated(f"record needs {n} bytes at offset {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def name(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _read_att_body(c: _Cursor) -> AttPayload:
    type_tag = TypeTag(c.u32())
    nelems = c.u32()
    raw = c.take(nelems * type_tag.itemsize)
    return AttPayload(type_tag, unpack_values(type_tag, raw))


def decode_record(buf: bytes) -> tuple[ObjectKind, str, Payload]:
    c = _Cursor(buf)
    kind = ObjectKind(c.take(1)[0])
    full_name = c.name()
    if kind is ObjectKind.DIMENSION:
        return kind, full_name, DimPayload(c.u64())
    if kind is ObjectKind.ATTRIBUTE:
        body = _read_att_body(c)
        return kind, full_name, body
    type_tag = TypeTag(c.u32())
    dim_names = tuple(c.name() for _ in range(c.u32()))
    atts = []
    for _ in range(c.u32()):
        att_name = c.name()
        body = _read_att_body(c)
        atts.append(AttributeDef(att_name, body.type_tag, body.values))
    return kind, full_name, VarPayload(type_tag, dim_names, tuple(atts))


def record_name(rec: bytes) -> tuple[int, str]:
    """Kind byte and full name of a record, read without decoding its payload."""
    n = int.from_bytes(rec[1:5], "big")
    return rec[0], rec[5 : 5 + n].decode("utf-8")


def pack_stream(records: list[bytes]) -> bytes:
    """Frame a record list for a collective exchange buffer."""
    parts = [struct.pack(">I", len(records))]
    for rec in records:
        parts.append(struct.pack(">I", len(rec)))
        parts.append(rec)
    return b"".join(parts)


def unpack_stream(buf: bytes) -> list[bytes]:
    c = _Cursor(buf)
    return [c.take(c.u32()) for _ in range(c.u32())]
