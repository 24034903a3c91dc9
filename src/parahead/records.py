"""Canonical serialized form of a single object definition.

Records are the unit exchanged between ranks and used for logical-size
accounting.  A record is self-describing::

    record    = kind(1)  name_rec  payload
    name_rec  = u32 length + UTF-8 bytes (unpadded)
    DIMENSION = u64 length
    VARIABLE  = u32 type | u32 ndims | ndims * name_rec | u32 natts | natts * attr
    ATTRIBUTE = attr body without the name
    attr      = name_rec | u32 type | u32 count | value bytes

All integers big-endian.  Variables reference dimensions by full name:
numeric ids only exist after end-define assigns the file order.  Both
header formats are written straight from records (:func:`record_lists`): the
classic baselines' rank 0 from its merged records, and each metadata block
from the records of its objects.  A record whose name is already read is
checked by :func:`check_payload`, which walks its payload without building it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .classic import (
    _PADS,
    _WIDTHS,
    DEFAULT_ALIGN,
    MAGIC_PREFIX,
    TAG_ATTRIBUTES,
    TAG_DIMENSIONS,
    TAG_VARIABLES,
    TYPES,
    VALUE_ERRORS,
    AttributeDef,
    TypeTag,
    _list_head,
    _name_record,
    _owned,
    align_up,
    pack_values,
)
from .errors import (
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    Truncated,
    UnrepresentableValue,
    UnsupportedFeature,
)


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


def _att_span(buf: bytes, pos: int, end: int) -> tuple[tuple, int, int, int]:
    """Attribute body at ``pos``: its ``TYPES`` entry, its element count, and
    the offsets where its value bytes start and stop."""
    if pos + 8 > end:
        raise Truncated(f"record needs an attribute type and count at offset {pos}")
    tag, nelems = _U32X2.unpack_from(buf, pos)
    entry = TYPES.get(tag)
    if entry is None:
        raise CorruptHeader(f"unknown type tag {tag} at offset {pos}")
    pos += 8
    stop = pos + nelems * entry[1]
    if stop > end:
        raise Truncated(f"attribute values at offset {pos} run past the end")
    return entry, nelems, pos, stop


def _read_typed_values(buf: bytes, pos: int, end: int) -> tuple[TypeTag, tuple | bytes, int]:
    """Attribute body at ``pos``: type tag, values and the offset just past it."""
    (type_tag, _, fmt), nelems, pos, stop = _att_span(buf, pos, end)
    if fmt is None:
        return type_tag, buf[pos:stop], stop
    return type_tag, struct.unpack_from(f">{nelems}{fmt}", buf, pos), stop


def _read_var_head(buf: bytes, pos: int, end: int) -> tuple[tuple, list[str], int, int]:
    """Variable payload at ``pos`` up to its attributes: its ``TYPES`` entry,
    its dimension names, its attribute count and the offset of the first one."""
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
    return entry, dim_names, _U32.unpack_from(buf, pos)[0], pos + 4


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
        entry, dim_names, natts, pos = _read_var_head(buf, pos, end)
        atts = []
        for _ in range(natts):
            att_name, pos = _read_name(buf, pos, end)
            att_tag, values, pos = _read_typed_values(buf, pos, end)
            atts.append(AttributeDef(att_name, att_tag, values))
        payload = VarPayload(entry[0], tuple(dim_names), tuple(atts))
    if pos != end:
        raise CorruptHeader(f"{end - pos} bytes left over after the record")
    return kind, full_name, payload


def check_payload(buf: bytes, pos: int) -> None:
    """Check the record ``buf`` from ``pos``, the offset just past its name,
    as :func:`decode_record` does: the same checks in the same order, with
    no value unpacked and no payload built."""
    end = len(buf)
    kind = KINDS.get(buf[0])
    if kind is None:
        raise CorruptHeader(f"unknown record kind {buf[0]}")
    if kind is ObjectKind.DIMENSION:
        if pos + 8 > end:
            raise Truncated(f"record needs a dimension length at offset {pos}")
        pos += 8
    elif kind is ObjectKind.ATTRIBUTE:
        pos = _att_span(buf, pos, end)[3]
    else:
        natts, pos = _read_var_head(buf, pos, end)[2:]
        for _ in range(natts):
            pos = _att_span(buf, _read_name(buf, pos, end)[1], end)[3]
    if pos != end:
        raise CorruptHeader(f"{end - pos} bytes left over after the record")


# the object lists that record_lists writes: version 5 widths
_CNT, _PAIR, _TAIL, _, _CMAX, _OMAX = _WIDTHS[5]
_CLASSIC_HEAD = MAGIC_PREFIX + b"\x05" + _CNT.pack(0)  # magic and numrecs


def _put_att(put, name: str, seen: set, owner: str | None, rec: bytes, pos: int, end: int) -> int:
    """Write the record's attribute body at ``pos`` as the classic attribute
    ``name``, its values copied across; returns the offset past the body."""
    (type_tag, _, fmt), nelems, start, stop = _att_span(rec, pos, end)
    put(_name_record(name, _CNT, _CMAX))
    if name in seen:
        raise DuplicateName(_owned("attribute", name, owner))
    seen.add(name)
    if not nelems and fmt is not None:
        raise CorruptHeader(f"numeric {_owned('attribute', name, owner)} has no values")
    put(_PAIR.pack(type_tag, nelems))
    put(rec[start:stop])
    put(_PADS[-(stop - start) & 3])
    return stop


class RecordLists(NamedTuple):
    """Object lists written from records, all but their variables' ``BEGIN``.

    ``facts`` is (byte size, n_dims, n_vars, n_atts, data bytes).  The size
    counts the head and does not depend on where the data starts.
    """

    facts: tuple[int, int, int, int, int]
    parts: list[bytes]
    tails: list[tuple[int, int, int]]  # per variable: index in parts, type tag, vsize

    def place(self, begin: int) -> bytes:
        """The bytes, with the variables' data placed from ``begin`` in id order."""
        parts = self.parts
        for i, type_tag, vsize in self.tails:
            if begin > _OMAX:
                raise UnrepresentableValue(f"variable begin {begin} exceeds version width")
            parts[i] = _TAIL.pack(type_tag, vsize, begin)
            begin += vsize
        return b"".join(parts)


def record_lists(records, head: bytes, cut: int = 0) -> RecordLists:
    """Version 5 object lists of canonical ``records``, given in file order,
    after ``head``; each name is stored without its first ``cut`` characters.

    One pass over the records, with no decoded objects in between: names and
    big-endian attribute values are copied across, and dimension names
    resolve to ids by full name through one dict, so in a block's lists
    (``cut`` drops its ``path/``) a dimension of another block dangles.
    The checks are the record decoder's ``Truncated``/``CorruptHeader``,
    ``validate_name``, dimension lengths of at least 1, ``DanglingDimRef``,
    duplicate names, numeric attributes with no values and the version's
    widths.  Malformed input raises only ParaheadError.
    """
    dims: list[bytes] = []
    gatts: list[bytes] = []
    dim_ids: dict[str, int] = {}
    lengths: list[int] = []
    gatt_names: set[str] = set()
    var_names: set[str] = set()
    pending = []  # per variable: name, name record, TYPES entry, dim names, attributes
    for rec in records:
        end = len(rec)
        if end < 1:
            raise Truncated("empty record")
        kind = KINDS.get(rec[0])
        if kind is None:
            raise CorruptHeader(f"unknown record kind {rec[0]}")
        name, pos = _read_name(rec, 1, end)
        if kind is ObjectKind.DIMENSION:
            if pos + 8 > end:
                raise Truncated(f"record needs a dimension length at offset {pos}")
            length = _U64.unpack_from(rec, pos)[0]
            pos += 8
            if pos != end:
                raise CorruptHeader(f"{end - pos} bytes left over after the record")
            dims.append(_name_record(name[cut:], _CNT, _CMAX))
            if length < 1:
                raise UnsupportedFeature(f"dimension {name!r} has length {length}")
            if length > _CMAX:
                raise UnrepresentableValue(f"dimension length {length} exceeds version width")
            if name in dim_ids:
                raise DuplicateName(f"dimension {name!r}")
            dim_ids[name] = len(lengths)
            lengths.append(length)
            dims.append(_CNT.pack(length))
        elif kind is ObjectKind.ATTRIBUTE:
            pos = _put_att(gatts.append, name[cut:], gatt_names, None, rec, pos, end)
            if pos != end:
                raise CorruptHeader(f"{end - pos} bytes left over after the record")
        else:
            entry, dim_names, natts, pos = _read_var_head(rec, pos, end)
            atts = [_list_head(_PAIR, TAG_ATTRIBUTES, natts, _CMAX, "attribute")]
            seen: set[str] = set()
            for _ in range(natts):
                att_name, pos = _read_name(rec, pos, end)
                pos = _put_att(atts.append, att_name, seen, name, rec, pos, end)
            if pos != end:
                raise CorruptHeader(f"{end - pos} bytes left over after the record")
            name_rec = _name_record(name[cut:], _CNT, _CMAX)
            if name in var_names:
                raise DuplicateName(f"variable {name!r}")
            var_names.add(name)
            pending.append((name, name_rec, entry, dim_names, b"".join(atts)))

    parts = [head, _list_head(_PAIR, TAG_DIMENSIONS, len(lengths), _CMAX, "dimension")]
    parts += dims
    parts.append(_list_head(_PAIR, TAG_ATTRIBUTES, len(gatt_names), _CMAX, "attribute"))
    parts += gatts
    parts.append(_list_head(_PAIR, TAG_VARIABLES, len(pending), _CMAX, "variable"))
    tails = []
    data = 0
    for name, name_rec, (type_tag, size, _), dim_names, atts in pending:
        refs = []
        for dim_name in dim_names:
            ref = dim_ids.get(dim_name)
            if ref is None:
                raise DanglingDimRef(
                    f"variable {name!r} references unknown dimension {dim_name!r}"
                )
            refs.append(ref)
            size *= lengths[ref]
        size += -size & 3
        if size > _CMAX:
            raise UnrepresentableValue(f"variable size {size} exceeds version width")
        parts += (name_rec, _CNT.pack(len(refs)), struct.pack(f">{len(refs)}Q", *refs), atts)
        tails.append((len(parts), type_tag, size))
        parts.append(b"")  # the tail, once the data section's start is known
        data += size
    nbytes = sum(map(len, parts)) + len(tails) * _TAIL.size
    return RecordLists((nbytes, len(lengths), len(pending), len(gatt_names), data), parts, tails)


def classic_from_records(records) -> bytes:
    """Classic version 5 header of canonical ``records``, given in file order.

    Its variables' data is placed from the header's end rounded up to
    ``DEFAULT_ALIGN``.  The bytes equal ``encode_classic`` of
    ``compute_offsets(build_classic_header(decoded records), encoded_size,
    DEFAULT_ALIGN, 5)``, and so do the checks (see :func:`record_lists`).
    """
    lists = record_lists(records, _CLASSIC_HEAD)
    return lists.place(align_up(lists.facts[0], DEFAULT_ALIGN))


def record_name(rec: bytes) -> tuple[bytes, str]:
    """Namespace key (kind byte + UTF-8 name bytes) and full name of a record,
    read without decoding its payload: a short record raises ``Truncated``,
    a name that is not UTF-8 ``CorruptHeader``."""
    name, stop = _read_name(rec, 1, len(rec))
    return rec[:1] + rec[5:stop], name


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
