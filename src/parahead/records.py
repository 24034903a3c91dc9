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
header formats are written straight from records (:func:`record_lists`, the
one list writer): the classic baselines' rank 0 from its merged records,
each metadata block from the records of its objects, and ``encode_classic``
and ``encode_block`` from a ``Header``'s objects as records
(:func:`header_lists`).  A record whose name is already read is
checked by :func:`check_payload`, which walks its payload without building it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .classic import (
    _CLASSIC_HEADS,
    _PADS,
    _WIDTHS,
    DEFAULT_ALIGN,
    TAG_ATTRIBUTES,
    TAG_DIMENSIONS,
    TAG_VARIABLES,
    TYPES,
    VALUE_ERRORS,
    AttributeDef,
    Header,
    TypeTag,
    _check_regions,
    _owned,
    align_up,
    validate_name,
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


def pack_values(type_tag: TypeTag, values) -> bytes:
    """Pack attribute values as big-endian bytes (unpadded)."""
    if type_tag is TypeTag.CHAR:
        if not isinstance(values, (bytes, bytearray)):
            raise CorruptHeader("CHAR attribute values must be bytes")
        return bytes(values)
    if not values:
        raise CorruptHeader("numeric attribute needs at least one value")
    return struct.pack(f">{len(values)}{type_tag.struct_char}", *values)


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _pack_att_body(type_tag: TypeTag, values) -> bytes:
    raw = pack_values(type_tag, values)  # fails unless type_tag is a TypeTag
    return _U32X2.pack(type_tag, len(raw) // TYPES[type_tag][1]) + raw


def encode_record(kind: ObjectKind, full_name: str, payload: Payload) -> bytes:
    """Canonical record of a definition; bad values raise UnrepresentableValue."""
    try:
        parts = [bytes([kind]), _pack_name(full_name)]
        if kind is ObjectKind.DIMENSION:
            parts.append(struct.pack(">Q", payload.length))
        elif kind is ObjectKind.VARIABLE:
            if not isinstance(payload.type_tag, TypeTag):  # '4', 4.7 or True packs as a number
                raise UnrepresentableValue(f"variable {full_name!r} has type {payload.type_tag!r}")
            parts.append(struct.pack(">II", payload.type_tag, len(payload.dim_names)))
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


def _read_var_head(buf: bytes, pos: int, end: int) -> tuple[tuple, tuple[str, ...], int, int]:
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
    return entry, tuple(dim_names), _U32.unpack_from(buf, pos)[0], pos + 4


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
        payload = VarPayload(entry[0], dim_names, tuple(atts))
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


# --- the header writer ------------------------------------------------------------


def _name_record(name: str, cnt: struct.Struct, cmax: int) -> bytes:
    validate_name(name)
    raw = name.encode("ascii")
    if len(raw) > cmax:
        raise UnrepresentableValue(f"name length {len(raw)} exceeds version width")
    return cnt.pack(len(raw)) + raw + _PADS[-len(raw) & 3]


def _list_head(pair: struct.Struct, tag: int, n: int, cmax: int, what: str) -> bytes:
    if n > cmax:
        raise UnrepresentableValue(f"{what} count {n} exceeds version width")
    return pair.pack(tag if n else 0, n)


class RecordLists(NamedTuple):
    """Object lists written from records, all but their variables' ``BEGIN``.

    ``facts`` is (byte size, n_dims, n_vars, n_atts, data bytes).  The size
    counts the head and does not depend on where the data starts.  The
    widths are those of format ``version``.
    """

    facts: tuple[int, int, int, int, int]
    parts: list[bytes]
    tails: tuple[tuple[int, int, int], ...]  # per variable: index in parts, int tag, vsize
    version: int

    def place(self, begin: int) -> bytes:
        """The bytes, with the variables' data placed from ``begin`` in id order."""
        begins = []
        for _, _, vsize in self.tails:
            begins.append(begin)
            begin += vsize
        return self.place_at(begins)

    def place_at(self, begins) -> bytes:
        """The bytes, with variable ``i``'s data at ``begins[i]``."""
        _, _, tail, _, _, omax = _WIDTHS[self.version]
        parts = self.parts
        for (i, type_tag, vsize), begin in zip(self.tails, begins, strict=True):
            if begin > omax:
                raise UnrepresentableValue(f"variable begin {begin} exceeds version width")
            parts[i] = tail.pack(type_tag, vsize, begin)
        return b"".join(parts)


def record_lists(records, head: bytes, cut: int = 0, version: int = 5) -> RecordLists:
    """Object lists of canonical ``records``, given in file order, after
    ``head``, with the widths of format ``version``; each name is stored
    without its first ``cut`` characters.

    One pass over the records, with no decoded objects in between: names and
    big-endian attribute values are copied across, and dimension names
    resolve to ids by full name through one dict, so in a block's lists
    (``cut`` drops its ``path/``) a dimension of another block dangles.
    The checks are the record decoder's ``Truncated``/``CorruptHeader``,
    ``validate_name``, dimension lengths of at least 1, ``DanglingDimRef``,
    duplicate names, numeric attributes with no values and the version's
    widths and types.  Malformed input raises only ParaheadError.
    """
    cnt, pair, tail, code, cmax, _ = _WIDTHS[version]
    narrow = version != 5  # no INT64

    def put_att(put, name: str, seen: set, owner: str | None, rec: bytes, pos: int,
                end: int) -> int:
        """Write the record's attribute body at ``pos`` as the classic
        attribute ``name``, its values copied across; returns the offset
        past the body."""
        (type_tag, _, fmt), nelems, start, stop = _att_span(rec, pos, end)
        put(_name_record(name, cnt, cmax))
        if name in seen:
            raise DuplicateName(_owned("attribute", name, owner))
        seen.add(name)
        if not nelems and fmt is not None:
            raise CorruptHeader(f"numeric {_owned('attribute', name, owner)} has no values")
        if narrow and type_tag is TypeTag.INT64:
            raise UnrepresentableValue(f"type {type_tag.name} needs format version 5")
        if nelems > cmax:
            raise UnrepresentableValue(f"attribute value count {nelems} exceeds version width")
        put(pair.pack(type_tag, nelems))
        put(rec[start:stop])
        put(_PADS[-(stop - start) & 3])
        return stop

    dims: list[bytes] = []
    gatts: list[bytes] = []
    dim_ids: dict[str, int] = {}
    lengths: list[int] = []
    gatt_names: set[str] = set()
    var_names: set[str] = set()
    pending = []  # per variable: name, name record, int tag, item size, dim names, attributes
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
            dims.append(_name_record(name[cut:], cnt, cmax))
            if length < 1:
                raise UnsupportedFeature(f"dimension {name!r} has length {length}")
            if length > cmax:
                raise UnrepresentableValue(f"dimension length {length} exceeds version width")
            if name in dim_ids:
                raise DuplicateName(f"dimension {name!r}")
            dim_ids[name] = len(lengths)
            lengths.append(length)
            dims.append(cnt.pack(length))
        elif kind is ObjectKind.ATTRIBUTE:
            pos = put_att(gatts.append, name[cut:], gatt_names, None, rec, pos, end)
            if pos != end:
                raise CorruptHeader(f"{end - pos} bytes left over after the record")
        else:
            entry, dim_names, natts, pos = _read_var_head(rec, pos, end)
            atts = [_list_head(pair, TAG_ATTRIBUTES, natts, cmax, "attribute")]
            seen: set[str] = set()
            for _ in range(natts):
                att_name, pos = _read_name(rec, pos, end)
                pos = put_att(atts.append, att_name, seen, name, rec, pos, end)
            if pos != end:
                raise CorruptHeader(f"{end - pos} bytes left over after the record")
            name_rec = _name_record(name[cut:], cnt, cmax)
            if name in var_names:
                raise DuplicateName(f"variable {name!r}")
            var_names.add(name)
            if narrow and entry[0] is TypeTag.INT64:
                raise UnrepresentableValue(f"type {entry[0].name} needs format version 5")
            pending.append((name, name_rec, int(entry[0]), entry[1], dim_names, b"".join(atts)))

    parts = [head, _list_head(pair, TAG_DIMENSIONS, len(lengths), cmax, "dimension")]
    parts += dims
    parts.append(_list_head(pair, TAG_ATTRIBUTES, len(gatt_names), cmax, "attribute"))
    parts += gatts
    parts.append(_list_head(pair, TAG_VARIABLES, len(pending), cmax, "variable"))
    tails = []
    data = 0
    for name, name_rec, type_tag, size, dim_names, atts in pending:
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
        if size > cmax:
            raise UnrepresentableValue(f"variable size {size} exceeds version width")
        parts += (name_rec, cnt.pack(len(refs)), struct.pack(f">{len(refs)}{code}", *refs), atts)
        tails.append((len(parts), type_tag, size))
        parts.append(b"")  # the tail, once the data section's start is known
        data += size
    nbytes = sum(map(len, parts)) + len(tails) * tail.size
    facts = (nbytes, len(lengths), len(pending), len(gatt_names), data)
    return RecordLists(facts, parts, tuple(tails), version)


def classic_from_records(records) -> bytes:
    """Classic version 5 header of canonical ``records``, given in file order.

    Its variables' data is placed from the header's end rounded up to
    ``DEFAULT_ALIGN``.  The bytes equal ``encode_classic`` of
    ``compute_offsets(build_classic_header(decoded records), encoded_size,
    DEFAULT_ALIGN, 5)``, and so do the checks (see :func:`record_lists`).
    """
    lists = record_lists(records, _CLASSIC_HEADS[5])
    return lists.place(align_up(lists.facts[0], DEFAULT_ALIGN))


def header_objects(header: Header, path: str = ""):
    """``(ObjectKind, full name, payload)`` of each object of ``header``, in
    list order, named ``path/name`` (``name`` with no path).  A dimension id
    outside the header raises DanglingDimRef."""
    prefix = f"{path}/" if path else ""
    dim_names = []
    for dim in header.dims:
        dim_names.append(prefix + dim.name)
        yield ObjectKind.DIMENSION, dim_names[-1], DimPayload(dim.length)
    for att in header.global_atts:
        yield ObjectKind.ATTRIBUTE, prefix + att.name, AttPayload(att.type_tag, att.values)
    for var in header.vars:
        name = prefix + var.name
        for ref in var.dim_refs:
            if not 0 <= ref < len(dim_names):
                raise DanglingDimRef(f"variable {name!r} references dim {ref}")
        refs = tuple(dim_names[ref] for ref in var.dim_refs)
        yield ObjectKind.VARIABLE, name, VarPayload(var.type_tag, refs, var.attributes)


def header_lists(header: Header, head: bytes, version: int, path: str = "") -> bytes:
    """``head`` and the object lists of ``header``, which :func:`record_lists`
    writes from its :func:`header_objects` as records; each variable's data
    stays at its own ``begin``.

    What a record cannot carry is checked here: dimension ids in range
    (``DanglingDimRef``) and dimension lengths of at least 1
    (``UnsupportedFeature``).  So are the header's own ``vsize``s against
    the writer's, negative ``begin``s and overlapping data regions
    (``CorruptHeader``).  A value no record can hold raises what
    :func:`encode_record` raises.
    """
    records = []
    for kind, name, payload in header_objects(header, path):
        if kind is ObjectKind.DIMENSION and payload.length < 1:
            raise UnsupportedFeature(f"dimension {name!r} has length {payload.length}")
        records.append(encode_record(kind, name, payload))
    lists = record_lists(records, head, len(path) + 1 if path else 0, version)
    for var, (_, _, vsize) in zip(header.vars, lists.tails):
        if var.vsize != vsize:
            raise CorruptHeader(f"variable {var.name!r} vsize {var.vsize}, expected {vsize}")
        if var.begin < 0:
            raise CorruptHeader(f"variable {var.name!r} has negative begin")
    _check_regions(header.vars)
    return lists.place_at([var.begin for var in header.vars])


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
    """Inverse of :func:`pack_stream`; a short buffer raises ``Truncated``,
    bytes left over after the last record ``CorruptHeader``."""
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
    if pos != end:
        raise CorruptHeader(f"{end - pos} bytes left over after the record stream")
    return out
