"""The reference list writer: classic object lists written straight from
``Header`` objects, one object at a time, each checked as it is written.

``parahead`` writes both header formats from records (``records.record_lists``);
these encoders are the independent second writer that its bytes and its
errors are compared against.  Import them as ``from reference import ...``.
"""

from __future__ import annotations

import struct

from parahead.classic import (
    _PADS,
    _WIDTHS,
    MAGIC_PREFIX,
    SUPPORTED_VERSIONS,
    TAG_ATTRIBUTES,
    TAG_DIMENSIONS,
    TAG_VARIABLES,
    VALUE_ERRORS,
    Header,
    TypeTag,
    _check_regions,
    _owned,
)
from parahead.errors import (
    CorruptHeader,
    DanglingDimRef,
    DuplicateName,
    UnrepresentableValue,
    UnsupportedFeature,
)
from parahead.newformat import MetadataBlock, _check_local_names, _pack_path
from parahead.records import _list_head, _name_record, pack_values


def _encode_att_list(put, atts, version: int, owner: str | None) -> None:
    cnt, pair, _, _, cmax, _ = _WIDTHS[version]
    put(_list_head(pair, TAG_ATTRIBUTES, len(atts), cmax, "attribute"))
    seen = set()
    for att in atts:
        name, type_tag = att.name, att.type_tag
        put(_name_record(name, cnt, cmax))
        if name in seen:
            raise DuplicateName(_owned("attribute", name, owner))
        seen.add(name)
        if type_tag is TypeTag.INT64 and version != 5:
            raise UnrepresentableValue(f"type {type_tag.name} needs format version 5")
        raw = pack_values(type_tag, att.values)  # each attribute is packed once
        nelems = len(raw) // type_tag.itemsize
        if nelems > cmax:
            raise UnrepresentableValue(f"attribute value count {nelems} exceeds version width")
        put(pair.pack(type_tag, nelems))
        put(raw)
        put(_PADS[-len(raw) & 3])


def encode_header_lists(header: Header, version: int) -> bytes:
    """Encode the three object lists (no magic/numrecs); shared with block encoding.

    One pass: each object is checked as it is written, with the same checks
    as ``decode_header_lists``, and each attribute is packed once.
    """
    if version not in SUPPORTED_VERSIONS:
        raise UnrepresentableValue(f"unknown format version {version}")
    cnt, pair, tail, code, cmax, omax = _WIDTHS[version]
    parts: list[bytes] = []
    put = parts.append
    dims = header.dims
    put(_list_head(pair, TAG_DIMENSIONS, len(dims), cmax, "dimension"))
    lengths = []
    seen = set()
    for dim in dims:
        name, length = dim.name, dim.length
        put(_name_record(name, cnt, cmax))
        if length < 1:
            raise UnsupportedFeature(f"dimension {name!r} has length {length}")
        if length > cmax:
            raise UnrepresentableValue(f"dimension length {length} exceeds version width")
        if name in seen:
            raise DuplicateName(f"dimension {name!r}")
        seen.add(name)
        put(cnt.pack(length))
        lengths.append(length)
    _encode_att_list(put, header.global_atts, version, None)
    put(_list_head(pair, TAG_VARIABLES, len(header.vars), cmax, "variable"))
    seen = set()
    last_end = 0
    ordered = True  # begins ascend without overlap, so no sort is needed
    for var in header.vars:
        name, type_tag, vsize, begin = var.name, var.type_tag, var.vsize, var.begin
        put(_name_record(name, cnt, cmax))
        if name in seen:
            raise DuplicateName(f"variable {name!r}")
        seen.add(name)
        size = type_tag.itemsize
        for ref in var.dim_refs:
            if not 0 <= ref < len(lengths):
                raise DanglingDimRef(f"variable {name!r} references dim {ref}")
            size *= lengths[ref]
        put(cnt.pack(len(var.dim_refs)))
        put(struct.pack(f">{len(var.dim_refs)}{code}", *var.dim_refs))
        _encode_att_list(put, var.attributes, version, name)
        if type_tag is TypeTag.INT64 and version != 5:
            raise UnrepresentableValue(f"type {type_tag.name} needs format version 5")
        size += -size & 3
        if vsize != size:
            raise CorruptHeader(f"variable {name!r} vsize {vsize}, expected {size}")
        if begin < 0:
            raise CorruptHeader(f"variable {name!r} has negative begin")
        if vsize > cmax:
            raise UnrepresentableValue(f"variable size {vsize} exceeds version width")
        if begin > omax:
            raise UnrepresentableValue(f"variable begin {begin} exceeds version width")
        put(tail.pack(type_tag, vsize, begin))
        ordered = ordered and begin >= last_end
        last_end = begin + vsize
    if not ordered:
        _check_regions(header.vars)
    return b"".join(parts)


def encode_classic(header: Header, version: int = 5) -> bytes:
    """Classic-format bytes of ``header``, as ``parahead.classic.encode_classic``."""
    try:
        lists = encode_header_lists(header, version)
        return MAGIC_PREFIX + bytes([version]) + _WIDTHS[version][0].pack(0) + lists
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"header value cannot be encoded: {exc}") from exc


def encode_block(block: MetadataBlock) -> bytes:
    """One block's bytes, as ``parahead.newformat.encode_block``."""
    try:
        _check_local_names(block.content)
        return _pack_path(block.block_path) + encode_header_lists(block.content, 5)
    except VALUE_ERRORS as exc:
        raise UnrepresentableValue(f"block value cannot be encoded: {exc}") from exc
