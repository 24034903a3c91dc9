"""Duplicate-name detection and shared-object metadata comparison.

Two interchangeable detectors are provided.  ``hash_check`` inserts every
record into a k-slot chained hash table and compares the key string against
each slot occupant, the scheme in-library lookups use; with n records and k
slots it performs about n*n/2k string comparisons (``model_hash_cost``).
Only slots that are hit get an entry, so a call costs O(n) whatever k is;
the comparisons, and hence the cost model, are those of the full table.
Chains are linked through ints: a check keeps no container per slot for
the cyclic collector to scan and promote.
``sort_check`` instead orders the whole record list once and groups equal
keys from adjacent runs.  It sorts by the 32-bit CRC of the key, falling
back to the key string only on CRC ties, so the string comparisons it must
count stay proportional to the duplicates actually present rather than to
n log n.  Both detectors classify a group of same-name records by comparing
their serialized bytes.

Both detectors must produce identical shared sets and conflicts for every
input; counters are exact and deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import IntEnum

from .records import decode_record, record_name

__all__ = [
    "name_record",
    "Conflict",
    "CheckReport",
    "Mismatch",
    "hash_check",
    "sort_check",
    "compare_shared",
    "model_hash_cost",
    "model_newformat_cost",
    "hash_slot",
    "make_name_records",
]


def name_record(full_name: str, origin_rank: int, record: bytes) -> tuple:
    """One definition as the checks read it: ``(full_name, origin_rank, record,
    key)``, ``key`` being the kind byte and the UTF-8 name.  An exact tuple of
    str, int and bytes leaves the collector's scans after its first pass; a
    dataclass or tuple subclass stays tracked for as long as it lives."""
    return (full_name, origin_rank, record, record[:1] + full_name.encode("utf-8"))


@dataclass(frozen=True)
class Mismatch:
    """First differing field between two same-named payloads."""

    field: str
    left: object
    right: object

    def __str__(self) -> str:
        shown = [v.name if isinstance(v, IntEnum) else repr(v) for v in (self.left, self.right)]
        return f"{self.field} {shown[0]} vs {shown[1]}"


@dataclass(frozen=True)
class Conflict:
    """A name defined with different metadata; ``mismatch`` compares its
    first definition with the first one that differs from it."""

    full_name: str
    ranks: tuple[int, ...]
    mismatch: Mismatch

    def __str__(self) -> str:
        return f"{self.full_name}: {self.mismatch} on ranks {', '.join(map(str, self.ranks))}"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a conflict check, with exact comparison counters; each
    shared set holds one name's :func:`name_record` tuples."""

    shared_sets: tuple[tuple[tuple, ...], ...]
    conflicts: tuple[Conflict, ...]
    string_comparisons: int
    payload_comparisons: int


def make_name_records(rank_record_lists) -> list[tuple]:
    """Flatten per-rank serialized records into :func:`name_record` tuples,
    the check input, in rank-major order.

    This is where a gathered record's kind and name are parsed, once each:
    checks, merging and the file order all read them from the result.
    """
    out = []
    for rank, records in enumerate(rank_record_lists):
        for rec in records:
            key, name = record_name(rec)
            out.append((name, rank, rec, key))
    return out


def hash_slot(key: bytes, k: int) -> int:
    """Slot index for a namespace key in a table of size k.

    CRC-32 alone is linear, so sequentially numbered names collide in
    systematic patterns on power-of-two table sizes; the finalizer breaks
    that structure (dispersion is validated against the uniform model).
    """
    # murmur3 finalizer, inlined (one call per inserted record)
    h = zlib.crc32(key)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h % k


def hash_check(records, k: int) -> CheckReport:
    """Insert every record into a k-slot chained table, comparing on slot hits.

    Each insertion compares the record's key against the slot's occupants in
    arrival order until a match is found; every such comparison is counted.
    Only hit slots have an entry, so empty slots cost nothing.  A chain is
    linked through ints, the slot's first group and each group's next one,
    so it holds nothing the collector scans, and a name seen once never
    gets a group of its own.
    """
    if k < 1:
        raise ValueError("hash table needs at least one slot")
    table: dict[int, int] = {}  # hit slot -> its first group
    nxt: list[int] = []  # group -> the next group in its slot, -1 at the end
    group_keys: list[bytes] = []
    firsts: list[tuple] = []
    repeats: dict[int, list[tuple]] = {}  # later members of groups of two or more
    string_comparisons = 0
    for rec in records:
        key = rec[3]
        slot = hash_slot(key, k)
        gi = table.get(slot, -1)
        last = -1
        while gi >= 0:
            string_comparisons += 1
            if group_keys[gi] == key:
                repeats.setdefault(gi, []).append(rec)
                break
            last, gi = gi, nxt[gi]
        else:
            if last < 0:
                table[slot] = len(group_keys)
            else:
                nxt[last] = len(group_keys)
            nxt.append(-1)
            group_keys.append(key)
            firsts.append(rec)
    groups = [[firsts[gi], *repeats[gi]] for gi in sorted(repeats)]
    shared, conflicts, payload_comparisons = _resolve_groups(groups)
    return CheckReport(shared, conflicts, string_comparisons, payload_comparisons)


def sort_check(records) -> CheckReport:
    """Order records once, then group equal keys from adjacent digest runs.

    Only runs of two or more equal digests are walked: a record alone in its
    run has no duplicate, and groups of one are never shared or conflicting.
    """
    items = list(records)
    digests = [zlib.crc32(rec[3]) for rec in items]
    order = sorted(range(len(items)), key=digests.__getitem__)
    ordered = [digests[i] for i in order]
    n = len(order)
    string_comparisons = 0
    groups: list[list[tuple]] = []
    run_end = 0
    for i in [i for i in range(1, n) if ordered[i] == ordered[i - 1]]:
        if i < run_end:
            continue  # inside a run already walked
        run_end = i + 1
        while run_end < n and ordered[run_end] == ordered[i]:
            run_end += 1
        # digest tie: confirm key equality by string comparison
        run_groups: list[list[tuple]] = []
        run_keys: list[bytes] = []
        for idx in order[i - 1 : run_end]:
            rec = items[idx]
            key = rec[3]
            for gi, existing in enumerate(run_keys):
                string_comparisons += 1
                if existing == key:
                    run_groups[gi].append(rec)
                    break
            else:
                run_keys.append(key)
                run_groups.append([rec])
        groups.extend(run_groups)
    shared, conflicts, payload_comparisons = _resolve_groups(groups)
    return CheckReport(shared, conflicts, string_comparisons, payload_comparisons)


def _resolve_groups(groups):
    """Classify equal-name groups as shared sets or conflicts.

    Within a group, every record is compared against the first occurrence
    (pair-wise against the reference); each such determination counts as one
    payload comparison, made on the serialized bytes.  Only a conflict's
    records are decoded, to name the field that differs.
    """
    shared: list[tuple[tuple, ...]] = []
    conflicts: list[Conflict] = []
    payload_comparisons = 0
    for group in groups:
        if len(group) < 2:
            continue
        ref = group[0][2]
        payload_comparisons += len(group) - 1
        differing = next((o[2] for o in group[1:] if o[2] != ref), None)
        if differing is None:
            shared.append(tuple(group))
        else:
            ranks = tuple(sorted({r[1] for r in group}))
            conflicts.append(Conflict(group[0][0], ranks, compare_shared(ref, differing)))
    return tuple(shared), tuple(conflicts), payload_comparisons


def compare_shared(a: bytes, b: bytes) -> Mismatch | None:
    """Byte-exact payload comparison; on mismatch, report the first differing field."""
    if a == b:
        return None
    kind_a, _, payload_a = decode_record(a)
    kind_b, _, payload_b = decode_record(b)
    if kind_a != kind_b:
        return Mismatch("kind", kind_a, kind_b)
    for name in ("type_tag", "length", "dim_names", "attributes", "values"):
        left, right = getattr(payload_a, name, None), getattr(payload_b, name, None)
        # 0.0 == -0.0 although their records differ; their reprs differ too
        if left != right or repr(left) != repr(right):
            return Mismatch(name, left, right)
    # bytes differ but decoded fields agree: name is the remaining field
    return Mismatch("full_name", a, b)


def model_hash_cost(n: int, k: int) -> float:
    """Expected string comparisons inserting n unique names into a k-slot table."""
    if k < 1:
        raise ValueError("hash table needs at least one slot")
    return n * (n / (2 * k))


def model_newformat_cost(n: int, p: int, k: int) -> float:
    """Expected per-rank comparisons with the partitioned header.

    Each rank inserts its n/p names into its own k-slot table, plus the
    p block names into a table of the same size.
    """
    if p < 1:
        raise ValueError("need at least one rank")
    if k < 1:
        raise ValueError("hash table needs at least one slot")
    return (n / p) * (n / (2 * k * p)) + p * (p / (2 * k))
