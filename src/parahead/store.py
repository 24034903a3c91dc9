"""Per-rank define-mode state and the local/global id mapping.

Each rank accumulates object definitions before end-define.  The library
hands out local ids (LIDs): dense per-kind integers in creation order,
stable for the life of the file and meaningless on other ranks.  After
end-define, every object also has a global id (GID): its index in the
file order, identical on all ranks.  Objects created elsewhere get a fresh
LID on first inquiry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AlreadyFinalized,
    LocalNameConflict,
    MissingObject,
    NoSuchObject,
)
from .records import ObjectKind, Payload, decode_record, digest64, encode_record


@dataclass
class PendingObject:
    """One definition held by a rank: payload plus its serialized record."""

    kind: ObjectKind
    full_name: str
    payload: Payload
    lid: int
    record: bytes
    digest: int


@dataclass
class IdMap:
    """Per-kind LID<->GID translation produced by finalize."""

    lid_to_gid: dict[ObjectKind, list[int]] = field(
        default_factory=lambda: {k: [] for k in ObjectKind}
    )
    gid_to_lid: dict[ObjectKind, dict[int, int]] = field(
        default_factory=lambda: {k: {} for k in ObjectKind}
    )


def add_gids(out: dict, keys, base=None) -> dict:
    """Add (kind, full name) -> GID for each of ``keys``, in file order, to
    ``out``: its kind's ``base`` (0 without one) plus the keys of that kind
    before it."""
    nxt = dict.fromkeys(ObjectKind, 0) if base is None else dict(base)
    for key in keys:
        out[key] = nxt[key[0]]
        nxt[key[0]] += 1
    return out


class RankStore:
    """Definitions owned by one rank; exclusively used from its rank context."""

    def __init__(self, rank: int):
        self.rank = rank
        self.objects: list[PendingObject] = []
        self.finalized = False
        self.id_map = IdMap()
        self._by_key: dict[tuple[ObjectKind, str], PendingObject] = {}
        self._lid_counts = {k: 0 for k in ObjectKind}
        self._global_gids: dict[tuple[ObjectKind, str], int] = {}

    def define(self, kind: ObjectKind, full_name: str, payload: Payload) -> int:
        """Add a definition and return its LID.

        Re-defining the same (name, payload) is idempotent and returns the
        original LID; the same name with a different payload is an error.
        """
        return self._add(kind, full_name, payload, encode_record(kind, full_name, payload))

    def define_record(self, record: bytes) -> int:
        """Add a definition from its serialized record and return its LID.

        The record is decoded once and stored as given; since records encode
        canonically, that is the record :meth:`define` would have made, and
        redefinition behaves the same way.
        """
        return self._add(*decode_record(record), record)

    def _add(self, kind: ObjectKind, full_name: str, payload: Payload, record: bytes) -> int:
        if self.finalized:
            raise AlreadyFinalized(f"rank {self.rank} left define mode")
        key = (kind, full_name)
        existing = self._by_key.get(key)
        if existing is not None:
            if existing.record != record:
                raise LocalNameConflict(
                    f"rank {self.rank}: {full_name!r} redefined with different metadata"
                )
            return existing.lid
        lid = self._lid_counts[kind]
        self._lid_counts[kind] = lid + 1
        obj = PendingObject(kind, full_name, payload, lid, record, digest64(record))
        self.objects.append(obj)
        self._by_key[key] = obj
        return lid

    def serialized_bytes(self) -> int:
        return sum(len(o.record) for o in self.objects)

    def finalize_gids(self, gids: dict[tuple[ObjectKind, str], int]) -> IdMap:
        """Bind every local object to its file-order GID; ends define mode.

        ``gids`` maps (kind, full_name) to the object's index in the file
        order.  It must agree across ranks wherever it overlaps (the
        strategy's synchronized metadata provides it) and must cover every
        object this rank defined; it may omit objects held only by other
        ranks, which are then resolved lazily through the read path.
        """
        id_map = IdMap()
        for kind in ObjectKind:
            id_map.lid_to_gid[kind] = [-1] * self._lid_counts[kind]
        for obj in self.objects:
            gid = gids.get((obj.kind, obj.full_name))
            if gid is None:
                raise MissingObject(
                    f"rank {self.rank}: {obj.full_name!r} missing from global order"
                )
            id_map.lid_to_gid[obj.kind][obj.lid] = gid
            id_map.gid_to_lid[obj.kind][gid] = obj.lid
        self._global_gids = dict(gids)
        self.id_map = id_map
        self.finalized = True
        return id_map

    def inquire(self, kind: ObjectKind, full_name: str) -> int:
        """Resolve a name to a LID, assigning the next free LID on first use."""
        key = (kind, full_name)
        local = self._by_key.get(key)
        if local is not None:
            return local.lid
        if not self.finalized:
            raise NoSuchObject(f"{full_name!r} not defined on rank {self.rank}")
        gid = self._global_gids.get(key)
        if gid is None:
            raise NoSuchObject(f"{full_name!r} does not exist in the file")
        # a remote object seen before keeps its LID; a new one gets the next
        known = self.id_map.gid_to_lid[kind].get(gid)
        if known is not None:
            return known
        lid = self._lid_counts[kind]
        self._lid_counts[kind] = lid + 1
        self.id_map.lid_to_gid[kind].append(gid)
        self.id_map.gid_to_lid[kind][gid] = lid
        return lid

    def gid_of(self, kind: ObjectKind, lid: int) -> int:
        if not self.finalized:
            raise RuntimeError(f"rank {self.rank} has not finalized GIDs yet")
        try:
            gid = self.id_map.lid_to_gid[kind][lid]
        except IndexError:
            raise NoSuchObject(f"no {kind.name} with LID {lid}") from None
        return gid
