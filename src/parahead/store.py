"""Per-rank define-mode state and the local/global id mapping.

Each rank accumulates object definitions before end-define.  The library
hands out local ids (LIDs): dense per-kind integers in creation order,
stable for the life of the file and meaningless on other ranks.  After
end-define, every object also has a global id (GID): its index in the
file order, identical on all ranks.  Objects created elsewhere get a fresh
LID on first inquiry.
"""

from __future__ import annotations

from .consistency import name_record
from .errors import (
    AlreadyFinalized,
    LocalNameConflict,
    MissingObject,
    NoSuchObject,
)
from .records import ObjectKind, Payload, check_payload, encode_record


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
    """Definitions owned by one rank; exclusively used from its rank context.

    Each definition is held once, in ``objects`` in creation order, as the
    ``(full_name, origin_rank, record, key)`` tuple of :func:`name_record`
    that the conflict checks read; a gathered record keeps its origin rank.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.objects: list[tuple] = []
        self.finalized = False
        self._by_key: dict[tuple[ObjectKind, str], tuple] = {}
        # (kind, full name) -> LID of local and inquired objects, and back
        self._lids: dict[tuple[ObjectKind, str], int] = {}
        self._lid_keys: dict[ObjectKind, list[tuple[ObjectKind, str]]] = {
            k: [] for k in ObjectKind
        }
        self._gids: dict[tuple[ObjectKind, str], int] = {}

    def define(self, kind: ObjectKind, full_name: str, payload: Payload) -> int:
        """Add a definition and return its LID.

        Re-defining the same (name, payload) is idempotent and returns the
        original LID; the same name with a different payload is an error.
        """
        record = encode_record(kind, full_name, payload)
        return self._add(name_record(full_name, self.rank, record))

    def define_record(self, obj: tuple) -> int:
        """Add a gathered definition, its name already read, and return its LID.

        Its payload is checked but not built, and ``obj`` itself is stored:
        records encode canonically, so redefinition behaves as in :meth:`define`.
        """
        check_payload(obj[2], len(obj[3]) + 4)
        return self._add(obj)

    def _add(self, obj: tuple) -> int:
        if self.finalized:
            raise AlreadyFinalized(f"rank {self.rank} left define mode")
        full_name, _, record, name_key = obj
        # the kind as a plain int: an (int, str) key holds nothing the
        # collector tracks, and it equals and hashes as (ObjectKind, str)
        key = (name_key[0], full_name)
        existing = self._by_key.get(key)
        if existing is not None:
            if existing[2] != record:
                raise LocalNameConflict(
                    f"rank {self.rank}: {full_name!r} redefined with different metadata"
                )
            return self._lids[key]
        self.objects.append(obj)
        self._by_key[key] = obj
        return self._new_lid(key)

    def _new_lid(self, key: tuple[ObjectKind, str]) -> int:
        keys = self._lid_keys[key[0]]
        lid = self._lids[key] = len(keys)
        keys.append(key)
        return lid

    def serialized_bytes(self) -> int:
        return sum(len(o[2]) for o in self.objects)

    def finalize_gids(self, gids: dict[tuple[ObjectKind, str], int]) -> None:
        """Bind every local object to its file-order GID; ends define mode.

        ``gids`` maps (kind, full_name) to the object's index in the file
        order; the store keeps it, so the caller must not change it.  It must
        agree across ranks wherever it overlaps (the strategy's synchronized
        metadata provides it) and must cover every object this rank defined;
        it may omit objects held only by other ranks, which are then resolved
        lazily through the read path.  A second call is rejected.
        """
        if self.finalized:
            raise AlreadyFinalized(f"rank {self.rank} already has its GIDs")
        for key in self._by_key:
            if key not in gids:
                raise MissingObject(f"rank {self.rank}: {key[1]!r} missing from global order")
        self._gids = gids
        self.finalized = True

    def inquire(self, kind: ObjectKind, full_name: str) -> int:
        """Resolve a name to a LID, assigning the next free LID on first use."""
        key = (kind, full_name)
        lid = self._lids.get(key)
        if lid is not None:
            return lid
        if not self.finalized:
            raise NoSuchObject(f"{full_name!r} not defined on rank {self.rank}")
        if key not in self._gids:
            raise NoSuchObject(f"{full_name!r} does not exist in the file")
        return self._new_lid(key)

    def gid_of(self, kind: ObjectKind, lid: int) -> int:
        if not self.finalized:
            raise NoSuchObject(f"rank {self.rank} has no GIDs before end-define")
        keys = self._lid_keys[kind]
        if not 0 <= lid < len(keys):
            raise NoSuchObject(f"no {kind.name} with LID {lid}")
        return self._gids[keys[lid]]
