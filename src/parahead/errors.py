"""Exception types raised across the package."""

from __future__ import annotations


class ParaheadError(Exception):
    """Base class for all errors raised by this package."""


# --- codec errors ---

class BadMagic(ParaheadError):
    """Input does not start with the expected magic bytes."""


class Truncated(ParaheadError):
    """Input ends inside a declared entry."""


class CorruptHeader(ParaheadError):
    """Structurally invalid header: bad tags, padding, sizes, or overlaps."""


class DuplicateName(ParaheadError):
    """Two objects of the same kind share a name within one namespace."""


class DanglingDimRef(ParaheadError):
    """A variable references a dimension id that does not exist."""


class UnrepresentableValue(ParaheadError):
    """A count, length, or offset exceeds the chosen format version's width."""


class UnsupportedFeature(ParaheadError):
    """Valid-looking input uses a feature that is out of scope (e.g. record dims)."""


class ReserveTooSmall(ParaheadError):
    """header_reserve is smaller than the encoded header."""


class OverlappingBlocks(ParaheadError):
    """Index table entries describe overlapping file regions."""


class UnsortedIndex(ParaheadError):
    """Index table entries are not sorted by block path."""


class NameWidthOverflow(ParaheadError):
    """A flattened object name exceeds the classic name-length limit."""


# --- communicator errors ---

class SizeMismatch(ParaheadError):
    """Ranks contributed records of different sizes to a fixed-size collective."""


class CollectiveMisuse(ParaheadError):
    """Ranks issued mismatched collective call sequences."""


class CollectiveAborted(ParaheadError):
    """A peer rank failed; the collective cannot complete."""


# --- object store errors ---

class LocalNameConflict(ParaheadError):
    """The same name was defined twice on one rank with different payloads."""


class AlreadyFinalized(ParaheadError):
    """Define-mode operation attempted after end-define."""


class MissingObject(ParaheadError):
    """A locally defined object is absent from the global order."""


class NoSuchObject(ParaheadError):
    """Inquired name does not exist in the file."""


# --- strategy / workload errors ---

class ConsistencyError(ParaheadError):
    """Same-name objects with divergent metadata were detected across ranks.

    ``conflicts`` holds a :class:`~parahead.consistency.Conflict` for every
    conflicting object; the message names each one's differing field.
    """

    def __init__(self, conflicts):
        self.conflicts = tuple(conflicts)
        super().__init__(f"inconsistent metadata: {'; '.join(sorted(map(str, self.conflicts)))}")


class TooManyConflicts(ParaheadError):
    """The workload has fewer unique objects than the conflicts to inject."""
