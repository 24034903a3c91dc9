"""Synthetic define-mode workloads scaled from the reference dataset profiles.

A workload assigns each rank an ordered list of object definitions.  Objects
are evenly partitioned (remainders spread over the lowest ranks), a
configurable fraction is replicated identically on every rank (shared
objects), and metadata inconsistencies can be injected at seeded positions
for conflict-detection tests.  Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .classic import AttributeDef, TypeTag
from .errors import TooManyConflicts
from .records import DimPayload, ObjectKind, Payload, VarPayload

# Serialized metadata per variable tracks the reference datasets' ratio of
# metadata volume to object count; see the calibration test.
ATTR_BYTES_PER_VAR = 8
DIMS_PER_VAR = 2

_VAR_TYPES = (TypeTag.FLOAT, TypeTag.INT, TypeTag.DOUBLE, TypeTag.SHORT)
CONFLICT_MODES = ("type_mismatch", "dim_mismatch")


@dataclass(frozen=True)
class DatasetProfile:
    """Reference object totals and the hash-table size tuned for them."""

    name: str
    total_vars: int
    total_dims: int
    hash_size: int


DATASETS = {
    "98M": DatasetProfile("98M", 568_480, 852_715, 16_384),
    "1G": DatasetProfile("1G", 5_684_800, 8_527_150, 1_048_576),
}


@dataclass(frozen=True)
class WorkloadSpec:
    total_vars: int
    total_dims: int
    nranks: int
    shared_fraction: float = 0.0
    conflict_count: int = 0
    conflict_mode: str = "type_mismatch"
    seed: int = 0


@dataclass(frozen=True)
class Definition:
    kind: ObjectKind
    full_name: str
    payload: Payload


@dataclass(frozen=True)
class Workload:
    spec: WorkloadSpec
    per_rank: tuple[tuple[Definition, ...], ...]
    injected: tuple[tuple[ObjectKind, str, str], ...] = ()  # (kind, name, mode)

    @property
    def nranks(self) -> int:
        return self.spec.nranks


def spec_for_dataset(
    dataset: str, scale: float, nranks: int, seed: int = 0, **overrides
) -> WorkloadSpec:
    """Scale a dataset profile's object totals, preserving the vars:dims ratio."""
    profile = DATASETS[dataset]
    total_vars = max(1, round(profile.total_vars * scale))
    total_dims = max(1, round(profile.total_dims * scale))
    return WorkloadSpec(total_vars, total_dims, nranks, seed=seed, **overrides)


def _split_even(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if r < rem else 0) for r in range(parts)]


@dataclass(frozen=True)
class Partition:
    """Per-rank object counts for a spec: what each rank is assigned to define."""

    var_counts: tuple[int, ...]
    dim_counts: tuple[int, ...]
    n_shared_vars: int
    n_shared_dims: int


def partition_counts(spec: WorkloadSpec) -> Partition:
    """Even partition with remainders spread over the lowest ranks."""
    n_shared_vars = int(spec.shared_fraction * spec.total_vars)
    n_shared_dims = int(spec.shared_fraction * spec.total_dims)
    var_counts = _split_even(spec.total_vars - n_shared_vars, spec.nranks)
    dim_counts = _split_even(spec.total_dims - n_shared_dims, spec.nranks)
    return Partition(tuple(var_counts), tuple(dim_counts), n_shared_vars, n_shared_dims)


def _names(rank, kind_char: str, count: int) -> list[str]:
    """One block path per rank, and ``shared`` for objects every rank defines."""
    prefix = "shared" if rank is None else f"b{rank:05d}"
    return [f"{prefix}/{kind_char}{i:06d}" for i in range(count)]


def _make_dims(names, rng) -> list[Definition]:
    return [
        Definition(ObjectKind.DIMENSION, name, DimPayload(rng.randrange(1, 1000)))
        for name in names
    ]


def _make_vars(names, dim_pool, rng) -> list[Definition]:
    out = []
    for i, name in enumerate(names):
        if dim_pool:
            refs = tuple(
                dim_pool[(i * DIMS_PER_VAR + t) % len(dim_pool)]
                for t in range(DIMS_PER_VAR)
            )
        else:
            refs = ()
        atts = (AttributeDef("meta", TypeTag.CHAR, rng.randbytes(ATTR_BYTES_PER_VAR)),)
        type_tag = _VAR_TYPES[rng.randrange(len(_VAR_TYPES))]
        out.append(
            Definition(ObjectKind.VARIABLE, name, VarPayload(type_tag, refs, atts))
        )
    return out


def gen_workload(spec: WorkloadSpec) -> Workload:
    """Build per-rank definition lists; deterministic in ``spec.seed``."""
    if spec.nranks < 1:
        raise ValueError("need at least one rank")
    if not 0.0 <= spec.shared_fraction <= 1.0:
        raise ValueError("shared_fraction must be in [0, 1]")
    if spec.conflict_mode not in CONFLICT_MODES:
        raise ValueError(f"unknown conflict mode {spec.conflict_mode!r}")
    if spec.conflict_count and spec.nranks < 2:
        raise ValueError("conflict injection needs at least 2 ranks")
    rng = random.Random(f"{spec.seed}:base")

    part = partition_counts(spec)
    var_counts, dim_counts = part.var_counts, part.dim_counts

    shared_dims = _make_dims(_names(None, "d", part.n_shared_dims), rng)
    shared_dim_names = [d.full_name for d in shared_dims]
    shared_vars = _make_vars(_names(None, "v", part.n_shared_vars), shared_dim_names, rng)

    per_rank: list[list[Definition]] = []
    for rank in range(spec.nranks):
        own_dims = _make_dims(_names(rank, "d", dim_counts[rank]), rng)
        own_dim_names = [d.full_name for d in own_dims]
        own_vars = _make_vars(
            _names(rank, "v", var_counts[rank]), own_dim_names or shared_dim_names, rng
        )
        per_rank.append(shared_dims + own_dims + shared_vars + own_vars)

    injected = _inject_conflicts(spec, per_rank, part)
    return Workload(
        spec,
        tuple(tuple(defs) for defs in per_rank),
        tuple(injected),
    )


def _mutate(defn: Definition, mode: str) -> Definition:
    if mode == "type_mismatch":
        payload: VarPayload = defn.payload
        new_type = TypeTag.INT if payload.type_tag != TypeTag.INT else TypeTag.DOUBLE
        return Definition(
            defn.kind,
            defn.full_name,
            VarPayload(new_type, payload.dim_names, payload.attributes),
        )
    return Definition(
        defn.kind, defn.full_name, DimPayload(defn.payload.length % 999 + 1)
    )


def _inject_conflicts(spec, per_rank, part: Partition):
    """Re-define seeded unique objects on a second rank with mutated metadata."""
    if not spec.conflict_count:
        return []
    rng = random.Random(f"{spec.seed}:inject")
    counts = part.var_counts if spec.conflict_mode == "type_mismatch" else part.dim_counts
    targets = [(r, i) for r in range(spec.nranks) for i in range(counts[r])]
    if len(targets) < spec.conflict_count:
        raise TooManyConflicts(
            f"{spec.conflict_count} injected conflicts need as many unique objects "
            f"to host them; the workload has {len(targets)}"
        )
    injected = []
    # resolve every target against the pristine lists before inserting copies
    picks = []
    for src_rank, idx in rng.sample(targets, spec.conflict_count):
        defs = per_rank[src_rank]
        if spec.conflict_mode == "type_mismatch":
            # own vars sit at the tail of the rank's definition list
            target = defs[len(defs) - part.var_counts[src_rank] + idx]
        else:
            target = defs[part.n_shared_dims + idx]
        picks.append((src_rank, target))
    for src_rank, target in picks:
        other = (src_rank + 1 + rng.randrange(spec.nranks - 1)) % spec.nranks
        twisted = _mutate(target, spec.conflict_mode)
        pos = rng.randrange(len(per_rank[other]) + 1)
        per_rank[other].insert(pos, twisted)
        injected.append((target.kind, target.full_name, spec.conflict_mode))
    return injected
