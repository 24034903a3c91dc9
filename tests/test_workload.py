"""Workload generator: partitioning, sharing, conflict injection, determinism."""

from __future__ import annotations

import pytest

from parahead.records import ObjectKind, encode_record
from parahead.workload import (
    partition_counts,
    DATASETS,
    WorkloadSpec,
    gen_workload,
    spec_for_dataset,
)

VAR = ObjectKind.VARIABLE
DIM = ObjectKind.DIMENSION


def count_kind(defs, kind) -> int:
    return sum(1 for d in defs if d.kind is kind)


def test_dataset_profile_partition_at_four_ranks():
    spec = spec_for_dataset("98M", 1.0, 4)
    assert spec.total_vars == 568_480
    assert spec.total_dims == 852_715
    part = partition_counts(spec)
    assert part.var_counts == (142_120,) * 4
    assert all(c in (213_178, 213_179) for c in part.dim_counts)
    assert sum(part.dim_counts) == 852_715


def test_generated_counts_match_partition():
    spec = spec_for_dataset("98M", 0.002, 4, shared_fraction=0.1)
    part = partition_counts(spec)
    workload = gen_workload(spec)
    for rank, defs in enumerate(workload.per_rank):
        assert count_kind(defs, VAR) == part.var_counts[rank] + part.n_shared_vars
        assert count_kind(defs, DIM) == part.dim_counts[rank] + part.n_shared_dims


def test_even_split_no_collisions():
    workload = gen_workload(WorkloadSpec(total_vars=10, total_dims=10, nranks=2))
    names = set()
    for defs in workload.per_rank:
        assert count_kind(defs, VAR) == 5
        for d in defs:
            key = (d.kind, d.full_name)
            assert key not in names
            names.add(key)


def test_shared_objects_replicated_identically():
    workload = gen_workload(
        WorkloadSpec(total_vars=40, total_dims=60, nranks=4, shared_fraction=0.5)
    )
    shared_by_rank = []
    for defs in workload.per_rank:
        shared_by_rank.append(
            [d for d in defs if d.full_name.startswith("shared/")]
        )
    for other in shared_by_rank[1:]:
        assert other == shared_by_rank[0]
    assert count_kind(shared_by_rank[0], VAR) == 20
    # unique objects still unique
    unique = [
        d.full_name
        for defs in workload.per_rank
        for d in defs
        if not d.full_name.startswith("shared/")
    ]
    assert len(unique) == len(set(unique))


def test_conflict_injection_type_mismatch():
    spec = WorkloadSpec(
        total_vars=12, total_dims=12, nranks=3, conflict_count=1,
        conflict_mode="type_mismatch", seed=5,
    )
    workload = gen_workload(spec)
    assert len(workload.injected) == 1
    kind, name, mode = workload.injected[0]
    assert kind is VAR and mode == "type_mismatch"
    copies = [
        d for defs in workload.per_rank for d in defs if d.full_name == name
    ]
    assert len(copies) == 2
    assert copies[0].payload.type_tag != copies[1].payload.type_tag
    assert copies[0].payload.dim_names == copies[1].payload.dim_names


def test_conflict_injection_dim_mismatch():
    spec = WorkloadSpec(
        total_vars=8, total_dims=12, nranks=2, conflict_count=3,
        conflict_mode="dim_mismatch", seed=9,
    )
    workload = gen_workload(spec)
    assert len(workload.injected) == 3
    for kind, name, _ in workload.injected:
        assert kind is DIM
        copies = [
            d for defs in workload.per_rank for d in defs if d.full_name == name
        ]
        assert len(copies) == 2
        assert copies[0].payload.length != copies[1].payload.length


def test_conflict_free_twin_is_base_workload():
    noisy = gen_workload(
        WorkloadSpec(total_vars=20, total_dims=30, nranks=4, conflict_count=2, seed=3)
    )
    clean = gen_workload(WorkloadSpec(total_vars=20, total_dims=30, nranks=4, seed=3))
    injected = {name for _, name, _ in noisy.injected}
    for rank in range(4):
        stripped = tuple(
            d
            for d in noisy.per_rank[rank]
            if not (d.full_name in injected and d not in clean.per_rank[rank])
        )
        assert stripped == clean.per_rank[rank]


def test_determinism():
    spec = WorkloadSpec(total_vars=50, total_dims=75, nranks=4, shared_fraction=0.2, seed=11)
    assert gen_workload(spec) == gen_workload(spec)


def test_seed_changes_content():
    a = gen_workload(WorkloadSpec(total_vars=10, total_dims=10, nranks=2, seed=1))
    b = gen_workload(WorkloadSpec(total_vars=10, total_dims=10, nranks=2, seed=2))
    assert a != b


def test_scale_preserves_ratio():
    for scale in (0.001, 0.01, 0.1):
        spec = spec_for_dataset("98M", scale, 2)
        ratio = spec.total_dims / spec.total_vars
        assert ratio == pytest.approx(852_715 / 568_480, rel=0.01)


def test_metadata_volume_tracks_dataset_profile():
    # reference profile: 70.72 MB of metadata for 568,480 variables
    target = 70.72e6 / 568_480
    workload = gen_workload(spec_for_dataset("98M", 0.01, 4, seed=1))
    total = 0
    nvars = 0
    for defs in workload.per_rank:
        for d in defs:
            total += len(encode_record(d.kind, d.full_name, d.payload))
            nvars += d.kind is VAR
    assert abs(total / nvars - target) / target < 0.20


def test_dataset_table_totals():
    assert DATASETS["98M"].total_vars * 10 == DATASETS["1G"].total_vars
    assert DATASETS["1G"].total_dims == 8_527_150
    assert DATASETS["98M"].hash_size == 16_384
    assert DATASETS["1G"].hash_size == 1_048_576
