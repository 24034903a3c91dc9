"""Layer micro-benchmarks of the conflict checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_check_bench.py --benchmark-only

The input is the 98M profile on 8 ranks, seed 1, at two scales: about 10^4
and 10^5 records, one rank list each, with no name defined twice.  The lib
baselines check every gathered record this way; ``hash_check`` uses the 98M
profile's 16,384-slot table.

``test_full_collection_with_gathered_records`` times one full cyclic-GC
collection while one ``shared-blocks-p4`` rank's gathered records are alive:
the cost a collection charges to whichever rank thread triggers it.
``test_hash_check_shared`` checks those 12,800 records, 640 of whose names
are defined on every rank, in the same 16,384-slot table.
"""

from __future__ import annotations

import gc
import random

import pytest

from parahead.classic import AttributeDef, TypeTag
from parahead.consistency import hash_check, make_name_records, sort_check
from parahead.records import DimPayload, ObjectKind, VarPayload, encode_record
from parahead.workload import DATASETS, gen_workload, spec_for_dataset

K = DATASETS["98M"].hash_size


@pytest.fixture(scope="module", params=[0.007, 0.07], ids=["1e4", "1e5"])
def rank_lists(request) -> list[list[bytes]]:
    workload = gen_workload(spec_for_dataset("98M", request.param, 8, seed=1))
    return [[encode_record(d.kind, d.full_name, d.payload) for d in defs]
            for defs in workload.per_rank]


@pytest.fixture(scope="module")
def name_records(rank_lists):
    return make_name_records(rank_lists)


def test_make_name_records(benchmark, rank_lists):
    records = benchmark(make_name_records, rank_lists)
    assert len(records) == sum(map(len, rank_lists))


@pytest.fixture(scope="module")
def shared_gathered() -> list:
    """What one rank gathers on shared-blocks-p4: each of the 4 ranks' 64
    shared and 256 own blocks of 6 dimensions and 4 variables, 12,800
    records, their names read.  Only records are built, so the rest of the
    heap is the test process's own."""
    rng = random.Random(1)

    def block(path: str) -> list[bytes]:
        dims = [f"{path}/d{i}" for i in range(6)]
        out = [encode_record(ObjectKind.DIMENSION, d, DimPayload(rng.randrange(1, 1000)))
               for d in dims]
        for i in range(4):
            att = AttributeDef("meta", TypeTag.CHAR, rng.randbytes(8))
            var_type = rng.choice((TypeTag.FLOAT, TypeTag.INT, TypeTag.DOUBLE))
            payload = VarPayload(var_type, tuple(rng.sample(dims, 2)), (att,))
            out.append(encode_record(ObjectKind.VARIABLE, f"{path}/v{i}", payload))
        return out

    shared = [r for b in range(64) for r in block(f"shared/s{b:04d}")]
    return make_name_records(
        [shared + [r for b in range(256) for r in block(f"r{rank}/b{b:04d}")]
         for rank in range(4)]
    )


def test_full_collection_with_gathered_records(benchmark, shared_gathered):
    gc.collect()
    benchmark(gc.collect)
    assert len(shared_gathered) == 12_800


def test_hash_check(benchmark, name_records):
    report = benchmark(hash_check, name_records, K)
    assert report.shared_sets == () and report.conflicts == ()
    assert report.payload_comparisons == 0


def test_sort_check(benchmark, name_records):
    report = benchmark(sort_check, name_records)
    assert report.shared_sets == () and report.conflicts == ()
    assert report.payload_comparisons == 0


def test_hash_check_shared(benchmark, shared_gathered):
    report = benchmark(hash_check, shared_gathered, K)
    assert len(report.shared_sets) == 640 and report.conflicts == ()
    assert report.payload_comparisons == 640 * 3
