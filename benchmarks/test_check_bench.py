"""Layer micro-benchmarks of the conflict checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_check_bench.py --benchmark-only

The input is the 98M profile on 8 ranks, seed 1, at two scales: about 10^4
and 10^5 records, one rank list each, with no name defined twice.  The lib
baselines check every gathered record this way; ``hash_check`` uses the 98M
profile's 16,384-slot table.
"""

from __future__ import annotations

import pytest

from parahead.consistency import hash_check, make_name_records, sort_check
from parahead.records import encode_record
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


def test_hash_check(benchmark, name_records):
    report = benchmark(hash_check, name_records, K)
    assert report.shared_sets == () and report.conflicts == ()
    assert report.payload_comparisons == 0


def test_sort_check(benchmark, name_records):
    report = benchmark(sort_check, name_records)
    assert report.shared_sets == () and report.conflicts == ()
    assert report.payload_comparisons == 0
