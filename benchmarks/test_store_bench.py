"""Layer micro-benchmarks of the per-rank definition store.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_store_bench.py --benchmark-only

The definitions are those of the shared-blocks-p4-shaped header in
``conftest.py``: one rank defines the 64 shared blocks and its own 256, and
app's ranks define every merged record (all 1,088 blocks) in file order.
"""

from __future__ import annotations

import pytest

from parahead.consistency import make_name_records
from parahead.records import decode_record
from parahead.store import RankStore, add_gids
from parahead.strategies import logical_map_from_classic


@pytest.fixture(scope="session")
def rank_defs(shared_header) -> list:
    """Rank 0's (kind, full name, payload) definitions, in file order."""
    return [
        (kind, name, payload)
        for (kind, name), payload in logical_map_from_classic(shared_header).items()
        if name.startswith(("shared/", "r0/"))
    ]


@pytest.fixture(scope="session")
def merged(shared_header_records) -> list:
    """Every merged record as app's ranks gather it: a name record, its name read."""
    return make_name_records([shared_header_records])


def _store_of(records) -> RankStore:
    store = RankStore(0)
    for rec in records:
        store.define_record(rec)
    return store


def test_define(benchmark, rank_defs):
    """One rank's ``define`` calls, as the library baselines and new_format make them."""

    def define():
        store = RankStore(0)
        for kind, name, payload in rank_defs:
            store.define(kind, name, payload)
        return store

    assert len(benchmark(define).objects) == len(rank_defs)


def test_define_record(benchmark, merged, shared_header_records):
    """app's ``define_record`` of every merged record, on one rank."""
    store = benchmark(_store_of, merged)
    assert [o[2] for o in store.objects] == shared_header_records


def test_finalize_gids(benchmark, merged, shared_header_records):
    """app's end-define: every merged object bound to its GID."""
    gids = add_gids({}, (decode_record(r)[:2] for r in shared_header_records))

    def finalize(store):
        store.finalize_gids(gids)
        return store

    store = benchmark.pedantic(
        finalize, setup=lambda: ((_store_of(merged),), {}), rounds=20
    )
    kind, name, _ = decode_record(shared_header_records[-1])
    assert store.gid_of(kind, store.inquire(kind, name)) == gids[(kind, name)]
