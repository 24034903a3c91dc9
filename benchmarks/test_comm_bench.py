"""Micro-benchmarks of collective rounds on the simulated communicator.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_comm_bench.py --benchmark-only

Each timed call is one ``run_ranks`` whose P rank threads make ``CALLS``
collectives back to back, so thread start-up is spread over them: divide a
time by ``CALLS`` for the cost of one collective.  ``lockstep`` runs one rank
thread at a time, as ``perfbench/run.py`` does; ``threads`` lets them run free.
"""

from __future__ import annotations

import pytest

from parahead.comm import run_ranks

CALLS = 50
SCHEDULERS = pytest.mark.parametrize("lockstep", [False, True], ids=["threads", "lockstep"])
RANKS = pytest.mark.parametrize("nranks", [2, 4, 8, 16])


def _payload(rank: int) -> bytes:
    return bytes([rank]) * (64 * (rank + 1))


@SCHEDULERS
@RANKS
def test_allgatherv(benchmark, nranks, lockstep):
    """One ``allgatherv`` (its size round, then its data round) of 64(r + 1) bytes per rank."""

    def body(rank, comm):
        for _ in range(CALLS):
            got = comm.allgatherv(rank, _payload(rank))
        return got

    benchmark.extra_info["calls_per_run"] = CALLS
    results = benchmark(run_ranks, nranks, body, lockstep=lockstep)
    assert results == [[_payload(r) for r in range(nranks)]] * nranks


@SCHEDULERS
@RANKS
def test_barrier(benchmark, nranks, lockstep):
    def body(rank, comm):
        for _ in range(CALLS):
            comm.barrier(rank)
        return comm.stats(rank).calls_by_op["barrier"]

    benchmark.extra_info["calls_per_run"] = CALLS
    assert benchmark(run_ranks, nranks, body, lockstep=lockstep) == [CALLS] * nranks
