"""Simulated collectives: symmetry, accounting, misuse, scheduler equivalence."""

from __future__ import annotations

import random
import struct
import threading
import time

import pytest

from parahead.errors import CollectiveAborted, CollectiveMisuse, SizeMismatch

from conftest import run_within

SCHEDULERS = (False, True)  # lockstep off, on: each error path runs under both
LIMIT = 30  # seconds per program: a scheduler that deadlocks fails its test


def test_allgather_two_ranks():
    def body(rank, comm):
        return comm.allgather(rank, bytes([rank + 1]))

    results = run_within(LIMIT, 2, body)
    assert results[0] == results[1] == [b"\x01", b"\x02"]


def test_more_ranks_than_threads_raises_before_any_thread_starts(monkeypatch):
    from parahead.comm import MAX_THREAD_RANKS, run_ranks

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    calls = []
    with pytest.raises(ValueError, match="at most 256"):
        run_ranks(MAX_THREAD_RANKS + 1, lambda rank, comm: calls.append(rank))
    assert MAX_THREAD_RANKS == 256 and calls == []


def test_allgather_single_rank_identity():
    def body(rank, comm):
        return comm.allgather(rank, b"solo")

    assert run_within(LIMIT, 1, body) == [[b"solo"]]


def test_allgather_size_mismatch_raised_on_all_ranks():
    for lockstep in SCHEDULERS:
        seen = []

        def body(rank, comm):
            try:
                comm.allgather(rank, b"x" * (rank + 1))
            except SizeMismatch:
                seen.append(rank)
                raise

        with pytest.raises(SizeMismatch):
            run_within(LIMIT, 3, body, lockstep=lockstep)
        assert sorted(seen) == [0, 1, 2]


def test_allgatherv_mixed_sizes_preserves_empty():
    def body(rank, comm):
        payload = bytes(range(rank * 4)) if rank else b""
        return comm.allgatherv(rank, payload)

    results = run_within(LIMIT, 3, body)
    expected = [b"", bytes(range(4)), bytes(range(8))]
    assert results == [expected] * 3


def test_allgatherv_byte_conservation():
    payloads = [b"a" * 5, b"", b"c" * 11, b"d" * 2]

    def body(rank, comm):
        comm.allgatherv(rank, payloads[rank])
        return comm.stats(rank)

    stats = run_within(LIMIT, 4, body)
    total = sum(len(p) for p in payloads)
    for rank, s in enumerate(stats):
        # the internal size round moves one 8-byte record per rank as well
        assert s.bytes_received == total + 8 * 4
        assert s.bytes_sent == len(payloads[rank]) + 8
        assert s.calls_by_op["allgatherv"] == 1
        assert s.calls_by_op["allgather"] == 1


def test_barrier_releases_all_ranks():
    order = []

    def body(rank, comm):
        time.sleep(0.002 * (3 - rank))
        comm.barrier(rank)
        order.append(rank)
        return rank

    assert sorted(run_within(LIMIT, 4, body)) == [0, 1, 2, 3]
    assert len(order) == 4


def test_misuse_mismatched_ops():
    def body(rank, comm):
        if rank == 0:
            comm.allgather(rank, b"x")
        else:
            comm.barrier(rank)

    for lockstep in SCHEDULERS:
        with pytest.raises(CollectiveMisuse):
            run_within(LIMIT, 2, body, lockstep=lockstep)


def test_misuse_diverged_history():
    # same op at the same moment, but rank 1 ran a different sequence before it
    def body(rank, comm):
        if rank == 0:
            comm.barrier(rank)
            comm.barrier(rank)
        else:
            comm.allgather(rank, b"")
            comm.barrier(rank)

    for lockstep in SCHEDULERS:
        with pytest.raises(CollectiveMisuse):
            run_within(LIMIT, 2, body, lockstep=lockstep)


def test_rank_leaving_early_detected():
    def body(rank, comm):
        if rank == 0:
            return None  # never joins the collective
        comm.barrier(rank)

    for lockstep in SCHEDULERS:
        with pytest.raises((CollectiveMisuse, CollectiveAborted)):
            run_within(LIMIT, 2, body, lockstep=lockstep)


def test_peer_failure_aborts_waiters():
    def body(rank, comm):
        if rank == 0:
            raise RuntimeError("boom")
        comm.barrier(rank)

    for lockstep in SCHEDULERS:
        with pytest.raises(RuntimeError, match="boom"):
            run_within(LIMIT, 3, body, lockstep=lockstep)


def _mixed_program(rank, comm):
    rng = random.Random(rank)
    out = []
    out.append(comm.allgather(rank, struct.pack(">I", rank * 7)))
    out.append(comm.allgatherv(rank, bytes(rng.randrange(256) for _ in range(rank * 3))))
    out.append(comm.allgather(rank, b"payload"))
    comm.barrier(rank)
    out.append(comm.allgatherv(rank, b"z" * (8 - rank)))
    stats = comm.stats(rank)
    return out, (stats.bytes_sent, stats.bytes_received, stats.calls_by_op)


def test_lockstep_matches_threads():
    threads = run_within(LIMIT, 4, _mixed_program, lockstep=False)
    lockstep = run_within(LIMIT, 4, _mixed_program, lockstep=True)
    assert threads == lockstep


def _traced_program(log, running, lock):
    """Rank code that logs (segment, rank) and sleeps 1 ms between collectives,
    so that two ranks running at once would overlap."""

    def segment(rank, index):
        with lock:
            running[0] += 1
            running[1] = max(running[1], running[0])
            log.append((index, rank))
        time.sleep(0.001)
        with lock:
            running[0] -= 1

    def body(rank, comm):
        for index, op in enumerate(("barrier", "allgather", "barrier", "allgather", "barrier")):
            segment(rank, index)
            if op == "barrier":
                comm.barrier(rank)
            else:
                comm.allgather(rank, bytes([rank]))
        segment(rank, 5)  # after the last round, before the rank exits

    return body


@pytest.mark.parametrize("nranks", [1, 3, 5])
def test_lockstep_runs_one_rank_at_a_time_round_robin(nranks):
    for order_seed in (None, 0, 7):
        log, running, lock = [], [0, 0], threading.Lock()
        run_within(LIMIT, nranks, _traced_program(log, running, lock), lockstep=True,
                  order_seed=order_seed)
        assert running[1] == 1
        rounds = [[rank for index, rank in log if index == i] for i in range(6)]
        for i, order in enumerate(rounds):
            assert sorted(order) == list(range(nranks))
            if order_seed is None:
                first = rounds[i - 1][-1] if i else 0  # the previous round's publisher
                assert order == [(first + k) % nranks for k in range(nranks)]


def test_schedule_independence():
    # randomized lockstep schedules must never change results or counters
    reference = run_within(LIMIT, 4, _mixed_program, lockstep=True)
    for seed in range(20):
        assert run_within(LIMIT, 4, _mixed_program, lockstep=True, order_seed=seed) == reference


def test_results_identical_across_ranks():
    def body(rank, comm):
        return comm.allgatherv(rank, bytes([rank]) * rank)

    results = run_within(LIMIT, 5, body)
    for r in results[1:]:
        assert r == results[0]


def test_sixteen_ranks():
    def body(rank, comm):
        gathered = comm.allgather(rank, struct.pack(">H", rank))
        comm.barrier(rank)
        return gathered

    results = run_within(LIMIT, 16, body)
    expected = [struct.pack(">H", r) for r in range(16)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("order_seed", [None, 5])
def test_lockstep_wakes_survive_preemption(order_seed):
    # each hand-over wakes one rank only: a lost wake-up would hang the run
    import sys

    def body(rank, comm):
        return [comm.allgatherv(rank, bytes([rank]) * (i % 3)) for i in range(100)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_within(LIMIT, 16, body, lockstep=True, order_seed=order_seed)
    finally:
        sys.setswitchinterval(interval)
    expected = [[bytes([r]) * (i % 3) for r in range(16)] for i in range(100)]
    assert results == [expected] * 16
