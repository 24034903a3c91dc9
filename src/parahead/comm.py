"""Deterministic in-process simulation of P ranks with collective operations.

Ranks run as threads that synchronize only at collectives.  Results of every
collective are ordered by rank id, so program outputs are independent of
thread interleaving.  Two execution modes are provided:

* free-running threads (default): ranks block only at collectives;
* lockstep: exactly one rank runs at a time, the one holding the turn.  A
  rank passes the turn when it joins a round without completing it, and when
  it exits.  The turn goes to the next live rank after it, in rank order,
  that has not joined the open round; with ``order_seed``, to a seeded choice
  among those ranks.  The rank that completes a round publishes it and runs
  on, so each round runs round-robin from the previous round's publisher
  (the first round runs 0..P-1).

Both schedulers share one rendezvous: a rank deposits its contribution, the
last rank to arrive publishes the round, and every other rank waits until the
round it joined has published (in lockstep, also until it holds the turn).

Both modes must produce identical results and counters; only wall times
differ.  Byte and call counters per rank feed the benchmark reports.
"""

from __future__ import annotations

import random
import struct
import threading
import zlib
from dataclasses import dataclass, field

from .errors import CollectiveAborted, CollectiveMisuse, SizeMismatch

OP_NAMES = ("allgather", "allgatherv", "barrier")

# The largest P run with one thread per rank; more ranks need sampled
# ranks, not more threads.
MAX_THREAD_RANKS = 256


@dataclass
class CommStats:
    """Per-rank collective accounting."""

    calls_by_op: dict[str, int] = field(
        default_factory=lambda: {op: 0 for op in OP_NAMES}
    )
    bytes_sent: int = 0
    bytes_received: int = 0

    def copy(self) -> "CommStats":
        return CommStats(dict(self.calls_by_op), self.bytes_sent, self.bytes_received)


class SimComm:
    """Collective-communication hub shared by P rank threads."""

    def __init__(self, nranks: int, *, lockstep: bool = False, order_seed=None):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        # one condition per rank on one lock: a wake-up reaches only its rank
        self._lock = threading.RLock()
        self._wakes = [threading.Condition(self._lock) for _ in range(nranks)]
        self._deposits: list[bytes | None] = [None] * nranks
        self._sigs: list[tuple | None] = [None] * nranks
        self._arrived = 0
        self._generation = 0
        self._results: list[bytes] = []
        self._round_error: Exception | None = None
        self._aborted: Exception | None = None
        self._stats = [CommStats() for _ in range(nranks)]
        self._seq_hash = [0] * nranks
        self._done = [False] * nranks
        # lockstep: the one rank allowed to run; None when ranks run free
        self._turn: int | None = 0 if lockstep else None
        self._order = None if order_seed is None else random.Random(order_seed)

    # --- public collectives -------------------------------------------------

    def allgather(self, rank: int, data: bytes) -> list[bytes]:
        """Gather one fixed-size record per rank; every rank gets all P records."""
        results = self._exchange(rank, "allgather", bytes(data))
        stats = self._stats[rank]
        stats.calls_by_op["allgather"] += 1
        stats.bytes_sent += len(data)
        stats.bytes_received += sum(len(r) for r in results)
        return results

    def allgatherv(self, rank: int, data: bytes) -> list[bytes]:
        """Gather variable-size contributions: a size allgather, then the data."""
        sizes = self.allgather(rank, struct.pack(">Q", len(data)))
        results = self._exchange(rank, "allgatherv", bytes(data))
        for raw, got in zip(sizes, results):
            if struct.unpack(">Q", raw)[0] != len(got):
                raise CollectiveMisuse("contribution changed between size and data")
        stats = self._stats[rank]
        stats.calls_by_op["allgatherv"] += 1
        stats.bytes_sent += len(data)
        stats.bytes_received += sum(len(r) for r in results)
        return results

    def barrier(self, rank: int) -> None:
        """No rank returns until all ranks have entered."""
        self._exchange(rank, "barrier", b"")
        self._stats[rank].calls_by_op["barrier"] += 1

    def stats(self, rank: int) -> CommStats:
        with self._lock:
            return self._stats[rank].copy()

    def abort(self, reason: str) -> None:
        """Poison the communicator; all current and future waiters raise."""
        with self._lock:
            if self._aborted is None:
                self._aborted = CollectiveAborted(reason)
            self._wake_all()

    # --- rank lifecycle (used by run_ranks) ----------------------------------

    def _start(self, rank: int) -> None:
        with self._lock:
            self._wait_for(rank, lambda: True)

    def _finish(self, rank: int) -> None:
        with self._lock:
            self._done[rank] = True
            self._pass_turn(rank)
            self._check_stuck_round()

    # --- rendezvous core ------------------------------------------------------

    def _exchange(self, rank: int, op: str, payload: bytes) -> list[bytes]:
        with self._lock:
            self._raise_if_aborted()
            self._seq_hash[rank] = zlib.crc32(op.encode(), self._seq_hash[rank])
            joined = self._generation
            self._deposits[rank] = payload
            self._sigs[rank] = (op, self._seq_hash[rank])
            self._arrived += 1
            if self._arrived == self.nranks:
                self._publish(op)
            else:
                self._pass_turn(rank)
                self._check_stuck_round()
                self._wait_for(rank, lambda: self._generation > joined)
            # No later round can publish before this rank joins it, so these
            # are still the results and error of the round it joined.
            results, error = self._results, self._round_error
        if error is not None:
            raise error
        return list(results)

    def _publish(self, op: str) -> None:
        error: Exception | None = None
        if len(set(self._sigs)) != 1:
            error = CollectiveMisuse(f"mismatched collective sequence: {self._sigs}")
        elif op == "allgather":
            sizes = {len(d) for d in self._deposits}
            if len(sizes) != 1:
                error = SizeMismatch(f"contribution sizes differ: {sorted(sizes)}")
        self._results = self._deposits
        self._round_error = error
        self._deposits = [None] * self.nranks
        self._sigs = [None] * self.nranks
        self._arrived = 0
        self._generation += 1
        if self._turn is None:
            self._wake_all()  # in lockstep the publisher keeps the turn

    # --- waiting / lockstep turn ----------------------------------------------

    def _raise_if_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

    def _wait_for(self, rank: int, pred) -> None:
        """Block until pred() holds and, in lockstep, this rank holds the turn.

        A satisfied predicate wins over a pending abort so that ranks drain a
        round that already published (and pick up its own error) instead of
        masking it with CollectiveAborted.
        """
        while not (pred() and (self._turn in (None, rank) or self._aborted is not None)):
            self._raise_if_aborted()
            self._wakes[rank].wait()

    def _wake_all(self) -> None:
        for wake in self._wakes:
            wake.notify()

    def _pass_turn(self, rank: int) -> None:
        """Hand the lockstep turn from ``rank`` to a rank that can run: a live
        rank that has not joined the open round has either not started or
        waits on a round that already published."""
        if self._turn != rank:
            return
        after = [(rank + i) % self.nranks for i in range(1, self.nranks)]
        ready = [r for r in after if not self._done[r] and self._sigs[r] is None]
        if ready:
            self._turn = ready[self._order.randrange(len(ready)) if self._order else 0]
            self._wakes[self._turn].notify()

    def _check_stuck_round(self) -> None:
        # a round can never complete once every non-done rank has deposited
        if self._aborted is not None or self._arrived == 0:
            return
        live = self.nranks - sum(self._done)
        if self._arrived >= live:
            self._aborted = CollectiveMisuse(
                "collective abandoned: a rank exited without joining the round"
            )
            self._wake_all()


def run_ranks(nranks, body, *, lockstep: bool = False, order_seed=None) -> list:
    """Execute ``body(rank, comm)`` on P rank threads; returns per-rank results.

    If any rank raises, peers blocked in collectives are woken with
    CollectiveAborted and the first real exception is re-raised here.
    More than ``MAX_THREAD_RANKS`` ranks raise ValueError before any thread starts.
    """
    if nranks > MAX_THREAD_RANKS:
        raise ValueError(
            f"{nranks} ranks would start {nranks} threads; at most {MAX_THREAD_RANKS}"
        )
    comm = SimComm(nranks, lockstep=lockstep, order_seed=order_seed)
    results = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks
    def runner(rank: int) -> None:
        try:
            comm._start(rank)
            results[rank] = body(rank, comm)
        except BaseException as exc:
            errors[rank] = exc
            comm.abort(f"rank {rank} failed: {exc!r}")
        finally:
            comm._finish(rank)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    real = [e for e in errors if e is not None and not isinstance(e, CollectiveAborted)]
    if real:
        raise real[0]
    for e in errors:
        if e is not None:
            raise e
    return results
