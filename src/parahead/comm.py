"""Deterministic in-process simulation of P ranks with collective operations.

Ranks run as threads that synchronize only at collectives.  Results of every
collective are ordered by rank id, so program outputs are independent of
thread interleaving.  Two execution modes are provided:

* free-running threads (default): ranks block only at collectives;
* lockstep: exactly one rank executes at a time and yields at collectives,
  giving a fully serialized, reproducible schedule for debugging.

Both modes must produce identical results and counters; only wall times
differ.  Byte and call counters per rank feed the benchmark reports.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field

from .errors import CollectiveAborted, CollectiveMisuse, SizeMismatch

OP_NAMES = ("allgather", "allgatherv", "barrier")


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
        self._cv = threading.Condition()
        self._deposits: list[bytes | None] = [None] * nranks
        self._sigs: list[tuple | None] = [None] * nranks
        self._arrived = 0
        self._exited = nranks  # all exited == next round may start
        self._generation = 0
        self._results: list[bytes] = []
        self._round_error: Exception | None = None
        self._aborted: Exception | None = None
        self._stats = [CommStats() for _ in range(nranks)]
        self._seq_hash = [0] * nranks
        self._done = [False] * nranks
        # lockstep scheduling
        self._lockstep = lockstep
        self._active: int | None = 0 if lockstep else None
        self._preds: list = [None] * nranks
        if order_seed is None:
            self._order = None
        else:
            import random

            self._order = random.Random(order_seed)

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
        with self._cv:
            return self._stats[rank].copy()

    def abort(self, reason: str) -> None:
        """Poison the communicator; all current and future waiters raise."""
        with self._cv:
            if self._aborted is None:
                self._aborted = CollectiveAborted(reason)
            self._cv.notify_all()

    # --- rank lifecycle (used by run_ranks) ----------------------------------

    def _start(self, rank: int) -> None:
        if not self._lockstep:
            return
        with self._cv:
            self._wait_for(rank, lambda: True)

    def _finish(self, rank: int) -> None:
        with self._cv:
            self._done[rank] = True
            if self._lockstep and self._active == rank:
                self._grant_next(rank)
            self._check_stuck_round()
            self._cv.notify_all()

    # --- rendezvous core ------------------------------------------------------

    def _exchange(self, rank: int, op: str, payload: bytes) -> list[bytes]:
        with self._cv:
            self._raise_if_aborted()
            self._seq_hash[rank] = zlib.crc32(op.encode(), self._seq_hash[rank])
            sig = (op, self._seq_hash[rank])
            # previous round must be fully drained before a new one starts
            self._wait_for(rank, lambda: self._exited == self.nranks)
            joined = self._generation
            self._deposits[rank] = payload
            self._sigs[rank] = sig
            self._arrived += 1
            if self._arrived == self.nranks:
                self._publish(op)
            else:
                self._check_stuck_round()
                self._wait_for(rank, lambda: self._generation > joined)
            results = self._results
            error = self._round_error
            self._exited += 1
            if self._exited == self.nranks:
                self._cv.notify_all()
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
        self._results = list(self._deposits)
        self._round_error = error
        self._deposits = [None] * self.nranks
        self._sigs = [None] * self.nranks
        self._arrived = 0
        self._exited = 0
        self._generation += 1
        self._cv.notify_all()

    # --- waiting / lockstep token ---------------------------------------------

    def _raise_if_aborted(self) -> None:
        if self._aborted is not None:
            raise self._aborted

    def _wait_for(self, rank: int, pred) -> None:
        """Block until pred() holds; in lockstep, also until this rank holds the token.

        A satisfied predicate wins over a pending abort so that ranks drain a
        round that already published (and pick up its own error) instead of
        masking it with CollectiveAborted.
        """
        if not self._lockstep:
            while not pred():
                self._raise_if_aborted()
                self._cv.wait()
            return
        if pred() and (self._active == rank or self._aborted is not None):
            return
        self._preds[rank] = pred
        if self._active == rank:
            self._grant_next(rank)
        while True:
            if pred() and (self._active in (rank, None) or self._aborted is not None):
                break
            if self._aborted is not None:
                self._preds[rank] = None
                raise self._aborted
            self._cv.wait()
        if self._aborted is None:
            self._active = rank
        self._preds[rank] = None

    def _grant_next(self, current: int) -> None:
        candidates = [
            r
            for r in range(self.nranks)
            if r != current
            and not self._done[r]
            and self._preds[r] is not None
            and self._preds[r]()
        ]
        if not candidates:
            self._active = None
            self._check_stuck_round()
            return
        if self._order is not None:
            self._active = candidates[self._order.randrange(len(candidates))]
        else:
            self._active = min(
                candidates, key=lambda r: (r - current - 1) % self.nranks
            )
        self._cv.notify_all()

    def _check_stuck_round(self) -> None:
        # a round can never complete once every non-done rank has deposited
        if self._aborted is not None or self._arrived == 0:
            return
        live = self.nranks - sum(self._done)
        if self._arrived >= live:
            self._aborted = CollectiveMisuse(
                "collective abandoned: a rank exited without joining the round"
            )
            self._cv.notify_all()


def run_ranks(nranks, body, *, lockstep: bool = False, order_seed=None) -> list:
    """Execute ``body(rank, comm)`` on P rank threads; returns per-rank results.

    If any rank raises, peers blocked in collectives are woken with
    CollectiveAborted and the first real exception is re-raised here.
    """
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
