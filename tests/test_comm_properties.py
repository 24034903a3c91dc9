"""Scheduler independence on random collective programs (Hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead.comm import run_ranks
from parahead.errors import CollectiveMisuse, SizeMismatch

from conftest import run_within


@st.composite
def programs(draw, min_ranks=1):
    """(P, steps): each step is ("allgather", size), ("allgatherv", per-rank
    sizes) or ("barrier",), run by every rank in the same order."""
    nranks = draw(st.integers(min_ranks, 6))
    step = st.one_of(
        st.tuples(st.just("allgather"), st.integers(0, 16)),
        st.tuples(st.just("allgatherv"), st.tuples(*[st.integers(0, 24)] * nranks)),
        st.tuples(st.just("barrier")),
    )
    return nranks, draw(st.lists(step, min_size=1, max_size=8))


def _payload(rank: int, index: int, size: int) -> bytes:
    return bytes((rank * 31 + index * 7 + i) & 0xFF for i in range(size))


def _body(steps, deviant=None):
    """Rank code running ``steps``; ``deviant`` (rank, index, step) swaps one
    rank's step for another."""

    def body(rank, comm):
        out = []
        for index, step in enumerate(steps):
            if deviant is not None and deviant[:2] == (rank, index):
                step = deviant[2]
            if step[0] == "allgather":
                out.append(comm.allgather(rank, _payload(rank, index, step[1])))
            elif step[0] == "allgatherv":
                out.append(comm.allgatherv(rank, _payload(rank, index, step[1][rank])))
            else:
                comm.barrier(rank)
        return out, comm.stats(rank)

    return body


@settings(max_examples=150, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_schedulers_agree_on_random_programs(program, order_seed):
    nranks, steps = program
    body = _body(steps)
    threads = run_ranks(nranks, body, lockstep=False)
    assert run_ranks(nranks, body, lockstep=True) == threads
    assert run_ranks(nranks, body, lockstep=True, order_seed=order_seed) == threads


@settings(max_examples=100, deadline=None)
@given(programs(min_ranks=2), st.data())
def test_every_scheduler_raises_on_misuse(program, data):
    # one rank swaps one step: a different op, or an allgather of another size
    nranks, steps = program
    rank = data.draw(st.integers(0, nranks - 1), "rank")
    index = data.draw(st.integers(0, len(steps) - 1), "index")
    if steps[index][0] == "allgather" and data.draw(st.booleans(), "resize"):
        deviant, expected = ("allgather", steps[index][1] + 1), SizeMismatch
    else:
        # a barrier and a gather differ in the op the round checks
        deviant = ("allgather", 0) if steps[index][0] == "barrier" else ("barrier",)
        expected = CollectiveMisuse
    body = _body(steps, (rank, index, deviant))
    order_seed = data.draw(st.integers(0, 2**32 - 1), "order_seed")
    for kwargs in ({"lockstep": False}, {"lockstep": True},
                   {"lockstep": True, "order_seed": order_seed}):
        with pytest.raises(expected) as raised:
            run_within(10, nranks, body, **kwargs)
        assert type(raised.value) is expected, (kwargs, raised.value)

