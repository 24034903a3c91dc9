"""Shared generators for randomized round-trip and equivalence tests, and a
time-limited rank runner."""

from __future__ import annotations

import gc
import random
import struct
import threading

import pytest

from parahead.classic import (
    AttributeDef,
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    compute_offsets,
    encoded_size,
)
from parahead.comm import run_ranks
from parahead.records import encode_record
from parahead.strategies import flatten_blocks, logical_map_from_classic

NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."


def f32(value: float) -> float:
    """Round to an exactly representable float32 so round trips compare equal."""
    return struct.unpack(">f", struct.pack(">f", value))[0]


def random_name(rng: random.Random, used: set, max_len: int = 12) -> str:
    while True:
        n = rng.randint(1, max_len)
        name = "".join(rng.choice(NAME_ALPHABET) for _ in range(n))
        if name not in used:
            used.add(name)
            return name


def block_records(block) -> list[bytes]:
    """The records of a block's objects, named ``path/local``, in block order."""
    return [
        encode_record(kind, name, payload)
        for (kind, name), payload in logical_map_from_classic(flatten_blocks([block])).items()
    ]


def tracked_growth(consume, items: list, at: int) -> int:
    """How many more objects the collector tracks once ``consume`` has taken
    ``at`` of ``items`` from an iterator than before it started.  A pass that
    keeps a container per item grows with ``at``.  Each count follows two
    full collections: a tuple of tuples is dropped from the scans one level
    per collection."""
    counts = []

    def count() -> None:
        gc.collect()
        gc.collect()
        counts.append(len(gc.get_objects()))

    def feed():
        yield from items[:at]
        count()
        yield from items[at:]

    fed = feed()
    count()
    consume(fed)
    return counts[1] - counts[0]


def random_values(rng: random.Random, type_tag: TypeTag):
    n = rng.randint(1, 5)
    if type_tag is TypeTag.CHAR:
        return bytes(rng.randrange(32, 127) for _ in range(n))
    if type_tag is TypeTag.BYTE:
        return tuple(rng.randint(-128, 127) for _ in range(n))
    if type_tag is TypeTag.SHORT:
        return tuple(rng.randint(-(2**15), 2**15 - 1) for _ in range(n))
    if type_tag is TypeTag.INT:
        return tuple(rng.randint(-(2**31), 2**31 - 1) for _ in range(n))
    if type_tag is TypeTag.INT64:
        return tuple(rng.randint(-(2**62), 2**62 - 1) for _ in range(n))
    if type_tag is TypeTag.FLOAT:
        return tuple(f32(rng.uniform(-1e6, 1e6)) for _ in range(n))
    return tuple(rng.uniform(-1e12, 1e12) for _ in range(n))


def random_attributes(rng: random.Random, version: int, max_atts: int = 3):
    types = [t for t in TypeTag if version == 5 or t is not TypeTag.INT64]
    used: set = set()
    atts = []
    for _ in range(rng.randint(0, max_atts)):
        tag = rng.choice(types)
        atts.append(
            AttributeDef(random_name(rng, used), tag, random_values(rng, tag))
        )
    return tuple(atts)


def random_header(
    rng: random.Random,
    version: int = 5,
    max_dims: int = 6,
    max_vars: int = 6,
    with_offsets: bool = True,
) -> Header:
    var_types = [
        t for t in TypeTag if t is not TypeTag.CHAR and (version == 5 or t is not TypeTag.INT64)
    ]
    used_dims: set = set()
    dims = tuple(
        DimensionDef(random_name(rng, used_dims), rng.randint(1, 50))
        for _ in range(rng.randint(0, max_dims))
    )
    used_vars: set = set()
    vars_ = []
    for _ in range(rng.randint(0, max_vars)):
        if dims:
            refs = tuple(
                rng.randrange(len(dims)) for _ in range(rng.randint(0, min(3, len(dims))))
            )
        else:
            refs = ()
        vars_.append(
            VariableDef(
                random_name(rng, used_vars),
                refs,
                rng.choice(var_types),
                random_attributes(rng, version),
            )
        )
    header = Header(dims, random_attributes(rng, version), tuple(vars_))
    if with_offsets:
        reserve = encoded_size(header, version)
        header = compute_offsets(header, reserve, 4, version=version)
    return header


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def run_within(seconds, nranks, body, **kwargs):
    """run_ranks in a daemon thread; a hang fails the test instead of blocking
    it (rank threads a daemon thread starts are daemons too).  A rank's
    exception is raised again here."""
    outcome = []

    def target():
        try:
            outcome.append(run_ranks(nranks, body, **kwargs))
        except BaseException as exc:
            outcome.append(exc)

    driver = threading.Thread(target=target, daemon=True)
    driver.start()
    driver.join(seconds)
    assert outcome, f"run_ranks hung with {kwargs}"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]
