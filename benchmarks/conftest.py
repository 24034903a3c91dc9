"""Fixtures for the micro-benchmarks: a header shaped like the benchmark's
``shared-blocks-p4`` workload (64 shared plus 4 x 256 private blocks, each of
6 dimensions and 4 variables that carry one 8-byte CHAR attribute), and a
512-block partitioned file of blocks of the same shape."""

from __future__ import annotations

import random

import pytest

from parahead.classic import (
    AttributeDef,
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    compute_offsets,
    encode_classic,
    encoded_size,
)
from parahead.newformat import (
    MetadataBlock,
    assemble_image,
    encode_block,
    flatten_blocks,
    partition_header,
)
from parahead.records import encode_record
from parahead.strategies import logical_map_from_classic


def _block_content(rng: random.Random) -> Header:
    dims = tuple(DimensionDef(f"d{i}", rng.randrange(1, 1000)) for i in range(6))
    vars_ = tuple(
        VariableDef(
            f"v{i}",
            tuple(rng.sample(range(6), 2)),
            rng.choice((TypeTag.FLOAT, TypeTag.INT, TypeTag.DOUBLE)),
            (AttributeDef("meta", TypeTag.CHAR, rng.randbytes(8)),),
        )
        for i in range(4)
    )
    return Header(dims, (), vars_)


@pytest.fixture(scope="session")
def shared_header() -> Header:
    """The flat classic header of all 1,088 blocks, with its data placed."""
    rng = random.Random(1)
    paths = [f"shared/s{b:04d}" for b in range(64)]
    paths += [f"r{r}/b{b:04d}" for r in range(4) for b in range(256)]
    flat = flatten_blocks([MetadataBlock(p, _block_content(rng)) for p in paths])
    return compute_offsets(flat, encoded_size(flat, 5), 4, version=5)


@pytest.fixture(scope="session")
def shared_header_bytes(shared_header) -> bytes:
    return encode_classic(shared_header, 5)


@pytest.fixture(scope="session")
def shared_header_records(shared_header) -> list[bytes]:
    """The header's objects as canonical records, in file order."""
    return [
        encode_record(kind, name, payload)
        for (kind, name), payload in logical_map_from_classic(shared_header).items()
    ]


@pytest.fixture(scope="session")
def shared_blocks(shared_header) -> list[MetadataBlock]:
    return partition_header(shared_header)


@pytest.fixture(scope="session")
def shared_block_bytes(shared_blocks) -> list[bytes]:
    return [encode_block(b) for b in shared_blocks]


@pytest.fixture(scope="session")
def shared_block_records(shared_blocks) -> list[tuple[str, list[bytes], int]]:
    """Per block: its path, its objects' records and its first variable's begin."""
    return [
        (
            b.block_path,
            [
                encode_record(kind, name, payload)
                for (kind, name), payload in logical_map_from_classic(flatten_blocks([b])).items()
            ],
            b.content.vars[0].begin,
        )
        for b in shared_blocks
    ]


@pytest.fixture(scope="session")
def blocks_512() -> list[MetadataBlock]:
    rng = random.Random(2)
    contents = [_block_content(rng) for _ in range(512)]
    return [
        MetadataBlock(f"ev{b:05d}", compute_offsets(c, encoded_size(c, 5), 4, version=5))
        for b, c in enumerate(contents)
    ]


@pytest.fixture(scope="session")
def image_512(blocks_512) -> bytes:
    return assemble_image(blocks_512)
