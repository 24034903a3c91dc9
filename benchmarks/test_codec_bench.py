"""Layer micro-benchmarks of the classic and block list codecs.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from parahead.classic import decode_classic, encode_classic
from parahead.consistency import make_name_records
from parahead.newformat import block_lists, decode_block, encode_block
from parahead.records import check_payload, classic_from_records, decode_record, encode_record
from parahead.strategies import logical_map_from_classic


def test_encode_classic(benchmark, shared_header, shared_header_bytes):
    assert benchmark(encode_classic, shared_header, 5) == shared_header_bytes


def test_classic_from_records(benchmark, shared_header_records, shared_header_bytes):
    """The baselines' header write on rank 0, from the merged records."""
    assert benchmark(classic_from_records, shared_header_records) == shared_header_bytes


def test_decode_classic(benchmark, shared_header, shared_header_bytes):
    assert benchmark(decode_classic, shared_header_bytes) == shared_header


def test_encode_blocks(benchmark, shared_blocks, shared_block_bytes):
    """Every block of the file, encoded from decoded objects."""
    assert benchmark(lambda: [encode_block(b) for b in shared_blocks]) == shared_block_bytes


def test_block_lists(benchmark, shared_block_records, shared_block_bytes):
    """Every block of the file, as new_format's ranks write them: from records."""
    def write():
        return [block_lists(p, recs).place(begin) for p, recs, begin in shared_block_records]

    assert benchmark(write) == shared_block_bytes


def test_decode_blocks(benchmark, shared_blocks, shared_block_bytes):
    """Every block of the file, as a full read loads them."""
    assert benchmark(lambda: [decode_block(raw) for raw in shared_block_bytes]) == shared_blocks


def test_encode_record(benchmark, shared_header, shared_header_records):
    """Every object of the file, encoded to its record."""
    objects = list(logical_map_from_classic(shared_header).items())
    records = benchmark(lambda: [encode_record(k, n, p) for (k, n), p in objects])
    assert records == shared_header_records


def test_decode_record(benchmark, shared_header, shared_header_records):
    """Every record of the file, decoded to its kind, name and payload."""
    decoded = benchmark(lambda: [decode_record(r) for r in shared_header_records])
    assert [((k, n), p) for k, n, p in decoded] == list(
        logical_map_from_classic(shared_header).items()
    )


def test_check_payload(benchmark, shared_header_records):
    """Every record of the file, its payload checked past its name, as app's ranks check them."""
    spans = [(o[2], len(o[3]) + 4) for o in make_name_records([shared_header_records])]
    assert benchmark(lambda: [check_payload(r, pos) for r, pos in spans]) == [None] * len(spans)
