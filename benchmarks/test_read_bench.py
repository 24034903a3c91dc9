"""Layer micro-benchmarks of the partitioned read path.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

``test_read_full_header`` reads the same objects that ``test_decode_classic``
in ``test_codec_bench.py`` decodes, so the two times compare directly.
"""

from __future__ import annotations

from parahead.newformat import assemble_image, index_table_encoded_size
from parahead.records import ObjectKind
from parahead.strategies import logical_map_from_classic, open_new_format, read_full_header


def test_open_and_one_lookup(benchmark, image_512, blocks_512):
    """One rank's open (the index only) and one lookup (one block)."""
    target = blocks_512[317]
    name = f"{target.block_path}/{target.content.vars[0].name}"

    def open_and_lookup():
        handle = open_new_format(image_512)[0]
        handle.lookup(ObjectKind.VARIABLE, name)
        return handle

    handle = benchmark(open_and_lookup)
    index_size = index_table_encoded_size(b.block_path for b in blocks_512)
    assert index_size < handle.io_bytes_read < 2 * index_size
    assert handle.blocks_loaded == 1


def test_lookup_in_each_block(benchmark, shared_blocks):
    """A fresh handle and one lookup in each block of shared-blocks-p4's
    objects: the lazy path ``open_new_s`` runs, over every block."""
    image = assemble_image(shared_blocks)
    names = [f"{b.block_path}/{b.content.vars[0].name}" for b in shared_blocks]

    def lookups():
        handle = open_new_format(image)[0]
        for name in names:
            handle.lookup(ObjectKind.VARIABLE, name)
        return handle

    assert benchmark(lookups).blocks_loaded == len(shared_blocks)


def test_read_full_header(benchmark, shared_header, shared_blocks):
    """Open plus a full read of every block of shared-blocks-p4's objects."""
    image = assemble_image(shared_blocks)
    got = benchmark(lambda: read_full_header(open_new_format(image)[0]))
    assert got == logical_map_from_classic(shared_header)
