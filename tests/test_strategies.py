"""End-to-end pipelines: equivalence, conflicts, write logs, lazy reads, memory."""

from __future__ import annotations

import random

import pytest

from parahead.classic import TypeTag, decode_classic
from parahead.errors import (
    BadMagic,
    ConsistencyError,
    CorruptHeader,
    DanglingDimRef,
    NoSuchObject,
    ParaheadError,
    Truncated,
    UnrepresentableValue,
)
from parahead.newformat import (
    MetadataBlock,
    assemble_image,
    decode_image,
    decode_index_table,
    index_table_encoded_size,
    split_full_name,
)
from parahead.records import DimPayload, ObjectKind, VarPayload, encode_record
from parahead.strategies import (
    BytesSource,
    HeaderHandle,
    StrategyKind,
    logical_map_from_classic,
    logical_map_from_image,
    open_new_format,
    read_full_header,
    run_app_baseline,
    run_lib_baseline,
    run_new_format,
    run_strategy,
)
from parahead.workload import (
    Definition,
    Workload,
    WorkloadSpec,
    gen_workload,
    spec_for_dataset,
)

from conftest import random_header
from test_list_codec import blocked_workload, shared_blocks_workload

VAR = ObjectKind.VARIABLE
DIM = ObjectKind.DIMENSION
ATT = ObjectKind.ATTRIBUTE


def small_spec(**kw) -> WorkloadSpec:
    base = dict(total_vars=24, total_dims=36, nranks=4, seed=1)
    base.update(kw)
    return WorkloadSpec(**base)


def workload_logical_map(workload) -> dict:
    out = {}
    for defs in workload.per_rank:
        for d in defs:
            if (d.kind, d.full_name) in out:
                assert out[(d.kind, d.full_name)] == d.payload
            out[(d.kind, d.full_name)] = d.payload
    return out


# --- single-rank and cross-strategy equivalence --------------------------------


def test_single_rank_matches_sequential_write():
    workload = gen_workload(small_spec(nranks=1))
    result = run_lib_baseline(workload, 64)
    header = decode_classic(result.image.to_bytes())
    assert logical_map_from_classic(header) == workload_logical_map(workload)
    # creation order is the file order at P=1
    assert [d.name for d in header.dims] == [
        d.full_name for d in workload.per_rank[0] if d.kind is DIM
    ]


def test_app_and_lib_write_identical_files():
    workload = gen_workload(small_spec(shared_fraction=0.25))
    app = run_app_baseline(workload, 64)
    lib = run_lib_baseline(workload, 64)
    sort = run_lib_baseline(workload, 64, "sort")
    assert app.image.to_bytes() == lib.image.to_bytes() == sort.image.to_bytes()


def test_merge_matches_independent_union_oracle():
    # independent oracle: union definitions directly, rank-major, dedup by name
    workload = gen_workload(WorkloadSpec(total_vars=400, total_dims=600, nranks=4, seed=13))
    expected_dims = []
    seen = set()
    for defs in workload.per_rank:
        for d in defs:
            if d.kind is DIM and d.full_name not in seen:
                seen.add(d.full_name)
                expected_dims.append((d.full_name, d.payload.length))
    result = run_app_baseline(workload, 1024)
    header = decode_classic(result.image.to_bytes())
    assert [(d.name, d.length) for d in header.dims] == expected_dims
    assert logical_map_from_classic(header) == workload_logical_map(workload)


@pytest.mark.parametrize("shared", [0.0, 0.1, 0.5])
def test_four_strategies_same_logical_set(shared):
    workload = gen_workload(small_spec(shared_fraction=shared, seed=21))
    reference = workload_logical_map(workload)
    images = [
        run_app_baseline(workload, 64).image.to_bytes(),
        run_lib_baseline(workload, 64).image.to_bytes(),
        run_lib_baseline(workload, 64, "sort").image.to_bytes(),
        run_new_format(workload, 64).image.to_bytes(),
    ]
    for image in images:
        assert logical_map_from_image(image) == reference


def test_shared_objects_deduplicated():
    workload = gen_workload(small_spec(shared_fraction=0.5))
    header = decode_classic(run_lib_baseline(workload, 64).image.to_bytes())
    names = [v.name for v in header.vars]
    assert len(names) == len(set(names))
    shared = [n for n in names if n.startswith("shared/")]
    assert len(shared) == 12  # half of 24 variables, present exactly once


# --- conflicts ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["type_mismatch", "dim_mismatch"])
def test_conflicts_detected_by_all_strategies(mode):
    workload = gen_workload(
        small_spec(nranks=2, conflict_count=2, conflict_mode=mode, seed=8)
    )
    injected = {name for _, name, _ in workload.injected}
    runs = [
        lambda: run_app_baseline(workload, 64),
        lambda: run_lib_baseline(workload, 64),
        lambda: run_lib_baseline(workload, 64, "sort"),
        lambda: run_new_format(workload, 64),
    ]
    for run in runs:
        with pytest.raises(ConsistencyError) as err:
            run()
        assert injected <= {c.full_name for c in err.value.conflicts}


def test_no_false_positives_on_clean_twin():
    workload = gen_workload(small_spec(nranks=2, seed=8))
    run_app_baseline(workload, 64)
    run_lib_baseline(workload, 64)
    run_lib_baseline(workload, 64, "sort")
    run_new_format(workload, 64)


def test_conflict_error_is_deterministic_across_ranks():
    # all ranks run the same check on identically gathered records, so the
    # conflict set every rank raises with is byte-for-byte reproducible
    workload = gen_workload(small_spec(nranks=4, conflict_count=3, seed=99))
    errors = []
    for _ in range(3):
        try:
            run_lib_baseline(workload, 64)
        except ConsistencyError as exc:
            errors.append(tuple(exc.conflicts))
    assert errors[0] == errors[1] == errors[2]


@pytest.mark.parametrize(
    "mode, field", [("type_mismatch", "type_tag"), ("dim_mismatch", "length")]
)
def test_conflict_names_its_field(mode, field):
    workload = gen_workload(
        small_spec(nranks=4, conflict_count=3, conflict_mode=mode, seed=99)
    )
    errors = []
    for check in ("hash", "sort"):
        with pytest.raises(ConsistencyError) as err:
            run_lib_baseline(workload, 64, check)
        errors.append(err.value)
    assert set(errors[0].conflicts) == set(errors[1].conflicts)
    assert str(errors[0]) == str(errors[1])
    assert len(errors[0].conflicts) == 3
    for conflict in errors[0].conflicts:
        assert conflict.mismatch.field == field
        assert f"{conflict.full_name}: {field} " in str(errors[0])


# --- partitioned strategy specifics ----------------------------------------------


def test_shared_block_layout_and_exchange_volume():
    # two ranks, one unique block each plus one identical shared block
    workload = gen_workload(
        WorkloadSpec(total_vars=8, total_dims=8, nranks=2, shared_fraction=0.5, seed=5)
    )
    result = run_new_format(workload, 64)
    handle = open_new_format(result.image.to_bytes())[0]
    paths = [e.block_path for e in handle.index_table.entries]
    assert paths == ["b00000", "b00001", "shared"]

    # expected traffic: the per-block facts exchange plus only the shared
    # block's records; unique block contents never move
    shared_recs = [
        encode_record(d.kind, d.full_name, d.payload)
        for d in workload.per_rank[0]
        if d.full_name.startswith("shared/")
    ]
    shared_stream = 4 + sum(4 + len(r) for r in shared_recs)
    facts = {rank: 4 + 2 * (4 + 40 + 6) for rank in range(2)}  # two 6-char paths each
    for rank, report in enumerate(result.reports):
        sent = (8 + facts[rank]) + (8 + shared_stream)
        received = (16 + facts[0] + facts[1]) + (16 + 2 * shared_stream)
        assert report.bytes_sent == sent
        assert report.bytes_received == received


def test_zero_shared_comm_is_names_plus_index_traffic_only():
    workload = gen_workload(small_spec(seed=3))
    result = run_new_format(workload, 64)
    nranks = workload.nranks
    facts_len = 4 + (4 + 40 + 6)  # one 6-char block path per rank
    empty_stream = 4
    for report in result.reports:
        assert report.bytes_sent == (8 + facts_len) + (8 + empty_stream)
        assert report.bytes_received == nranks * (8 + facts_len) + nranks * (
            8 + empty_stream
        )


def test_write_responsibility_and_region_disjointness():
    workload = gen_workload(small_spec(shared_fraction=0.25, seed=17))
    result = run_new_format(workload, 64)
    log = result.image.log
    # every region written exactly once, by the right rank
    regions = sorted((r.offset, r.offset + r.length, r.tag, r.rank) for r in log)
    for (_, end_a, tag_a, _), (start_b, _, tag_b, _) in zip(regions, regions[1:]):
        assert start_b >= end_a, f"{tag_a} overlaps {tag_b}"
    tags = [r.tag for r in log]
    assert len(tags) == len(set(tags))
    by_tag = {r.tag: r for r in log}
    assert by_tag["index_table"].rank == 0
    assert by_tag["index_table"].offset == 0
    # each block is written by its lowest creator rank
    creators: dict[str, set] = {}
    for rank, defs in enumerate(workload.per_rank):
        for d in defs:
            path = d.full_name.rsplit("/", 1)[0] if "/" in d.full_name else ""
            creators.setdefault(path, set()).add(rank)
    handle = open_new_format(result.image.to_bytes())[0]
    for entry in handle.index_table.entries:
        record = by_tag[f"block:{entry.block_path}"]
        assert record.rank == min(creators[entry.block_path])
        assert record.offset == entry.offset
        assert record.length == entry.size


def test_classic_write_log_single_root_region():
    workload = gen_workload(small_spec())
    for result in (run_app_baseline(workload, 64), run_lib_baseline(workload, 64)):
        assert len(result.image.log) == 1
        record = result.image.log[0]
        assert record.rank == 0 and record.offset == 0
        assert record.length == len(result.image.to_bytes())


def test_new_format_memory_accounting_equation():
    workload = gen_workload(small_spec(seed=3))
    result = run_new_format(workload, 64)
    nranks = workload.nranks
    facts_len = 4 + (4 + 40 + 6)
    handle = open_new_format(result.image.to_bytes())[0]
    index_size = index_table_encoded_size(
        [e.block_path for e in handle.index_table.entries]
    )
    for rank, report in enumerate(result.reports):
        own = sum(
            len(encode_record(d.kind, d.full_name, d.payload))
            for d in workload.per_rank[rank]
        )
        # the facts are released after layout, before the index is charged
        shared = nranks * 4
        assert report.mem_high_watermark == own + shared + max(nranks * facts_len, index_size)


def _new_format_peaks(workload, image: bytes) -> list[int]:
    """Each rank's exact new_format ``mem_hw``: its own records, plus every
    rank's records of blocks claimed by several ranks, plus the larger of
    the gathered block facts and the index copy."""
    blocks = []  # per rank: path -> lengths of its records there
    for defs in workload.per_rank:
        records = {(d.kind, d.full_name): encode_record(d.kind, d.full_name, d.payload)
                   for d in defs}
        paths: dict[str, list[int]] = {}
        for (_, name), rec in records.items():
            paths.setdefault(split_full_name(name)[0], []).append(len(rec))
        blocks.append(paths)
    claims: dict[str, int] = {}
    for paths in blocks:
        for path in paths:
            claims[path] = claims.get(path, 0) + 1
    # gathered streams: a u32 count, then a u32 length before each item
    facts = sum(4 + sum(4 + 40 + len(p) for p in paths) for paths in blocks)
    shared = sum(
        4 + sum(4 + n for p, lens in paths.items() if claims[p] > 1 for n in lens)
        for paths in blocks
    )
    entries = open_new_format(image)[0].index_table.entries
    index_size = index_table_encoded_size([e.block_path for e in entries])
    return [sum(sum(lens) for lens in paths.values()) + shared + max(facts, index_size)
            for paths in blocks]


def test_new_format_memory_accounting_with_a_shared_block():
    workload = gen_workload(small_spec(shared_fraction=0.1, seed=3))
    result = run_new_format(workload, 64)
    assert "shared" in {split_full_name(d.full_name)[0] for d in workload.per_rank[0]}
    peaks = _new_format_peaks(workload, result.image.to_bytes())
    assert [r.mem_high_watermark for r in result.reports] == peaks


def test_new_format_encodes_the_index_on_rank_0_only(monkeypatch):
    import threading

    from parahead import strategies

    encoders = []
    charged: dict[int, list[int]] = {}
    encode, acquire = strategies.encode_index_table, strategies.RankContext.acquire

    def counting(table):
        encoders.append(threading.current_thread().name)
        return encode(table)

    def recording(ctx, nbytes):
        charged.setdefault(ctx.rank, []).append(nbytes)
        acquire(ctx, nbytes)

    monkeypatch.setattr(strategies, "encode_index_table", counting)
    monkeypatch.setattr(strategies.RankContext, "acquire", recording)
    for shared in (0.0, 0.1):
        encoders.clear()
        charged.clear()
        workload = gen_workload(small_spec(shared_fraction=shared, seed=3))
        result = run_new_format(workload, 64)
        assert encoders == ["rank-0"]
        (index_len,) = [w.length for w in result.image.log if w.tag == "index_table"]
        # the index copy is the last charge of every rank
        assert sorted(charged) == list(range(workload.nranks))
        assert all(sizes[-1] == index_len for sizes in charged.values())


def test_release_uncharges_and_never_goes_below_zero():
    from parahead.comm import SimComm
    from parahead.strategies import FileImage, RankContext

    ctx = RankContext(StrategyKind.NEW_FORMAT, 0, SimComm(1), FileImage())
    ctx.acquire(10)
    ctx.release(4)
    ctx.acquire(3)
    assert (ctx.held, ctx.report.mem_high_watermark) == (9, 10)
    with pytest.raises(ValueError):
        ctx.release(10)
    assert ctx.held == 9


def test_gid_and_store_keys_are_untracked_after_a_collection():
    import gc

    from parahead.consistency import make_name_records
    from parahead.store import RankStore
    from parahead.strategies import file_gids, merge_records

    workload = gen_workload(small_spec(shared_fraction=0.1, seed=3))
    merged = merge_records(make_name_records(
        [[encode_record(d.kind, d.full_name, d.payload) for d in defs]
         for defs in workload.per_rank]
    ))
    gids = file_gids(merged)
    store = RankStore(0)
    for rec in merged:
        store.define_record(rec)
    store.finalize_gids(gids)
    gc.collect()
    keys = [*gids, *store._by_key, *store._lids]
    assert len(keys) == 3 * len(merged)
    assert not any(gc.is_tracked(k) for k in keys)
    # lookups by ObjectKind still find the int-kind keys
    d = workload.per_rank[1][-1]
    assert store.gid_of(d.kind, store.inquire(d.kind, d.full_name)) == gids[(d.kind, d.full_name)]


def test_gathered_and_stored_records_are_untracked_after_a_collection(monkeypatch):
    import gc

    from parahead import strategies
    from parahead.consistency import make_name_records
    from parahead.store import RankStore

    workload = gen_workload(small_spec(shared_fraction=0.1, seed=3))
    made = make_name_records(
        [[encode_record(d.kind, d.full_name, d.payload) for d in defs]
         for defs in workload.per_rank]
    )
    defined, gathered = RankStore(0), RankStore(0)
    for d in workload.per_rank[0]:
        defined.define(d.kind, d.full_name, d.payload)
    for rec in strategies.merge_records(made):
        gathered.define_record(rec)
    # every list a check reads: lib's gather_records output, and new_format's
    # store objects, block names and gathered shared records
    checked = []
    real = strategies.hash_check

    def recording(records, k):
        checked.append(records)
        return real(records, k)

    monkeypatch.setattr(strategies, "hash_check", recording)
    run_lib_baseline(workload, 64, "hash")
    run_new_format(workload, 64)
    block_names = [r for recs in checked for r in recs if r[2] == b"\xff"]
    assert len(block_names) >= workload.nranks
    lists = [made, defined.objects, gathered.objects, *checked]
    assert all(lists) and len(checked) == workload.nranks * 4
    gc.collect()
    for records in lists:
        assert all(type(r) is tuple for r in records)
        assert not any(gc.is_tracked(r) for r in records)


def test_new_format_memory_beats_baseline():
    workload = gen_workload(small_spec(total_vars=200, total_dims=300, seed=2))
    new = run_new_format(workload, 64)
    lib = run_lib_baseline(workload, 64)
    new_max = max(r.mem_high_watermark for r in new.reports)
    lib_max = max(r.mem_high_watermark for r in lib.reports)
    assert new_max < 0.5 * lib_max


def hand_workload(*per_rank) -> Workload:
    """A workload from explicit (kind, full name, payload) triples per rank."""
    defs = tuple(tuple(Definition(*d) for d in rank) for rank in per_rank)
    spec = WorkloadSpec(total_vars=0, total_dims=0, nranks=len(defs))
    return Workload(spec, defs)


def test_shared_block_part_over_another_ranks_dimension():
    # rank 1's part of block "s" uses a dimension only rank 0 defines
    workload = hand_workload(
        [(DIM, "s/d0", DimPayload(3))],
        [
            (VAR, "s/v0", VarPayload(TypeTag.INT, ("s/d0",))),
            (DIM, "r1/d", DimPayload(2)),
            (VAR, "r1/v", VarPayload(TypeTag.FLOAT, ("r1/d",))),
        ],
    )
    new = logical_map_from_image(run_new_format(workload, 64).image.to_bytes())
    lib = logical_map_from_image(run_lib_baseline(workload, 64).image.to_bytes())
    assert new == lib == workload_logical_map(workload)


@pytest.mark.parametrize("defs", [
    # a vsize past the width
    [(DIM, "b/x", DimPayload(2**62)), (VAR, "b/v", VarPayload(TypeTag.DOUBLE, ("b/x", "b/x")))],
    # each vsize fits the width, their sum does not fit 64 bits
    [(DIM, "b/x", DimPayload(2**60 - 1))]
    + [(VAR, f"b/v{i}", VarPayload(TypeTag.DOUBLE, ("b/x",))) for i in range(3)],
], ids=["vsize", "block-data"])
def test_block_past_the_width_is_unrepresentable_in_every_strategy(defs):
    workload = hand_workload(defs)
    for run in (run_new_format, run_lib_baseline):
        with pytest.raises(UnrepresentableValue):
            run(workload, 64)


def test_variable_over_another_blocks_dimension(tmp_path, capsys):
    from parahead.cli import main

    workload = hand_workload(
        [(DIM, "a/d", DimPayload(3)), (VAR, "b/v", VarPayload(TypeTag.INT, ("a/d",)))]
    )
    with pytest.raises(DanglingDimRef):
        run_new_format(workload, 64)
    lib = run_lib_baseline(workload, 64).image.to_bytes()
    assert logical_map_from_image(lib) == workload_logical_map(workload)
    flat = tmp_path / "flat.nc"
    flat.write_bytes(lib)
    assert main(["convert", str(flat), str(tmp_path / "x.phx"), "--format", "new"]) == 1
    assert "error:" in capsys.readouterr().err


# --- read path -------------------------------------------------------------------


def build_many_blocks(nblocks: int, vars_per_block: int = 2):
    blocks = []
    for b in range(nblocks):
        rng = random.Random(b)
        content = random_header(rng, 5, max_dims=2, max_vars=vars_per_block)
        blocks.append(MetadataBlock(f"pr{b:05d}", content))
    return blocks


class CountingSource(BytesSource):
    """An in-memory image that counts the reads made of it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.reads = 0
        self.bytes = 0

    def read(self, offset: int, length: int) -> bytes:
        self.reads += 1
        self.bytes += length
        return super().read(offset, length)


def test_open_reads_only_the_index():
    # one walk: magic, counts, first path length, then one read per entry
    for nblocks in (512, 1, 0):
        blocks = build_many_blocks(nblocks)
        source = CountingSource(assemble_image(blocks))
        handle = HeaderHandle(source)
        index_size = index_table_encoded_size([b.block_path for b in blocks])
        assert source.reads == (3 + nblocks if nblocks else 2)
        assert source.bytes == handle.io_bytes_read == index_size
        assert handle.blocks_loaded == 0


def test_mutated_index_fails_alike_when_opened_and_decoded():
    workload = gen_workload(small_spec(shared_fraction=0.25, seed=17))
    image = run_new_format(workload, 64).image.to_bytes()
    table = decode_index_table(image)
    index_end = index_table_encoded_size(e.block_path for e in table.entries)
    rand = random.Random(19)
    rejected = 0
    for _ in range(400):
        buf = bytearray(image)
        if rand.random() < 0.2:
            del buf[rand.randrange(index_end) :]
        else:
            for _ in range(rand.randint(1, 4)):
                buf[rand.randrange(index_end)] = rand.randrange(256)
        outcomes = []
        for read in (lambda b: open_new_format(b)[0].index_table, decode_index_table):
            try:
                outcomes.append(read(bytes(buf)))
            except ParaheadError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        rejected += isinstance(outcomes[0], type)
    assert rejected > 200


def test_gid_bases_are_made_by_the_first_gid_of(monkeypatch):
    from parahead import strategies

    workload = gen_workload(small_spec(seed=33))
    image = run_new_format(workload, 64).image.to_bytes()
    calls = []

    def counting(entries, _original=strategies.gid_bases):
        calls.append(entries)
        return _original(entries)

    monkeypatch.setattr(strategies, "gid_bases", counting)
    first, last = workload.per_rank[0][0], workload.per_rank[-1][-1]
    handle = open_new_format(image)[0]
    handle.lookup(first.kind, first.full_name)
    assert calls == []
    handle.gid_of(first.kind, first.full_name)
    handle.gid_of(last.kind, last.full_name)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_workload(spec_for_dataset("98M", 0.0025, 8, seed=1)),
        lambda: shared_blocks_workload(own_blocks=256, shared_blocks=64),
    ],
    ids=["blocked-98M-p8", "shared-blocks-p4"],
)
def test_create_and_convert_share_one_layout(build):
    # convert lays blocks out with assemble_image; the ranks of a create lay
    # them out from their exchanged facts: both must give the same image
    image = run_new_format(build(), 16_384).image.to_bytes()
    assert assemble_image(decode_image(image)[1].values()) == image


@pytest.mark.parametrize("build", [blocked_workload, shared_blocks_workload])
def test_full_read_reads_each_block_once(build):
    workload = build()
    classic = decode_classic(run_lib_baseline(workload, 1024).image.to_bytes())
    expected = logical_map_from_classic(classic)
    image = run_new_format(workload, 1024).image.to_bytes()
    table = decode_index_table(image)
    index_size = index_table_encoded_size(e.block_path for e in table.entries)
    every_block = index_size + sum(e.size for e in table.entries)
    probes = [workload.per_rank[0][0], workload.per_rank[-1][-1]]

    handle = open_new_format(image)[0]
    assert read_full_header(handle) == expected
    assert handle.io_bytes_read == every_block
    for d in probes:  # a lookup after a full read reads nothing
        assert handle.lookup(d.kind, d.full_name) == d.payload
    assert handle.io_bytes_read == every_block

    handle = open_new_format(image)[0]
    for d in probes:  # a full read after lookups does not read their blocks again
        handle.lookup(d.kind, d.full_name)
    assert read_full_header(handle) == expected
    assert handle.io_bytes_read == every_block


def test_lazy_block_loading_and_caching():
    blocks = build_many_blocks(64)
    target = next(b for b in blocks if b.content.vars)
    image = assemble_image(blocks)
    handle = open_new_format(image)[0]
    baseline = handle.io_bytes_read
    entry = next(
        e for e in handle.index_table.entries if e.block_path == target.block_path
    )
    var = target.content.vars[0]
    payload = handle.lookup(VAR, f"{target.block_path}/{var.name}")
    assert payload.type_tag is var.type_tag
    assert handle.io_bytes_read == baseline + entry.size
    assert handle.blocks_loaded == 1
    # further inquiries in the same block are served from cache
    if target.content.dims:
        handle.lookup(DIM, f"{target.block_path}/{target.content.dims[0].name}")
    again = handle.lookup(VAR, f"{target.block_path}/{var.name}")
    assert again == payload
    assert handle.io_bytes_read == baseline + entry.size


def test_read_full_header_round_trip():
    workload = gen_workload(small_spec(shared_fraction=0.25, seed=30))
    result = run_new_format(workload, 64)
    handle = open_new_format(result.image.to_bytes())[0]
    assert read_full_header(handle) == workload_logical_map(workload)


def test_cross_format_read_equivalence():
    workload = gen_workload(small_spec(seed=31))
    classic_header = decode_classic(run_lib_baseline(workload, 64).image.to_bytes())
    handle = open_new_format(run_new_format(workload, 64).image.to_bytes())[0]
    assert logical_map_from_classic(classic_header) == read_full_header(handle)


def test_corrupted_block_error_names_the_block():
    blocks = build_many_blocks(8)
    image = bytearray(assemble_image(blocks))
    handle = open_new_format(bytes(image))[0]
    entry = handle.index_table.entries[3]
    image[entry.offset : entry.offset + 8] = b"\xff" * 8
    broken = open_new_format(bytes(image))[0]
    with pytest.raises(Exception) as err:
        broken._load_block(entry.block_path)
    assert entry.block_path in str(err.value)


def test_truncated_last_block_is_named_by_every_reader():
    # the lazy reader reads a block inside the same error context as decode_image
    image = assemble_image(build_many_blocks(2))[:-4]
    last = decode_index_table(image).entries[-1].block_path
    for read in (
        decode_image,
        lambda b: open_new_format(b)[0].lookup(DIM, f"{last}/any"),
        lambda b: read_full_header(open_new_format(b)[0]),
    ):
        with pytest.raises(Truncated, match=f"^block '{last}': read past end"):
            read(image)


def test_index_entry_disagreeing_with_its_block_is_corrupt():
    blocks = build_many_blocks(8)
    image = bytearray(assemble_image(blocks))
    entry = open_new_format(bytes(image))[0].index_table.entries[0]
    path_record = 8 + len(entry.block_path) + (-len(entry.block_path)) % 4
    n_dims_at = 4 + 16 + path_record + 16  # magic, count, reserve; path; offset, size
    assert int.from_bytes(image[n_dims_at : n_dims_at + 8], "big") == entry.n_dims
    image[n_dims_at : n_dims_at + 8] = (entry.n_dims + 1).to_bytes(8, "big")
    handle = open_new_format(bytes(image))[0]
    with pytest.raises(CorruptHeader):
        handle.lookup(DIM, f"{entry.block_path}/any")
    with pytest.raises(CorruptHeader):
        decode_image(bytes(image))


def test_index_entry_overstating_its_block_size_is_corrupt():
    # one block, then data: the enlarged size still reads inside the image
    block = build_many_blocks(1)[0]
    image = bytearray(assemble_image([block]) + bytes(8))
    entry = open_new_format(bytes(image))[0].index_table.entries[0]
    size_at = 4 + 16 + 8 + len(entry.block_path) + (-len(entry.block_path)) % 4 + 8
    assert int.from_bytes(image[size_at : size_at + 8], "big") == entry.size
    image[size_at : size_at + 8] = (entry.size + 8).to_bytes(8, "big")
    handle = open_new_format(bytes(image))[0]
    with pytest.raises(CorruptHeader):
        handle.lookup(DIM, f"{entry.block_path}/any")
    with pytest.raises(CorruptHeader):
        decode_image(bytes(image))


def test_bad_magic_rejected_before_the_index_is_walked():
    image = run_new_format(gen_workload(small_spec(seed=31)), 64).image.to_bytes()
    with pytest.raises(BadMagic):
        open_new_format(b"XXXX" + b"\xff" * 8 + image[12:])


def test_mutated_images_raise_only_parahead_errors():
    workload = gen_workload(small_spec(shared_fraction=0.25, seed=17))
    image = run_new_format(workload, 64).image.to_bytes()
    rand = random.Random(7)
    for _ in range(400):
        buf = bytearray(image)
        if rand.random() < 0.2:
            del buf[rand.randrange(len(buf)) :]
        else:
            for _ in range(rand.randint(1, 4)):
                buf[rand.randrange(len(buf))] = rand.randrange(256)
        # both readers make the same checks, so they fail alike
        outcomes = []
        for read in (lambda b: read_full_header(open_new_format(b)[0]), decode_image):
            try:
                read(bytes(buf))
                outcomes.append(None)
            except ParaheadError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] is outcomes[1]


def test_unknown_object_inquiry():
    blocks = build_many_blocks(4)
    handle = open_new_format(assemble_image(blocks))[0]
    with pytest.raises(NoSuchObject):
        handle.lookup(VAR, "pr00001/not-there")
    with pytest.raises(NoSuchObject):
        handle.lookup(VAR, "ghost/none")


def test_gid_agreement_between_index_and_block_positions():
    workload = gen_workload(small_spec(shared_fraction=0.25, seed=12))
    image = run_new_format(workload, 64).image.to_bytes()
    handle = open_new_format(image)[0]
    objects = read_full_header(handle)
    # gid is the per-kind index in block-sorted, in-block creation order
    table, blocks = decode_image(image)
    expected = {}
    counters = {k: 0 for k in ObjectKind}
    for entry in table.entries:
        content = blocks[entry.block_path].content
        for kind, objs in (
            (DIM, content.dims), (VAR, content.vars), (ATT, content.global_atts)
        ):
            for obj in objs:
                full = f"{entry.block_path}/{obj.name}" if entry.block_path else obj.name
                expected[(kind, full)] = counters[kind]
                counters[kind] += 1
    assert expected.keys() == objects.keys()
    for (kind, name) in objects:
        assert handle.gid_of(kind, name) == expected[(kind, name)]


def _calls_per_rank(monkeypatch, workload, run, name, modules) -> dict:
    """First argument of every call each rank thread makes to ``name`` in ``modules``."""
    import threading

    calls: dict = {}
    for module in modules:

        def counting(arg, *rest, _original=getattr(module, name)):
            calls.setdefault(threading.current_thread().name, []).append(arg)
            return _original(arg, *rest)

        monkeypatch.setattr(module, name, counting)
    run(workload)
    return calls


def _decodes_per_rank(monkeypatch, workload, run=run_new_format) -> dict:
    """Records each rank thread decodes, in the strategies or in its store."""
    from parahead import store, strategies

    decoders = [m for m in (strategies, store) if hasattr(m, "decode_record")]
    return _calls_per_rank(
        monkeypatch, workload, lambda w: run(w, 64), "decode_record", decoders
    )


def test_new_format_decodes_no_own_record(monkeypatch):
    assert _decodes_per_rank(monkeypatch, gen_workload(small_spec())) == {}


def _with_own_part_of_shared_block(workload) -> Workload:
    """Each rank also defines a dimension of block "shared" that no other rank has."""
    per_rank = tuple(
        defs + (Definition(DIM, f"shared/extra{rank}", DimPayload(rank + 1)),)
        for rank, defs in enumerate(workload.per_rank)
    )
    return Workload(workload.spec, per_rank)


def _blocks_made_per_rank(monkeypatch, workload) -> dict:
    """(path, records) of every block each rank thread of new_format makes."""
    import threading

    from parahead import strategies

    made: dict = {}
    original = strategies.block_lists

    def recording(path, records):
        records = list(records)
        made.setdefault(threading.current_thread().name, []).append((path, records))
        return original(path, records)

    monkeypatch.setattr(strategies, "block_lists", recording)
    run_new_format(workload, 64)
    return made


def test_new_format_makes_merged_shared_block_from_undecoded_records(monkeypatch):
    # every rank's part of the shared block differs from the merged block, so
    # each rank makes it again from the merged records, in file order
    workload = _with_own_part_of_shared_block(
        gen_workload(small_spec(shared_fraction=0.5, seed=21))
    )
    merged = list(dict.fromkeys(
        encode_record(d.kind, d.full_name, d.payload)
        for defs in workload.per_rank
        for d in defs
        if d.full_name.startswith("shared/")
    ))
    made = _blocks_made_per_rank(monkeypatch, workload)
    assert len(made) == workload.nranks
    for blocks in made.values():
        assert [recs for path, recs in blocks if path == "shared"][-1] == merged
    assert _decodes_per_rank(monkeypatch, workload) == {}


def test_new_format_builds_identical_shared_blocks_once(monkeypatch):
    # every rank defines the shared block identically: the lists it made of
    # its own part are the merged block's, so nothing is made again or decoded
    workload = gen_workload(small_spec(shared_fraction=0.5, seed=21))
    made = _blocks_made_per_rank(monkeypatch, workload)
    assert len(made) == workload.nranks
    for rank, defs in enumerate(workload.per_rank):
        own = {split_full_name(d.full_name)[0] for d in defs}
        assert "shared" in own
        assert sorted(path for path, _ in made[f"rank-{rank}"]) == sorted(own)
    assert _decodes_per_rank(monkeypatch, workload) == {}


def test_new_format_rebuilds_shared_block_with_other_ranks_objects(monkeypatch):
    workload = _with_own_part_of_shared_block(
        gen_workload(small_spec(shared_fraction=0.5, seed=21))
    )
    made = _blocks_made_per_rank(monkeypatch, workload)
    for rank, defs in enumerate(workload.per_rank):
        own = {split_full_name(d.full_name)[0] for d in defs}
        assert sorted(path for path, _ in made[f"rank-{rank}"]) == sorted([*own, "shared"])
    new = logical_map_from_image(run_new_format(workload, 64).image.to_bytes())
    assert new == workload_logical_map(workload)


@pytest.mark.parametrize("check", ["hash", "sort"])
def test_lib_writes_the_classic_header_from_merged_records_undecoded(monkeypatch, check):
    import threading

    from parahead import strategies

    workload = gen_workload(small_spec(shared_fraction=0.5, seed=21))
    # file order: rank-major, a shared object where its lowest rank defines it
    merged = list(dict.fromkeys(
        encode_record(d.kind, d.full_name, d.payload)
        for defs in workload.per_rank
        for d in defs
    ))
    written: dict = {}
    original = strategies.classic_from_records

    def recording(records):
        records = list(records)
        written.setdefault(threading.current_thread().name, []).append(records)
        return original(records)

    monkeypatch.setattr(strategies, "classic_from_records", recording)
    run = lambda w, k: run_lib_baseline(w, k, check)
    assert _decodes_per_rank(monkeypatch, workload, run) == {}
    assert written == {"rank-0": [merged]}  # only the writer, once


def test_app_checks_each_merged_record_once_per_rank(monkeypatch):
    from parahead import store

    workload = gen_workload(small_spec(shared_fraction=0.5, seed=21))
    merged = sorted({
        encode_record(d.kind, d.full_name, d.payload)
        for defs in workload.per_rank
        for d in defs
    })
    assert _decodes_per_rank(monkeypatch, workload, run_app_baseline) == {}
    run = lambda w: run_app_baseline(w, 64)
    calls = _calls_per_rank(monkeypatch, workload, run, "check_payload", (store,))
    assert len(calls) == workload.nranks
    for recs in calls.values():
        assert sorted(recs) == merged


@pytest.mark.parametrize("check", ["app", "hash", "sort", "new"])
def test_each_gathered_record_name_parsed_once_per_rank(monkeypatch, check):
    # new_format gathers only the shared block's records.  The library
    # strategies take a rank's own records from its store, so a rank parses
    # only its peers' records; app parses every gathered record.
    from parahead import consistency, store, strategies

    workload = gen_workload(small_spec(shared_fraction=0.5, seed=21))
    gathered = [
        [
            encode_record(d.kind, d.full_name, d.payload)
            for d in defs
            if check != "new" or d.full_name.startswith("shared/")
        ]
        for defs in workload.per_rank
    ]
    if check == "app":
        run = lambda w: run_app_baseline(w, 64)
    elif check == "new":
        run = lambda w: run_new_format(w, 64)
    else:
        run = lambda w: run_lib_baseline(w, 64, check)
    parsers = [m for m in (consistency, store, strategies) if hasattr(m, "record_name")]
    calls = _calls_per_rank(monkeypatch, workload, run, "record_name", parsers)
    assert len(calls) == workload.nranks
    for rank in range(workload.nranks):
        peers = [r for p, recs in enumerate(gathered) if check == "app" or p != rank for r in recs]
        assert sorted(calls[f"rank-{rank}"]) == sorted(peers)


def test_app_encodes_only_each_ranks_own_definitions(monkeypatch):
    from parahead import store, strategies

    workload = gen_workload(spec_for_dataset("98M", 0.0025, 8, seed=1))
    calls = _calls_per_rank(
        monkeypatch, workload, run_app_baseline, "encode_record", (strategies, store)
    )
    assert {thread: len(kinds) for thread, kinds in calls.items()} == {
        f"rank-{r}": len(defs) for r, defs in enumerate(workload.per_rank)
    }
    assert sum(len(kinds) for kinds in calls.values()) == 3_553  # not 9 x 3,553


# --- determinism -----------------------------------------------------------------


def test_remote_inquiry_via_lazy_read():
    # a rank resolves another rank's object by loading only that block,
    # then pins it behind a fresh local id
    from parahead.store import RankStore

    workload = gen_workload(small_spec(seed=33))
    result = run_new_format(workload, 64)
    handle = open_new_format(result.image.to_bytes())[0]
    remote = next(
        d for d in workload.per_rank[3] if d.kind is VAR
    )
    baseline = handle.io_bytes_read
    gid = handle.gid_of(VAR, remote.full_name)
    assert handle.blocks_loaded == 1  # exactly one block was fetched
    assert handle.io_bytes_read > baseline
    store = RankStore(0)
    own = next(d for d in workload.per_rank[0] if d.kind is VAR)
    store.define(own.kind, own.full_name, own.payload)
    store.finalize_gids({(VAR, own.full_name): 0, (VAR, remote.full_name): gid})
    lid = store.inquire(VAR, remote.full_name)
    assert lid == 1  # the next LID after the rank's own variable
    assert store.inquire(VAR, remote.full_name) == lid
    assert store.gid_of(VAR, lid) == gid


def test_app_baseline_single_rank_matches_sequential():
    workload = gen_workload(small_spec(nranks=1, seed=71))
    result = run_app_baseline(workload, 64)
    header = decode_classic(result.image.to_bytes())
    assert logical_map_from_classic(header) == workload_logical_map(workload)


def test_benchmark_tracer_rebinds_existing_names(monkeypatch):
    # perfbench/tracer.py rebinds these by name, and perfbench/run.py rebinds
    # strategies.run_ranks; a rename would leave its runs silently uncounted
    import importlib.util
    from pathlib import Path

    import parahead
    from parahead import strategies

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for names in tracer.REBOUND.values():
        for name in names:
            assert callable(getattr(strategies, name, None)), name
    for module, cls, methods in tracer.METHODS.values():
        klass = getattr(getattr(parahead, module), cls)
        for method in methods:
            assert callable(getattr(klass, method, None)), f"{cls}.{method}"

    calls = []
    original = strategies.run_ranks

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(strategies, "run_ranks", counting)
    workload = gen_workload(small_spec(seed=63))
    for run in (
        run_app_baseline,
        lambda w, k: run_lib_baseline(w, k, "hash"),
        lambda w, k: run_lib_baseline(w, k, "sort"),
        run_new_format,
    ):
        calls.clear()
        run(workload, 64)
        assert calls == [workload.nranks]

    # the bodies reach every rebound name through the module, as the tracer's
    # wrappers see it: a function object held elsewhere would go uncounted
    called = set()

    def wrapper(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapped

    for names in tracer.REBOUND.values():
        for name in names:
            monkeypatch.setattr(strategies, name, wrapper(name, getattr(strategies, name)))
    streams = {"make_name_records", "pack_stream", "unpack_stream"}
    expected = {
        StrategyKind.APP_BASELINE: streams | {"encode_record", "hash_check"},
        StrategyKind.LIB_BASELINE_HASH: streams | {"hash_check"},
        StrategyKind.LIB_BASELINE_SORT: streams | {"sort_check"},
        StrategyKind.NEW_FORMAT: streams
        | {"hash_check", "layout_from_stats", "encode_index_table"},
    }
    for kind, names in expected.items():
        called.clear()
        run_strategy(kind, workload, 64)
        assert called == names, kind


def test_benchmark_modules_load():
    # benchmarks/ lies outside testpaths: a parahead name its modules import
    # that moves or goes must fail here, not only in a benchmark run
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "benchmarks"
    paths = [root / "conftest.py", *sorted(root.glob("test_*.py"))]
    assert len(paths) > 1
    for path in paths:
        spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_lockstep_env_var_selects_scheduler(monkeypatch):
    # the library reads no environment: the variable leaves the threads scheduler
    from parahead import strategies

    lockstep = []
    original = strategies.run_ranks

    def recording(*args, **kwargs):
        lockstep.append(kwargs["lockstep"])
        return original(*args, **kwargs)

    monkeypatch.setattr(strategies, "run_ranks", recording)
    monkeypatch.setenv("PARAHEAD_LOCKSTEP", "1")
    run_lib_baseline(gen_workload(small_spec(seed=61)), 64)
    assert lockstep == [False]


def test_per_rank_handles_count_independently():
    workload = gen_workload(small_spec(seed=62))
    image = run_new_format(workload, 64).image.to_bytes()
    handles = open_new_format(image, nranks=4)
    assert len(handles) == 4
    reads = {h.io_bytes_read for h in handles}
    assert len(reads) == 1  # each rank read its own copy of the index
    handles[2].lookup(VAR, next(
        d.full_name for d in workload.per_rank[1] if d.kind is VAR
    ))
    assert handles[2].io_bytes_read > handles[0].io_bytes_read


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_runs_are_deterministic_across_schedulers(kind):
    workload = gen_workload(small_spec(shared_fraction=0.1, seed=44))
    results = [
        run_strategy(kind, workload, 64, lockstep=False),
        run_strategy(kind, workload, 64, lockstep=True),
        run_strategy(kind, workload, 64, lockstep=True, order_seed=5),
    ]
    images = [r.image.to_bytes() for r in results]
    assert images[0] == images[1] == images[2]
    logs = [sorted(r.image.log, key=lambda w: (w.offset, w.rank, w.tag)) for r in results]
    assert logs[0] == logs[1] == logs[2]
    counter_view = [
        [
            (p.strategy, p.rank, p.string_comparisons, p.payload_comparisons, p.bytes_sent,
             p.bytes_received, p.calls_by_op, p.io_bytes_written, p.io_bytes_read,
             p.mem_high_watermark)
            for p in r.reports
        ]
        for r in results
    ]
    assert counter_view[0] == counter_view[1] == counter_view[2]
