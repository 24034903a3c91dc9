"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Counter-based checks are exact or carry the stated tolerance; wall
times appear only where a criterion is inherently about time.
"""

from __future__ import annotations

import csv
import random
import struct
import time

import pytest

from parahead.classic import decode_classic, encode_classic
from parahead.consistency import hash_check, model_hash_cost, name_record, sort_check
from parahead.errors import ConsistencyError
from parahead.newformat import (
    MetadataBlock,
    assemble_image,
    decode_image,
    index_table_encoded_size,
)
from parahead.records import ObjectKind, encode_record
from parahead.store import RankStore
from parahead.strategies import (
    logical_map_from_image,
    open_new_format,
    read_full_header,
    run_app_baseline,
    run_lib_baseline,
    run_new_format,
)
from parahead.workload import WorkloadSpec, gen_workload, spec_for_dataset

from conftest import random_header

HASH_SIZE = 16_384


def passline(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {number:02d} {name}: PASS{suffix}")


def workload_logical_map(workload) -> dict:
    out = {}
    for defs in workload.per_rank:
        for d in defs:
            out[(d.kind, d.full_name)] = d.payload
    return out


def test_criterion_01_format_round_trips():
    start = time.perf_counter()
    rng = random.Random(101)
    for i in range(1000):
        header = random_header(rng, version=2, max_dims=4, max_vars=4)
        for version in (1, 2, 5):
            raw = encode_classic(header, version)
            assert decode_classic(raw) == header
            assert encode_classic(decode_classic(raw), version) == raw
    for i in range(1000):
        blocks = []
        used = set()
        for _ in range(rng.randint(0, 4)):
            path = f"s{rng.randrange(10**5):05d}"
            if path in used:
                continue
            used.add(path)
            blocks.append(
                MetadataBlock(path, random_header(rng, 5, max_dims=3, max_vars=3))
            )
        image = assemble_image(blocks)
        _, decoded = decode_image(image)
        assert decoded == {b.block_path: b for b in blocks}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passline(1, "format round trips", f"1000 headers x 3 versions + 1000 block sets in {elapsed:.1f}s")


def test_criterion_02_cross_strategy_equivalence():
    start = time.perf_counter()
    sizes = [(80, 120), (160, 240), (320, 480), (640, 960), (1600, 2400)]
    ranks = [1, 2, 4, 8]
    shares = [0.0, 0.1, 0.5]
    checked = 0
    for seed in range(50):
        nvars, ndims = sizes[seed % len(sizes)] if seed != 49 else (4000, 6000)
        nranks = ranks[seed % len(ranks)] if seed != 49 else 8
        spec = WorkloadSpec(
            total_vars=nvars,
            total_dims=ndims,
            nranks=nranks,
            shared_fraction=shares[seed % len(shares)],
            seed=seed,
        )
        assert nvars + ndims <= 10_000
        workload = gen_workload(spec)
        reference = workload_logical_map(workload)
        app = run_app_baseline(workload, HASH_SIZE)
        lib = run_lib_baseline(workload, HASH_SIZE)
        sort = run_lib_baseline(workload, HASH_SIZE, "sort")
        new = run_new_format(workload, HASH_SIZE)
        app_bytes = app.image.to_bytes()
        assert app_bytes == lib.image.to_bytes() == sort.image.to_bytes()
        assert logical_map_from_image(app_bytes) == reference
        assert logical_map_from_image(new.image.to_bytes()) == reference
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 50
    assert elapsed < 120.0
    passline(2, "cross-strategy equivalence", f"50 workloads in {elapsed:.1f}s")


def test_criterion_03_conflict_detection():
    runs = [
        lambda w: run_app_baseline(w, HASH_SIZE),
        lambda w: run_lib_baseline(w, HASH_SIZE),
        lambda w: run_lib_baseline(w, HASH_SIZE, "sort"),
        lambda w: run_new_format(w, HASH_SIZE),
    ]
    for seed in range(50):
        mode = ("type_mismatch", "dim_mismatch")[seed % 2]
        spec = WorkloadSpec(
            total_vars=40,
            total_dims=60,
            nranks=(2, 4)[seed % 2],
            conflict_count=seed % 5 + 1,
            conflict_mode=mode,
            seed=seed,
        )
        noisy = gen_workload(spec)
        injected = {name for _, name, _ in noisy.injected}
        assert len(injected) == spec.conflict_count
        clean = gen_workload(
            WorkloadSpec(
                total_vars=40, total_dims=60, nranks=spec.nranks, seed=seed
            )
        )
        for run in runs:
            with pytest.raises(ConsistencyError) as err:
                run(noisy)
            assert injected <= {c.full_name for c in err.value.conflicts}
            run(clean)  # the conflict-free twin must pass untouched
    passline(3, "conflict detection", "50 workloads, both modes, zero false positives")


def test_criterion_04_hash_cost_model_fidelity():
    start = time.perf_counter()
    n, k = 100_000, 16_384
    expected = model_hash_cost(n, k)
    measured = []
    for seed in range(10):
        rng = random.Random(1000 + seed)
        names = [f"{rng.getrandbits(64):016x}" for _ in range(n)]
        assert len(set(names)) == n
        records = []
        for name in names:
            raw_name = name.encode()
            rec = b"\x01" + struct.pack(">I", len(raw_name)) + raw_name + b"\x00" * 8
            records.append(name_record(name, 0, rec))
        measured.append(hash_check(records, k).string_comparisons)
    mean = sum(measured) / len(measured)
    assert abs(mean - expected) / expected < 0.25
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passline(
        4,
        "hash cost model fidelity",
        f"mean {mean:.0f} vs model {expected:.0f} "
        f"({100 * abs(mean - expected) / expected:.1f}% off) in {elapsed:.1f}s",
    )


def test_criterion_05_sort_vs_hash_crossover():
    # counter side: identical gathered records through both detectors
    workload = gen_workload(spec_for_dataset("98M", 0.01, 4, seed=0))
    from parahead.consistency import make_name_records

    rank_lists = [
        [encode_record(d.kind, d.full_name, d.payload) for d in defs]
        for defs in workload.per_rank
    ]
    records = make_name_records(rank_lists)
    hash_cmp = hash_check(records, HASH_SIZE).string_comparisons
    sort_cmp = sort_check(records).string_comparisons
    assert sort_cmp < hash_cmp

    # wall-time side: the sorting detector must win in at least 8 of 10 trials
    wins = 0
    reductions = []
    for seed in range(10):
        wl = gen_workload(spec_for_dataset("98M", 0.01, 4, seed=seed))
        t_hash = max(
            r.seconds["consistency_check"]
            for r in run_lib_baseline(wl, HASH_SIZE, "hash").reports
        )
        t_sort = max(
            r.seconds["consistency_check"]
            for r in run_lib_baseline(wl, HASH_SIZE, "sort").reports
        )
        wins += t_sort < t_hash
        reductions.append(1 - t_sort / t_hash)
    assert wins >= 8
    mean_reduction = 100 * sum(reductions) / len(reductions)
    passline(
        5,
        "sort-vs-hash crossover",
        f"comparisons {sort_cmp} < {hash_cmp}; sort faster in {wins}/10 trials; "
        f"mean check-time reduction {mean_reduction:.0f}% (informational)",
    )


def test_criterion_06_partitioned_check_scaling():
    new_mean = {}
    lib_mean = {}
    for nranks in (2, 4, 8, 16):
        spec = spec_for_dataset("98M", 0.01, nranks, seed=4)
        workload = gen_workload(spec)
        new = run_new_format(workload, HASH_SIZE)
        new_mean[nranks] = sum(r.string_comparisons for r in new.reports) / nranks
        lib = run_lib_baseline(workload, HASH_SIZE)
        per_rank = [r.string_comparisons for r in lib.reports]
        assert len(set(per_rank)) == 1  # every rank checks the same gathered set
        lib_mean[nranks] = per_rank[0]
    ratios = {p: new_mean[p] / new_mean[2 * p] for p in (2, 4, 8)}
    for p, ratio in ratios.items():
        assert 3.0 <= ratio <= 5.0, f"cmp({p})/cmp({2 * p}) = {ratio:.2f}"
    spread = (max(lib_mean.values()) - min(lib_mean.values())) / (
        sum(lib_mean.values()) / len(lib_mean)
    )
    assert spread < 0.10
    passline(
        6,
        "partitioned check scaling",
        "ratios " + ", ".join(f"{p}->{2*p}: {r:.2f}" for p, r in ratios.items())
        + f"; baseline spread {100 * spread:.1f}%",
    )


def test_criterion_07_memory_footprint():
    workload = gen_workload(spec_for_dataset("98M", 0.01, 4, seed=6))
    new = run_new_format(workload, HASH_SIZE)
    lib = run_lib_baseline(workload, HASH_SIZE)
    new_max = max(r.mem_high_watermark for r in new.reports)
    lib_max = max(r.mem_high_watermark for r in lib.reports)
    ratio = new_max / lib_max
    assert ratio <= 0.35
    passline(7, "memory footprint", f"P=4 ratio {ratio:.3f} <= 0.35")


def test_criterion_08_lazy_reads():
    # byte-exact lazy loading on a 512-block file
    rng = random.Random(88)
    blocks = [
        MetadataBlock(f"ev{b:05d}", random_header(rng, 5, max_dims=2, max_vars=3))
        for b in range(512)
    ]
    image = assemble_image(blocks)
    handle = open_new_format(image)[0]
    index_size = index_table_encoded_size([b.block_path for b in blocks])
    assert handle.io_bytes_read == index_size
    assert handle.blocks_loaded == 0
    target = next(b for b in blocks if b.content.vars)
    entry = next(
        e for e in handle.index_table.entries if e.block_path == target.block_path
    )
    name = f"{target.block_path}/{target.content.vars[0].name}"
    handle.lookup(ObjectKind.VARIABLE, name)
    assert handle.io_bytes_read == index_size + entry.size
    handle.lookup(ObjectKind.VARIABLE, name)
    assert handle.io_bytes_read == index_size + entry.size  # cached

    # full-header read stays within 2x of the classic full decode
    workload = gen_workload(spec_for_dataset("98M", 0.01, 4, seed=8))
    classic_bytes = run_lib_baseline(workload, HASH_SIZE).image.to_bytes()
    new_bytes = run_new_format(workload, HASH_SIZE).image.to_bytes()

    def best_of(fn, n=5):
        return min(
            (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(n)
        )

    t_classic = best_of(lambda: decode_classic(classic_bytes))
    t_new = best_of(lambda: read_full_header(open_new_format(new_bytes)[0]))
    assert t_new < 2.0 * t_classic
    passline(
        8,
        "lazy reads",
        f"open reads {index_size}B index only; full read {t_new * 1000:.0f}ms "
        f"vs classic {t_classic * 1000:.0f}ms ({t_new / t_classic:.2f}x)",
    )


def test_criterion_09_write_responsibility():
    workload = gen_workload(
        WorkloadSpec(total_vars=64, total_dims=96, nranks=8, shared_fraction=0.25, seed=9)
    )
    result = run_new_format(workload, HASH_SIZE)
    log = result.image.log
    regions = sorted((r.offset, r.offset + r.length, r.tag) for r in log)
    for (_, end_a, tag_a), (start_b, _, tag_b) in zip(regions, regions[1:]):
        assert start_b >= end_a, f"{tag_a} overlaps {tag_b}"
    tags = [r.tag for r in log]
    assert len(tags) == len(set(tags))  # every region written exactly once
    by_tag = {r.tag: r for r in log}
    assert by_tag["index_table"].rank == 0
    creators: dict[str, set] = {}
    for rank, defs in enumerate(workload.per_rank):
        for d in defs:
            path = d.full_name.rsplit("/", 1)[0] if "/" in d.full_name else ""
            creators.setdefault(path, set()).add(rank)
    handle = open_new_format(result.image.to_bytes())[0]
    for entry in handle.index_table.entries:
        record = by_tag[f"block:{entry.block_path}"]
        assert record.rank == min(creators[entry.block_path])
        assert (record.offset, record.length) == (entry.offset, entry.size)
    passline(9, "write responsibility", f"{len(log)} disjoint regions, one writer each")


def test_criterion_10_id_mapping():
    from parahead.records import VarPayload
    from parahead.classic import TypeTag
    from parahead.consistency import make_name_records
    from parahead.strategies import file_gids, merge_records

    def payload():
        return VarPayload(TypeTag.FLOAT, ())

    rank0, rank1 = RankStore(0), RankStore(1)
    # each process defines two variables before inquiring the other's
    assert rank0.define(ObjectKind.VARIABLE, "temperature", payload()) == 0
    assert rank1.define(ObjectKind.VARIABLE, "pressure", payload()) == 0
    rank0.define(ObjectKind.VARIABLE, "humidity", payload())
    rank1.define(ObjectKind.VARIABLE, "wind", payload())
    lid_before = {0: rank0.inquire(ObjectKind.VARIABLE, "temperature"),
                  1: rank1.inquire(ObjectKind.VARIABLE, "pressure")}

    # end-define: the strategies' merge rule produces the shared global order
    gathered = [
        [o[2] for o in rank0.objects],
        [o[2] for o in rank1.objects],
    ]
    order = file_gids(merge_records(make_name_records(gathered)))
    rank0.finalize_gids(order)
    rank1.finalize_gids(order)

    # LID stability across end-define
    assert rank0.inquire(ObjectKind.VARIABLE, "temperature") == lid_before[0] == 0
    assert rank1.inquire(ObjectKind.VARIABLE, "pressure") == lid_before[1] == 0
    # post-end-define inquiry of the other process's object yields LID 2
    assert rank0.inquire(ObjectKind.VARIABLE, "pressure") == 2
    assert rank1.inquire(ObjectKind.VARIABLE, "temperature") == 2
    # cross-rank GID agreement for every object, behind diverging LIDs
    for name in ("temperature", "humidity", "pressure", "wind"):
        g0 = rank0.gid_of(ObjectKind.VARIABLE, rank0.inquire(ObjectKind.VARIABLE, name))
        g1 = rank1.gid_of(ObjectKind.VARIABLE, rank1.inquire(ObjectKind.VARIABLE, name))
        assert g0 == g1
    assert rank0.gid_of(ObjectKind.VARIABLE, 2) != rank1.gid_of(ObjectKind.VARIABLE, 2)
    passline(10, "id mapping", "LIDs diverge, GIDs agree, inquiry returns LID 2")


def test_criterion_11_determinism(tmp_path):
    from parahead.cli import main

    def bench_counters(path):
        code = main(
            ["bench", "--scale", "0.002", "--ranks", "1,2,4", "--seed", "11",
             "--out", str(path)]
        )
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        keep = ["strategy", "P", "seed", "str_cmp", "payload_cmp", "comm_bytes",
                "io_write_bytes", "io_read_bytes", "mem_hw_bytes_max",
                "mem_hw_bytes_sum"]
        return [[row[c] for c in keep] for row in rows]

    first = bench_counters(tmp_path / "a.csv")
    second = bench_counters(tmp_path / "b.csv")
    assert first == second and len(first) == 12

    workload = gen_workload(spec_for_dataset("98M", 0.002, 4, seed=11))
    runs = {
        "app": lambda **kw: run_app_baseline(workload, HASH_SIZE, **kw),
        "lib_hash": lambda **kw: run_lib_baseline(workload, HASH_SIZE, "hash", **kw),
        "lib_sort": lambda **kw: run_lib_baseline(workload, HASH_SIZE, "sort", **kw),
        "new": lambda **kw: run_new_format(workload, HASH_SIZE, **kw),
    }
    for name, run in runs.items():
        threads = run(lockstep=False).image.to_bytes()
        lockstep = run(lockstep=True).image.to_bytes()
        assert threads == lockstep, f"{name} image differs across schedulers"
    passline(11, "determinism", "counter columns and images identical")
