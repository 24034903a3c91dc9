"""Benchmark and file-utility command line: gen, bench, inspect, convert, verify.

``bench`` runs the requested strategies over a rank sweep and emits one CSV
row per (strategy, rank count) with phase times, comparison counters,
collective byte counts, file I/O bytes, and memory high-watermarks.  Times
are the maximum over ranks; counters are deterministic for a given seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

from .classic import DEFAULT_ALIGN, Header, align_up, decode_classic, encode_classic, encoded_size
from .comm import MAX_THREAD_RANKS
from .errors import NameWidthOverflow, ParaheadError
from .newformat import assemble_image, decode_image, flatten_blocks, partition_header
from .strategies import (
    FileSource,
    HeaderHandle,
    StrategyKind,
    logical_map_from_image,
    run_strategy,
)
from .workload import CONFLICT_MODES, DATASETS, WorkloadSpec, gen_workload, spec_for_dataset

CSV_COLUMNS = [
    "strategy",
    "P",
    "seed",
    "t_define_s",
    "t_exchange_s",
    "t_check_s",
    "t_write_s",
    "t_close_s",
    "str_cmp",
    "payload_cmp",
    "comm_bytes",
    "io_write_bytes",
    "io_read_bytes",
    "mem_hw_bytes_max",
    "mem_hw_bytes_sum",
]

CSV_SCHEMA_VERSION = 1  # documented in README; the header row is frozen by tests

# classic implementations cap object names; conversion enforces it on flattening
MAX_CLASSIC_NAME = 256

_STRATEGY_NAMES = {
    "app": StrategyKind.APP_BASELINE,
    "lib_hash": StrategyKind.LIB_BASELINE_HASH,
    "lib_sort": StrategyKind.LIB_BASELINE_SORT,
    "new": StrategyKind.NEW_FORMAT,
}


def aggregate_row(strategy: StrategyKind, nranks: int, seed: int, reports) -> dict:
    """One CSV row: times and counters are max over ranks, I/O and memory sums kept too."""

    def phase_max(name: str) -> float:
        return max(r.seconds[name] for r in reports)

    return {
        "strategy": strategy.value,
        "P": nranks,
        "seed": seed,
        "t_define_s": f"{phase_max('define'):.6f}",
        "t_exchange_s": f"{phase_max('exchange'):.6f}",
        "t_check_s": f"{phase_max('consistency_check'):.6f}",
        "t_write_s": f"{phase_max('header_write'):.6f}",
        "t_close_s": f"{phase_max('close_free'):.6f}",
        "str_cmp": max(r.string_comparisons for r in reports),
        "payload_cmp": max(r.payload_comparisons for r in reports),
        "comm_bytes": max(r.bytes_sent + r.bytes_received for r in reports),
        "io_write_bytes": sum(r.io_bytes_written for r in reports),
        "io_read_bytes": sum(r.io_bytes_read for r in reports),
        "mem_hw_bytes_max": max(r.mem_high_watermark for r in reports),
        "mem_hw_bytes_sum": sum(r.mem_high_watermark for r in reports),
    }


def _parse_strategies(text: str) -> list[StrategyKind]:
    if text == "all":
        return list(_STRATEGY_NAMES.values())
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if name not in _STRATEGY_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {name!r}; choose from {', '.join(_STRATEGY_NAMES)} or 'all'"
            )
        kinds.append(_STRATEGY_NAMES[name])
    return kinds


def _parse_ranks(text: str) -> list[int]:
    try:
        ranks = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad rank list {text!r}") from exc
    if any(r < 1 for r in ranks):
        raise argparse.ArgumentTypeError("rank counts must be >= 1")
    if max(ranks) > MAX_THREAD_RANKS:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_THREAD_RANKS} ranks, one thread each; larger P waits "
            "for sampled ranks (ROADMAP item 1)"
        )
    return ranks


def _parse_scale(text: str) -> float:
    try:
        scale = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad scale {text!r}") from exc
    if not (0.0 < scale < math.inf):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and > 0, not {text!r}")
    return scale


def _parse_conflicts(text: str) -> tuple[int, str]:
    count, _, mode = text.partition(":")
    try:
        n = int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad conflict spec {text!r}") from exc
    return n, (mode or "type_mismatch")


def _flag_error(args) -> str | None:
    """What makes a command's workload flags unusable, if anything."""
    count, mode = args.inject_conflicts
    if args.hash_size is not None and args.hash_size < 1:
        return "--hash-size must be at least 1"
    if not 0.0 <= args.shared_fraction <= 1.0:
        return "--shared-fraction must be in [0, 1]"
    if count < 0 or mode not in CONFLICT_MODES:
        return f"--inject-conflicts needs N >= 0 and MODE in {', '.join(CONFLICT_MODES)}"
    if count and min(args.ranks) < 2:
        return "--inject-conflicts needs at least 2 ranks"
    return None


def _workload_spec(args, nranks: int) -> WorkloadSpec:
    count, mode = args.inject_conflicts
    return spec_for_dataset(
        args.dataset,
        args.scale,
        nranks,
        seed=args.seed,
        shared_fraction=args.shared_fraction,
        conflict_count=count,
        conflict_mode=mode,
    )


def _hash_size(args) -> int:
    return args.hash_size or DATASETS[args.dataset].hash_size


def cmd_bench(args) -> int:
    if args.out:
        with open(args.out, "w", newline="") as out:
            return _bench(args, out)
    return _bench(args, sys.stdout)


def _bench(args, out) -> int:
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    failures = 0
    expected_conflicts = args.inject_conflicts[0] > 0
    for nranks in args.ranks:
        workload = gen_workload(_workload_spec(args, nranks))
        injected = {name for _, name, _ in workload.injected}
        for kind in args.strategies:
            try:
                result = run_strategy(kind, workload, _hash_size(args))
            except ParaheadError as exc:
                reported = getattr(exc, "conflicts", ())
                covered = injected <= {c.full_name for c in reported}
                if expected_conflicts and covered:
                    print(
                        f"# {kind.value} P={nranks}: detected all "
                        f"{len(injected)} injected conflicts",
                        file=sys.stderr,
                    )
                    for line in sorted(map(str, reported)):
                        print(f"#   {line}", file=sys.stderr)
                else:
                    print(f"# {kind.value} P={nranks}: {exc}", file=sys.stderr)
                    failures += 1
                continue
            if expected_conflicts:
                print(
                    f"# {kind.value} P={nranks}: injected conflicts went undetected",
                    file=sys.stderr,
                )
                failures += 1
                continue
            writer.writerow(aggregate_row(kind, nranks, args.seed, result.reports))
    return 1 if failures else 0


def cmd_gen(args) -> int:
    workload = gen_workload(_workload_spec(args, args.ranks[0]))
    kind = StrategyKind.NEW_FORMAT if args.format == "new" else StrategyKind.LIB_BASELINE_HASH
    result = run_strategy(kind, workload, _hash_size(args))
    raw = result.image.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(raw)
    print(f"wrote {args.out}: {len(raw)} bytes, format={args.format}, "
          f"P={args.ranks[0]}, seed={args.seed}")
    return 0


def cmd_inspect(args) -> int:
    with open(args.path, "rb") as fh:
        magic = fh.read(4)
    if magic[:3] == b"CDF":
        with open(args.path, "rb") as fh:
            header = decode_classic(fh.read())
        print(f"{args.path}: classic header (version {magic[3]})")
        print(f"  dimensions: {len(header.dims)}")
        print(f"  global attributes: {len(header.global_atts)}")
        print(f"  variables: {len(header.vars)}")
        return 0
    source = FileSource(args.path)
    try:
        handle = HeaderHandle(source)
        table = handle.index_table
        print(f"{args.path}: partitioned header, {len(table.entries)} blocks, "
              f"header_reserve={table.header_reserve}")
        total = [0, 0, 0]
        for e in table.entries:
            print(
                f"  block {e.block_path or '<root>'}: offset={e.offset} size={e.size} "
                f"dims={e.n_dims} vars={e.n_vars} atts={e.n_atts}"
            )
            total[0] += e.n_dims
            total[1] += e.n_vars
            total[2] += e.n_atts
        print(f"  totals: dims={total[0]} vars={total[1]} atts={total[2]}")
        print(f"  bytes read: {handle.io_bytes_read} (index table only)")
    finally:
        source.close()
    return 0


def _check_name_widths(header: Header) -> None:
    for obj in (*header.dims, *header.global_atts, *header.vars):
        if len(obj.name) > MAX_CLASSIC_NAME:
            raise NameWidthOverflow(f"{obj.name!r} exceeds {MAX_CLASSIC_NAME} characters")


def _data_after(header: Header, header_end: int) -> Header:
    """``header`` with every ``begin`` kept, unless the first lies before
    ``header_end``: then all move by one offset, so the data starts at
    ``header_end`` rounded up to ``DEFAULT_ALIGN``."""
    first = min((v.begin for v in header.vars), default=header_end)
    if first >= header_end:
        return header
    shift = align_up(header_end, DEFAULT_ALIGN) - first
    return replace(header, vars=tuple(replace(v, begin=v.begin + shift) for v in header.vars))


def cmd_convert(args) -> int:
    with open(args.path, "rb") as fh:
        raw = fh.read()
    if args.format == "new":
        header = decode_classic(raw)
        # block sizes do not depend on the begins, so a first image tells
        # where the header ends
        end = len(assemble_image(partition_header(header)))
        image = assemble_image(partition_header(_data_after(header, end)))
    else:
        header = flatten_blocks(decode_image(raw)[1].values())
        _check_name_widths(header)
        image = encode_classic(_data_after(header, encoded_size(header, 5)), 5)
    with open(args.out, "wb") as fh:
        fh.write(image)
    print(f"converted {args.path} -> {args.out} ({args.format})")
    return 0


def cmd_verify(args) -> int:
    spec = _workload_spec(args, args.ranks[0])
    workload = gen_workload(spec)
    hash_size = _hash_size(args)
    images = {}
    for kind in _STRATEGY_NAMES.values():
        images[kind] = run_strategy(kind, workload, hash_size).image.to_bytes()
    app = images[StrategyKind.APP_BASELINE]
    lib = images[StrategyKind.LIB_BASELINE_HASH]
    lib_sort = images[StrategyKind.LIB_BASELINE_SORT]
    ok = True
    if not (app == lib == lib_sort):
        print("FAIL: classic strategies produced different file images")
        ok = False
    maps = {k: logical_map_from_image(b) for k, b in images.items()}
    reference = maps[StrategyKind.APP_BASELINE]
    for kind, m in maps.items():
        if m != reference:
            print(f"FAIL: {kind.value} logical object set differs")
            ok = False
    if ok:
        print(
            f"PASS: {len(reference)} objects identical across all 4 strategies "
            f"(seed={args.seed}, P={args.ranks[0]})"
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parahead",
        description="Parallel header-creation strategies: benchmark and file tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_flags(p, multi_rank: bool):
        p.add_argument("--dataset", choices=sorted(DATASETS), default="98M")
        p.add_argument("--scale", type=_parse_scale, default=0.01,
                       help="fraction of the dataset's object totals (default 0.01)")
        p.add_argument("--ranks", type=_parse_ranks,
                       default=[1, 2, 4, 8, 16] if multi_rank else [4],
                       help="comma-separated rank counts" if multi_rank
                       else "rank count (single value)")
        p.add_argument("--hash-size", type=int, default=None,
                       help="conflict-check table slots (default: dataset profile)")
        p.add_argument("--shared-fraction", type=float, default=0.0)
        p.add_argument("--inject-conflicts", type=_parse_conflicts,
                       default=(0, "type_mismatch"), metavar="N[:MODE]",
                       help="inject N conflicts (MODE: type_mismatch|dim_mismatch)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run strategies and emit a CSV report")
    add_workload_flags(p, multi_rank=True)
    p.add_argument("--strategies", type=_parse_strategies, default="all",
                   help="comma-separated subset of app,lib_hash,lib_sort,new or 'all'")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="generate a workload and write a header file")
    add_workload_flags(p, multi_rank=False)
    p.add_argument("--format", choices=("classic", "new"), default="new")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("inspect", help="summarize a header file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("convert", help="convert between the two header formats")
    p.add_argument("path")
    p.add_argument("out")
    p.add_argument("--format", choices=("classic", "new"), required=True,
                   help="target format")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("verify", help="cross-check all strategies on one seed")
    add_workload_flags(p, multi_rank=False)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _flag_error(args) if hasattr(args, "inject_conflicts") else None
    if error:
        parser.error(error)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except ParaheadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (`parahead bench | head -1`); point stdout at
        # devnull so the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # after BrokenPipeError, which is one
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
