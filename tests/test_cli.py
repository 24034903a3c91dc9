"""Command line: CSV schema stability, subcommand behavior, format conversion."""

from __future__ import annotations

import csv
import subprocess
import sys

import pytest

from parahead.classic import (
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    compute_offsets,
    decode_classic,
    encode_classic,
)
from parahead.cli import CSV_COLUMNS, main
from parahead.newformat import decode_image
from parahead.strategies import flatten_blocks, logical_map_from_image

GOLDEN_HEADER = (
    "strategy,P,seed,t_define_s,t_exchange_s,t_check_s,t_write_s,t_close_s,"
    "str_cmp,payload_cmp,comm_bytes,io_write_bytes,io_read_bytes,"
    "mem_hw_bytes_max,mem_hw_bytes_sum"
)

COUNTER_COLUMNS = [
    "strategy", "P", "seed", "str_cmp", "payload_cmp", "comm_bytes",
    "io_write_bytes", "io_read_bytes", "mem_hw_bytes_max", "mem_hw_bytes_sum",
]


def run_cli(*argv, capsys=None) -> int:
    return main(list(argv))


def bench_csv(tmp_path, *extra) -> list[dict]:
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--scale", "0.002", "--ranks", "1,2", "--seed", "7",
         "--out", str(out), *extra]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_csv_header_row_is_frozen(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["bench", "--scale", "0.0005", "--ranks", "1",
                 "--strategies", "lib_hash", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == GOLDEN_HEADER
    assert header.split(",") == CSV_COLUMNS


def test_bench_row_counters_are_reproducible(tmp_path):
    first = bench_csv(tmp_path)
    second = bench_csv(tmp_path)
    assert len(first) == 8  # 4 strategies x 2 rank counts
    pick = lambda rows: [[r[c] for c in COUNTER_COLUMNS] for r in rows]
    assert pick(first) == pick(second)


def test_bench_golden_counter_row(tmp_path):
    # regression pin for the fixed-seed profile; times excluded by design
    rows = bench_csv(tmp_path)
    row = next(r for r in rows if r["strategy"] == "lib_baseline_hash" and r["P"] == "2")
    n = 1137 + 1705  # objects at 0.002 scale of the 98M profile
    measured = int(row["str_cmp"])
    assert 0 < measured < n * n / (2 * 16384) * 2
    assert row["payload_cmp"] == "0"
    assert int(row["io_write_bytes"]) > 0
    assert row["io_read_bytes"] == "0"


def test_bench_strategy_subset(tmp_path):
    rows = bench_csv(tmp_path, "--strategies", "new,lib_sort")
    assert [r["strategy"] for r in rows] == [
        "new_format", "lib_baseline_sort", "new_format", "lib_baseline_sort",
    ]


def test_bench_conflict_injection_detected(tmp_path, capsys):
    code = main(
        ["bench", "--scale", "0.002", "--ranks", "2", "--seed", "3",
         "--inject-conflicts", "2:type_mismatch"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "detected all 2 injected conflicts" in captured.err
    assert captured.out.count("\n") == 1  # header only; no data rows


def test_gen_and_inspect_new_format(tmp_path, capsys):
    path = tmp_path / "header.phx"
    assert main(["gen", "--scale", "0.002", "--ranks", "4", "--seed", "2",
                 "--format", "new", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 0
    text = capsys.readouterr().out
    assert "partitioned header, 4 blocks" in text
    # inspect reads exactly the index table, nothing else
    raw = path.read_bytes()
    table, blocks = decode_image(raw)
    from parahead.newformat import index_table_encoded_size

    index_size = index_table_encoded_size([e.block_path for e in table.entries])
    assert f"bytes read: {index_size} (index table only)" in text
    for line, entry in zip(
        [l for l in text.splitlines() if l.strip().startswith("block ")],
        table.entries,
    ):
        assert f"dims={entry.n_dims}" in line
    total_line = next(l for l in text.splitlines() if "totals" in l)
    assert f"dims={sum(e.n_dims for e in table.entries)}" in total_line
    assert sum(len(b.content.vars) for b in blocks.values()) == sum(
        e.n_vars for e in table.entries
    )


def test_inspect_rejects_a_corrupt_path_length(tmp_path, capsys):
    # a huge path length in the first index entry is a truncated file, not an
    # attempt to read 2**62 bytes
    path = tmp_path / "header.phx"
    assert main(["gen", "--scale", "0.002", "--ranks", "2", "--seed", "2",
                 "--format", "new", "--out", str(path)]) == 0
    raw = bytearray(path.read_bytes())
    raw[20:28] = (2**62).to_bytes(8, "big")
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 1
    assert "error: read past end" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["inspect", "{missing}/x.phx"],
    ["convert", "{missing}/x.phx", "{missing}/out.nc", "--format", "classic"],
    ["gen", "--scale", "0.0005", "--ranks", "1", "--out", "{missing}/x.phx"],
])
def test_missing_file_is_one_error_line(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main([a.format(missing=missing) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert len(err.splitlines()) == 1


def test_gen_and_inspect_classic(tmp_path, capsys):
    path = tmp_path / "header.nc"
    assert main(["gen", "--scale", "0.002", "--ranks", "2", "--seed", "2",
                 "--format", "classic", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 0
    text = capsys.readouterr().out
    assert "classic header (version 5)" in text
    header = decode_classic(path.read_bytes())
    assert f"dimensions: {len(header.dims)}" in text
    assert f"variables: {len(header.vars)}" in text


def test_convert_round_trip_classic(tmp_path, capsys):
    classic = tmp_path / "a.nc"
    bridged = tmp_path / "a.phx"
    back = tmp_path / "b.nc"
    assert main(["gen", "--scale", "0.001", "--ranks", "2", "--format", "classic",
                 "--out", str(classic)]) == 0
    assert main(["convert", str(classic), str(bridged), "--format", "new"]) == 0
    assert main(["convert", str(bridged), str(back), "--format", "classic"]) == 0
    assert back.read_bytes() == classic.read_bytes()


def test_convert_new_to_classic_prefixes_paths(tmp_path):
    new_path = tmp_path / "a.phx"
    classic_path = tmp_path / "a.nc"
    assert main(["gen", "--scale", "0.001", "--ranks", "2", "--format", "new",
                 "--out", str(new_path)]) == 0
    assert main(["convert", str(new_path), str(classic_path), "--format", "classic"]) == 0
    header = decode_classic(classic_path.read_bytes())
    assert all("/" in v.name for v in header.vars)
    assert logical_map_from_image(new_path.read_bytes()) == logical_map_from_image(
        classic_path.read_bytes()
    )


def test_convert_new_to_classic_moves_data_past_the_larger_header(tmp_path):
    # a gen file's data starts at its partitioned header's end, which the
    # flat classic header passes: every variable moves by one offset
    new_path = tmp_path / "a.phx"
    classic_path = tmp_path / "a.nc"
    assert main(["gen", "--scale", "0.001", "--ranks", "2", "--format", "new",
                 "--out", str(new_path)]) == 0
    assert main(["convert", str(new_path), str(classic_path), "--format", "classic"]) == 0
    before = flatten_blocks(decode_image(new_path.read_bytes())[1].values()).vars
    raw = classic_path.read_bytes()
    after = decode_classic(raw).vars
    assert after[0].begin == (len(raw) + 3) // 4 * 4 > before[0].begin
    shift = after[0].begin - before[0].begin
    assert [v.begin for v in after] == [v.begin + shift for v in before]


def test_convert_classic_to_new_moves_data_past_the_larger_header(tmp_path):
    # five one-variable blocks: a 272-byte version 1 header whose data starts at 272
    dims = tuple(DimensionDef(f"b{i}/x", 3) for i in range(5))
    vars_ = tuple(VariableDef(f"b{i}/v", (i,), TypeTag.FLOAT) for i in range(5))
    header = compute_offsets(Header(dims, (), vars_), 272, version=1)
    src = tmp_path / "a.nc"
    src.write_bytes(encode_classic(header, 1))
    assert len(src.read_bytes()) == header.vars[0].begin == 272
    out = tmp_path / "a.phx"
    assert main(["convert", str(src), str(out), "--format", "new"]) == 0
    table, blocks = decode_image(out.read_bytes())
    after = flatten_blocks(blocks.values()).vars
    assert table.header_reserve == 920
    assert [v.begin for v in after] == [v.begin + 920 - 272 for v in header.vars]


def test_convert_names_a_dimension_of_another_block(tmp_path, capsys):
    header = Header((DimensionDef("b/x", 2),), (), (VariableDef("a/v", (0,), TypeTag.INT),))
    src = tmp_path / "cross.nc"
    src.write_bytes(encode_classic(compute_offsets(header, 1024, version=1), 1))
    assert main(["convert", str(src), str(tmp_path / "x.phx"), "--format", "new"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'a/v'" in err and "'b/x'" in err and "another block" in err


def test_convert_empty_header(tmp_path):
    from parahead.classic import Header

    src = tmp_path / "empty.nc"
    src.write_bytes(encode_classic(Header(), 5))
    mid = tmp_path / "empty.phx"
    out = tmp_path / "round.nc"
    assert main(["convert", str(src), str(mid), "--format", "new"]) == 0
    assert main(["convert", str(mid), str(out), "--format", "classic"]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_convert_rejects_overlong_names(tmp_path):
    from parahead.classic import DimensionDef, Header
    from parahead.newformat import MetadataBlock, assemble_image

    block = MetadataBlock("p" * 300, Header(dims=(DimensionDef("x", 2),)))
    path = tmp_path / "deep.phx"
    path.write_bytes(assemble_image([block]))
    code = main(["convert", str(path), str(tmp_path / "flat.nc"), "--format", "classic"])
    assert code == 1  # NameWidthOverflow surfaces as a clean CLI error


def test_verify_passes(capsys):
    assert main(["verify", "--scale", "0.002", "--ranks", "4", "--seed", "5",
                 "--shared-fraction", "0.2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_reports_conflicts(capsys):
    code = main(["verify", "--scale", "0.002", "--ranks", "2", "--seed", "5",
                 "--inject-conflicts", "1:dim_mismatch"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_more_conflicts_than_the_workload_holds_is_one_error_line(capsys):
    # whether N fits depends on the generated workload, so only the run can tell
    code = main(["bench", "--scale", "0.0005", "--ranks", "2", "--strategies", "lib_hash",
                 "--inject-conflicts", "100000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 100000 injected conflicts") and err.count("\n") == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "parahead.cli", "bench", "--scale", "0.0005",
         "--ranks", "1", "--strategies", "lib_hash"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == GOLDEN_HEADER


def test_bad_flags_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--strategies", "nonsense"])
    with pytest.raises(SystemExit):
        main(["bench", "--ranks", "zero"])


@pytest.mark.parametrize("argv", [
    ["bench", "--hash-size", "0"],
    ["bench", "--shared-fraction", "2"],
    ["bench", "--inject-conflicts", "2:bogus"],
    ["verify", "--ranks", "1", "--inject-conflicts", "1"],
    ["bench", "--scale", "-1"],
    ["bench", "--scale", "0"],
    ["bench", "--scale", "nan"],
    ["bench", "--scale", "inf"],
])
def test_bad_values_are_usage_errors(argv, capsys):
    # rejected while parsing, before any workload is built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("ranks", ["257", "2,4096"])
def test_more_ranks_than_threads_is_a_usage_error(ranks, capsys, monkeypatch):
    import threading

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--ranks", ranks, "--strategies", "lib_hash"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "at most 256 ranks" in err and "ROADMAP item 1" in err


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes its end before bench writes anything, as `| head -1` may
    proc = subprocess.Popen(
        [sys.executable, "-m", "parahead.cli", "bench", "--scale", "0.0005",
         "--ranks", "1", "--strategies", "lib_hash"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code in (0, 1)
    assert "Traceback" not in err and "Exception ignored" not in err


def test_bench_closes_its_output_file_on_error(tmp_path, monkeypatch):
    import builtins

    from parahead import cli

    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    def failing_run(*args, **kwargs):
        raise RuntimeError("strategy crashed")

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    monkeypatch.setattr(cli, "run_strategy", failing_run)
    with pytest.raises(RuntimeError):
        main(["bench", "--scale", "0.0005", "--ranks", "1", "--strategies", "lib_hash",
              "--out", str(tmp_path / "x.csv")])
    assert len(opened) == 1 and opened[0].closed
