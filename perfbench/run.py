#!/usr/bin/env python3
"""parahead benchmark: per-strategy create and read times on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; parahead is imported from its ``src/``.
Every strategy runs with ``lockstep=True`` (one rank thread at a time), so a
rank's thread CPU time is its own work.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The full report, with host facts, sample counts and exact counters, goes to
``perfbench/out/``.  Exit status is 1 when any output check failed and 2 when
the package cannot be imported from the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import calibrate  # noqa: E402  (sits beside this file)
import workloads  # noqa: E402
from tracer import ROOT, SpanStats, Tracer  # noqa: E402

STRATEGIES = ("app", "lib_hash", "lib_sort", "new")
CLASSIC = STRATEGIES[:3]
PHASES = {"define_s": "define", "exchange_s": "exchange",
          "check_s": "consistency_check", "write_s": "header_write"}
READS = ("open_new", "read_full_new", "read_classic")

SETUP_REPS = 9
MIN_READ_ROUNDS = 5
CREATE_SHARE = 0.75  # of --seconds; reads get the rest
MIN_ROUNDS = 3
TRACE_CREATE_SHARE = 0.5  # untraced rounds in a --trace 1 run, before the traced one
ROUND_QUOTA_S = 1.0  # in a round, each strategy runs until it took this long

END_TO_END = (
    [("setup_s", "s")]
    + [(f"create_{s}_s", "s") for s in STRATEGIES]
    + [(f"rank_cpu_max_{s}_s", "s") for s in STRATEGIES]
    + [("open_new_s", "s"), ("read_full_new_s", "s"), ("read_classic_s", "s"),
       ("mem_hw_max_new_bytes", "bytes"), ("mem_hw_max_lib_hash_bytes", "bytes")]
)

# (name, unit, strategies that feed it); None: reported once per workload.
PER_LAYER = [
    ("records.decode_calls", "count", STRATEGIES),
    ("records.decode_cpu_s", "s", STRATEGIES),
    ("records.encode_cpu_s", "s", STRATEGIES),
    ("records.stream_cpu_s", "s", STRATEGIES),
    ("records.decodes_per_object", "ratio", STRATEGIES),
    ("store.define_calls", "count", STRATEGIES),
    ("store.define_cpu_s", "s", STRATEGIES),
    ("store.finalize_cpu_s", "s", STRATEGIES),
    ("consistency.check_calls", "count", STRATEGIES),
    ("consistency.check_cpu_s", "s", STRATEGIES),
    ("consistency.name_records_cpu_s", "s", STRATEGIES),
    ("consistency.str_cmp", "count", STRATEGIES),
    ("consistency.payload_cmp", "count", STRATEGIES),
    ("consistency.str_cmp_over_model", "ratio", STRATEGIES),
    ("comm.calls", "count", STRATEGIES),
    ("comm.bytes_max", "bytes", STRATEGIES),
    ("comm.cpu_s", "s", STRATEGIES),
    ("comm.wait_s", "s", STRATEGIES),
    ("classic.build_cpu_s", "s", CLASSIC),
    ("classic.encode_cpu_s", "s", CLASSIC),
    ("classic.header_bytes", "bytes", None),
    ("classic.decode_cpu_s", "s", None),
    ("newformat.encode_block_calls", "count", ("new",)),
    ("newformat.encode_block_cpu_s", "s", ("new",)),
    ("newformat.layout_cpu_s", "s", ("new",)),
    ("newformat.index_bytes", "bytes", ("new",)),
    ("newformat.decode_block_cpu_s", "s", None),
    ("strategies.define_s", "s", STRATEGIES),
    ("strategies.exchange_s", "s", STRATEGIES),
    ("strategies.check_s", "s", STRATEGIES),
    ("strategies.write_s", "s", STRATEGIES),
    ("strategies.rank_cpu_mean_s", "s", STRATEGIES),
    ("strategies.open_index_bytes", "bytes", None),
    ("strategies.lookup_bytes", "bytes", None),
    ("strategies.full_read_bytes", "bytes", None),
    ("workload.objects", "count", None),
]


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for name, unit, feeders in PER_LAYER:
        out.extend([(f"{name}.{s}", unit) for s in feeders] if feeders else [(name, unit)])
    return out


def use_checkout_src() -> bool:
    """Put the checkout's src/ first on the import path; False when it holds no parahead."""
    if not (SRC / "parahead" / "__init__.py").is_file():
        print(f"no parahead package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def load_parahead():
    """Import parahead afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "parahead" or m.startswith("parahead.")]:
        del sys.modules[name]
    ph = importlib.import_module("parahead")
    if not Path(ph.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"parahead imported from {ph.__file__}, not from {SRC}")
    return ph


class Samples:
    """Time samples by metric name, as measured and in reference seconds.

    The calibration kernel runs before a timed operation when INTERVAL_S has
    passed since it last ran.  A sample is scaled by the median kernel time
    of the WINDOW calibrations on each side of it: near enough in time to
    follow the machine's drift, and enough of them that one slow or fast
    kernel run does not move the scale.
    """

    WINDOW = 3
    INTERVAL_S = 0.5

    def __init__(self):
        self.measured: dict[str, list[float]] = defaultdict(list)
        self.index: dict[str, list[int]] = defaultdict(list)  # calibrations before each
        self.kernel_s: list[float] = []
        self._last = 0.0

    def calibrate(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.INTERVAL_S:
            self.kernel_s.append(calibrate.sample())
            self._last = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        self.measured[name].append(seconds)
        self.index[name].append(len(self.kernel_s))

    def scaled(self, name: str) -> list[float]:
        out = []
        for seconds, i in zip(self.measured[name], self.index[name]):
            window = self.kernel_s[max(0, i - self.WINDOW) : i + self.WINDOW]
            out.append(seconds * calibrate.REFERENCE_S / statistics.median(window))
        return out

    def run_scale(self) -> float:
        """Reference seconds per measured second, from every calibration of the run."""
        return calibrate.REFERENCE_S / statistics.median(self.kernel_s)


def setup(settings, seed: int, samples: Samples):
    """Import the package and build the workload SETUP_REPS times; keep the last."""
    for _ in range(Samples.WINDOW):  # so the first samples have a full window too
        samples.calibrate(force=True)
    for _ in range(SETUP_REPS):
        samples.calibrate()
        gc.collect()
        t0 = time.perf_counter()
        ph = load_parahead()
        workload = workloads.build(settings, seed)
        samples.add("setup_s", time.perf_counter() - t0)
    samples.calibrate(force=True)
    return ph, workload


def counter_rows(reports) -> list[tuple]:
    """The exact per-rank counters of one strategy run."""
    return [
        (r.rank, r.string_comparisons, r.payload_comparisons, r.bytes_sent,
         r.bytes_received, tuple(sorted(r.calls_by_op.items())), r.io_bytes_written,
         r.io_bytes_read, r.mem_high_watermark)
        for r in reports
    ]


class Bench:
    """One workload's runs, samples and output checks."""

    def __init__(self, ph, settings, workload, seed: int, samples: Samples):
        self.ph = ph
        self.samples = samples
        self.settings = settings
        self.workload = workload
        self.tracer: Tracer | None = None
        self.expected = {}
        for defs in workload.per_rank:
            for d in defs:
                self.expected.setdefault((d.kind, d.full_name), d.payload)
        rng = random.Random(f"{seed}:lookups")
        self.targets = [rng.choice(defs) for defs in workload.per_rank]
        self.attempted = 0
        self.failures: list[str] = []
        self.first_counters: dict[str, list] = {}
        self.reference: dict[str, bytes] = {}  # "classic" / "new" -> first image
        self.last: dict = {}  # strategy -> last RunResult
        self.traced_wall: dict[str, float | None] = {}
        self.first_header = None  # the first classic decode, once checked
        self.rank_cpu: list[float] = []
        self._run_ranks = ph.strategies.run_ranks
        ph.strategies.run_ranks = self._timed_run_ranks

    def close(self) -> None:
        self.ph.strategies.run_ranks = self._run_ranks
        if self.tracer is not None:
            self.tracer.restore()

    # --- the one wrapper of the untraced run: per-rank thread CPU ---------------

    def _timed_run_ranks(self, nranks, body, **kwargs):
        cpu = [0.0] * nranks

        def timed(rank, comm):
            c0 = time.thread_time()
            try:
                return body(rank, comm)
            finally:
                cpu[rank] = time.thread_time() - c0

        if self.tracer is not None:
            timed = self.tracer.wrap(ROOT, timed)
        results = self._run_ranks(nranks, timed, **kwargs)
        self.rank_cpu = cpu
        return results

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    # --- create -------------------------------------------------------------------

    def _call(self, strategy: str):
        ph, wl, k = self.ph, self.workload, self.settings.hash_size
        if strategy == "app":
            return ph.run_app_baseline(wl, k, lockstep=True)
        if strategy == "new":
            return ph.run_new_format(wl, k, lockstep=True)
        return ph.run_lib_baseline(wl, k, strategy.split("_")[1], lockstep=True)

    def create(self, strategy: str, keep: bool = True) -> float | None:
        """One whole run_* call; returns its wall time when its output checks pass."""
        if self.tracer is not None:
            self.tracer.begin_run(f"create_{strategy}")
        self.attempted += 1
        self.samples.calibrate()
        gc.collect()
        try:
            t0 = time.perf_counter()
            result = self._call(strategy)
            wall = time.perf_counter() - t0
        except Exception:
            self.fail(f"create_{strategy} raised:\n{traceback.format_exc()}")
            return None
        problems = self._check_create(strategy, result)
        if problems:
            self.fail(f"create_{strategy}: {'; '.join(problems)}")
            return None
        self.last[strategy] = result
        if keep:
            add = self.samples.add
            add(f"create_{strategy}_s", wall)
            add(f"rank_cpu_max_{strategy}_s", max(self.rank_cpu))
            add(f"strategies.rank_cpu_mean_s.{strategy}", statistics.fmean(self.rank_cpu))
            for key, phase in PHASES.items():
                add(f"strategies.{key}.{strategy}",
                    max(r.seconds[phase] for r in result.reports))
        return wall

    def _check_create(self, strategy: str, result) -> list[str]:
        problems = []
        counters = counter_rows(result.reports)
        if counters != self.first_counters.setdefault(strategy, counters):
            problems.append("counters differ from the first repetition")
        family = "classic" if strategy in CLASSIC else "new"
        image = result.image.to_bytes()
        if family not in self.reference:
            logical = self.ph.strategies.logical_map_from_image(image)
            if logical != self.expected:
                problems.append(f"{family} image does not hold the workload's objects")
            self.reference[family] = image
        elif image != self.reference[family]:
            problems.append(f"{family} image differs from the first {family} image")
        return problems

    # --- read path ----------------------------------------------------------------

    def _fn(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def read(self, op: str, keep: bool = True) -> None:
        """One timed read of the images the creates produced, checked afterwards."""
        ph = self.ph
        if self.tracer is not None:
            self.tracer.begin_run(op)
        self.attempted += 1
        self.samples.calibrate()
        new_image = self.reference["new"]
        try:
            if op == "open_new":
                open_ = self._fn("strategies.open_new_format", ph.open_new_format)
                lookup = self._fn("strategies.lookup", ph.strategies.HeaderHandle.lookup)
                gc.collect()
                t0 = time.perf_counter()
                handles = open_(new_image, self.workload.nranks)
                got = [lookup(h, d.kind, d.full_name) for h, d in zip(handles, self.targets)]
                dt = time.perf_counter() - t0
                ok = got == [d.payload for d in self.targets]
                self.last["open_new"] = handles
            elif op == "read_full_new":
                read_full = self._fn("strategies.read_full_header", ph.read_full_header)
                handle = ph.open_new_format(new_image)[0]
                gc.collect()
                t0 = time.perf_counter()
                logical = read_full(handle)
                dt = time.perf_counter() - t0
                ok = logical == self.expected
                self.last["read_full_new"] = handle
            else:
                decode = self._fn("classic.decode_classic", ph.decode_classic)
                gc.collect()
                t0 = time.perf_counter()
                header = decode(self.reference["classic"])
                dt = time.perf_counter() - t0
                if self.first_header is None:
                    logical = ph.strategies.logical_map_from_classic(header)
                    self.first_header = header if logical == self.expected else None
                ok = header == self.first_header
        except Exception:
            self.fail(f"{op} raised:\n{traceback.format_exc()}")
            return
        if not ok:
            self.fail(f"{op} returned other objects than the workload defined")
        elif keep:
            self.samples.add(f"{op}_s", dt)

    # --- schedule -----------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        for strategy in STRATEGIES:  # warm-up, discarded
            self.create(strategy, keep=False)
        if len(self.reference) < 2:
            return  # no image to read back; the failures are already counted
        start = time.perf_counter()
        budget = seconds * (TRACE_CREATE_SHARE if trace else CREATE_SHARE)
        rounds = 0
        while True:
            for strategy in STRATEGIES:
                # a short strategy repeats, so each is measured for about as long
                spent = 0.0
                while spent < ROUND_QUOTA_S:
                    wall = self.create(strategy)
                    if wall is None:
                        break
                    spent += wall
            rounds += 1
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= budget:
                break
        if trace:
            self.tracer = Tracer()
            self.tracer.install(self.ph)
            try:
                for strategy in STRATEGIES:
                    self.traced_wall[strategy] = self.create(strategy, keep=False)
                for op in READS:
                    self.read(op, keep=False)
            finally:
                self.tracer.restore()
            self.samples.calibrate(force=True)
            return
        for op in READS:  # warm-up
            self.read(op, keep=False)
        end = max(start + seconds, time.perf_counter() + (1 - CREATE_SHARE) * seconds)
        rounds = 0
        while time.perf_counter() < end or rounds < MIN_READ_ROUNDS:
            for op in READS:
                self.read(op)
            rounds += 1
        self.samples.calibrate(force=True)

    # --- metrics ------------------------------------------------------------------

    def counters(self) -> dict:
        """Exact counters per strategy, beside the cost models' predictions."""
        ph, s = self.ph, self.settings
        n = sum(len(defs) for defs in self.workload.per_rank)
        out = {}
        for strategy, rows in self.first_counters.items():
            reports = self.last[strategy].reports
            out[strategy] = {
                "str_cmp_max": max(r.string_comparisons for r in reports),
                "payload_cmp_max": max(r.payload_comparisons for r in reports),
                "comm_bytes_max": max(r.bytes_sent + r.bytes_received for r in reports),
                "io_write_bytes_sum": sum(r.io_bytes_written for r in reports),
                "io_read_bytes_sum": sum(r.io_bytes_read for r in reports),
                "mem_hw_bytes_max": max(r.mem_high_watermark for r in reports),
                "mem_hw_bytes_sum": sum(r.mem_high_watermark for r in reports),
                "model_hash_cost": ph.model_hash_cost(n, s.hash_size),
                "model_newformat_cost": ph.model_newformat_cost(n, s.nranks, s.hash_size),
                "per_rank": [list(row) for row in rows],
            }
        return out

    def end_to_end(self) -> tuple[dict, dict]:
        """Metric values, and per time metric its sample count and median as measured."""
        metrics = {}
        detail = {}
        for name, unit in END_TO_END:
            if unit == "s":
                scaled, measured = self.samples.scaled(name), self.samples.measured[name]
                metrics[name] = statistics.median(scaled)
                detail[name] = {"samples": len(scaled),
                                "measured_median_s": statistics.median(measured),
                                "scaled": scaled, "measured": measured,
                                "calibrations_before": self.samples.index[name]}
        counters = self.counters()
        metrics["mem_hw_max_new_bytes"] = counters["new"]["mem_hw_bytes_max"]
        metrics["mem_hw_max_lib_hash_bytes"] = counters["lib_hash"]["mem_hw_bytes_max"]
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics of the traced round, and each strategy's tracing overhead.

        Span times are scaled by the run's calibration; phase times and mean
        rank CPU are medians of the untraced rounds.
        """
        ph, s, tr = self.ph, self.settings, self.tracer
        scale = self.samples.run_scale()
        runs = {label: run for run, label in tr.run_names.items()}
        objects = len(self.expected)
        n = sum(len(defs) for defs in self.workload.per_rank)
        m: dict[str, float] = {}
        overhead = {}
        for strategy in STRATEGIES:
            st = SpanStats(x for x in tr.spans if x.run == runs[f"create_{strategy}"])
            reports = self.last[strategy].reports
            model = (ph.model_newformat_cost(n, s.nranks, s.hash_size) if strategy == "new"
                     else ph.model_hash_cost(n, s.hash_size))
            str_cmp = max(r.string_comparisons for r in reports)
            overhead[strategy] = (self.traced_wall[strategy] * scale
                                  - statistics.median(self.samples.scaled(f"create_{strategy}_s")))
            got = {
                "records.decode_calls": st.count("records.decode_record"),
                "records.decode_cpu_s": st.cpu("records.decode_record") * scale,
                "records.encode_cpu_s": st.cpu("records.encode_record") * scale,
                "records.stream_cpu_s": st.cpu("records.pack_stream",
                                               "records.unpack_stream") * scale,
                "records.decodes_per_object": st.count("records.decode_record") / objects,
                "store.define_calls": st.count("store.define"),
                "store.define_cpu_s": st.cpu("store.define") * scale,
                "store.finalize_cpu_s": st.cpu("store.finalize_gids") * scale,
                "consistency.check_calls": st.count("consistency.hash_check",
                                                    "consistency.sort_check"),
                "consistency.check_cpu_s": st.cpu("consistency.hash_check",
                                                  "consistency.sort_check") * scale,
                "consistency.name_records_cpu_s":
                    st.cpu("consistency.make_name_records") * scale,
                "consistency.str_cmp": str_cmp,
                "consistency.payload_cmp": max(r.payload_comparisons for r in reports),
                "consistency.str_cmp_over_model": str_cmp / model,
                "comm.calls": st.count("comm.allgather", "comm.allgatherv", "comm.barrier"),
                "comm.bytes_max": max(r.bytes_sent + r.bytes_received for r in reports),
                "comm.cpu_s": st.cpu("comm.allgather", "comm.allgatherv",
                                     "comm.barrier") * scale,
                "comm.wait_s": st.wait_max("comm") * scale,
                "classic.build_cpu_s": st.cpu("classic.build_classic_header",
                                              "classic.encoded_size",
                                              "classic.compute_offsets") * scale,
                "classic.encode_cpu_s": st.cpu("classic.encode_classic") * scale,
                "newformat.encode_block_calls": st.count("newformat.encode_block"),
                "newformat.encode_block_cpu_s": st.cpu("newformat.encode_block") * scale,
                "newformat.layout_cpu_s": st.cpu("newformat.layout_from_stats",
                                                 "newformat.encode_index_table") * scale,
                "newformat.index_bytes": sum(w.length for w in self.last[strategy].image.log
                                             if w.tag == "index_table"),
            }
            for key in [*PHASES, "rank_cpu_mean_s"]:
                name = f"strategies.{key}"
                got[name] = statistics.median(self.samples.scaled(f"{name}.{strategy}"))
            for name, _, feeders in PER_LAYER:
                if feeders and strategy in feeders:
                    m[f"{name}.{strategy}"] = got[name]
        reads = SpanStats(x for x in tr.spans if tr.run_names[x.run] in READS)
        handles = self.last["open_new"]
        index_bytes = len(handles) * ph.open_new_format(self.reference["new"])[0].io_bytes_read
        m.update({
            "classic.header_bytes": len(self.reference["classic"]),
            "classic.decode_cpu_s": reads.cpu("classic.decode_classic") * scale,
            "newformat.decode_block_cpu_s": reads.cpu("newformat.decode_block") * scale,
            "strategies.open_index_bytes": index_bytes,
            "strategies.lookup_bytes": sum(h.io_bytes_read for h in handles) - index_bytes,
            "strategies.full_read_bytes": self.last["read_full_new"].io_bytes_read,
            "workload.objects": objects,
        })
        return m, overhead


def host_facts() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "gil_enabled": gil,
    }


def run(name: str, seed: int, seconds: float, trace: bool, settings=None,
        out_dir: Path = OUT) -> tuple[dict, dict, int]:
    """Set up, measure and check one workload.

    Returns the result line, the full report and the exit status.
    """
    settings = settings or workloads.WORKLOADS[name]
    samples = Samples()
    ph, workload = setup(settings, seed, samples)
    bench = Bench(ph, settings, workload, seed, samples)
    try:
        bench.measure(seconds, trace)
    finally:
        bench.close()
    ok = not bench.failures
    facts = {
        **host_facts(), "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "lockstep": True, "P": settings.nranks, "k": settings.hash_size,
        "scale": settings.scale if settings.dataset else None, "settings": vars(settings),
        "setup_reps": SETUP_REPS, "warmup_reps_per_strategy": 1,
        "timed_reps_per_strategy": {s: len(samples.measured[f"create_{s}_s"])
                                    for s in STRATEGIES},
        "calibration_reference_s": calibrate.REFERENCE_S,
        "calibration_median_s": statistics.median(samples.kernel_s),
        "calibration_kernel_s": samples.kernel_s,
    }
    report = {"facts": facts, "failures": bench.failures}
    metrics: dict = {}
    units: dict = {}
    if ok:
        report["counters"] = bench.counters()
        if trace:
            metrics, report["tracing_overhead_s"] = bench.per_layer()
            units = dict(per_layer_names())
            out_dir.mkdir(exist_ok=True)
            bench.tracer.write_chrome(out_dir / f"trace-{name}.json")
        else:
            metrics, report["timings"] = bench.end_to_end()
            units = dict(END_TO_END)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{'layers' if trace else 'result'}-{name}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    line = {
        "correct": ok,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": report["metrics"],
    }
    return line, report, (0 if ok else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_src():
        return 2
    try:
        line, report, status = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import parahead from the checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report["facts"]))
    timings = report.get("timings", {})
    for name, metric in line["metrics"].items():
        n = f"  (median of {timings[name]['samples']})" if name in timings else ""
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}{n}")
    print(f"attempted {line['attempted']}, failed {line['failed']}")
    print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
