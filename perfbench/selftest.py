#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and checks that:

* every end-to-end and per-layer metric is printed with the unit
  BENCHMARK.json gives it, and no output check failed;
* the traced run's counters equal the untraced run's;
* the trace-event file parses, its spans nest (a child lies inside its parent,
  on the same thread and run), and each rank has exactly one root span per
  strategy run, which every other span on that rank descends from;
* a wrong output is counted as a failure, and the run exits non-zero;
* in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  non-zero without printing a result.

Exits 0 when every check passes.  Writes only under perfbench/out/selftest/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import run
import workloads

OUT = run.OUT / "selftest"
SEED = 3
EPS_US = 1.0  # trace timestamps are floats in microseconds


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_units(metrics: dict, expected: list) -> None:
    got = {name: m["unit"] for name, m in metrics.items()}
    check(got == dict(expected), f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ dict(expected).keys())}")
    for name, m in metrics.items():
        check(isinstance(m["value"], (int, float)), f"{name} is not a number")


def check_trace(path: Path, nranks: int) -> None:
    events = json.loads(path.read_text())["traceEvents"]
    run_names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
    spans = {e["args"]["id"]: e for e in events if e["ph"] == "X"}
    check(spans, "trace holds no spans")
    for e in spans.values():
        parent = spans.get(e["args"]["parent"])
        if e["args"]["parent"]:
            check(parent is not None, f"span {e['name']} has a missing parent")
            check(parent["pid"] == e["pid"] and parent["tid"] == e["tid"],
                  f"span {e['name']} crosses a run or thread")
            check(parent["ts"] - EPS_US <= e["ts"]
                  and e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + EPS_US,
                  f"span {e['name']} lies outside its parent {parent['name']}")
    creates = [pid for pid, name in run_names.items() if name.startswith("create_")]
    check(len(creates) == len(run.STRATEGIES), f"expected one traced run per strategy: {run_names}")
    for pid in creates:
        in_run = [e for e in spans.values() if e["pid"] == pid]
        roots = Counter(e["tid"] for e in in_run if e["name"] == run.ROOT)
        check(len(roots) == nranks and set(roots.values()) == {1},
              f"{run_names[pid]}: root spans per rank {dict(roots)}")
        for e in in_run:
            top = e
            while top["args"]["parent"]:
                top = spans[top["args"]["parent"]]
            check(top["name"] == run.ROOT, f"{run_names[pid]}: {e['name']} has no root span")
        by_name = defaultdict(int)
        for e in in_run:
            by_name[e["name"].split(".")[0]] += 1
        check(by_name["comm"] and by_name["consistency"], f"{run_names[pid]}: layers missing")


def check_failure_counted() -> None:
    """A wrong output is a failed operation, and the run's status is non-zero."""
    name = "blocked-98M-p8"
    original = run.Bench.__init__

    def tampered(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.expected.popitem()  # the images now hold an object nobody defined

    run.Bench.__init__ = tampered
    try:
        line, _, status = run.run(name, SEED, 0.05, False, workloads.TINY[name], OUT)
    finally:
        run.Bench.__init__ = original
    check(status != 0 and not line["correct"], "a wrong output passed")
    check(line["failed"] >= 2 and line["attempted"] > line["failed"],
          f"failures not counted against attempts: {line}")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "blocked-98M-p8", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0, "run.py succeeded without the package")
    check('"correct"' not in proc.stdout, "run.py printed a result without the package")
    shutil.rmtree(bare)


def main() -> int:
    if not run.use_checkout_src():
        return 2
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(layers == run.per_layer_names(), "BENCHMARK.json per_layer differs from run.py")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    OUT.mkdir(parents=True, exist_ok=True)
    for name, settings in workloads.TINY.items():
        plain, plain_report, status = run.run(name, SEED, 0.2, False, settings, OUT)
        check(status == 0 and plain["correct"] and not plain["failed"], f"{name}: untraced run failed")
        check_units(plain["metrics"], e2e)
        traced, traced_report, status = run.run(name, SEED, 0.2, True, settings, OUT)
        check(status == 0 and traced["correct"] and not traced["failed"], f"{name}: traced run failed")
        check_units(traced["metrics"], layers)
        check(traced_report["counters"] == plain_report["counters"],
              f"{name}: traced counters differ from untraced ones")
        check_trace(OUT / f"trace-{name}.json", settings.nranks)
        print(f"ok  {name}: {len(plain['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics, trace nests")
    check_failure_counted()
    print("ok  wrong outputs count as failures")
    check_bare_directory()
    print("ok  exits non-zero without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
