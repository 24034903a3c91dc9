"""Spans recorded around the calls into each parahead layer, from outside the package.

``Tracer.install`` rebinds the functions ``parahead.strategies`` imports by
name and wraps a few methods on their classes; ``Tracer.restore`` puts every
original back.  Spans stay in memory and are written as Chrome trace-event
JSON (Perfetto opens it as-is) when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# Functions parahead.strategies imports by name, keyed by the layer they belong to.
# build_classic_header lives in strategies but builds the classic header.
REBOUND = {
    "records": ("decode_record", "encode_record", "pack_stream", "unpack_stream"),
    "consistency": ("hash_check", "sort_check", "make_name_records"),
    "classic": ("encode_classic", "encoded_size", "compute_offsets", "build_classic_header"),
    "newformat": ("encode_block", "encode_index_table", "layout_from_stats", "decode_block"),
}
METHODS = {
    "comm": ("comm", "SimComm", ("allgather", "allgatherv", "barrier")),
    "store": ("store", "RankStore", ("define", "finalize_gids")),
}
ROOT = "strategies.rank"  # one per rank per strategy run: the body run_ranks executes


class Span(NamedTuple):
    id: int
    parent: int  # 0: no enclosing span on this thread
    run: int  # one id per strategy run (or read-path call)
    name: str
    thread: str
    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_names: dict[int, str] = {}
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def begin_run(self, label: str) -> None:
        """Spans recorded from now on belong to a new run called ``label``."""
        self.run += 1
        self.run_names[self.run] = label

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                spans.append(Span(sid, parent, self.run, name,
                                  threading.current_thread().name, t0, t1, c1 - c0))

        return traced

    def _rebind(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, ph) -> None:
        """Wrap the layer boundaries of the imported ``parahead`` package ``ph``."""
        for layer, names in REBOUND.items():
            for fn in names:
                self._rebind(ph.strategies, fn, f"{layer}.{fn}")
        for layer, (module, cls, methods) in METHODS.items():
            klass = getattr(getattr(ph, module), cls)
            for method in methods:
                self._rebind(klass, method, f"{layer}.{method}")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_chrome(self, path) -> None:
        """Chrome trace events: one process per run, one thread per rank."""
        base = min((s.start for s in self.spans), default=0.0)
        threads: dict[str, int] = {}
        events = []
        for run, label in self.run_names.items():
            events.append({"ph": "M", "name": "process_name", "pid": run, "tid": 0,
                           "args": {"name": label}})
        for s in self.spans:
            tid = threads.setdefault(s.thread, len(threads))
            events.append({
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": (s.start - base) * 1e6, "dur": s.wall * 1e6,
                "pid": s.run, "tid": tid,
                "args": {"id": s.id, "parent": s.parent, "cpu_us": s.cpu * 1e6},
            })
        for name, tid in threads.items():
            for run in self.run_names:
                events.append({"ph": "M", "name": "thread_name", "pid": run, "tid": tid,
                               "args": {"name": name}})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class SpanStats:
    """Self times (span minus its direct children) of one set of runs."""

    def __init__(self, spans):
        self.spans = list(spans)
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent:
                child_wall[s.parent] += s.wall
                child_cpu[s.parent] += s.cpu
        self.self_wall = {s.id: s.wall - child_wall[s.id] for s in self.spans}
        self.self_cpu = {s.id: s.cpu - child_cpu[s.id] for s in self.spans}
        self.by_id = {s.id: s for s in self.spans}

    def count(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def cpu(self, *names: str) -> float:
        """Self CPU seconds of the named spans, summed over ranks."""
        return sum(self.self_cpu[s.id] for s in self.spans if s.name in names)

    def wait_max(self, layer: str) -> float:
        """Largest per-thread sum of wall minus CPU over a layer's outermost spans."""
        per_thread: dict[str, float] = defaultdict(float)
        prefix = layer + "."
        for s in self.spans:
            parent = self.by_id.get(s.parent)
            if s.name.startswith(prefix) and not (parent and parent.name.startswith(prefix)):
                per_thread[s.thread] += s.wall - s.cpu
        return max(per_thread.values(), default=0.0)
