"""A fixed pure-Python kernel that measures how fast this machine runs right now.

The machine the benchmark shares can run the same code tens of percent slower
from one minute to the next.  The kernel does the kinds of work parahead does
(struct packing, bytes slicing and decoding, dict inserts, many small list
allocations under the garbage collector) and never changes, so its time tracks
the machine and not the program.  ``run.py`` times it before every timed
operation and scales each time it reports by ``REFERENCE_S / kernel time``,
the kernel time being a median over nearby calibrations.
"""

from __future__ import annotations

import gc
import statistics
import struct
import time
import zlib

# Kernel time on the machine the bounds were set on (2-core x86_64, Python
# 3.11); a fixed constant, so scaled times keep the unit of seconds.
REFERENCE_S = 0.010

_N = 2_000
_SLOTS = 20_000


def kernel() -> int:
    table = {}
    out = []
    for i in range(_N):
        raw = f"block{i % 64:04d}/obj{i:06d}".encode()
        rec = struct.pack(">BI", 2, len(raw)) + raw + struct.pack(">QII", i, i % 7, 4)
        n = struct.unpack_from(">I", rec, 1)[0]
        name = rec[5 : 5 + n].decode()
        table[name] = (i, rec)
        out.append(rec)
    buf = b"".join(out)
    chains = [[] for _ in range(_SLOTS)]
    for name, (i, rec) in table.items():
        chains[zlib.crc32(rec) % _SLOTS].append(i)
    return len(buf) + sum(map(len, chains))


def sample(reps: int = 3) -> float:
    """Median kernel time over ``reps`` calls, each after a full collection."""
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
