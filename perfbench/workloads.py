"""The benchmark's workloads, each built from a seed through parahead's public types.

Nothing here imports parahead at module level: ``build`` runs inside the timed
set-up, after ``run.py`` has (re-)imported the package, so the workload is made
of the same classes the strategies will see.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    """What one workload runs: a dataset profile slice or the shared-blocks layout."""

    name: str
    nranks: int
    hash_size: int
    dataset: str | None = None  # profile workloads: a key of parahead.workload.DATASETS
    scale: float = 0.0
    own_blocks: int = 0  # shared-blocks workload: blocks each rank alone defines
    shared_blocks: int = 0  # blocks every rank defines identically
    dims_per_block: int = 0
    vars_per_block: int = 0


WORKLOADS = {
    # The paper's main case: one block per rank, no sharing.  Exchanging and
    # decoding every record on every rank dominates, as do app's P*n defines
    # and rank 0's serial classic build.
    "blocked-98M-p8": Settings("blocked-98M-p8", 8, 16_384, dataset="98M", scale=0.0025),
    # Duplicated blocks make payload comparisons run and new_format exchange
    # shared blocks; over a thousand index entries make layout, block-name
    # checks and index walks at open do real work.
    "shared-blocks-p4": Settings(
        "shared-blocks-p4", 4, 16_384,
        own_blocks=256, shared_blocks=64, dims_per_block=6, vars_per_block=4,
    ),
}

# Tiny variants for the self-test: same shapes, a fraction of the work.
TINY = {
    "blocked-98M-p8": Settings("blocked-98M-p8", 8, 1_024, dataset="98M", scale=0.0002),
    "shared-blocks-p4": Settings(
        "shared-blocks-p4", 4, 1_024,
        own_blocks=6, shared_blocks=3, dims_per_block=6, vars_per_block=4,
    ),
}


def build(settings: Settings, seed: int):
    """The workload for ``settings``; the same seed gives the same definitions."""
    if settings.dataset is not None:
        wl = importlib.import_module("parahead.workload")
        spec = wl.spec_for_dataset(settings.dataset, settings.scale, settings.nranks, seed=seed)
        return wl.gen_workload(spec)
    return _shared_blocks(settings, seed)


def _shared_blocks(s: Settings, seed: int):
    wl = importlib.import_module("parahead.workload")
    classic = importlib.import_module("parahead.classic")
    records = importlib.import_module("parahead.records")
    rng = random.Random(f"{seed}:shared-blocks")
    var_types = (classic.TypeTag.FLOAT, classic.TypeTag.INT, classic.TypeTag.DOUBLE)

    def block(path: str) -> list:
        dims = [
            wl.Definition(
                records.ObjectKind.DIMENSION, f"{path}/d{i}",
                records.DimPayload(rng.randrange(1, 1000)),
            )
            for i in range(s.dims_per_block)
        ]
        vars_ = []
        for i in range(s.vars_per_block):
            refs = tuple(d.full_name for d in rng.sample(dims, 2))
            att = classic.AttributeDef("meta", classic.TypeTag.CHAR, rng.randbytes(8))
            payload = records.VarPayload(rng.choice(var_types), refs, (att,))
            vars_.append(wl.Definition(records.ObjectKind.VARIABLE, f"{path}/v{i}", payload))
        return dims + vars_

    shared = [d for b in range(s.shared_blocks) for d in block(f"shared/s{b:04d}")]
    per_rank = tuple(
        tuple(shared + [d for b in range(s.own_blocks) for d in block(f"r{r}/b{b:04d}")])
        for r in range(s.nranks)
    )
    blocks = s.shared_blocks + s.own_blocks * s.nranks
    spec = wl.WorkloadSpec(
        total_vars=blocks * s.vars_per_block,
        total_dims=blocks * s.dims_per_block,
        nranks=s.nranks,
        seed=seed,
    )
    return wl.Workload(spec, per_rank)
