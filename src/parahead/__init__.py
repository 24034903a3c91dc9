"""Parallel data-object creation strategies for self-describing file headers.

The package compares four ways of building a scientific file's metadata
section across P simulated ranks: exchanging everything at the application
level, reconciling inside the library at end-define (with hash-table or
sort-based duplicate detection), and a partitioned header format whose index
table lets ranks create and write metadata blocks independently.
"""

from . import classic, comm, consistency, newformat, records, store, strategies, workload
from .classic import (
    AttributeDef,
    DimensionDef,
    Header,
    TypeTag,
    VariableDef,
    compute_offsets,
    decode_classic,
    encode_classic,
)
from .comm import CommStats, SimComm, run_ranks
from .consistency import (
    CheckReport,
    compare_shared,
    hash_check,
    model_hash_cost,
    model_newformat_cost,
    name_record,
    sort_check,
)
from .newformat import (
    IndexEntry,
    IndexTable,
    MetadataBlock,
    decode_block,
    decode_index_table,
    encode_block,
    encode_index_table,
)
from .records import AttPayload, DimPayload, ObjectKind, VarPayload
from .store import RankStore
from .strategies import (
    FileImage,
    PhaseReport,
    RunResult,
    StrategyKind,
    open_new_format,
    read_full_header,
    run_app_baseline,
    run_lib_baseline,
    run_new_format,
    run_strategy,
)
from .workload import DATASETS, Workload, WorkloadSpec, gen_workload, spec_for_dataset

__version__ = "1.0.0"
