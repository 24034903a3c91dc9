"""The four parallel header-creation pipelines and the partitioned read path.

All strategies consume the same workload and must produce the same logical
object set.  The two baseline strategies and the app-level variant write a
single classic header through rank 0; the partitioned strategy exchanges
only block names plus the contents of blocks claimed by several ranks, then
every rank writes its own blocks at offsets computed from a shared layout.

Phase wall times, comparison counters, collective byte counts, file-region
write logs, and a logical memory high-watermark are collected per rank.
Memory accounting covers retained metadata (the rank's definitions, live
exchange buffers, and cached index/header state); transient write staging
is not charged, mirroring bounded I/O staging.  An exchange buffer is
charged while it is live: new_format releases the gathered block facts once
the layout is made, before it charges its copy of the index.

Objects move between blocks and the flat layout by full name only:
``flatten_blocks`` and ``partition_header`` (convert's mapping) take the
``(kind, full name) -> payload`` entries of ``_add_payloads``, group them by
``split_full_name`` and build each group with ``build_classic_header``.  The
read path makes each block's entries straight from its bytes, with no Header.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum

from .classic import (
    MAGIC_PREFIX,
    AttributeDef,
    DimensionDef,
    Header,
    VariableDef,
    compute_offsets,  # noqa: F401  perfbench's tracer rebinds these by name
    decode_classic,
    encode_classic,  # noqa: F401
    encoded_size,  # noqa: F401
    var_size_bytes,
)
from .comm import SimComm, run_ranks
from .consistency import (
    hash_check,
    make_name_records,
    name_record,
    sort_check,
)
from .errors import (
    ConsistencyError,
    DanglingDimRef,
    DuplicateName,
    NoSuchObject,
    Truncated,
    UnrepresentableValue,
)
from .newformat import (
    BytesSource,
    IndexTable,
    MetadataBlock,
    block_lists,
    decode_block,  # noqa: F401
    encode_block,  # noqa: F401
    encode_index_table,
    gid_bases,
    index_table_encoded_size,
    layout_from_stats,
    read_block,
    read_index_table,
    split_full_name,
)
from .records import (
    AttPayload,
    DimPayload,
    ObjectKind,
    RecordLists,
    VarPayload,
    classic_from_records,
    decode_record,  # noqa: F401
    encode_record,
    header_objects,
    pack_stream,
    unpack_stream,
)
from .store import RankStore, add_gids
from .workload import Workload

DEFAULT_HASH_SIZE = 16_384
# the read path's keys hold the kind's int: equal to ObjectKind keys, and untracked
_DIM, _VAR, _ATT = int(ObjectKind.DIMENSION), int(ObjectKind.VARIABLE), int(ObjectKind.ATTRIBUTE)

PHASES = ("define", "exchange", "consistency_check", "header_write", "close_free")


class StrategyKind(Enum):
    APP_BASELINE = "app_baseline"
    LIB_BASELINE_HASH = "lib_baseline_hash"
    LIB_BASELINE_SORT = "lib_baseline_sort"
    NEW_FORMAT = "new_format"


@dataclass
class PhaseReport:
    """Everything one rank measured during a strategy run."""

    strategy: StrategyKind
    rank: int
    seconds: dict[str, float]
    string_comparisons: int = 0
    payload_comparisons: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    calls_by_op: dict[str, int] = field(default_factory=dict)
    io_bytes_written: int = 0
    io_bytes_read: int = 0
    mem_high_watermark: int = 0


@dataclass(frozen=True)
class WriteRecord:
    rank: int
    offset: int
    length: int
    tag: str


class FileImage:
    """Shared in-memory file with a per-region write log.

    Writers are responsible for disjoint regions; the log makes any overlap
    visible to tests instead of hiding it behind last-writer-wins bytes.
    """

    def __init__(self):
        self._data = bytearray()
        self.log: list[WriteRecord] = []
        self._lock = threading.Lock()

    def write(self, rank: int, offset: int, payload: bytes, tag: str) -> None:
        with self._lock:
            end = offset + len(payload)
            if end > len(self._data):
                self._data.extend(b"\x00" * (end - len(self._data)))
            self._data[offset:end] = payload
            self.log.append(WriteRecord(rank, offset, len(payload), tag))

    def to_bytes(self) -> bytes:
        with self._lock:
            return bytes(self._data)


@dataclass(frozen=True)
class RunResult:
    image: FileImage
    reports: list[PhaseReport]


class RankContext:
    """Per-rank instrumentation shared by every strategy body.

    It fills the rank's :class:`PhaseReport` in place and tracks the logical
    bytes of metadata the rank currently retains, with their high watermark.
    """

    def __init__(self, strategy: StrategyKind, rank: int, comm: SimComm, image: FileImage):
        self.rank = rank
        self.comm = comm
        self.image = image
        self.held = 0
        self.report = PhaseReport(strategy, rank, {name: 0.0 for name in PHASES})

    @contextmanager
    def phase(self, name: str):
        self.comm.barrier(self.rank)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.report.seconds[name] += time.perf_counter() - start

    def acquire(self, nbytes: int) -> None:
        self.held += nbytes
        if self.held > self.report.mem_high_watermark:
            self.report.mem_high_watermark = self.held

    def release(self, nbytes: int) -> None:
        """Stop charging ``nbytes`` the rank no longer retains."""
        if nbytes > self.held:
            raise ValueError(f"release of {nbytes} B exceeds the {self.held} B held")
        self.held -= nbytes

    def write(self, offset: int, raw: bytes, tag: str) -> None:
        self.image.write(self.rank, offset, raw, tag)
        self.report.io_bytes_written += len(raw)

    def gather(self, buf: bytes) -> list[bytes]:
        """Every rank's ``buf``, in rank order; the rank retains all of them."""
        gathered = self.comm.allgatherv(self.rank, buf)
        self.acquire(sum(len(g) for g in gathered))
        return gathered

    def gather_records(self, own: list[tuple]) -> list[tuple]:
        """Every rank's name records as check input, rank-major.  This rank
        sends the bytes of its ``own`` and takes them back as they are, so
        only its peers' records are parsed."""
        gathered = self.gather(pack_stream([o[2] for o in own]))
        peers = [[] if r == self.rank else unpack_stream(g) for r, g in enumerate(gathered)]
        records = make_name_records(peers)
        at = sum(map(len, peers[: self.rank]))
        records[at:at] = own
        return records

    def checked(self, report) -> None:
        """Count a check's comparisons; its conflicts raise ConsistencyError."""
        self.report.string_comparisons += report.string_comparisons
        self.report.payload_comparisons += report.payload_comparisons
        if report.conflicts:
            raise ConsistencyError(report.conflicts)

    def close(self) -> PhaseReport:
        """Free the retained metadata and complete the report with comm stats."""
        with self.phase("close_free"):
            self.held = 0
        stats = self.comm.stats(self.rank)
        self.report.bytes_sent = stats.bytes_sent
        self.report.bytes_received = stats.bytes_received
        self.report.calls_by_op = stats.calls_by_op
        return self.report


# --- shared classic-format machinery -----------------------------------------


def merge_records(name_records) -> list[tuple]:
    """Deduplicate gathered records into the file order: the first record of
    each name.

    Objects are ordered per kind by (rank of first definer, creation index);
    a shared object keeps its lowest-rank definer's position.
    """
    firsts: dict[bytes, tuple] = {}
    for rec in name_records:
        firsts.setdefault(rec[3], rec)
    return list(firsts.values())


def file_gids(merged) -> dict:
    """(kind, full name) -> GID of every merged record: its per-kind index.
    The kind is the record's int kind byte, which equals its ObjectKind."""
    return add_gids({}, ((r[3][0], r[0]) for r in merged))


def build_classic_header(defs, path: str = "") -> Header:
    """Materialize a header from (kind, full name, payload) triples, in order.

    Dimension names resolve to ids by full name; variables wait until every
    dimension is known, and get their ``vsize``.  With a block ``path``, the
    stored names drop the ``path/`` prefix, so a variable over another
    block's dimension raises DanglingDimRef.
    """
    cut = len(path) + 1 if path else 0
    dims = []
    gatts = []
    pending = []
    dim_ids: dict[str, int] = {}
    for kind, full_name, payload in defs:
        if kind is ObjectKind.VARIABLE:
            pending.append((full_name, payload))
        elif kind is ObjectKind.DIMENSION:
            dim_ids[full_name] = len(dims)
            dims.append(DimensionDef(full_name[cut:], payload.length))
        else:
            gatts.append(AttributeDef(full_name[cut:], payload.type_tag, payload.values))
    vars_ = []
    for full_name, payload in pending:
        try:
            refs = tuple(dim_ids[d] for d in payload.dim_names)
        except KeyError as exc:
            dim = exc.args[0]
            if path and split_full_name(dim)[0] != path:
                msg = f"variable {full_name!r} uses dimension {dim!r} from another block"
                msg += "; cannot partition"
            else:
                msg = f"variable {full_name!r} references unknown dimension {dim!r}"
            raise DanglingDimRef(msg) from exc
        vsize = var_size_bytes(tuple(dims[r].length for r in refs), payload.type_tag)
        vars_.append(
            VariableDef(
                full_name[cut:], refs, payload.type_tag, payload.attributes, 0, vsize
            )
        )
    return Header(tuple(dims), tuple(gatts), tuple(vars_))


def _write_classic_root(ctx: RankContext, records) -> None:
    """Rank 0 writes the classic header of the merged ``records``, in file order."""
    if ctx.rank == 0:
        ctx.write(0, classic_from_records(records), "classic_header")


# --- the strategy bodies: one rank's part of a run -----------------------------


def _app_body(ctx: RankContext, defs, hash_size: int) -> None:
    """Exchange and synchronize metadata up front, then create collectively."""
    with ctx.phase("exchange"):
        buf = pack_stream([encode_record(d.kind, d.full_name, d.payload) for d in defs])
        ctx.acquire(len(buf))  # the application keeps its own send buffer too
        records = make_name_records([unpack_stream(g) for g in ctx.gather(buf)])
    with ctx.phase("consistency_check"):
        ctx.checked(hash_check(records, hash_size))
    with ctx.phase("define"):
        merged = merge_records(records)
        store = RankStore(ctx.rank)
        for rec in merged:
            store.define_record(rec)
        ctx.acquire(store.serialized_bytes())
        store.finalize_gids(file_gids(merged))
    with ctx.phase("header_write"):
        # the store holds every merged object, in file order
        _write_classic_root(ctx, (o[2] for o in store.objects))


def _lib_body(ctx: RankContext, defs, hash_size: int) -> None:
    """Define independently; the library reconciles everything at end-define."""
    store = RankStore(ctx.rank)
    with ctx.phase("define"):
        for d in defs:
            store.define(d.kind, d.full_name, d.payload)
        ctx.acquire(store.serialized_bytes())
    with ctx.phase("exchange"):
        records = ctx.gather_records(store.objects)
    with ctx.phase("consistency_check"):
        hashed = ctx.report.strategy is StrategyKind.LIB_BASELINE_HASH
        ctx.checked(hash_check(records, hash_size) if hashed else sort_check(records))
    with ctx.phase("header_write"):
        merged = merge_records(records)
        store.finalize_gids(file_gids(merged))
        _write_classic_root(ctx, (rec[2] for rec in merged))


# One block-facts entry: size, n_dims, n_vars, n_atts, data bytes, then the path.
_FACTS = struct.Struct(">QQQQQ")


def _new_body(ctx: RankContext, defs, hash_size: int) -> None:
    """Partitioned header: exchange block names, compare only shared blocks,
    and write index plus blocks from their owning ranks."""
    store = RankStore(ctx.rank)
    with ctx.phase("define"):
        for d in defs:
            store.define(d.kind, d.full_name, d.payload)
        ctx.acquire(store.serialized_bytes())
        own_blocks: dict[str, list[tuple]] = {}
        for obj in store.objects:
            path, _ = split_full_name(obj[0])
            own_blocks.setdefault(path, []).append(obj)

    with ctx.phase("exchange"):
        # Each own block's lists are made once.  A rank's part of a shared
        # block may use a dimension another rank defines: its facts are
        # never read, as the merged block replaces them, and the error
        # stands if no other rank claims the block.
        lists: dict[str, RecordLists] = {}
        unresolved: dict[str, DanglingDimRef] = {}
        own_facts = []
        for p, objs in own_blocks.items():
            try:
                lists[p] = block_lists(p, (o[2] for o in objs))
            except DanglingDimRef as exc:
                unresolved[p] = exc
            facts = lists[p].facts if p in lists else (0, 0, 0, 0, 0)
            if facts[4] >= 1 << 64:
                raise UnrepresentableValue(f"block {p!r} data size {facts[4]} exceeds 64 bits")
            own_facts.append(_FACTS.pack(*facts) + p.encode("ascii"))
        gathered_facts = ctx.gather(pack_stream(own_facts))

    with ctx.phase("consistency_check"):
        # every rank validates its own namespace in its own table, from
        # the records its store already holds
        ctx.checked(hash_check(store.objects, hash_size))

        owners: dict[str, int] = {}  # path -> its lowest claiming rank, which writes it
        facts: dict[str, tuple[int, int, int, int, int]] = {}
        block_names = []
        for peer, raw in enumerate(gathered_facts):
            for entry in unpack_stream(raw):
                path = entry[_FACTS.size :].decode("ascii")
                owners.setdefault(path, peer)
                facts.setdefault(path, _FACTS.unpack_from(entry))
                block_names.append(name_record(path, peer, b"\xff"))
        block_report = hash_check(block_names, hash_size)
        ctx.checked(block_report)
        shared_paths = {g[0][0] for g in block_report.shared_sets}

        shared_records = ctx.gather_records(
            [o for p in sorted(own_blocks) if p in shared_paths for o in own_blocks[p]]
        )
        ctx.checked(hash_check(shared_records, hash_size))
        merged_shared: dict[str, list[tuple]] = {p: [] for p in shared_paths}
        for rec in merge_records(shared_records):
            path, _ = split_full_name(rec[0])
            merged_shared[path].append(rec)

    with ctx.phase("header_write"):
        # A shared block is made again from its merged records, unless
        # they are this rank's own records in its own order.
        for path in sorted(owners):
            if path in shared_paths:
                merged = [rec[2] for rec in merged_shared[path]]
                own = [o[2] for o in own_blocks.get(path, ())]
                if path in unresolved or merged != own:
                    lists[path] = block_lists(path, merged)
                facts[path] = lists[path].facts
            elif path in unresolved:
                raise unresolved[path]
        table = layout_from_stats([(path, *f[:4]) for path, f in facts.items()])

        # data-section start of each block this rank writes: path-sorted
        # blocks, creation order within; the layout aligned the reserve
        mine = []
        data_cursor = table.header_reserve
        for entry in table.entries:
            if owners[entry.block_path] == ctx.rank:
                mine.append((entry, data_cursor))
            data_cursor += facts[entry.block_path][4]
        # the layout has used the gathered facts: drop them before the index
        ctx.release(sum(map(len, gathered_facts)))
        del gathered_facts, owners, facts, block_names, block_report

        # only rank 0 writes the index, so only it encodes one; every rank
        # holds a replicated copy of that size
        if ctx.rank == 0:
            index_raw = encode_index_table(table)
            ctx.acquire(len(index_raw))
        else:
            ctx.acquire(index_table_encoded_size(e.block_path for e in table.entries))
        for entry, start in mine:
            path = entry.block_path
            ctx.write(entry.offset, lists[path].place(start), f"block:{path}")
        if ctx.rank == 0:
            ctx.write(0, index_raw, "index_table")

        # GID assignment: block-sorted order, creation order within block;
        # a shared block's objects are its merged records
        bases = gid_bases(table.entries)
        gids: dict = {}
        for path, recs in {**own_blocks, **merged_shared}.items():
            add_gids(gids, ((r[3][0], r[0]) for r in recs), bases[path])
        store.finalize_gids(gids)


# --- the runner ----------------------------------------------------------------

# The bodies call what they use through this module's globals, looked up at
# each call, so a name rebound on the module (a tracer's wrapper) reaches them.
BODIES = {
    StrategyKind.APP_BASELINE: _app_body,
    StrategyKind.LIB_BASELINE_HASH: _lib_body,
    StrategyKind.LIB_BASELINE_SORT: _lib_body,
    StrategyKind.NEW_FORMAT: _new_body,
}


def run_strategy(
    kind: StrategyKind,
    workload: Workload,
    hash_size: int = DEFAULT_HASH_SIZE,
    *,
    lockstep: bool = False,
    order_seed=None,
) -> RunResult:
    """Run strategy ``kind`` on every rank of ``workload`` into one file image;
    ``lockstep`` and ``order_seed`` pick the scheduler, as in ``run_ranks``."""
    body = BODIES[kind]
    image = FileImage()

    def rank_body(rank: int, comm: SimComm) -> PhaseReport:
        ctx = RankContext(kind, rank, comm, image)
        body(ctx, workload.per_rank[rank], hash_size)
        return ctx.close()

    reports = run_ranks(workload.nranks, rank_body, lockstep=lockstep, order_seed=order_seed)
    return RunResult(image, reports)


def run_app_baseline(
    workload: Workload, hash_size: int = DEFAULT_HASH_SIZE, *, lockstep=False, order_seed=None
) -> RunResult:
    kind = StrategyKind.APP_BASELINE
    return run_strategy(kind, workload, hash_size, lockstep=lockstep, order_seed=order_seed)


def run_lib_baseline(
    workload: Workload,
    hash_size: int = DEFAULT_HASH_SIZE,
    check: str = "hash",
    *,
    lockstep=False,
    order_seed=None,
) -> RunResult:
    kinds = {"hash": StrategyKind.LIB_BASELINE_HASH, "sort": StrategyKind.LIB_BASELINE_SORT}
    if check not in kinds:
        raise ValueError(f"check must be 'hash' or 'sort', not {check!r}")
    return run_strategy(kinds[check], workload, hash_size, lockstep=lockstep, order_seed=order_seed)


def run_new_format(
    workload: Workload, hash_size: int = DEFAULT_HASH_SIZE, *, lockstep=False, order_seed=None
) -> RunResult:
    kind = StrategyKind.NEW_FORMAT
    return run_strategy(kind, workload, hash_size, lockstep=lockstep, order_seed=order_seed)


# --- read path --------------------------------------------------------------


class FileSource:
    """Random-access reads over an on-disk file."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size

    def read(self, offset: int, length: int) -> bytes:
        # checked before reading: a corrupt length must not become a huge buffer
        if offset + length > self._size:
            raise Truncated(f"read past end: {offset}+{length} > {self._size}")
        self._fh.seek(offset)
        out = self._fh.read(length)
        if len(out) != length:
            raise Truncated(f"read past end of file at offset {offset}")
        return out

    def close(self) -> None:
        self._fh.close()


class HeaderHandle:
    """Open partitioned-header file: index cached, blocks loaded on demand.

    A block is read and checked once, by the first lookup or full read that
    needs it, into its (kind, full name) -> payload map, made by the list
    walker's builders; its GIDs are made from that map on first use.
    """

    def __init__(self, source):
        self._source = source
        self.io_bytes_read = 0
        self._table = read_index_table(self._take)
        self._entries = {e.block_path: e for e in self._table.entries}
        self._maps: dict[str, dict] = {}
        self._gids: dict[str, dict] = {}
        self._gid_base = None  # per-block GID bases, made by the first gid_of

    def _take(self, offset: int, length: int) -> bytes:
        out = self._source.read(offset, length)
        self.io_bytes_read += length
        return out

    @property
    def index_table(self) -> IndexTable:
        return self._table

    @property
    def blocks_loaded(self) -> int:
        return len(self._maps)

    def _load_block(self, path: str) -> dict:
        """(kind, full name) -> payload of every object in block ``path``."""
        if path in self._maps:
            return self._maps[path]
        entry = self._entries.get(path)
        if entry is None:
            raise NoSuchObject(f"no metadata block {path!r}")
        prefix = f"{path}/" if path else ""
        out = {}
        dims = []

        def dim(name, length):
            dims.append(prefix + name)
            out[_DIM, dims[-1]] = DimPayload(length)

        def att(name, tag, values):
            out[_ATT, prefix + name] = AttPayload(tag, values)

        def var(name, refs, tag, atts, begin, vsize):
            out[_VAR, prefix + name] = VarPayload(tag, tuple(map(dims.__getitem__, refs)), atts)

        read_block(self._take, entry, dim, att, var)
        self._maps[path] = out
        return out

    def lookup(self, kind: ObjectKind, full_name: str):
        """Payload of one object, loading (and caching) only its block."""
        path, _ = split_full_name(full_name)
        try:
            return self._load_block(path)[(kind, full_name)]
        except KeyError:
            raise NoSuchObject(f"no {kind.name} named {full_name!r}") from None

    def gid_of(self, kind: ObjectKind, full_name: str) -> int:
        path, _ = split_full_name(full_name)
        gids = self._gids.get(path)
        if gids is None:
            objects = self._load_block(path)
            if self._gid_base is None:
                self._gid_base = gid_bases(self._table.entries)
            gids = add_gids({}, objects, self._gid_base[path])
            self._gids[path] = gids
        try:
            return gids[(kind, full_name)]
        except KeyError:
            raise NoSuchObject(f"no {kind.name} named {full_name!r}") from None


def open_new_format(image: bytes, nranks: int = 1) -> list[HeaderHandle]:
    """Open a partitioned file image on P ranks; each reads only the index table."""
    source = BytesSource(image)
    return [HeaderHandle(source) for _ in range(nranks)]


def read_full_header(handle: HeaderHandle) -> dict:
    """Every block's map, merged: the (kind, full name) -> payload map."""
    out = {}
    for entry in handle.index_table.entries:
        out.update(handle._load_block(entry.block_path))
    return out


# --- logical object maps (cross-format and cross-strategy comparison) ---------


def _add_payloads(out: dict, header: Header, path: str = "") -> dict:
    """Add (kind, full name) -> payload for every object of a decoded header,
    block ``path``'s content or a flat header, to ``out``: a full name
    already there raises DuplicateName, a dimension id outside the header
    DanglingDimRef."""
    for kind, name, payload in header_objects(header, path):
        if out.setdefault((kind, name), payload) is not payload:
            raise DuplicateName(f"{kind.name.lower()} {name!r} is defined twice")
    return out


def logical_map_from_classic(header: Header) -> dict:
    """Layout-independent view of a classic header: definitions only."""
    return _add_payloads({}, header)


def logical_map_from_image(image_bytes: bytes) -> dict:
    """Dispatch on the magic and build the logical object map either way."""
    if image_bytes[:3] == MAGIC_PREFIX:
        return logical_map_from_classic(decode_classic(image_bytes))
    handle = open_new_format(image_bytes)[0]
    return read_full_header(handle)


# --- block <-> flat mapping (convert) ------------------------------------------


def _placed(content: Header, path: str, source: dict) -> Header:
    """``content`` with each variable's ``begin`` and ``vsize`` taken from
    ``source[full name]``, so no variable data moves."""
    prefix = f"{path}/" if path else ""
    vars_ = []
    for var in content.vars:
        old = source[prefix + var.name]
        vars_.append(replace(var, begin=old.begin, vsize=old.vsize))
    return replace(content, vars=tuple(vars_))


def flatten_blocks(blocks) -> Header:
    """One flat header from blocks in path order, names prefixed with their path."""
    objects: dict = {}
    source = {}
    for block in sorted(blocks, key=lambda b: b.block_path):
        path, content = block.block_path, block.content
        _add_payloads(objects, content, path)
        prefix = f"{path}/" if path else ""
        source.update((prefix + v.name, v) for v in content.vars)
    flat = build_classic_header((kind, name, p) for (kind, name), p in objects.items())
    return _placed(flat, "", source)


def partition_header(header: Header) -> list[MetadataBlock]:
    """Group a flat header into blocks by each name's path prefix; slash-free
    names land in the reserved root block.  A variable over another block's
    dimension raises DanglingDimRef."""
    grouped: dict[str, list] = {}
    for (kind, name), payload in _add_payloads({}, header).items():
        grouped.setdefault(split_full_name(name)[0], []).append((kind, name, payload))
    source = {v.name: v for v in header.vars}
    return [
        MetadataBlock(path, _placed(build_classic_header(defs, path), path, source))
        for path, defs in grouped.items()
    ]
