"""Local/global id mapping: LID stability, GID agreement, inquiry semantics."""

from __future__ import annotations

import pytest

from parahead.consistency import make_name_records
from parahead.errors import (
    AlreadyFinalized,
    LocalNameConflict,
    MissingObject,
    NoSuchObject,
)
from parahead.records import KINDS, DimPayload, ObjectKind, VarPayload, encode_record
from parahead.store import RankStore, add_gids
from parahead.classic import TypeTag

VAR = ObjectKind.VARIABLE
DIM = ObjectKind.DIMENSION


def v(*dim_names) -> VarPayload:
    return VarPayload(TypeTag.FLOAT, tuple(dim_names))


def test_first_definition_gets_lid_zero():
    store = RankStore(0)
    assert store.define(VAR, "temperature", v()) == 0
    assert store.define(VAR, "rain", v()) == 1
    assert store.define(DIM, "x", DimPayload(4)) == 0  # per-kind LID space


def test_identical_redefinition_is_idempotent():
    store = RankStore(0)
    first = store.define(VAR, "t", v("x"))
    assert store.define(VAR, "t", v("x")) == first
    assert len(store.objects) == 2 - 1  # only one pending object


def test_conflicting_redefinition_rejected():
    store = RankStore(0)
    store.define(VAR, "t", v("x"))
    with pytest.raises(LocalNameConflict):
        store.define(VAR, "t", v("y"))


def test_define_after_finalize_rejected():
    store = RankStore(0)
    store.define(VAR, "t", v())
    store.finalize_gids(add_gids({}, [(VAR, "t")]))
    with pytest.raises(AlreadyFinalized):
        store.define(VAR, "u", v())


def test_second_finalize_rejected_and_gids_kept():
    store = RankStore(0)
    store.define(DIM, "x", DimPayload(4))
    store.finalize_gids({(DIM, "x"): 0})
    with pytest.raises(AlreadyFinalized):
        store.finalize_gids({(DIM, "x"): 7})
    assert store.gid_of(DIM, 0) == 0


def test_finalize_missing_object():
    store = RankStore(1)
    store.define(VAR, "t", v())
    with pytest.raises(MissingObject):
        store.finalize_gids(add_gids({}, [(VAR, "other")]))


def test_single_rank_identity_mapping():
    store = RankStore(0)
    for i in range(5):
        store.define(VAR, f"v{i}", v())
    order = add_gids({}, [(VAR, f"v{i}") for i in range(5)])
    store.finalize_gids(order)
    assert [store.gid_of(VAR, i) for i in range(5)] == [0, 1, 2, 3, 4]


def test_inquiry_semantics():
    store = RankStore(0)
    store.define(VAR, "mine", v())
    # before end-define only local names resolve
    assert store.inquire(VAR, "mine") == 0
    with pytest.raises(NoSuchObject):
        store.inquire(VAR, "theirs")
    store.finalize_gids(add_gids({}, [(VAR, "mine"), (VAR, "theirs")]))
    assert store.inquire(VAR, "mine") == 0  # LID stable across end-define
    first = store.inquire(VAR, "theirs")
    assert first == 1  # next free LID
    assert store.inquire(VAR, "theirs") == first  # persistent once assigned
    with pytest.raises(NoSuchObject):
        store.inquire(VAR, "nowhere")


def test_two_rank_scenario_lids_diverge_gids_agree():
    # both ranks define two variables, then open the other's after end-define
    rank0, rank1 = RankStore(0), RankStore(1)
    assert rank0.define(VAR, "temperature", v()) == 0
    assert rank0.define(VAR, "humidity", v()) == 1
    assert rank1.define(VAR, "pressure", v()) == 0
    assert rank1.define(VAR, "wind", v()) == 1

    # global order: rank-major, creation order within rank
    order = add_gids(
        {}, [(VAR, n) for n in ("temperature", "humidity", "pressure", "wind")]
    )
    rank0.finalize_gids(order)
    rank1.finalize_gids(order)

    assert rank0.inquire(VAR, "pressure") == 2
    assert rank1.inquire(VAR, "temperature") == 2
    # same GID behind different LIDs
    assert rank0.gid_of(VAR, 2) == order[(VAR, "pressure")] == 2
    assert rank1.gid_of(VAR, 2) == order[(VAR, "temperature")] == 0
    # every shared name resolves to one GID on both ranks
    for name in ("temperature", "humidity", "pressure", "wind"):
        g0 = rank0.gid_of(VAR, rank0.inquire(VAR, name))
        g1 = rank1.gid_of(VAR, rank1.inquire(VAR, name))
        assert g0 == g1


def test_serialized_bytes_tracks_records():
    store = RankStore(0)
    store.define(DIM, "x", DimPayload(10))
    store.define(VAR, "a", v("x"))
    assert store.serialized_bytes() == sum(len(o[2]) for o in store.objects) > 0


def test_define_record_matches_define():
    by_payload, by_record = RankStore(0), RankStore(0)
    by_payload.define(DIM, "x", DimPayload(10))
    by_payload.define(VAR, "a", v("x"))
    for obj in by_payload.objects:
        record = bytes(bytearray(obj[2]))  # a new object: the store keeps this one
        [named] = make_name_records([[record]])
        lid = by_payload.inquire(KINDS[obj[3][0]], obj[0])
        assert by_record.define_record(named) == lid
        assert by_record.objects[-1][2] is record
        assert by_record.objects[-1] is named
    assert by_record.objects == by_payload.objects


def gathered(kind, name, payload):
    """The check input a rank makes of one gathered record."""
    return make_name_records([[encode_record(kind, name, payload)]])[0]


def test_define_record_redefinition_rules():
    store = RankStore(0)
    first = store.define(VAR, "t", v("x"))
    assert store.define_record(gathered(VAR, "t", v("x"))) == first
    with pytest.raises(LocalNameConflict):
        store.define_record(gathered(VAR, "t", v("y")))
    store.finalize_gids({(VAR, "t"): 0})
    with pytest.raises(AlreadyFinalized):
        store.define_record(gathered(DIM, "x", DimPayload(3)))


def test_gid_of_rejects_lid_out_of_range():
    store = RankStore(0)
    for name in ("a", "b", "c"):
        store.define(VAR, name, v())
    store.finalize_gids(add_gids({}, [(VAR, n) for n in ("a", "b", "c")]))
    assert store.gid_of(VAR, 2) == 2
    for lid in (-1, -3, 3):
        with pytest.raises(NoSuchObject):
            store.gid_of(VAR, lid)
    with pytest.raises(NoSuchObject):
        store.gid_of(DIM, 0)


def test_gid_of_before_end_define_raises_no_such_object():
    store = RankStore(0)
    store.define(VAR, "t", v())
    with pytest.raises(NoSuchObject):
        store.gid_of(VAR, 0)
