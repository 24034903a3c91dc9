"""Conflict detectors: counters, detector equivalence, and the cost models."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahead.classic import AttributeDef, TypeTag
from parahead.consistency import (
    CheckReport,
    _resolve_groups,
    compare_shared,
    hash_check,
    hash_slot,
    model_hash_cost,
    model_newformat_cost,
    name_record,
    sort_check,
)
from parahead.records import (
    AttPayload,
    DimPayload,
    ObjectKind,
    VarPayload,
    encode_record,
)

from conftest import tracked_growth


def rec(name: str, rank: int, payload=None) -> tuple:
    payload = payload if payload is not None else DimPayload(1)
    raw = encode_record(
        ObjectKind.DIMENSION if isinstance(payload, DimPayload) else ObjectKind.VARIABLE,
        name,
        payload,
    )
    return name_record(name, rank, raw)


def test_single_slot_arithmetic_series():
    records = [rec(f"name{i}", 0) for i in range(6)]
    report = hash_check(records, 1)
    assert report.string_comparisons == 15  # 0+1+2+3+4+5
    assert report.conflicts == ()
    assert report.shared_sets == ()


def test_shared_objects_grouped():
    records = [rec("t", 0, DimPayload(5)), rec("p", 1, DimPayload(2)), rec("t", 1, DimPayload(5))]
    report = hash_check(records, 8)
    assert report.conflicts == ()
    assert len(report.shared_sets) == 1
    group = report.shared_sets[0]
    assert {r[1] for r in group} == {0, 1}
    assert group[0][0] == "t"


def test_conflicting_payloads_reported():
    records = [rec("t", 0, DimPayload(5)), rec("t", 1, DimPayload(6))]
    for report in (hash_check(records, 8), sort_check(records)):
        assert len(report.conflicts) == 1
        assert report.conflicts[0].full_name == "t"
        assert report.conflicts[0].ranks == (0, 1)
        assert report.shared_sets == ()
        assert report.payload_comparisons == 1


def test_same_name_different_kind_is_not_a_conflict():
    # a coordinate variable legally shares its dimension's name
    records = [
        rec("x", 0, DimPayload(5)),
        rec("x", 0, VarPayload(TypeTag.FLOAT, ("x",))),
    ]
    for report in (hash_check(records, 4), sort_check(records)):
        assert report.conflicts == ()
        assert report.shared_sets == ()


def test_sort_adjacent_duplicates():
    records = [rec("a", 0), rec("a", 1), rec("b", 2)]
    report = sort_check(records)
    assert len(report.shared_sets) == 1
    assert report.shared_sets[0][0][0] == "a"
    assert report.conflicts == ()


def test_empty_input():
    for report in (hash_check([], 4), sort_check([])):
        assert report.shared_sets == ()
        assert report.conflicts == ()
        assert report.string_comparisons == 0
        assert report.payload_comparisons == 0


def test_sort_comparison_bound(rng):
    import math

    n = 4096
    names = {f"{rng.getrandbits(48):012x}" for _ in range(n)}
    records = [rec(name, 0) for name in sorted(names)]
    rng.shuffle(records)
    report = sort_check(records)
    assert report.string_comparisons <= 2 * len(records) * math.ceil(math.log2(len(records)))


def test_hash_counter_deterministic_given_order(rng):
    records = [rec(f"{rng.getrandbits(40):010x}", i % 4) for i in range(2000)]
    a = hash_check(records, 64)
    b = hash_check(list(records), 64)
    assert a.string_comparisons == b.string_comparisons
    assert a.payload_comparisons == b.payload_comparisons


def test_hash_chains_keep_no_container_per_slot():
    # 5,000 unique names over 65,536 slots hit about as many slots: halfway
    # through, a container per hit slot would be thousands more tracked objects
    records = [rec(f"v{i:05d}", i % 4) for i in range(5000)]
    reports = []
    grown = tracked_growth(lambda it: reports.append(hash_check(it, 1 << 16)), records, 2500)
    assert grown < 50
    assert reports[0].shared_sets == () and reports[0].string_comparisons < 500


def test_sort_counter_deterministic_given_multiset(rng):
    records = [rec(f"{rng.getrandbits(40):010x}", i % 4) for i in range(1000)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert sort_check(records).string_comparisons == sort_check(shuffled).string_comparisons


def brute_force_groups(records):
    """Direct duplicate grouping: the oracle both detectors must match."""
    by_key: dict = {}
    for r in records:
        by_key.setdefault((r[2][0], r[0]), []).append(r)
    shared, conflicts = set(), set()
    for (_, name), group in by_key.items():
        if len(group) < 2:
            continue
        if all(g[2] == group[0][2] for g in group[1:]):
            shared.add((name, tuple(sorted(r[1] for r in group))))
        else:
            conflicts.add((name, tuple(sorted({r[1] for r in group}))))
    return shared, conflicts


def as_sets(report):
    shared = {
        (g[0][0], tuple(sorted(r[1] for r in g)))
        for g in report.shared_sets
    }
    conflicts = {(c.full_name, c.ranks) for c in report.conflicts}
    return shared, conflicts


def test_detectors_match_brute_force_exhaustively():
    # all multisets of <= 5 records over 3 names x 2 payload variants
    variants = [
        (name, payload)
        for name in "abc"
        for payload in (DimPayload(1), DimPayload(2))
    ]
    checked = 0
    for size in range(6):
        for combo in itertools.combinations_with_replacement(range(len(variants)), size):
            records = [
                rec(variants[i][0], rank, variants[i][1])
                for rank, i in enumerate(combo)
            ]
            expected = brute_force_groups(records)
            for k in (1, 2, 7):
                assert as_sets(hash_check(records, k)) == expected
            assert as_sets(sort_check(records)) == expected
            checked += 1
    assert checked == 462


def dense_hash_check(records, k: int) -> CheckReport:
    """Reference detector: the same chained table with all k slots made up front."""
    table = [[] for _ in range(k)]
    groups: list = []
    group_keys: list = []
    string_comparisons = 0
    for r in records:
        chain = table[hash_slot(r[3], k)]
        for gi in chain:
            string_comparisons += 1
            if group_keys[gi] == r[3]:
                groups[gi].append(r)
                break
        else:
            chain.append(len(groups))
            group_keys.append(r[3])
            groups.append([r])
    shared, conflicts, payload_comparisons = _resolve_groups(groups)
    return CheckReport(shared, conflicts, string_comparisons, payload_comparisons)


record_lists = st.lists(
    st.builds(
        rec,
        st.text("abcde", min_size=1, max_size=3),
        st.integers(0, 3),
        st.builds(DimPayload, st.integers(1, 2)),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(records=record_lists, k=st.integers(1, 16))
def test_sparse_table_matches_dense_reference(records, k):
    assert hash_check(records, k) == dense_hash_check(records, k)


def test_sparse_table_matches_dense_reference_at_1g_table_size():
    k = 1_048_576
    rand = random.Random(11)
    records = [
        rec(f"v{rand.randrange(400)}", rand.randrange(4), DimPayload(rand.randint(1, 2)))
        for _ in range(1000)
    ]
    assert hash_check(records, k) == dense_hash_check(records, k)


def test_hash_cost_model_tracks_measured(rng):
    n, k = 20_000, 1024
    names = [f"{rng.getrandbits(64):016x}" for _ in range(n)]
    assert len(set(names)) == n
    report = hash_check([rec(name, 0) for name in names], k)
    expected = model_hash_cost(n, k)
    assert abs(report.string_comparisons - expected) / expected < 0.25


def test_slot_dispersion_on_generated_names():
    # chi-square over slot loads, for both random and generator-style names
    k = 256
    rand = random.Random(5)
    schemes = {
        "random": [f"{rand.getrandbits(60):015x}" for _ in range(8192)],
        "blocked": [f"b{r:05d}/v{i:06d}" for r in range(8) for i in range(1024)],
        "flat": [f"v{r:05d}_{i:06d}" for r in range(8) for i in range(1024)],
    }
    for label, names in schemes.items():
        loads = [0] * k
        for name in names:
            loads[hash_slot(b"\x01" + name.encode(), k)] += 1
        n = len(names)
        expected = n / k
        chi2 = sum((c - expected) ** 2 / expected for c in loads)
        # df = 255: mean 255, sd ~22.6; allow a generous +-5 sd band
        assert 140 < chi2 < 370, f"{label}: chi2={chi2:.1f}"


# --- compare_shared -----------------------------------------------------------


def test_compare_equal_payloads():
    a = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.INT, ("x",)))
    b = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.INT, ("x",)))
    assert compare_shared(a, b) is None


def test_compare_type_mismatch():
    a = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.INT, ("x",)))
    b = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.DOUBLE, ("x",)))
    mismatch = compare_shared(a, b)
    assert mismatch is not None and mismatch.field == "type_tag"
    assert mismatch.left is TypeTag.INT and mismatch.right is TypeTag.DOUBLE


def test_compare_dim_mismatch():
    a = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.INT, ("x", "y")))
    b = encode_record(ObjectKind.VARIABLE, "v", VarPayload(TypeTag.INT, ("y", "x")))
    mismatch = compare_shared(a, b)
    assert mismatch is not None and mismatch.field == "dim_names"


def test_compare_serialization_deterministic():
    payload = VarPayload(TypeTag.SHORT, ("a", "b"))
    a = encode_record(ObjectKind.VARIABLE, "w", payload)
    b = encode_record(ObjectKind.VARIABLE, "w", payload)
    assert a == b and compare_shared(a, b) is None


def test_compare_names_the_field_of_a_signed_zero():
    # 0.0 == -0.0 in Python, but the records differ: the field is named
    for kind, name, payloads, field in (
        (ObjectKind.ATTRIBUTE, "b/x", [AttPayload(TypeTag.DOUBLE, (v,)) for v in (0.0, -0.0)],
         "values"),
        (ObjectKind.VARIABLE, "b/v",
         [VarPayload(TypeTag.INT, (), (AttributeDef("u", TypeTag.FLOAT, (v,)),))
          for v in (0.0, -0.0)], "attributes"),
    ):
        a, b = (encode_record(kind, name, p) for p in payloads)
        mismatch = compare_shared(a, b)
        assert mismatch is not None and mismatch.field == field
        [conflict] = hash_check([name_record(name, 0, a), name_record(name, 1, b)], 8).conflicts
        assert conflict.mismatch == mismatch and "full_name" not in str(conflict)


def test_compare_kind_mismatch():
    a = encode_record(ObjectKind.DIMENSION, "x", DimPayload(4))
    b = encode_record(ObjectKind.VARIABLE, "x", VarPayload(TypeTag.INT, ()))
    mismatch = compare_shared(a, b)
    assert mismatch is not None and mismatch.field == "kind"


# --- cost models ---------------------------------------------------------------


def test_hash_model_values():
    assert model_hash_cost(0, 16) == 0.0
    # n = 568,480 and k = 16,384: about 9.862 million comparisons
    value = model_hash_cost(568_480, 16_384)
    assert abs(value - 9.862e6) / 9.862e6 < 1e-3
    # n = 2k is a fixed point: n * n/(2k) = n
    assert model_hash_cost(32, 16) == 32.0


def test_newformat_model_values():
    # single process collapses to the one-table model plus the index term
    n, k = 4096, 64
    assert model_newformat_cost(n, 1, k) == pytest.approx(model_hash_cost(n, k) + 1 / (2 * k))
    # direct evaluation: (n/p) * n/(2kp) + p * p/(2k)
    assert model_newformat_cost(1024, 4, 16) == pytest.approx(
        256 * (1024 / 128) + 4 * (4 / 32)
    )
    assert model_newformat_cost(1024, 4, 16) == pytest.approx(2048.5)


def test_newformat_model_quarters_per_doubling():
    n, k = 1_000_000, 4096
    for p in (2, 4, 8, 16):
        first_term = lambda q: (n / q) * (n / (2 * k * q))
        ratio = first_term(p) / first_term(2 * p)
        assert ratio == pytest.approx(4.0)


def test_model_input_validation():
    with pytest.raises(ValueError):
        model_hash_cost(10, 0)
    with pytest.raises(ValueError):
        model_newformat_cost(10, 0, 4)
    with pytest.raises(ValueError):
        hash_check([], 0)
