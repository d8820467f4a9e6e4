import copy
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

from evenodd import cli, partitions
from evenodd.partitions import (
    _B_MEMO_MAX_REM,
    _B_TAILS,
    _P_OFFSETS,
    FamilySpec,
    _p_least_weights,
    as_partition,
    count_family,
    counts_by_length,
    enumerate_family,
    enumerate_partitions,
    is_member,
    is_member_unchecked,
    member_groups,
)
from evenodd.qseries import product_for_A
from evenodd.recurrences import family_count_via_table, variant_for_min_part
from mutants import drop_b_members, drop_p_members

# every memo of the module: the two listing memos and the count memos
MEMOS = [memo for name, memo in vars(partitions).items() if type(memo) is dict and name[1] != "_"]
COUNT_MEMOS = [memo for memo in MEMOS if memo is not _B_TAILS and memo is not _P_OFFSETS]


def test_as_partition_accepts_canonical():
    assert as_partition([5, 1]) == (5, 1)
    assert as_partition(()) == ()
    assert as_partition((3, 3, 3)) == (3, 3, 3)


@pytest.mark.parametrize("bad", [[1, 2], [0], [3, -1], [2.5], [True]])
def test_as_partition_rejects(bad):
    with pytest.raises(ValueError):
        as_partition(bad)


def test_family_spec_validation():
    FamilySpec("P", 2, 1)
    FamilySpec("B", 1, 7)
    assert FamilySpec(kind="B", i=1, min_part=7) == FamilySpec("B", 1, 7)
    bad = [
        (("Q", 2, 1), "kind must be one of"),
        (("P", 3, 1), "i must be 1 or 2"),
        (("B", 2, 0), "min_part must be a positive integer"),
        (("A", 2, 3), "kind A has no shifted variant"),
        # bool is not an int here, and nothing is coerced
        (("P", True, 1), "i must be 1 or 2"),
        (("P", 2, True), "min_part must be a positive integer"),
        (("P", True, True), "i must be 1 or 2"),
        (("P", 2.0, 1), "i must be 1 or 2"),
        (("P", 2, 3.0), "min_part must be a positive integer"),
        (("P", 2, "3"), "min_part must be a positive integer"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            FamilySpec(*args)


def test_family_spec_round_trip():
    f = FamilySpec("P", 1, 5)
    assert f.to_dict() == {"kind": "P", "i": 1, "min_part": 5}
    assert FamilySpec(**f.to_dict()) == f
    assert FamilySpec("B", 2).to_dict() == {"kind": "B", "i": 2, "min_part": 1}


def test_family_spec_value_semantics():
    f = FamilySpec("P", 2)
    assert repr(f) == "FamilySpec(kind='P', i=2, min_part=1)"
    assert repr(FamilySpec("B", 1, 7)) == "FamilySpec(kind='B', i=1, min_part=7)"
    assert f == FamilySpec("P", 2, 1) and hash(f) == hash(FamilySpec("P", 2, 1))
    assert len({f, FamilySpec("P", 2, 1), FamilySpec(kind="P", i=2)}) == 1
    assert f != FamilySpec("P", 2, 3) and f != FamilySpec("B", 2) and f != FamilySpec("P", 1)
    assert f != ("P", 2, 1) and ("P", 2, 1) != f
    assert f.label() == "P(i=2,min_part=1)"
    for name in ("kind", "i", "min_part", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, 1)
    with pytest.raises(AttributeError):
        del f.i
    assert (f.kind, f.i, f.min_part) == ("P", 2, 1)
    with pytest.raises(TypeError):
        iter(f)
    with pytest.raises(TypeError):
        f < FamilySpec("P", 2, 3)
    assert copy.copy(f) == f and copy.deepcopy(f) == f


@pytest.mark.parametrize(
    "p,f,expect",
    [
        ((3, 3), FamilySpec("P", 2), True),
        ((4, 2), FamilySpec("P", 2), False),  # smallest even 2 < 2*length
        ((4, 2), FamilySpec("B", 2), True),
        ((1, 1, 1, 1, 1, 1), FamilySpec("A", 2), True),
        ((), FamilySpec("A", 1), True),
        ((), FamilySpec("P", 1, 4), True),
        ((), FamilySpec("B", 2, 3), True),
        ((10, 3, 3), FamilySpec("P", 1), True),
        ((3, 3, 3), FamilySpec("P", 2), False),  # odd parts two apart differ by 0
        ((7, 3, 3), FamilySpec("P", 2), True),  # 7-3 = 4, allowed
        ((5, 1), FamilySpec("P", 2), True),
        ((5, 1), FamilySpec("P", 1), False),  # one part equal to 1
        ((5, 3, 1), FamilySpec("P", 2), True),  # 5-1 = 4
        ((5, 1), FamilySpec("B", 2), True),
        ((2, 1), FamilySpec("B", 2), False),  # gap 1
        ((6, 4), FamilySpec("P", 1), True),  # smallest even 4 = 2*2
        ((8, 6), FamilySpec("P", 2), True),  # smallest even 6 >= 2*2
        ((6, 2), FamilySpec("P", 2), False),  # smallest even 2 < 2*2
        ((3, 6, 5), FamilySpec("P", 2), False),  # not non-increasing
        ((1, 4), FamilySpec("A", 2), False),  # not non-increasing
        ((4, 1), FamilySpec("A", 2), True),
        ((3.0, 1), FamilySpec("B", 2), False),  # a float part
        ((5, True), FamilySpec("P", 2), False),  # a bool part
        ((4.0, 1), FamilySpec("A", 2), False),
    ],
)
def test_is_member_base_families(p, f, expect):
    assert is_member(p, f) is expect


def test_is_member_shifted_families():
    # minimum part 3 (odd shift, k=1): every part >= 3, smallest even >= 2(m+1)
    assert is_member((5,), FamilySpec("P", 2, 3)) is True
    assert is_member((5,), FamilySpec("P", 1, 3)) is True
    assert is_member((3,), FamilySpec("P", 1, 3)) is False  # part equal to min
    assert is_member((3,), FamilySpec("P", 2, 3)) is True
    assert is_member((4,), FamilySpec("P", 2, 3)) is True  # even 4 >= 2(1+1)
    assert is_member((4, 3), FamilySpec("P", 2, 3)) is False  # even 4 < 2(2+1)
    # minimum part 2 (even shift, k=1): smallest odd + 1 >= 2(m+1)
    assert is_member((4, 2), FamilySpec("P", 2, 2)) is True
    assert is_member((3, 2), FamilySpec("P", 2, 2)) is False  # odd 3+1 < 2(2+1)
    assert is_member((5, 2), FamilySpec("P", 2, 2)) is True  # 5+1 >= 6
    assert is_member((2,), FamilySpec("P", 1, 2)) is False
    # B shifts
    assert is_member((6, 3), FamilySpec("B", 1, 3)) is False  # part equal to 3
    assert is_member((6, 3), FamilySpec("B", 2, 3)) is True
    assert is_member((6, 4), FamilySpec("B", 2, 4)) is True
    assert is_member((7, 4), FamilySpec("B", 2, 3)) is True
    assert is_member((7, 2), FamilySpec("B", 2, 3)) is False  # part below minimum


def _b_member_reference(p, f):
    # kind B as a per-pair generator: the form is_member's gap clause replaces
    j = f.min_part
    if p and p[-1] < j:
        return False
    return p.count(j) < f.i and all(a - b >= 2 for a, b in zip(p, p[1:]))


@pytest.mark.parametrize("i", (1, 2))
@pytest.mark.parametrize("j", (1, 2, 3, 4))
def test_b_gap_clause_matches_the_pairwise_reference(i, j):
    f = FamilySpec("B", i, j)
    edges = [
        (), (j,), (j, j), (j + 1, j + 1), (9, 9, 4),  # equal adjacent parts
        (j + 1, j), (8, 7, 5), (j + 3, j + 2),  # a gap of exactly 1
        (j + 2, j), (9, 7, 5), (j + 4, j + 2),  # gaps of exactly 2
        (3, 5), (j, j + 2), (2, 9, 7), (8, 3, 6),  # increasing somewhere
    ]
    partitions = (p for n in range(26) for p in enumerate_partitions(n))
    seen = Counter()
    for p in itertools.chain(edges, partitions):
        want = _b_member_reference(p, f)
        assert is_member(p, f) is want, p
        seen[want] += 1
    assert seen[True] and seen[False]


def test_enumerate_partitions_of_six():
    got = list(enumerate_partitions(6))
    assert got == [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (3, 1, 1, 1),
        (2, 2, 2),
        (2, 2, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    ]
    assert len(got) == 11


def test_enumerate_partitions_edges():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(0, fixed_length=1)) == []
    assert list(enumerate_partitions(0, fixed_length=0)) == [()]
    assert list(enumerate_partitions(6, fixed_length=2)) == [(5, 1), (4, 2), (3, 3)]
    assert list(enumerate_partitions(5, min_part=2)) == [(5,), (3, 2)]
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


GOLDEN_SIX = {
    ("P", 2): [(6,), (5, 1), (3, 3)],
    ("B", 2): [(6,), (5, 1), (4, 2)],
    ("A", 2): [(6,), (4, 1, 1), (1, 1, 1, 1, 1, 1)],
    ("P", 1): [(6,), (3, 3)],
    ("B", 1): [(6,), (4, 2)],
    ("A", 1): [(3, 3), (2, 2, 2)],
}


@pytest.mark.parametrize("kind,i", sorted(GOLDEN_SIX))
def test_family_members_of_six(kind, i):
    assert list(enumerate_family(6, FamilySpec(kind, i))) == GOLDEN_SIX[(kind, i)]
    assert count_family(6, FamilySpec(kind, i)) == len(GOLDEN_SIX[(kind, i)])


def test_family_edges():
    for kind in ("A", "B", "P"):
        assert list(enumerate_family(0, FamilySpec(kind, 1))) == [()]
        assert count_family(0, FamilySpec(kind, 2)) == 1
    # (1) has a part equal to 1, forbidden when i=1
    assert list(enumerate_family(1, FamilySpec("P", 1))) == []
    assert list(enumerate_family(1, FamilySpec("B", 1))) == []
    assert list(enumerate_family(5, FamilySpec("P", 2, 3))) == [(5,)]


def test_enumerate_family_matches_filtered_oracle():
    specs = [
        FamilySpec(kind, i, j)
        for kind in ("B", "P")
        for i in (1, 2)
        for j in (1, 2, 3, 4, 5)
    ] + [FamilySpec("A", i) for i in (1, 2)]
    for n in range(0, 22):
        everything = list(enumerate_partitions(n))
        for f in specs:
            ref = [p for p in everything if is_member(p, f)]
            got = list(enumerate_family(n, f))
            assert got == ref, (n, f)


@pytest.mark.parametrize("i", (1, 2))
def test_b_enumerator_matches_filtered_oracle_past_the_memo(i):
    # free-length B subtrees up to weight _B_MEMO_MAX_REM are listed once per
    # process and replayed from a shared memo, so the weights run well past it
    top = 40
    assert _B_MEMO_MAX_REM < top
    for n in range(0, top + 1):
        # int parts, so the unchecked predicate is the membership test
        everything = list(enumerate_partitions(n))
        for j in range(1, 6):
            f = FamilySpec("B", i, j)
            ref = [p for p in everything if is_member_unchecked(p, f)]
            assert list(enumerate_family(n, f)) == ref, (n, f)
            for m in range(0, 9):
                got = list(enumerate_family(n, f, fixed_length=m))
                assert got == [p for p in ref if len(p) == m], (n, f, m)


@pytest.mark.parametrize("i", (1, 2))
def test_p_enumerator_matches_filtered_oracle_past_the_prune(i):
    # the P enumerator merges class lists, those up to weight
    # _B_MEMO_MAX_REM shared across calls, so the weights run past that cap
    for n in range(0, 41):
        # int parts, so the unchecked predicate is the membership test
        everything = list(enumerate_partitions(n))
        for j in range(1, 7):
            f = FamilySpec("P", i, j)
            ref = [p for p in everything if is_member_unchecked(p, f)]
            assert list(enumerate_family(n, f)) == ref, (n, f)
            for m in range(0, 10):
                got = list(enumerate_family(n, f, fixed_length=m))
                assert got == [p for p in ref if len(p) == m], (n, f, m)


def test_memos_hold_only_light_tuple_lists():
    # without the weight cap, one free-length P enumeration at n = 100 keeps
    # megabytes of sub-lists for the rest of the process
    for kind in ("P", "B"):
        f = FamilySpec(kind, 2)
        list(enumerate_family(100, f))
        for _, tails in member_groups(100, f):
            assert type(tails) is tuple
        counts_by_length(100, f)
        assert count_family(100, f, 5) and count_family(100, f)
    for memo in (_B_TAILS, _P_OFFSETS):
        assert memo
        for key, members in memo.items():
            # the first key field is the weight of every listed tail, and
            # the sum U of every listed P class offset tuple
            assert key[0] <= _B_MEMO_MAX_REM, key
            assert type(members) is tuple, key
            assert all(type(t) is tuple and sum(t) == key[0] for t in members), key
    # the counts keep numbers only, whatever the weight
    assert len(COUNT_MEMOS) == 2
    for memo in COUNT_MEMOS:
        assert memo
        for key, value in memo.items():
            assert type(key) is tuple and all(type(x) is int for x in key), key
            if type(value) is tuple:
                assert all(type(c) is int for c in value), key
            else:
                assert type(value) is int, key
    # and the B table, a list of rows, ints only
    assert partitions._B_ROWS
    assert all(type(row) is list and all(type(c) is int for c in row) for row in partitions._B_ROWS)


@pytest.mark.parametrize("kind", ("P", "B"))
def test_enumeration_does_not_depend_on_the_memos(kind):
    # the memos outlive each call, so a result must be the same whether
    # heavier calls filled them first or they start empty
    specs = [FamilySpec(kind, i, j) for i in (1, 2) for j in range(1, 5)]
    for f in specs:
        list(enumerate_family(60, f))
        counts_by_length(60, f)
        count_family(100, f, 4)
    calls = [(n, f, m) for f in specs for n in range(31) for m in (None, *range(n + 1))]
    warm = [(list(enumerate_family(*call)), count_family(*call)) for call in calls]
    columns = [counts_by_length(n, f) for f in specs for n in range(31)]
    for call, (members, count) in zip(calls, warm):
        for memo in MEMOS:
            memo.clear()
        assert list(enumerate_family(*call)) == members, call
        for memo in MEMOS:
            memo.clear()
        assert count_family(*call) == count, call
    for call, column in zip([(n, f) for f in specs for n in range(31)], columns):
        for memo in MEMOS:
            memo.clear()
        assert counts_by_length(*call) == column, call


def _least_gap_class_offset(i, g):
    # brute force over g gap-class parts x_t = j + 2*y_t (the parity of j,
    # parts >= j): y_1 >= ... >= y_g >= 0, two-apart gap y_t - y_{t+2} >= 2
    # (x gap >= 4) and at most i-1 parts equal to j (y = 0); returns the
    # least sum of the y's, trying every partition of s into at most g parts
    for s in itertools.count():
        for ys in enumerate_partitions(s):
            if len(ys) > g:
                continue
            ys = ys + (0,) * (g - len(ys))
            if ys.count(0) <= i - 1 and all(ys[t] - ys[t + 2] >= 2 for t in range(g - 2)):
                return s


@pytest.mark.parametrize("i", (1, 2))
def test_p_least_weights_are_the_gap_class_minimum(i):
    for g in range(0, 9):
        s = _least_gap_class_offset(i, g)
        for j in range(1, 8):
            # lengths l <= m-1 of an m-part member use the plain gap-class chain
            assert _p_least_weights(i, j, 9)[g] == g * j + 2 * s, (i, j, g)


def test_enumerate_family_fixed_length_consistent():
    for n in range(0, 18):
        for f in (FamilySpec("P", 1), FamilySpec("P", 2, 2), FamilySpec("B", 2)):
            whole = list(enumerate_family(n, f))
            for m in range(0, n + 1):
                got = list(enumerate_family(n, f, fixed_length=m))
                assert got == [p for p in whole if len(p) == m]


def test_count_family_refined():
    assert count_family(6, FamilySpec("P", 2), fixed_length=2) == 2
    assert count_family(6, FamilySpec("B", 2), fixed_length=2) == 2
    assert count_family(6, FamilySpec("A", 2), fixed_length=2) == 0


def test_counts_by_length_matches_count_family():
    # the counts read the enumerator's sub-lists (P class-list pairs, B
    # prefix groups) without building a member, so each is checked against
    # the members listed, split by length
    specs = [
        FamilySpec(kind, i, j) for kind in ("P", "B") for i in (1, 2) for j in range(1, 8)
    ] + [FamilySpec("A", 1), FamilySpec("A", 2)]
    for n in range(0, 41):
        for f in specs:
            listed = Counter(map(len, enumerate_family(n, f)))
            # items, not ==, which would pass a length stored with count 0
            assert sorted(counts_by_length(n, f).items()) == sorted(listed.items()), (f, n)
            assert count_family(n, f) == listed.total(), (f, n)
            for m in range(0, n + 2):
                assert count_family(n, f, fixed_length=m) == listed[m], (f, n, m)


@pytest.mark.parametrize("i", (1, 2))
def test_a_counts_by_length_sum_to_the_product_at_the_oracle_cap(i):
    # the A length table against the kind-A product, a source it never
    # reads, at the largest weight the enumeration row counts
    n = cli.MAX_ORACLE_N
    by_length = counts_by_length(n, FamilySpec("A", i))
    assert by_length.total() == product_for_A(i, n)[n]
    assert [count_family(n, FamilySpec("A", i), m) for m in (10, n + 1)] == [by_length[10], 0]


def test_a_counts_refuse_a_table_past_the_memo_bound():
    f = FamilySpec("A", 2)
    assert count_family(2001, f, 3) == 40200  # a few rows: far past the cap
    with pytest.raises(ValueError, match="_COUNT_MEMO_MAX"):
        count_family(10**6, f, 5)
    with pytest.raises(ValueError, match="_COUNT_MEMO_MAX"):
        counts_by_length(600, f)


@pytest.mark.parametrize("i", (1, 2))
def test_b_fixed_lengths_are_the_free_length_members_of_that_length(i):
    # a fixed B length is listed and counted as offsets from the staircase
    # lo+2(m-1), ..., lo, not by the free-length tree; past weight 40, where
    # both are checked against the filtered oracle, the tree is the reference
    for n in range(41, 61):
        for j in range(1, 8):
            f = FamilySpec("B", i, j)
            by_length = {}
            for p in enumerate_family(n, f):
                by_length.setdefault(len(p), []).append(p)
            for m in range(0, n + 2):
                got = list(enumerate_family(n, f, fixed_length=m))
                assert got == by_length.get(m, []), (n, f, m)
                assert count_family(n, f, fixed_length=m) == len(got), (n, f, m)


def _tally(groups, histograms):
    # the length histogram of the members in groups, with the histogram of
    # each distinct tails list kept in histograms (by id, beside the list)
    lengths = Counter()
    for prefix, tails in groups:
        if id(tails) not in histograms:
            histograms[id(tails)] = tails, Counter(map(len, tails))
        for length, c in histograms[id(tails)][1].items():
            lengths[len(prefix) + length] += c
    return lengths


@pytest.mark.parametrize("i", (1, 2))
def test_b_counts_are_the_tree_listing_tallied(i):
    # the B counts read a table of partitions into at most m parts, and the
    # free-length listing is the tree of _b_parts: two algorithms, compared
    # past weight 60, where the filtered oracle stops
    histograms = {}
    for n in range(61, 81):
        for j in range(1, 8):
            f = FamilySpec("B", i, j)
            listed = _tally(member_groups(n, f), histograms)
            assert sorted(counts_by_length(n, f).items()) == sorted(listed.items()), (n, f)
            assert count_family(n, f) == listed.total(), (n, f)
            for m in range(max(listed) + 2):
                assert count_family(n, f, fixed_length=m) == listed[m], (n, f, m)


@pytest.mark.parametrize("i", (1, 2))
def test_b_counts_equal_the_table_totals_at_300(i):
    # the staircase counts against the System1/2/3 recursion, which reads
    # neither the definition nor partitions into at most m parts
    for j in (1, 2, 3):
        t = variant_for_min_part(j)
        assert count_family(300, FamilySpec("B", i, j)) == family_count_via_table(t, i, 300), j


def test_b_fixed_length_list_streams():
    # an offset list too heavy to keep is read as it is made: the first of
    # the 344,534 six-part members of weight 150 comes before the rest are built
    tracemalloc.start()
    try:
        first = next(member_groups(150, FamilySpec("B", 2), 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((125, 9, 7, 5, 3, 1), ((),))
    assert peak < 1 << 20, peak


def test_counts_build_no_member(monkeypatch):
    # P and B are counted by recursions over the listing's branching rules,
    # so they still count with the member-building listings made to raise,
    # and they leave the listing memos empty
    specs = [FamilySpec(kind, i, j) for kind in ("P", "B") for i in (1, 2) for j in (1, 2, 3)]
    calls = [(n, f, m) for f in specs for n in (0, 7, 30) for m in (None, 0, 3, 5)]
    want = [count_family(*call) for call in calls]
    columns = [counts_by_length(n, f) for f in specs for n in (0, 7, 30)]

    def raising(*args):
        raise AssertionError("a member was built to be counted")

    monkeypatch.setattr(partitions, "_p_members_fixed", raising)
    monkeypatch.setattr(partitions, "_enumerate_B", raising)
    monkeypatch.setattr(partitions, "_b_groups", raising)
    _B_TAILS.clear()
    _P_OFFSETS.clear()
    assert [count_family(*call) for call in calls] == want
    assert [counts_by_length(n, f) for f in specs for n in (0, 7, 30)] == columns
    assert not _B_TAILS and not _P_OFFSETS


def _count_states():
    # the states the count memos hold, each cell of the B table one state
    return sum(map(len, COUNT_MEMOS)) + sum(map(len, partitions._B_ROWS))


def test_count_memos_stay_within_their_bound(monkeypatch):
    # a top-level count that leaves more states than the bound clears every
    # count memo; the counts are the same with and without the clearing
    specs = [FamilySpec(kind, i, j) for kind in ("P", "B") for i in (1, 2) for j in (1, 3)]
    calls = [(n, f, m) for f in specs for n in (0, 25, 50, 75) for m in (None, 2, 5)]
    want = [count_family(*call) for call in calls]
    columns = [((n, f), counts_by_length(n, f)) for f in specs for n in (25, 75)]
    for memo in MEMOS:
        memo.clear()
    partitions._B_ROWS.clear()
    monkeypatch.setattr(partitions, "_COUNT_MEMO_MAX", 300)
    sizes = []
    for call, count in zip(calls, want):
        assert count_family(*call) == count, call
        sizes.append(_count_states())
    for call, column in columns:
        assert counts_by_length(*call) == column, call
        sizes.append(_count_states())
    assert max(sizes) <= 300
    # the bound was passed, and cleared, more than once
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 1


def test_p_class_states_are_shared_across_lengths_and_minimum_parts():
    # a class state is keyed by its offsets from the least part, so a
    # bound-class state (g = d = 0) serves every length and minimum part
    # and a gap-class state every minimum part
    for memo in MEMOS:
        memo.clear()
    for n in range(121):
        counts_by_length(n, FamilySpec("P", 2))
    assert len(partitions._P_SIZES) <= 8100
    for i in (1, 2):
        for memo in MEMOS:
            memo.clear()
        for n in range(61):
            counts_by_length(n, FamilySpec("P", i, 1))
        bound_class = {key for key in partitions._P_SIZES if key[4:] == (0, 0)}
        assert bound_class
        for n in range(61):
            counts_by_length(n, FamilySpec("P", i, 3))
        assert {key for key in partitions._P_SIZES if key[4:] == (0, 0)} == bound_class, i


@pytest.mark.parametrize("kind", ("P", "B"))
def test_counts_equal_the_tables_past_the_listing(kind):
    # the recursions count far past the weights the listings are checked
    # at; the recursion tables (System1/2/3) are a source they never read
    for i in (1, 2):
        for j in range(1, 6):
            f, t = FamilySpec(kind, i, j), variant_for_min_part(j)
            for n in range(101):
                row = t.row(i, n)
                assert count_family(n, f) == family_count_via_table(t, i, n), (f, n)
                assert counts_by_length(n, f) == Counter({m: c for m, c in enumerate(row) if c}), (f, n)
                for m in range(len(row)):
                    if t.stores(m, n):
                        assert count_family(n, f, m) == row[m], (f, n, m)


# members dropped by each mutant, each a member at one or more indices and
# minimum parts; the P ones include members of each class shape: gap-class
# parts alone (3,3), bound-class parts alone (6,) and one of each (8,5,5)
DROPS = {
    "P": (drop_p_members, {(3, 3), (9, 7, 5, 3), (6,), (11, 5), (8, 5, 5)}),
    "B": (drop_b_members, {(4, 2), (9, 7, 5, 3), (5, 1), (12, 9, 3)}),
}


@pytest.mark.parametrize("kind", sorted(DROPS))
def test_counts_and_listing_see_the_same_drop(monkeypatch, kind):
    drop, members = DROPS[kind]
    specs = [FamilySpec(kind, i, j) for i in (1, 2) for j in range(1, 5)]
    weights = sorted({sum(p) for p in members})
    before = {(n, f): list(enumerate_family(n, f)) for n in weights for f in specs}
    assert all(any(p in whole for whole in before.values()) for p in members)
    drop(monkeypatch, members)
    for (n, f), whole in before.items():
        listed = list(enumerate_family(n, f))
        assert listed == [p for p in whole if p not in members], (n, f)
        assert counts_by_length(n, f) == Counter(map(len, listed)), (n, f)
        for m in range(n + 2):
            assert count_family(n, f, m) == sum(len(p) == m for p in listed), (n, f, m)


@pytest.mark.parametrize("kind", ("A", "B", "P"))
def test_negative_bounds_are_refused(kind):
    f = FamilySpec(kind, 2)
    for call in (
        lambda: list(enumerate_family(5, f, -1)),
        lambda: member_groups(5, f, -1),
        lambda: count_family(5, f, -1),
    ):
        with pytest.raises(ValueError, match="^fixed_length must be >= 0$"):
            call()
    for call in (
        lambda: list(enumerate_family(-1, f)),
        lambda: member_groups(-1, f),
        lambda: count_family(-1, f),
        lambda: counts_by_length(-1, f),
    ):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            call()


def test_i_monotonicity():
    # at most 0 parts equal to min implies at most 1, so i=1 members embed in i=2
    for n in range(0, 20):
        for kind in ("A", "B", "P"):
            for j in (1,) if kind == "A" else (1, 2, 3):
                lo = count_family(n, FamilySpec(kind, 1, j))
                hi = count_family(n, FamilySpec(kind, 2, j))
                assert lo <= hi


def test_main_identity_small():
    for n in range(0, 31):
        for i in (1, 2):
            assert count_family(n, FamilySpec("P", i)) == count_family(n, FamilySpec("B", i))


def test_b_enumerator_streams_large_n():
    stream = enumerate_family(300, FamilySpec("B", 2))
    head = list(itertools.islice(stream, 25))
    assert head[0] == (300,)
    assert head[1] == (299, 1)
    assert all(is_member(p, FamilySpec("B", 2)) for p in head)


@pytest.mark.parametrize("i", (1, 2))
def test_members_below_the_oracle_cap_have_few_parts(i):
    # listings and traces nest about one generator per part, so below the
    # cap no recursion nears Python's limit: a member of weight n has at
    # most isqrt(2n) parts (the lengths are read without counting)
    n = cli.MAX_ORACLE_N
    longest_p = max(partitions._p_lengths(n, i, 1))
    longest_b = len(partitions._b_lengths(n, i, 1)) - 1
    assert max(longest_p, longest_b) <= math.isqrt(2 * n) < sys.getrecursionlimit() // 10


def test_b_counts_of_two_parts_build_no_table_and_wide_ones_are_refused():
    # in a fresh process: at most two parts is a closed form, and a count
    # that would add more than _COUNT_MEMO_MAX cells to the table is refused
    # before it builds any
    script = "\n".join([
        "import time",
        "from evenodd import partitions",
        "from evenodd.partitions import FamilySpec, count_family",
        "f = FamilySpec('B', 2)",
        "assert [count_family(10**6, f, m) for m in (0, 1, 2)] == [0, 1, 499999]",
        "assert partitions._B_ROWS == []",
        "start = time.perf_counter()",
        "try:",
        "    count_family(10**6, f, 5)",
        "except ValueError as e:",
        "    assert '_COUNT_MEMO_MAX' in str(e), e",
        "else:",
        "    raise AssertionError('no ValueError')",
        "assert time.perf_counter() - start < 0.2",
        "assert sum(map(len, partitions._B_ROWS)) == 0",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    subprocess.run([sys.executable, "-c", script], env=env, timeout=60, check=True)
