import hashlib
import json

import pytest

from evenodd import partitions
from evenodd.cli import main
from evenodd.partitions import FamilySpec, count_family
from evenodd.qseries import product_for_A
from evenodd.recurrences import (
    VerificationReport,
    compare_table_oracle,
    family_count_via_table,
    refined_AB_witness,
    shift_identity_check,
    variant_for_min_part,
    verify_family,
    verify_product,
    verify_system,
)
from mutants import drop_b_members, drop_p_members
from reports import report_json


def test_base_cells():
    t = variant_for_min_part(1)
    assert t.value(2, 0, 0) == 1
    assert t.value(1, 0, 0) == 1
    assert t.value(1, -1, 5) == 0
    assert t.value(2, 3, -1) == 0
    assert t.value(1, 0, 4) == 0
    assert t.value(2, 9, 4) == 0  # more parts than weight


def test_known_cells():
    t = variant_for_min_part(1)
    assert t.value(2, 2, 6) == 2  # (5,1) and (3,3)
    assert t.value(1, 1, 2) == 1  # (2)
    assert t.value(1, 2, 6) == 1  # (3,3)


def _dense_table(offset, max_n):
    """Reference fill of the same recurrence over every cell with m <= n."""
    cells = {}

    def get(i, m, n):
        if m == 0 and n == 0:
            return 1
        if m <= 0 or n <= 0 or m > n:
            return 0
        return cells[(i, m, n)]

    a = offset
    for n in range(max_n + 1):
        for m in range(1, n + 1):
            v1 = get(1, m - 1, n - 2 * m - a) + get(2, m, n - 2 * m)
            cells[(1, m, n)] = v1
            cells[(2, m, n)] = v1 + get(2, m - 1, n - 2 * m - a + 1)
    return get


# minimum parts 1..7 select System1, System2(k) and System3(k) for k = 1, 2, 3
@pytest.mark.parametrize("min_part", range(1, 8))
def test_bounded_rows_match_dense_fill(min_part):
    max_n = 250
    whole = variant_for_min_part(min_part)
    dense = _dense_table(whole.offset, max_n)
    cells = [(i, m, n) for n in range(max_n + 1) for m in range(n + 1) for i in (1, 2)]
    whole.value(1, 1, max_n)  # one fill to max_n
    stepped = variant_for_min_part(min_part)
    for upto in (50, 120, 250):
        stepped.value(1, 1, upto)  # incremental fills
    for t in (whole, stepped):
        assert [t.value(*c) for c in cells] == [dense(*c) for c in cells], t.variant


def test_structural_zeros_do_not_fill(monkeypatch):
    t = variant_for_min_part(1)

    def no_fill(upto):
        raise AssertionError("filled to %d" % upto)

    monkeypatch.setattr(t, "_fill", no_fill)
    assert t.value(1, 0, 10**9) == 0
    assert t.value(2, 10**5, 10**9) == 0
    assert t.value(2, 5, 24) == 0  # 5^2 > 24: past the bound


@pytest.mark.parametrize("min_part", range(1, 8))
def test_family_count_sums_the_row(min_part):
    t = variant_for_min_part(min_part)
    for i in (1, 2):
        for n in range(301):
            assert family_count_via_table(t, i, n) == sum(
                t.value(i, m, n) for m in range(n + 1)
            ), (t.variant, i, n)


def test_invalid_index():
    with pytest.raises(ValueError):
        variant_for_min_part(1).value(3, 1, 1)


def test_invalid_index_at_a_structural_zero():
    # checked before the structural zeros, which answer without a fill
    with pytest.raises(ValueError):
        variant_for_min_part(1).value(3, 0, 0)


def test_family_count_via_table():
    t = variant_for_min_part(1)
    assert family_count_via_table(t, 2, 6) == 3
    assert family_count_via_table(t, 1, 6) == 2
    assert family_count_via_table(t, 1, 0) == 1
    assert family_count_via_table(t, 2, 0) == 1
    with pytest.raises(ValueError):
        family_count_via_table(t, 2, -1)


def test_table_matches_oracle_counts():
    t = variant_for_min_part(1)
    for n in range(0, 21):
        for m in range(0, n + 1):
            for i in (1, 2):
                want = count_family(n, FamilySpec("P", i), fixed_length=m)
                assert t.value(i, m, n) == want, (i, m, n)


def test_i_monotonicity_cellwise():
    for t in map(variant_for_min_part, (1, 3, 4)):
        for n in range(0, 25):
            for m in range(0, n + 1):
                assert t.value(2, m, n) >= t.value(1, m, n)


def test_determinism_of_fill():
    a, b = variant_for_min_part(1), variant_for_min_part(1)
    cells = [(i, m, n) for n in range(0, 20) for m in range(0, n + 1) for i in (1, 2)]
    assert [a.value(*c) for c in cells] == [b.value(*c) for c in cells]


@pytest.mark.parametrize("kind", ["P", "B"])
@pytest.mark.parametrize("i", [1, 2])
def test_verify_system1_clean(kind, i):
    report = verify_system(FamilySpec(kind, i), 25)
    assert report.ok
    assert report.violations == []


def test_verify_system1_rejects_A():
    report = verify_system(FamilySpec("A", 2), 10)
    assert not report.ok
    first = report.violations[0]
    assert set(first) == {"i", "m", "n", "expected", "actual"}
    assert (first["m"], first["n"]) == (1, 2)


# minimum part j: the table's name and its offset a = j - 1
VARIANTS = [
    (1, "System1", 0),
    (2, "System3(k=1)", 1),
    (3, "System2(k=1)", 2),
    (4, "System3(k=2)", 3),
    (5, "System2(k=2)", 4),
    (6, "System3(k=3)", 5),
    (7, "System2(k=3)", 6),
    (8, "System3(k=4)", 7),
]


@pytest.mark.parametrize("min_part,variant,offset", VARIANTS)
def test_variant_for_min_part(min_part, variant, offset):
    t = variant_for_min_part(min_part)
    assert (t.variant, t.offset) == (variant, offset)


@pytest.mark.parametrize("min_part", [0, -1, True, 2.0])
def test_variant_for_min_part_refuses_a_non_positive_or_non_int(min_part):
    with pytest.raises(ValueError):
        variant_for_min_part(min_part)


@pytest.mark.parametrize("kind", ["P", "B"])
@pytest.mark.parametrize("k", [1, 2])
def test_shifted_systems_clean(kind, k):
    r = verify_system(FamilySpec(kind, 2, 2 * k + 1), 20)
    assert r.ok, r.violations[:3]
    r = verify_system(FamilySpec(kind, 2, 2 * k), 20)
    assert r.ok, r.violations[:3]


def test_compare_table_oracle_clean():
    assert compare_table_oracle(FamilySpec("P", 2), 20).ok
    assert compare_table_oracle(FamilySpec("B", 1), 20).ok
    assert compare_table_oracle(FamilySpec("P", 2, 2), 16).ok


def test_table_consistency_across_variants():
    base, odd, even = map(variant_for_min_part, (1, 3, 2))
    for n in range(0, 22):
        for m in range(0, n + 1):
            for i in (1, 2):
                assert odd.value(i, m, n) == base.value(i, m, n - 2 * m)
                assert even.value(i, m, n) == odd.value(i, m, n + m)


def test_shift_identity_check_clean():
    r = shift_identity_check(1, 2, 20)
    assert r.ok
    r = shift_identity_check(2, 1, 16)
    assert r.ok
    with pytest.raises(ValueError):
        shift_identity_check(0, 2, 5)


# (listing, dropped member, its minimum part, the one violation expected
# from shift_identity_check(1, 2, 20)): the member is dropped at that
# minimum part from the seam that both the listing and the counts read.
# The first member of each kind sits at an odd-shift cell above max_n,
# read by the even-shift equation at (m=4, n=20); the second at a base
# cell, read by the odd-shift equation at (m=2, n=6+4)
DROPPED = [
    ("_p_members_fixed", (9, 7, 5, 3), 3, {"i": 2, "m": 4, "n": 20, "expected": 0, "actual": 1}),
    ("_p_members_fixed", (3, 3), 1, {"i": 2, "m": 2, "n": 10, "expected": 1, "actual": 2}),
    ("_enumerate_B", (9, 7, 5, 3), 3, {"i": 2, "m": 4, "n": 20, "expected": 0, "actual": 1}),
    ("_enumerate_B", (4, 2), 1, {"i": 2, "m": 2, "n": 10, "expected": 1, "actual": 2}),
]
_DROPPERS = {"_p_members_fixed": drop_p_members, "_enumerate_B": drop_b_members}


@pytest.mark.parametrize("listing,member,min_part,violation", DROPPED)
def test_shift_check_sees_a_dropped_member(monkeypatch, listing, member, min_part, violation):
    _DROPPERS[listing](monkeypatch, {member}, min_part)
    assert member not in getattr(partitions, listing)(sum(member), 2, min_part, len(member))
    assert shift_identity_check(1, 2, 20).violations == [violation]


@pytest.mark.parametrize("i", (1, 2))
@pytest.mark.parametrize("min_part", (1, 2, 3, 4))
def test_verify_family_clean(i, min_part):
    f = FamilySpec("P", i, min_part)
    report = verify_family(f, 20)
    assert report.ok and report.max_n == 20
    assert report.family == "P+B(i=%d,min_part=%d)" % (i, min_part)
    assert report.totals == [
        (n, {"P": count_family(n, f), "B": count_family(n, FamilySpec("B", i, min_part))})
        for n in range(21)
    ]


@pytest.mark.parametrize(
    "flags,f",
    [
        (["--i", "2"], FamilySpec("P", 2)),
        (["--family", "B", "--i", "1", "--min-part", "3"], FamilySpec("B", 1, 3)),
        (["--k", "1", "--parity", "even"], FamilySpec("P", 2, 2)),
    ],
)
def test_verify_family_is_what_the_cli_prints(capsys, flags, f):
    report = verify_family(f, 12)
    assert main(["verify", *flags, "--max-n", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "%s %s max_n=12" % (report.system, report.family)
    assert lines[1:-1] == ["n=%d: P=%d B=%d" % (n, t["P"], t["B"]) for n, t in report.totals]
    assert lines[-1] == "violations: 0"


def test_verify_family_violations_are_the_cli_json(capsys, monkeypatch):
    drop_p_members(monkeypatch, {(3, 3)})
    report = verify_family(FamilySpec("P", 2), 20)
    assert report.violations
    assert main(["verify", "--family", "P", "--i", "2", "--max-n", "20", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == report.violations


def test_verify_product_witness():
    product = product_for_A(2, 20)
    totals = verify_product(2, 20, None)
    assert totals.ok and totals.system == "A-product=B-counts"
    assert totals.totals == [
        (n, {"A": product[n], "B": family_count_via_table(variant_for_min_part(1), 2, n)}) for n in range(21)
    ]
    refined = verify_product(2, 20, 20)
    assert refined.system == "A-product=B-counts+refined"
    assert refined.violations == [{"i": 2, "m": 1, "n": 2, "expected": 1, "actual": 0}]
    assert verify_product(2, 20, 1).ok


def test_shift_spot_value():
    # members with minimum part 3 at one part of weight 5: just (5);
    # base members at the shifted weight 3: just (3)
    assert count_family(5, FamilySpec("P", 2, 3), fixed_length=1) == 1
    assert count_family(3, FamilySpec("P", 2), fixed_length=1) == 1


def test_refined_AB_witness_values():
    assert refined_AB_witness(2, 20) == (1, 2, 0, 1)
    assert refined_AB_witness(1, 20) == (1, 4, 0, 1)
    assert refined_AB_witness(2, 0) is None
    assert refined_AB_witness(1, 3) is None


def test_refined_AB_witness_is_verified_and_totals_agree():
    m, n, ca, cb = refined_AB_witness(2, 20)
    assert ca == count_family(n, FamilySpec("A", 2), fixed_length=m)
    assert cb == count_family(n, FamilySpec("B", 2), fixed_length=m)
    assert ca != cb
    assert count_family(n, FamilySpec("A", 2)) == count_family(n, FamilySpec("B", 2))


def test_report_serialization():
    r = VerificationReport("System1", "P(i=2,min_part=1)", 6)
    d = json.loads(report_json(r))
    assert d == {
        "system": "System1",
        "family": "P(i=2,min_part=1)",
        "max_n": 6,
        "violations": [],
    }
    r2 = verify_system(FamilySpec("A", 2), 8)
    d2 = json.loads(report_json(r2))
    assert d2["violations"] and set(d2["violations"][0]) == {
        "i", "m", "n", "expected", "actual",
    }


# SHA-256 of each report's JSON with members dropped from the P enumerator,
# recorded before the sweeps shared one compare primitive.  (3,3) is a member
# for both index values; (5,1) only for i=2, at a smaller weight than (10,)
@pytest.mark.parametrize(
    "sweep,members,sha256",
    [
        (verify_system, {(3, 3)}, "7fd5cfd7783ad760299e03f695027a8deaf4cdb2135befd9b2afff85f6d2eed1"),
        (compare_table_oracle, {(3, 3)}, "dd4dda1469de1355e5d834a6c4bf1d1649801b3890103c058125cd0e7ea157b9"),
        (verify_system, {(5, 1), (10,)}, "0fb3df77db26130a599e90fdd62974a53159d82097f0414a72aea51dabd3baab"),
        (compare_table_oracle, {(5, 1), (10,)}, "c54f9e0f2dd4c6be6024fcda2ef958d8fa5b3bf0f5b6bc2377f6a6cfd2332707"),
    ],
)
def test_failing_report_digests(monkeypatch, sweep, members, sha256):
    drop_p_members(monkeypatch, members)
    report = sweep(FamilySpec("P", 2), 20)
    assert not report.ok
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == sha256
