from collections import Counter

import pytest

from evenodd.bijections import (
    BIJECTION_NAMES,
    BijectionDomainError,
    b_case_inverse,
    b_case_map,
    b_drop_one,
    b_drop_one_inverse,
    bijection_domain,
    p_case_inverse,
    p_case_map,
    p_drop_one,
    p_drop_one_inverse,
    shift_add_one,
    shift_add_one_inverse,
    shift_sub_2k,
    shift_sub_2k_inverse,
    trace_bijection,
)
from evenodd.partitions import FamilySpec, count_family, enumerate_family, is_member

P1, P2 = FamilySpec("P", 1), FamilySpec("P", 2)
B1, B2 = FamilySpec("B", 1), FamilySpec("B", 2)


def test_p_drop_one_examples():
    assert p_drop_one((5, 1)) == (3,)
    assert p_drop_one((1,)) == ()
    assert p_drop_one_inverse((3,)) == (5, 1)
    assert p_drop_one_inverse(()) == (1,)


@pytest.mark.parametrize("bad", [(), (6,), (4, 2), (1, 1)])
def test_p_drop_one_domain_errors(bad):
    with pytest.raises(BijectionDomainError):
        p_drop_one(bad)


# each input reorders parts so that every clause of is_member but the
# non-increasing one holds; (3, 6) would map to (5, 8, 1)
NON_CANONICAL = {
    "p_drop_one": (p_drop_one, (1, 3)),
    "p_drop_one_inverse": (p_drop_one_inverse, (3, 6)),
    "p_case_map": (p_case_map, (2, 4)),
    "p_case_inverse": (lambda q: p_case_inverse(1, q, 3), (2, 6)),
    "shift_sub_2k": (lambda q: shift_sub_2k(q, 1), (1, 3)),
    "shift_sub_2k_inverse": (lambda q: shift_sub_2k_inverse(q, 1), (1, 3)),
    "shift_add_one": (lambda q: shift_add_one(q, 1), (1, 5)),
    "shift_add_one_inverse": (lambda q: shift_add_one_inverse(q, 1), (1, 3)),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_maps_reject_non_canonical_input(name):
    fn, bad = NON_CANONICAL[name]
    with pytest.raises(BijectionDomainError):
        fn(bad)


def test_p_case_map_examples():
    assert p_case_map((2,)) == (1, ())
    assert p_case_map((10, 3, 3)) == (2, (6, 4))
    assert p_case_map((6,)) == (3, (4,))
    # a case-1 image with no even part: the inverse domain must accept it
    assert p_case_map((6, 3, 3)) == (1, (3, 3))


def test_p_case_inverse_examples():
    assert p_case_inverse(1, (), 1) == (2,)
    assert p_case_inverse(2, (6, 4), 3) == (10, 3, 3)
    assert p_case_inverse(3, (4,), 1) == (6,)
    assert p_case_inverse(1, (3, 3), 3) == (6, 3, 3)


def test_p_case_inverse_validation():
    with pytest.raises(ValueError):
        p_case_inverse(4, (), 1)
    with pytest.raises(BijectionDomainError):
        p_case_inverse(3, (), 0)  # empty preimage target
    with pytest.raises(BijectionDomainError):
        p_case_inverse(1, (4,), 3)  # even part 4 < 2*target_m
    with pytest.raises(BijectionDomainError):
        p_case_inverse(2, (3, 3), 3)  # no even part equal to 2*(m-1)
    with pytest.raises(BijectionDomainError):
        p_case_inverse(3, (4,), 2)  # wrong length


def test_p_case_map_rejects():
    with pytest.raises(BijectionDomainError):
        p_case_map(())
    with pytest.raises(BijectionDomainError):
        p_case_map((5, 1))  # part equal to 1
    with pytest.raises(BijectionDomainError):
        p_case_map((4, 2))  # not a member


def test_b_maps_examples():
    assert b_drop_one((5, 1)) == (3,)
    assert b_drop_one((1,)) == ()
    assert b_drop_one_inverse((3,)) == (5, 1)
    assert b_case_map((2,)) == (1, ())
    assert b_case_map((4, 2)) == (1, (2,))
    assert b_case_map((6, 3)) == (2, (4, 1))
    assert b_case_inverse(1, (2,)) == (4, 2)
    assert b_case_inverse(2, (4, 1)) == (6, 3)
    with pytest.raises(BijectionDomainError):
        b_case_map(())
    with pytest.raises(BijectionDomainError):
        b_case_inverse(2, ())
    with pytest.raises(BijectionDomainError):
        b_drop_one((3, 1, 1))


def test_shift_examples():
    assert shift_sub_2k((5,), 1) == (3,)
    assert shift_sub_2k((), 1) == ()
    assert shift_sub_2k_inverse((3,), 1) == (5,)
    assert shift_add_one((4, 2), 1) == (5, 3)
    assert shift_add_one((), 2, "B", 1) == ()
    assert shift_add_one_inverse((5, 3), 1) == (4, 2)
    with pytest.raises(BijectionDomainError):
        shift_sub_2k((2,), 1)  # part below minimum 3
    with pytest.raises(BijectionDomainError):
        shift_sub_2k((5,), 1, "A", 2)
    with pytest.raises(ValueError):
        shift_sub_2k((5,), 0)


@pytest.mark.parametrize("nmax", [24])
def test_p_drop_one_round_trip_and_transport(nmax):
    for n in range(0, nmax + 1):
        cells = Counter()
        for p in enumerate_family(n, P2):
            if p.count(1) != 1:
                continue
            q = p_drop_one(p)
            assert p_drop_one_inverse(q) == p
            cells[(len(p), sum(q))] += 1
        for (m, n2), c in cells.items():
            assert c == count_family(n2, P2, fixed_length=m - 1)


@pytest.mark.parametrize("nmax", [24])
def test_p_case_map_partitions_domain_and_transports(nmax):
    for n in range(0, nmax + 1):
        low, high = Counter(), Counter()
        for p in enumerate_family(n, P1):
            if not p:
                continue
            case, q = p_case_map(p)
            m = len(p)
            assert p_case_inverse(case, q, m) == p
            if case in (1, 2):
                assert (len(q), sum(q)) == (m - 1, n - 2 * m)
                low[(m - 1, n - 2 * m)] += 1
            else:
                assert (len(q), sum(q)) == (m, n - 2 * m)
                high[(m, n - 2 * m)] += 1
        # cases 1+2 exhaust the shorter i=1 cells, case 3 the same-length i=2 cells
        for (mq, nq), c in low.items():
            assert c == count_family(nq, P1, fixed_length=mq)
        for (mq, nq), c in high.items():
            assert c == count_family(nq, P2, fixed_length=mq)


@pytest.mark.parametrize("nmax", [24])
def test_b_maps_round_trip_and_transport(nmax):
    for n in range(0, nmax + 1):
        for p in enumerate_family(n, B2):
            if p.count(1) == 1:
                assert b_drop_one_inverse(b_drop_one(p)) == p
        one, two = Counter(), Counter()
        for p in enumerate_family(n, B1):
            if not p:
                continue
            case, q = b_case_map(p)
            assert b_case_inverse(case, q) == p
            m = len(p)
            (one if case == 1 else two)[(len(q), sum(q))] += 1
        for (mq, nq), c in one.items():
            assert c == count_family(nq, B1, fixed_length=mq)
        for (mq, nq), c in two.items():
            assert c == count_family(nq, B2, fixed_length=mq)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["P", "B"])
def test_shift_round_trips(k, kind):
    for i in (1, 2):
        for n in range(0, 20):
            for p in enumerate_family(n, FamilySpec(kind, i, 2 * k + 1)):
                q = shift_sub_2k(p, k, kind, i)
                assert sum(q) == n - 2 * len(p) * k
                assert shift_sub_2k_inverse(q, k, kind, i) == p
            for p in enumerate_family(n, FamilySpec(kind, i, 2 * k)):
                q = shift_add_one(p, k, kind, i)
                assert sum(q) == n + len(p)
                assert shift_add_one_inverse(q, k, kind, i) == p
            # totality of the inverses on their stated domains
            for q in enumerate_family(n, FamilySpec(kind, i, 1)):
                assert shift_sub_2k(shift_sub_2k_inverse(q, k, kind, i), k, kind, i) == q
            for q in enumerate_family(n, FamilySpec(kind, i, 2 * k + 1)):
                assert shift_add_one(shift_add_one_inverse(q, k, kind, i), k, kind, i) == q


def test_shift_add_one_swaps_parities():
    for n in range(0, 18):
        for p in enumerate_family(n, FamilySpec("P", 2, 2)):
            q = shift_add_one(p, 1)
            evens_p = sum(1 for x in p if x % 2 == 0)
            evens_q = sum(1 for x in q if x % 2 == 0)
            assert evens_q == len(p) - evens_p


def test_trace_p_drop_one_at_six():
    rows = trace_bijection("P-drop-one", 6)
    assert len(rows) == 1
    r = rows[0]
    assert r.input == (5, 1) and r.output == (3,)
    assert r.domain_ok and r.codomain_ok and r.roundtrip_ok
    assert r.to_dict() == {
        "bijection": "P-drop-one",
        "input": [5, 1],
        "output": [3],
        "domain_ok": True,
        "codomain_ok": True,
    }


def test_trace_includes_case_key():
    rows = trace_bijection("P-case-two-threes", 16)
    d = [r.to_dict() for r in rows if r.input == (10, 3, 3)]
    assert d and d[0]["case"] == 2 and d[0]["output"] == [6, 4]


def test_traces_empty_at_zero():
    for name in BIJECTION_NAMES:
        assert trace_bijection(name, 0, k=1) == []


def test_trace_all_names_verify():
    for name in BIJECTION_NAMES:
        rows = trace_bijection(name, 14, k=1)
        assert all(r.codomain_ok and r.roundtrip_ok for r in rows)


def test_bijection_domain_validation():
    with pytest.raises(ValueError):
        list(bijection_domain("nope", 5))
    with pytest.raises(ValueError):
        list(bijection_domain("shift-sub-2k", 5))  # k missing
    assert list(bijection_domain("B-case-min2", 6)) == [(4, 2)]
    assert list(bijection_domain("B-case-min2", 2)) == [(2,)]
    assert list(bijection_domain("B-case-min3", 6)) == [(6,)]


def test_case_images_split_by_smallest_even():
    # the images of cases 1 and 2 at a shared cell are told apart by whether
    # the smallest even part equals twice the image length
    for n in range(2, 22, 2):
        for p in enumerate_family(n, P1):
            if not p:
                continue
            case, q = p_case_map(p)
            evens = [x for x in q if x % 2 == 0]
            if case == 1:
                assert not evens or evens[-1] >= 2 * len(q) + 2
            elif case == 2:
                assert evens and evens[-1] == 2 * len(q)
