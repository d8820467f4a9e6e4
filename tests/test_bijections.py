import itertools
import json
import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenodd import bijections, cli
from evenodd.bijections import (
    BIJECTION_NAMES,
    BijectionDomainError,
    CodomainError,
    bijection_domain,
    forward,
    inverse,
    trace_bijection,
)
from evenodd.partitions import FamilySpec, count_family, enumerate_family, is_member_unchecked

P1, P2 = FamilySpec("P", 1), FamilySpec("P", 2)
B1, B2 = FamilySpec("B", 1), FamilySpec("B", 2)


def test_p_drop_one_examples():
    assert forward("P-drop-one", (5, 1)) == (None, (3,))
    assert forward("P-drop-one", (1,)) == (None, ())
    assert inverse("P-drop-one", None, (3,)) == (5, 1)
    assert inverse("P-drop-one", None, ()) == (1,)


@pytest.mark.parametrize("bad", [(), (6,), (4, 2), (1, 1)])
def test_p_drop_one_domain_errors(bad):
    with pytest.raises(BijectionDomainError):
        forward("P-drop-one", bad)


# every map name in each direction with an input it maps without error,
# and the case and k that the call passes with it
PUBLIC_MAPS = {
    ("P-drop-one", "forward"): ((5, 1), None, None),
    ("P-drop-one", "inverse"): ((3,), None, None),
    ("B-drop-one", "forward"): ((5, 1), None, None),
    ("B-drop-one", "inverse"): ((3,), None, None),
    ("P-case", "forward"): ((6, 3, 3), None, None),
    ("P-case", "inverse"): ((3, 3), 1, None),
    ("B-case", "forward"): ((6, 3), None, None),
    ("B-case", "inverse"): ((4, 1), 2, None),
    ("shift-sub-2k", "forward"): ((5, 3), None, 1),
    ("shift-sub-2k", "inverse"): ((3, 1), None, 1),
    ("shift-add-one", "forward"): ((4, 2), None, 1),
    ("shift-add-one", "inverse"): ((5, 3), None, 1),
}


def _apply(key, x):
    """The map of key, a PUBLIC_MAPS key, applied to x with its case
    and k."""
    (name, direction), (_, case, k) = key, PUBLIC_MAPS[key]
    return forward(name, x, k) if direction == "forward" else inverse(name, case, x, k)


def _ids(key):
    return "%s-%s" % key


# each input reorders parts so that every clause of is_member but the
# non-increasing one holds; (3, 6) would map to (5, 8, 1)
NON_CANONICAL = {
    ("P-drop-one", "forward"): (1, 3),
    ("P-drop-one", "inverse"): (3, 6),
    ("P-case", "forward"): (2, 4),
    ("P-case", "inverse"): (2, 6),
    ("shift-sub-2k", "forward"): (1, 3),
    ("shift-sub-2k", "inverse"): (1, 3),
    ("shift-add-one", "forward"): (1, 5),
    ("shift-add-one", "inverse"): (1, 3),
}


@pytest.mark.parametrize("key", sorted(NON_CANONICAL), ids=_ids)
def test_maps_reject_non_canonical_input(key):
    with pytest.raises(BijectionDomainError):
        _apply(key, NON_CANONICAL[key])


def _bad_parts(p):
    last = p[-1]
    yield p[:-1] + (last == 1,)  # the bool True equals 1, False equals 0
    yield p[:-1] + (float(last),)
    yield p[:-1] + (0,)
    yield p[:-1] + (-last,)


@pytest.mark.parametrize("key", sorted(PUBLIC_MAPS), ids=_ids)
def test_maps_reject_non_integer_or_non_positive_parts(key):
    good = PUBLIC_MAPS[key][0]
    _apply(key, good)
    for bad in _bad_parts(good):
        with pytest.raises(BijectionDomainError):
            _apply(key, bad)


# the traced map whose private arithmetic each map name runs in each
# direction, and for an inverse with a case rule, a member of its domain
# family under another case
ARITHMETIC = {
    ("P-drop-one", "forward"): ("P-drop-one", None),
    ("P-drop-one", "inverse"): ("P-drop-one", (5,)),
    ("B-drop-one", "forward"): ("B-drop-one", None),
    ("B-drop-one", "inverse"): ("B-drop-one", (5,)),
    ("P-case", "forward"): ("P-case-generic", None),
    ("P-case", "inverse"): ("P-case-even-eq", (10, 3, 3)),
    ("B-case", "forward"): ("B-case-min3", None),
    ("B-case", "inverse"): ("B-case-min3", (4, 2)),
    ("shift-sub-2k", "forward"): ("shift-sub-2k", None),
    ("shift-sub-2k", "inverse"): ("shift-sub-2k", None),
    ("shift-add-one", "forward"): ("shift-add-one", None),
    ("shift-add-one", "inverse"): ("shift-add-one", None),
}


def _with_part_zero(out):
    """out, an image or (case, image), with a part 0 appended to the image."""
    if out and isinstance(out[-1], tuple):
        return out[:-1] + (out[-1] + (0,),)
    return out + (0,)


@pytest.mark.parametrize("key", sorted(PUBLIC_MAPS), ids=_ids)
def test_public_maps_check_what_their_arithmetic_returns(monkeypatch, key):
    # a forward image outside the codomain, or an inverse's preimage outside
    # the domain or under another case, raises CodomainError
    good = PUBLIC_MAPS[key][0]
    traced, other_case = ARITHMETIC[key]
    attr = getattr(bijections._MAPS[traced], key[1])
    real = getattr(bijections, attr)
    monkeypatch.setattr(bijections, attr, lambda *args, **kwargs: _with_part_zero(real(*args, **kwargs)))
    with pytest.raises(CodomainError) as raised:
        _apply(key, good)
    assert raised.value.image[-1] == 0
    if other_case is not None:
        monkeypatch.setattr(bijections, attr, lambda *args, **kwargs: other_case)
        with pytest.raises(CodomainError) as raised:
            _apply(key, good)
        assert raised.value.image == other_case


@pytest.mark.parametrize("name", ["", "P", "shift", "B-case-min", "nope"])
def test_maps_refuse_a_name_outside_the_table(name):
    # a name is a record or a whole case split, never a prefix of one
    with pytest.raises(ValueError, match="unknown bijection") as raised:
        forward(name, (2,), k=1)
    assert type(raised.value) is ValueError
    with pytest.raises(ValueError, match="unknown bijection") as raised:
        inverse(name, 1, (2,), k=1)
    assert type(raised.value) is ValueError


# each case record with a member of its domain family under another case
OTHER_CASE = {
    "P-case-even-eq": (6,),
    "P-case-two-threes": (2,),
    "P-case-generic": (10, 3, 3),
    "B-case-min2": (6, 3),
    "B-case-min3": (4, 2),
}


@pytest.mark.parametrize("name", sorted(OTHER_CASE))
def test_case_records_refuse_another_case(name):
    p = OTHER_CASE[name]
    case, image = forward(name[0] + "-case", p)  # the whole case split
    assert case != bijections._MAPS[name].case
    with pytest.raises(BijectionDomainError):
        forward(name, p)
    with pytest.raises(ValueError, match="case must be one of"):
        inverse(name, case, image)
    [row] = trace_bijection(name, [p])
    assert (row.case, row.output, row.domain_ok, row.codomain_ok, row.roundtrip_ok) == (None, None, False, False, False)


def test_p_case_map_examples():
    assert forward("P-case", (2,)) == (1, ())
    assert forward("P-case", (10, 3, 3)) == (2, (6, 4))
    assert forward("P-case", (6,)) == (3, (4,))
    # a case-1 image with no even part: the inverse domain must accept it
    assert forward("P-case", (6, 3, 3)) == (1, (3, 3))


def test_p_case_inverse_examples():
    assert inverse("P-case", 1, ()) == (2,)
    assert inverse("P-case", 2, (6, 4)) == (10, 3, 3)
    assert inverse("P-case", 3, (4,)) == (6,)
    assert inverse("P-case", 1, (3, 3)) == (6, 3, 3)


def test_p_case_inverse_validation():
    with pytest.raises(ValueError):
        inverse("P-case", 4, ())
    with pytest.raises(BijectionDomainError):
        inverse("P-case", 3, ())  # empty preimage target
    with pytest.raises(BijectionDomainError):
        inverse("P-case", 1, (4, 3))  # even part 4 < 2*m, m = 3
    with pytest.raises(BijectionDomainError):
        inverse("P-case", 2, (3, 3))  # no even part equal to 2*(m-1), m = 3
    with pytest.raises(BijectionDomainError):
        inverse("P-case", 2, (6,))  # smallest even part 6, not 2*(m-1) = 2


def test_p_case_map_rejects():
    with pytest.raises(BijectionDomainError):
        forward("P-case", ())
    with pytest.raises(BijectionDomainError):
        forward("P-case", (5, 1))  # part equal to 1
    with pytest.raises(BijectionDomainError):
        forward("P-case", (4, 2))  # not a member


def test_b_maps_examples():
    assert forward("B-drop-one", (5, 1)) == (None, (3,))
    assert forward("B-drop-one", (1,)) == (None, ())
    assert inverse("B-drop-one", None, (3,)) == (5, 1)
    assert forward("B-case", (2,)) == (1, ())
    assert forward("B-case", (4, 2)) == (1, (2,))
    assert forward("B-case", (6, 3)) == (2, (4, 1))
    assert inverse("B-case", 1, (2,)) == (4, 2)
    assert inverse("B-case", 2, (4, 1)) == (6, 3)
    with pytest.raises(BijectionDomainError):
        forward("B-case", ())
    with pytest.raises(BijectionDomainError):
        inverse("B-case", 2, ())
    with pytest.raises(BijectionDomainError):
        forward("B-drop-one", (3, 1, 1))


def test_shift_examples():
    assert forward("shift-sub-2k", (5,), 1) == (None, (3,))
    assert forward("shift-sub-2k", (), 1) == (None, ())
    assert inverse("shift-sub-2k", None, (3,), k=1) == (5,)
    assert forward("shift-add-one", (4, 2), 1) == (None, (5, 3))
    assert forward("shift-add-one", (), 2, "B", 1) == (None, ())
    assert inverse("shift-add-one", None, (5, 3), k=1) == (4, 2)
    with pytest.raises(BijectionDomainError):
        forward("shift-sub-2k", (2,), 1)  # part below minimum 3
    with pytest.raises(BijectionDomainError):
        forward("shift-sub-2k", (5,), 1, "A", 2)
    with pytest.raises(ValueError):
        forward("shift-sub-2k", (5,), 0)


@pytest.mark.parametrize("nmax", [24])
def test_p_drop_one_round_trip_and_transport(nmax):
    for n in range(0, nmax + 1):
        cells = Counter()
        for p in enumerate_family(n, P2):
            if p.count(1) != 1:
                continue
            _, q = forward("P-drop-one", p)
            assert inverse("P-drop-one", None, q) == p
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
            case, q = forward("P-case", p)
            m = len(p)
            assert inverse("P-case", case, q) == p
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
                _, q = forward("B-drop-one", p)
                assert inverse("B-drop-one", None, q) == p
        one, two = Counter(), Counter()
        for p in enumerate_family(n, B1):
            if not p:
                continue
            case, q = forward("B-case", p)
            assert inverse("B-case", case, q) == p
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
                _, q = forward("shift-sub-2k", p, k, kind, i)
                assert sum(q) == n - 2 * len(p) * k
                assert inverse("shift-sub-2k", None, q, k, kind, i) == p
            for p in enumerate_family(n, FamilySpec(kind, i, 2 * k)):
                _, q = forward("shift-add-one", p, k, kind, i)
                assert sum(q) == n + len(p)
                assert inverse("shift-add-one", None, q, k, kind, i) == p
            # totality of the inverses on their stated domains
            for q in enumerate_family(n, FamilySpec(kind, i, 1)):
                p = inverse("shift-sub-2k", None, q, k, kind, i)
                assert forward("shift-sub-2k", p, k, kind, i) == (None, q)
            for q in enumerate_family(n, FamilySpec(kind, i, 2 * k + 1)):
                p = inverse("shift-add-one", None, q, k, kind, i)
                assert forward("shift-add-one", p, k, kind, i) == (None, q)


def test_shift_add_one_swaps_parities():
    for n in range(0, 18):
        for p in enumerate_family(n, FamilySpec("P", 2, 2)):
            _, q = forward("shift-add-one", p, 1)
            evens_p = sum(1 for x in p if x % 2 == 0)
            evens_q = sum(1 for x in q if x % 2 == 0)
            assert evens_q == len(p) - evens_p


def _smallest_even_is_twice_the_length(q):
    evens = [x for x in q if x % 2 == 0]
    return bool(evens) and evens[-1] == 2 * len(q)


# each record but the shifts (test_shift_round_trips checks theirs): its
# codomain family, its case, and the rule that picks its images out of that
# family
IMAGES = {
    "P-drop-one": (P2, None, lambda q: True),
    "P-case-even-eq": (P1, 1, lambda q: not _smallest_even_is_twice_the_length(q)),
    "P-case-two-threes": (P1, 2, _smallest_even_is_twice_the_length),
    "P-case-generic": (P2, 3, bool),
    "B-drop-one": (B2, None, lambda q: True),
    "B-case-min2": (B1, 1, lambda q: True),
    "B-case-min3": (B2, 2, bool),
}


def test_every_map_is_onto_its_images():
    # every codomain member under a record's image rule is an image: its
    # preimage maps back to it; one outside the rule has no preimage
    assert set(IMAGES) == {name for name in BIJECTION_NAMES if not bijections.takes_k(name)}
    seen = Counter()
    for name, (codomain, case, rule) in IMAGES.items():
        for n in range(31):
            for q in enumerate_family(n, codomain):
                if rule(q):
                    assert forward(name, inverse(name, case, q)) == (case, q), (name, q)
                else:
                    with pytest.raises(BijectionDomainError):
                        inverse(name, case, q)
                seen[rule(q)] += 1
    assert seen == {True: 4706, False: 570}


def test_trace_p_drop_one_at_six():
    rows = trace_bijection("P-drop-one", bijection_domain("P-drop-one", 6))
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
    rows = trace_bijection("P-case-two-threes", bijection_domain("P-case-two-threes", 16))
    d = [r.to_dict() for r in rows if r.input == (10, 3, 3)]
    assert d and d[0]["case"] == 2 and d[0]["output"] == [6, 4]


def test_traces_empty_at_zero():
    for name in BIJECTION_NAMES:
        assert trace_bijection(name, bijection_domain(name, 0, k=1), k=1) == []


def test_trace_all_names_verify():
    for name in BIJECTION_NAMES:
        rows = trace_bijection(name, bijection_domain(name, 14, k=1), k=1)
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
            case, q = forward("P-case", p)
            evens = [x for x in q if x % 2 == 0]
            if case == 1:
                assert not evens or evens[-1] >= 2 * len(q) + 2
            elif case == 2:
                assert evens and evens[-1] == 2 * len(q)


# every traced map with the shift maps' k, kind and index
TRACES = [(name, None, "P", None) for name in BIJECTION_NAMES if not bijections.takes_k(name)] + [
    (name, k, kind, i)
    for name in BIJECTION_NAMES
    if bijections.takes_k(name)
    for k in (1, 2)
    for kind in "PB"
    for i in (1, 2)
]


@pytest.mark.parametrize("name,k,kind,i", TRACES)
def test_trace_rows_equal_the_public_maps(name, k, kind, i):
    seen = 0
    for n in range(31):
        rows = trace_bijection(name, bijection_domain(name, n, k=k, kind=kind, i=i), k=k, kind=kind, i=i)
        assert [r.input for r in rows] == list(bijection_domain(name, n, k=k, kind=kind, i=i))
        for r in rows:
            case, image = forward(name, r.input, k, kind, i)
            assert inverse(name, case, image, k, kind, i) == r.input
            got = (r.bijection, r.case, r.output, r.domain_ok, r.codomain_ok, r.roundtrip_ok)
            assert got == (name, case, image, True, True, True)
        seen += len(rows)
    assert seen
    # members the caller passes, read as tuples: each one that is not
    # canonical or not in the map's domain fails its row and raises nothing
    p = next(r.input for r in rows if len(set(r.input)) > 1)
    bad = [p[:-1] + (True,), p[:-1] + (float(p[-1]),), p + (0,), p[::-1]]
    if not bijections.takes_k(name):
        bad.append(())
    if name == "P-drop-one":
        assert is_member_unchecked((6,), P2)
        bad.append((6,))
    rows = trace_bijection(name, [p, *bad, list(p)], k=k, kind=kind, i=i)
    assert [r.input for r in rows] == [p, *bad, p]
    assert rows[0].roundtrip_ok and rows[-1].roundtrip_ok
    for r in rows[1:-1]:
        assert (r.case, r.output, r.domain_ok, r.codomain_ok, r.roundtrip_ok) == (None, None, False, False, False)


def _outside(image):
    return image + (0,)  # no family has a part 0


def _off_by_one(preimage):
    return preimage[:-1] + (preimage[-1] + 1,)


def _mutant(name, which):
    """The private arithmetic that the trace of name resolves as which
    ("forward", returning (case, image), or "inverse", returning the
    preimage), its output broken by _outside or _off_by_one."""
    real = getattr(bijections, getattr(bijections._MAPS[name], which))

    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        return (out[0], _outside(out[1])) if which == "forward" else _off_by_one(out)

    return broken


@pytest.mark.parametrize("which", ["forward", "inverse"])
@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_broken_arithmetic_fails_every_row(capsys, monkeypatch, name, which):
    rec = bijections._MAPS[name]
    monkeypatch.setattr(bijections, getattr(rec, which), _mutant(name, which))
    rows = trace_bijection(name, bijection_domain(name, 14, k=1), k=1)
    assert rows
    for r in rows:
        if which == "forward":
            assert (r.case, r.codomain_ok, r.roundtrip_ok) == (None, False, False)
            assert 0 in r.output
        else:
            assert (r.codomain_ok, r.roundtrip_ok) == (True, False)
    argv = ["bijection", name, "--n", "14"] + (["--k", "1"] if bijections.takes_k(name) else [])
    assert cli.main(argv) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("name", BIJECTION_NAMES)
def test_trace_makes_two_membership_checks_per_row(monkeypatch, name):
    # the input's domain and the image's codomain; the inverse repeats neither
    calls = Counter()

    def counting(p, f):
        calls[f] += 1
        return is_member_unchecked(p, f)

    monkeypatch.setattr(bijections, "is_member_unchecked", counting)
    rows = trace_bijection(name, bijection_domain(name, 40, k=1), k=1)
    assert rows and sum(calls.values()) == 2 * len(rows)


def test_trace_refuses_an_input_under_another_case(monkeypatch):
    real = bijections._b_case_map
    monkeypatch.setattr(bijections, "_b_case_map", lambda p: (1,) + real(p)[1:] if p == (7, 3) else real(p))
    assert [r.domain_ok for r in trace_bijection("B-case-min3", bijection_domain("B-case-min3", 9))] == [True, True]
    rows = trace_bijection("B-case-min3", bijection_domain("B-case-min3", 10))
    assert [(r.input, r.case, r.output, r.domain_ok, r.codomain_ok, r.roundtrip_ok) for r in rows] == [
        ((10,), 2, (8,), True, True, True),
        ((7, 3), None, None, False, False, False),
        ((6, 4), 2, (4, 2), True, True, True),
    ]


@pytest.mark.parametrize("name", [name for name in BIJECTION_NAMES if name.startswith("P-case")])
def test_p_case_trace_finds_each_case_once(name):
    # the record's case rule and the forward arithmetic both ask a member's
    # case; the trace works it out once per member of the domain family
    bijections._p_case_of.cache_clear()
    rows = trace_bijection(name, bijection_domain(name, 60))
    assert bijections._p_case_of.cache_info().misses == 1756
    # the three cases split the 1,756 nonempty members of weight 60
    assert len(rows) == {"P-case-even-eq": 468, "P-case-two-threes": 155, "P-case-generic": 1133}[name]
    assert sum(1 for p in enumerate_family(60, P1) if p) == 1756


# the traced maps whose domain is kind B, with the shift maps' k, kind and
# index: the maps that bijection traces group by group
B_TRACES = [t for t in TRACES if bijections.domain_family(*t).kind == "B"]


def test_b_traces_are_the_b_maps_and_the_b_shifts():
    assert len(B_TRACES) == 11
    assert {name for name, _, kind, _ in B_TRACES if kind == "P"} == {"B-drop-one", "B-case-min2", "B-case-min3"}


@st.composite
def _int_runs(draw):
    """An int tuple read off a start and adjacent gaps of -1 to 4, so that
    it is often a B member and sometimes increases, repeats a part or has
    parts 0 or below."""
    gaps = draw(st.lists(st.integers(-1, 4), max_size=6))
    return tuple(itertools.accumulate([draw(st.integers(-2, 16))] + gaps, operator.sub))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), _int_runs(), st.data())
def test_b_membership_splits_at_any_cut(i, min_part, x, data):
    # every kind-B clause reads two adjacent parts or the least part, so a
    # cut that keeps one part on both sides splits membership exactly
    k = data.draw(st.integers(1, len(x)))
    f = FamilySpec("B", i, min_part)
    assert is_member_unchecked(x, f) == (is_member_unchecked(x[:k], f) and is_member_unchecked(x[k - 1 :], f))


def _typed(draw, x):
    """x, or x with one part its float, or True for a part 1: equal values
    that are not canonical parts."""
    if not x or draw(st.integers(0, 3)):
        return x
    at = draw(st.integers(0, len(x) - 1))
    return x[:at] + (draw(st.sampled_from([float(x[at]), x[at] == 1 or float(x[at])])),) + x[at + 1 :]


def _break(mp, name, which):
    """Patch the arithmetic of name with _mutant(name, which), or for
    "repeated" its forward arithmetic with each image's second part set to
    its first: a piece of the image that holds both parts fails a kind-B
    codomain, and one that holds either passes.  None patches nothing."""
    rec = bijections._MAPS[name]
    if which == "repeated":
        real = getattr(bijections, rec.forward)

        def repeated(*args, **kwargs):
            case, image = real(*args, **kwargs)
            return case, image[:1] + image[:1] + image[2:] if len(image) > 1 else image

        mp.setattr(bijections, rec.forward, repeated)
    elif which is not None:
        mp.setattr(bijections, getattr(rec, which), _mutant(name, which))


@st.composite
def _groups(draw, name, k, kind, i):
    """Up to four (prefix, tails) groups, each a prefix of the map's domain
    members at one weight up to 30 with the tails of the members under it,
    or an _int_runs prefix; either with _int_runs or () tails mixed in, and
    any part sometimes replaced by an equal float or bool."""
    members = list(bijection_domain(name, draw(st.integers(1, 30)), k, kind, i))
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        if members and draw(st.integers(0, 3)):
            member = draw(st.sampled_from(members))
            cut = draw(st.integers(1, len(member)))
            prefix = member[:cut]
            tails = [p[cut:] for p in members if p[:cut] == prefix]
        else:
            prefix, tails = draw(_int_runs()), []
        tails += draw(st.lists(st.one_of(_int_runs(), st.just(())), max_size=3))
        tails = [_typed(draw, t) for t in draw(st.permutations(tails))]
        groups.append((_typed(draw, prefix), tuple(tails)))
    return groups


def _fields(r):
    return (r.bijection, r.input, r.case, r.output, r.domain_ok, r.codomain_ok, r.roundtrip_ok)


def _member_fields(name, members, k, kind, i):
    """The _fields of each member's row by the definition, one member at a
    time with every check made whole: the reference for the traces."""
    rec = bijections._resolve(name, k, kind, i)
    out = []
    for p in members:
        case = image = None
        if all(type(x) is int for x in p) and is_member_unchecked(p, rec.domain):
            try:
                case, image = rec.forward(p)
            except BijectionDomainError:
                pass
        if image is None or case != rec.case:
            out.append((name, p, None, None, False, False, False))
        elif not is_member_unchecked(image, rec.codomain):
            out.append((name, p, None, image, True, False, False))
        else:
            try:
                back = rec.inverse(case, image)
            except BijectionDomainError:
                back = None
            out.append((name, p, case, image, True, True, back == p))
    return out


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(B_TRACES), st.sampled_from([None, "forward", "inverse", "repeated"]), st.data())
def test_group_trace_rows_equal_the_member_rows(trace, which, data):
    # any members, grouped under any prefixes, and any arithmetic: the rows
    # and verdicts a group trace gives are those of the members one by one
    name, k, kind, i = trace
    groups = data.draw(_groups(*trace))

    def outcome(trace):
        # the rows' fields, or the type of what the arithmetic raised (the
        # mutants index into an empty preimage)
        try:
            return [r if type(r) is tuple else _fields(r) for r in trace()]
        except Exception as e:
            return type(e)

    with pytest.MonkeyPatch.context() as mp:
        _break(mp, name, which)
        members = [p + t for p, ts in groups for t in ts]
        got = outcome(lambda: [r for _, _, rows in bijections.trace_groups(name, groups, k, kind, i) for r in rows])
        one_by_one = outcome(lambda: trace_bijection(name, members, k, kind, i))
        want = outcome(lambda: _member_fields(name, members, k, kind, i))
    assert got == one_by_one == want


@pytest.mark.parametrize("which", [None, "forward", "inverse", "repeated"])
@pytest.mark.parametrize("name,k,kind,i", B_TRACES)
def test_domain_group_trace_equals_the_member_rows(monkeypatch, name, k, kind, i, which):
    # at weight 60 the prefixes have one to three parts, so image heads of
    # different lengths, passing and failing, follow each other
    _break(monkeypatch, name, which)
    groups = list(bijections.bijection_groups(name, 60, k, kind, i))
    assert len({len(prefix) for prefix, _ in groups}) > 1
    got = [_fields(r) for _, _, rows in bijections.trace_groups(name, groups, k, kind, i) for r in rows]
    assert got == _member_fields(name, [p + t for p, ts in groups for t in ts], k, kind, i)


def _printed(fmt, rows):
    """What bijection prints in fmt for rows, rendered from their fields."""
    if fmt == "json":
        return json.dumps([r.to_dict() for r in rows], sort_keys=True, separators=(",", ":")) + "\n"

    def parts(p, sep):
        return sep.join(map(str, p))

    if fmt == "csv":
        return "bijection,input,case,output,domain_ok,codomain_ok\n" + "".join(
            "%s,%s,%s,%s,%s,%s\n"
            % (r.bijection, parts(r.input, " "), "" if r.case is None else r.case,
               "" if r.output is None else parts(r.output, " "), r.domain_ok, r.codomain_ok)
            for r in rows
        )
    return "".join(
        "(%s)%s (%s) %s\n"
        % (parts(r.input, ","), " ->" if r.case is None else " -> case %d ->" % r.case,
           parts(r.output, ","), "round-trip ok" if r.codomain_ok and r.roundtrip_ok else "FAILED")
        if r.domain_ok
        else "(%s) not in the domain FAILED\n" % parts(r.input, ",")
        for r in rows
    )


def _assert_cli_prints_the_trace(capsys, trace, weights):
    name, k, kind, i = trace
    flags = [] if k is None else ["--k", str(k), "--family", kind, "--i", str(i)]
    for n in weights:
        rows = trace_bijection(name, bijection_domain(name, n, k, kind, i), k, kind, i)
        code = 0 if all(r.domain_ok and r.codomain_ok and r.roundtrip_ok for r in rows) else 1
        for fmt in ("text", "json", "csv"):
            got = cli.main(["bijection", name, "--n", str(n), "--format", fmt] + flags)
            assert (got, capsys.readouterr().out) == (code, _printed(fmt, rows)), (n, fmt)


@pytest.mark.parametrize("name,k,kind,i", B_TRACES)
def test_group_stream_prints_the_member_trace(capsys, name, k, kind, i):
    _assert_cli_prints_the_trace(capsys, (name, k, kind, i), range(41))


@pytest.mark.parametrize("which", ["forward", "inverse", "repeated"])
@pytest.mark.parametrize("name,k,kind,i", B_TRACES)
def test_group_stream_prints_the_member_trace_of_broken_arithmetic(capsys, monkeypatch, name, k, kind, i, which):
    _break(monkeypatch, name, which)
    _assert_cli_prints_the_trace(capsys, (name, k, kind, i), range(0, 41, 4))


def _dropping(real):
    # member_groups without the second member of each group that has one
    return lambda n, f: ((prefix, tails[:1] + tails[2:]) for prefix, tails in real(n, f))


def _injecting(real):
    # member_groups with a non-member after each group's first member
    # whose tail is not empty: that member with the prefix's last part
    # repeated, which keeps its least part (and so its case)
    def groups(n, f):
        for prefix, tails in real(n, f):
            bad = [prefix[-1:] + t for t in tails[:1] if t]
            yield prefix, tails[:1] + tuple(bad) + tails[1:]

    return groups


@pytest.mark.parametrize("patch", [_dropping, _injecting])
@pytest.mark.parametrize("name,k,kind,i", B_TRACES)
def test_group_stream_prints_the_member_trace_of_changed_groups(capsys, monkeypatch, name, k, kind, i, patch):
    monkeypatch.setattr(bijections, "member_groups", patch(bijections.member_groups))
    _assert_cli_prints_the_trace(capsys, (name, k, kind, i), range(0, 41, 4))
    # the injected members show as failed rows: the repeated part is a gap
    # of 0 where a prefix meets its tail
    rows = trace_bijection(name, bijection_domain(name, 40, k, kind, i), k, kind, i)
    failed = sum(1 for r in rows if not r.domain_ok)
    assert (failed > 0) == (patch is _injecting)


def test_group_stream_checks_each_piece_once(capsys, monkeypatch):
    # each prefix, (last prefix part, tail) pair and image piece is checked
    # once per trace; at weight 40 no two members share a tail, so that is
    # more checks than rows, and by weight 100 it is fewer
    calls = Counter()

    def counting(p, f):
        calls[p, f] += 1
        return is_member_unchecked(p, f)

    monkeypatch.setattr(bijections, "is_member_unchecked", counting)
    for n, rows in ((40, 154), (100, 29714)):
        calls.clear()
        assert cli.main(["bijection", "B-case-min3", "--n", str(n), "--oracle-limit", "100", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == rows
        assert max(calls.values()) == 1
    assert sum(calls.values()) < rows
