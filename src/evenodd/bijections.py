"""Invertible maps behind the even-odd partition identities.

Each traced map is one _MAPS record, the only statement of its domain and
codomain families and of the case rule that picks its domain out of the
domain family; forward, inverse and the trace all read it.  forward(name, p)
validates p (as_partition, then the domain and the record's case), runs
private arithmetic that checks the remaining clauses, and checks the image
against the codomain of the case the arithmetic returns (an executable
restatement of the corresponding proof step, never assumed).
inverse(name, case, q) checks q against that codomain, reconstructs
exactly, and checks the preimage against the domain and the case rule; a
trace makes each check once.  A name is a BIJECTION_NAMES entry or a whole
case split, "P-case" or "B-case".
bijection_groups lists a map's domain at one weight as the (prefix, tails)
groups of member_groups, and bijection_domain flattens them.  trace_groups
traces groups lazily and in order, and trace_bijection the members its
caller passes, as groups of one, so a caller can trace a domain one block at
a time and hold one block of rows.

Kind-B membership splits: for an int tuple x and 1 <= c <= len(x), x is a
member exactly when x[:c] and x[c-1:] are.  Any run of a member's parts is
a member.  Conversely, each adjacent pair lies in one piece, and the gap
clause (at least 2) reads only adjacent pairs; x[c-1:] holds the least
part, which decides the other clauses (at least j, and j fewer than i
times: with gaps of at least 2 only the least part can be j).  So a group
trace checks a prefix once, and its last part joined to each tail once per
trace.

Weight and length bookkeeping, with m the input length and n its weight:

* P-drop-one / B-drop-one: the one part equal to 1 is deleted and 2 is
  removed from every other part; the image lives at (m-1, n-2m+1).  The
  inverse adds 2 to every part and appends a part 1.
* P-case splits the even-odd members with no part 1 three ways.  Case 1
  (P-case-even-eq: the smallest even part is 2m) deletes that part.  Case 2
  (P-case-two-threes: two parts equal to 3) deletes both, removes 4 from
  the rest and inserts a part 2m-2.  Case 3 (P-case-generic: otherwise)
  removes 2 from every part.  Cases 1 and 2 land back in the i=1 family at
  (m-1, n-2m), case 3 in the i=2 family at (m, n-2m).  So a case 1 image
  has every even part at least 2m (an image with no even part, as (3, 3)
  from (6, 3, 3), is one), and a case 2 image has smallest even part 2m-2;
  the inverse reads m off the case and the image (len(q) + 1 for cases 1
  and 2, len(q) for case 3), and case 2's inverse deletes that part, adds
  4 to the rest and appends two parts 3.
* B-case splits the gap members with no part 1 two ways.  Case 1
  (B-case-min2: the smallest part is 2) deletes it and removes 2 from the
  rest, landing at (m-1, n-2m) in the same family.  Case 2 (B-case-min3:
  the smallest part is at least 3) removes 2 from every part, landing at
  (m, n-2m) in the i=2 family.  The inverse adds 2 to every part, and
  appends a part 2 for case 1.
* shift-sub-2k removes 2k from every part (minimum part 2k+1 down to the
  base family), weight n-2mk; shift-add-one adds 1 to every part (minimum
  part 2k up to 2k+1), weight n+m, swapping part parities.
"""

from functools import lru_cache, partial
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .partitions import FamilySpec, Partition, as_partition, is_member_unchecked, member_groups


class BijectionDomainError(ValueError):
    """The input is outside the map's domain; the message names the clause."""


class CodomainError(RuntimeError):
    """An image failed its codomain predicate (would disprove the identity)."""

    def __init__(self, message, image):
        super().__init__(message)
        self.image = image


def _require(cond, clause):
    if not cond:
        raise BijectionDomainError(clause)


def _drop_one(p: Partition) -> tuple[None, Partition]:
    _require(p.count(1) == 1, "expected exactly one part equal to 1")
    return None, tuple([x - 2 for x in p[:-1]])


def _drop_one_inverse(case: None, q: Partition) -> Partition:
    return tuple([x + 2 for x in q]) + (1,)


# a trace asks each member's case twice in a row, once to pick the domain
# (the record's takes) and once to map it, so the last answer is kept
@lru_cache(maxsize=1)
def _p_case_of(p: Partition) -> int:
    m = len(p)
    evens = [x for x in p if x % 2 == 0]
    if evens and evens[-1] == 2 * m:
        return 1
    if p.count(3) >= 2:
        return 2
    return 3


def _p_case_map(p: Partition) -> tuple[int, Partition]:
    _require(p, "empty partition is outside the domain")
    m = len(p)
    case = _p_case_of(p)
    if case == 1:
        idx = max(t for t, x in enumerate(p) if x == 2 * m)
        return 1, p[:idx] + p[idx + 1 :]
    if case == 2:
        rest = list(p)
        rest.remove(3)
        rest.remove(3)
        return 2, tuple(sorted([x - 4 for x in rest] + [2 * m - 2], reverse=True))
    return 3, tuple([x - 2 for x in p])


def _p_case_inverse(case: int, q: Partition) -> Partition:
    if case == 3:
        _require(q, "case 3 preimages are nonempty")
        return tuple([x + 2 for x in q])
    m = len(q) + 1
    evens = [x for x in q if x % 2 == 0]
    if case == 1:
        clause = "case 1 needs every even part of q to be at least 2*m"
        _require(not evens or evens[-1] >= 2 * m, clause)
        return tuple(sorted(q + (2 * m,), reverse=True))
    clause = "case 2 needs smallest even part of q equal to 2*(m - 1)"
    _require(bool(evens) and evens[-1] == 2 * (m - 1), clause)
    rest = list(q)
    rest.remove(2 * (m - 1))
    return tuple(sorted(tuple([x + 4 for x in rest]) + (3, 3), reverse=True))


def _b_case_map(p: Partition) -> tuple[int, Partition]:
    _require(p, "empty partition is outside the domain")
    if p[-1] == 2:
        return 1, tuple([x - 2 for x in p[:-1]])
    return 2, tuple([x - 2 for x in p])


def _b_case_inverse(case: int, q: Partition) -> Partition:
    _require(case == 1 or q, "case 2 preimages are nonempty")
    return tuple([x + 2 for x in q]) + ((2,) if case == 1 else ())


def _shift(p: Partition, delta: int) -> tuple[None, Partition]:
    return None, tuple([x + delta for x in p])


def _unshift(case: None, q: Partition, delta: int) -> Partition:
    return tuple([x - delta for x in q])


class _Map(NamedTuple):
    """One traced map: its families (FamilySpecs, or for a shift map minimum
    parts as functions of k), takes(p), true when a nonempty member of the
    domain family is in the map's domain (a case map's case rule), the case
    a case map's domain falls under, and its private arithmetic by module
    name: forward(p) -> (case, image) and inverse(case, q) -> the preimage
    of q, each checking the clauses of its steps that membership does not
    (a shift map's also take the shift, delta).  _resolve returns a record
    with FamilySpecs and functions."""

    domain: object
    takes: Callable[[Partition], bool]
    case: Optional[int]
    codomain: object
    forward: object
    inverse: object


_P1, _P2 = FamilySpec("P", 1), FamilySpec("P", 2)
_B1, _B2 = FamilySpec("B", 1), FamilySpec("B", 2)

_MAPS = {
    "P-drop-one": _Map(_P2, lambda p: p.count(1) == 1, None, _P2, "_drop_one", "_drop_one_inverse"),
    "P-case-even-eq": _Map(_P1, lambda p: _p_case_of(p) == 1, 1, _P1, "_p_case_map", "_p_case_inverse"),
    "P-case-two-threes": _Map(_P1, lambda p: _p_case_of(p) == 2, 2, _P1, "_p_case_map", "_p_case_inverse"),
    "P-case-generic": _Map(_P1, lambda p: _p_case_of(p) == 3, 3, _P2, "_p_case_map", "_p_case_inverse"),
    "B-drop-one": _Map(_B2, lambda p: p.count(1) == 1, None, _B2, "_drop_one", "_drop_one_inverse"),
    "B-case-min2": _Map(_B1, lambda p: p[-1] == 2, 1, _B1, "_b_case_map", "_b_case_inverse"),
    "B-case-min3": _Map(_B1, lambda p: p[-1] != 2, 2, _B2, "_b_case_map", "_b_case_inverse"),
    "shift-sub-2k": _Map(lambda k: 2 * k + 1, lambda p: True, None, lambda k: 1, "_shift", "_unshift"),
    "shift-add-one": _Map(lambda k: 2 * k, lambda p: True, None, lambda k: 2 * k + 1, "_shift", "_unshift"),
}

BIJECTION_NAMES = tuple(_MAPS)
_SPLITS = {split: tuple(n for n in _MAPS if n.startswith(split + "-")) for split in ("P-case", "B-case")}


def _record(name) -> _Map:
    rec = _MAPS.get(name)
    if rec is None:
        raise ValueError("unknown bijection %r" % (name,))
    return rec


def takes_k(name) -> bool:
    """True for a shift map, whose domain follows from k, kind and index."""
    return callable(_record(name).domain)


def _resolve(name, k, kind, i) -> _Map:
    """The named map's record with its families as FamilySpecs and its
    arithmetic as functions, read from the module when this runs (so a trace
    uses whatever the module names then).  A shift map needs k >= 1 and
    kind B or P; its index defaults to 2, and its arithmetic gets the shift.
    """
    rec = _record(name)
    domain, codomain = rec.domain, rec.codomain
    forward, inverse = globals()[rec.forward], globals()[rec.inverse]
    if callable(domain):
        if k is None or k < 1:
            raise ValueError("%s needs k >= 1" % name)
        if kind not in ("B", "P"):
            raise BijectionDomainError("shift maps apply to kinds B and P only")
        i = 2 if i is None else i
        source, target = domain(k), codomain(k)
        domain, codomain = FamilySpec(kind, i, source), FamilySpec(kind, i, target)
        forward, inverse = partial(forward, delta=target - source), partial(inverse, delta=target - source)
    return _Map(domain, rec.takes, rec.case, codomain, forward, inverse)


def _cases(name, k, kind, i) -> dict:
    """{case: resolved record} of the named map: one record under its case,
    or for "P-case" and "B-case" each record of that case split."""
    return {rec.case: rec for rec in (_resolve(n, k, kind, i) for n in _SPLITS.get(name, (name,)))}


def _input(p, f: FamilySpec) -> Partition:
    try:
        p = as_partition(p)
    except ValueError as e:
        raise BijectionDomainError(str(e)) from None
    if not is_member_unchecked(p, f):
        raise BijectionDomainError("not a member of %s" % f.label())
    return p


def forward(name, p, k=None, kind="P", i=None) -> tuple[Optional[int], Partition]:
    """(case, image) of p under the named map, a BIJECTION_NAMES entry or a
    case split ("P-case", "B-case").  p must be in the domain and, for a
    case record, under its case; the image is checked against the codomain
    of the case the arithmetic returns.  Shift maps need k >= 1; their kind
    defaults to P and their index to 2."""
    cases = _cases(name, k, kind, i)
    rec = next(iter(cases.values()))
    case, image = rec.forward(_input(p, rec.domain))
    if case not in cases:
        raise BijectionDomainError("%s takes case %s only, not case %s" % (name, rec.case, case))
    codomain = cases[case].codomain
    if not is_member_unchecked(image, codomain):
        raise CodomainError("%s image %r is not in %s" % (name, image, codomain.label()), image)
    return case, image


def inverse(name, case, q, k=None, kind="P", i=None) -> Partition:
    """The preimage of q under the given case of the named map (None for a
    map with no cases), checked against the domain and that case's rule.
    Shift maps need k >= 1; their kind defaults to P and their index to 2."""
    cases = _cases(name, k, kind, i)
    rec = cases.get(case)
    if rec is None:
        raise ValueError("case must be one of %s" % sorted(cases))
    image = rec.inverse(case, _input(q, rec.codomain))
    if not (is_member_unchecked(image, rec.domain) and rec.takes(image)):
        raise CodomainError("%s inverse image %r invalid" % (name, image), image)
    return image


def domain_family(name, k=None, kind="P", i=None) -> FamilySpec:
    """The family whose members the case rule of the named map picks from."""
    return _resolve(name, k, kind, i).domain


def bijection_groups(name, n, k=None, kind="P", i=None):
    """The domain members of the named map at weight n, as the
    (prefix, tails) groups of member_groups over its domain family, each
    group's tails cut to the members the case rule takes (a new tuple); a
    group left with no tail is dropped.

    The empty partition is never listed (weight 0 traces are empty).  Shift
    maps need k >= 1; their kind defaults to P and their index to 2.
    """
    rec = _resolve(name, k, kind, i)
    takes = rec.takes
    groups = (
        (prefix, tuple([t for t in tails if (prefix or t) and takes(prefix + t)]))
        for prefix, tails in member_groups(n, rec.domain)
    )
    return ((prefix, tails) for prefix, tails in groups if tails)


def bijection_domain(name, n, k=None, kind="P", i=None):
    """Iterate over the members of bijection_groups(name, n, k, kind, i)."""
    return (prefix + t for prefix, tails in bijection_groups(name, n, k, kind, i) for t in tails)


class TraceRow:
    """One traced application: pinned wire keys plus a round-trip verdict."""

    __slots__ = ("bijection", "input", "case", "output", "domain_ok", "codomain_ok", "roundtrip_ok")

    def __init__(self, bijection, input_p, case, output, domain_ok, codomain_ok, roundtrip_ok):
        self.bijection = bijection
        self.input = input_p
        self.case = case
        self.output = output
        self.domain_ok = domain_ok
        self.codomain_ok = codomain_ok
        self.roundtrip_ok = roundtrip_ok

    def to_dict(self) -> dict:
        d = {
            "bijection": self.bijection,
            "input": list(self.input),
            "output": list(self.output) if self.output is not None else None,
            "domain_ok": self.domain_ok,
            "codomain_ok": self.codomain_ok,
        }
        if self.case is not None:
            d["case"] = self.case
        return d


def trace_groups(name, groups, k=None, kind="P", i=None):
    """For each (prefix, tails) group of tuples, read lazily and in order,
    yield (prefix, tails, rows), rows[t] the TraceRow that trace_bijection
    gives the member prefix + tails[t].  By the split rule, a kind-B domain
    checks the prefix of an all-int group once and each distinct
    (prefix[-1],) + t once per trace, and a kind-B codomain checks an image
    longer than its c-part prefix as image[:c], once per run of equal heads,
    and image[c-1:], once per trace.  Every other check is whole, and the
    arithmetic runs on every member.
    """
    rec = _resolve(name, k, kind, i)
    domain, want, codomain, forward, inverse = rec.domain, rec.case, rec.codomain, rec.forward, rec.inverse
    split_in, split_out = domain.kind == "B", codomain.kind == "B"
    pairs, pieces = {}, {}  # {(last part,): {tail: verdict}}, {image tail: verdict}
    head = head_ok = None
    for prefix, tails in groups:
        c, seen, rows = len(prefix), None, []
        if split_in and set(map(type, chain(prefix, *tails))) <= {int}:
            prefix_ok = is_member_unchecked(prefix, domain)
            seen = pairs.setdefault(prefix[-1:], {})
        for t in tails:
            p = prefix + t
            case = image = None
            if seen is None:
                in_ok = set(map(type, p)) <= {int} and is_member_unchecked(p, domain)
            elif (in_ok := prefix_ok and (not t or seen.get(t))) is None:
                in_ok = seen[t] = is_member_unchecked(prefix[-1:] + t, domain)
            if in_ok:
                try:
                    case, image = forward(p)
                except BijectionDomainError:
                    pass
            if image is None or case != want:
                rows.append(TraceRow(name, p, None, None, False, False, False))
                continue
            if split_out and type(image) is tuple and 0 < c < len(image):
                if image[:c] != head:
                    head = image[:c]
                    head_ok = is_member_unchecked(head, codomain)
                if (out_ok := head_ok and pieces.get(rest := image[c - 1 :])) is None:
                    out_ok = pieces[rest] = is_member_unchecked(rest, codomain)
            else:
                out_ok = is_member_unchecked(image, codomain)
            if not out_ok:
                rows.append(TraceRow(name, p, None, image, True, False, False))
                continue
            try:
                rt_ok = inverse(case, image) == p
            except BijectionDomainError:
                rt_ok = False
            rows.append(TraceRow(name, p, case, image, True, True, rt_ok))
        yield prefix, tails, rows


def trace_bijection(name, members, k=None, kind="P", i=None):
    """Apply the named map to each of members, read lazily and in order.

    Returns a list with one TraceRow per member: trace_groups over groups
    of one member each, so each row makes two membership checks.  The map
    is resolved once per call, so a caller may trace a domain one block at
    a time (for instance islice(bijection_domain(name, n), size), called
    until it returns []).
    A row checks the input (the tuple of the member) against the domain: its
    parts are ints, it is in the domain family, and the forward arithmetic
    accepts it under the record's case (domain_ok; case and output None on a
    failure, which fails the other flags too).  It then checks the image's
    codomain (codomain_ok; case None on a failure) and inverts it
    (roundtrip_ok: the preimage equals the input), making each distinct
    check once: inverse's own checks repeat these.  A member
    that is not canonical or not in the map's domain gives a failed row,
    never an exception.
    """
    groups = ((tuple(p), ((),)) for p in members)
    return [row for _, _, rows in trace_groups(name, groups, k, kind, i) for row in rows]
