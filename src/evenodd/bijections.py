"""Invertible maps behind the even-odd partition identities.

Each public map validates its input (as_partition, then its domain), runs
private arithmetic that checks the remaining clauses, and checks the image
against the claimed codomain (the check is an executable restatement of the
corresponding proof step, never assumed).  The inverse maps validate and
reconstruct exactly; a trace runs the arithmetic with each check once.

Weight and length bookkeeping, with m the input length and n its weight:

* p_drop_one / b_drop_one: one part equal to 1 is deleted, 2 is removed from
  the rest; the image lives at (m-1, n-2m+1).
* p_case_map splits the even-odd members with no part 1 three ways, landing
  at (m-1, n-2m) for cases 1 and 2 and at (m, n-2m) for case 3.
* b_case_map splits the gap members with no part 1 two ways, landing at
  (m-1, n-2m) for case 1 and (m, n-2m) for case 2.
* shift_sub_2k drops every part by 2k, weight n-2mk; shift_add_one raises
  every part by 1, weight n+m, swapping part parities.
"""

import bisect
from typing import Callable, NamedTuple, Optional

from .partitions import FamilySpec, Partition, as_partition, enumerate_family, is_member


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


def _input(p, f):
    try:
        p = as_partition(p)
    except ValueError as e:
        raise BijectionDomainError(str(e)) from None
    _require_member(p, f)
    return p


def _require_member(p, f):
    if not is_member(p, f):
        raise BijectionDomainError("not a member of %s" % f.label())


def _check_codomain(image, f, name):
    if not is_member(image, f):
        raise CodomainError("%s image %r is not in %s" % (name, image, f.label()), image)
    return image


def _insert_desc(p: Partition, v: int) -> Partition:
    # keep non-increasing order; bisect works on the ascending reversal
    asc = list(p[::-1])
    bisect.insort(asc, v)
    return tuple(asc[::-1])


_P1, _P2 = FamilySpec("P", 1), FamilySpec("P", 2)
_B1, _B2 = FamilySpec("B", 1), FamilySpec("B", 2)
# the codomain of each case of the case maps, as the public maps read it
_P_IMAGE = {1: _P1, 2: _P1, 3: _P2}
_B_IMAGE = {1: _B1, 2: _B2}


def _drop_one(p: Partition) -> Partition:
    _require(p.count(1) == 1, "expected exactly one part equal to 1")
    return tuple([x - 2 for x in p[:-1]])


def _drop_one_inverse(q: Partition) -> Partition:
    return tuple([x + 2 for x in q]) + (1,)


def _drop_one_maps(f: FamilySpec, name: str):
    """The drop-one map of f, named name in its errors, and its inverse."""

    def forward(p: Partition) -> Partition:
        """Delete the single part 1 and remove 2 from every other part."""
        return _check_codomain(_drop_one(_input(p, f)), f, name)

    def inverse(q: Partition) -> Partition:
        """Add 2 to every part, then append a part 1."""
        image = _drop_one_inverse(_input(q, f))
        if image.count(1) != 1 or not is_member(image, f):
            raise CodomainError("%s_inverse image %r invalid" % (name, image), image)
        return image

    return forward, inverse


p_drop_one, p_drop_one_inverse = _drop_one_maps(_P2, "p_drop_one")
b_drop_one, b_drop_one_inverse = _drop_one_maps(_B2, "b_drop_one")


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
        return 2, _insert_desc(tuple([x - 4 for x in rest]), 2 * m - 2)
    return 3, tuple([x - 2 for x in p])


def p_case_map(p: Partition) -> tuple[int, Partition]:
    """Three-way split of the even-odd members without a part 1.

    Case 1 (smallest even part equals twice the length): delete that part.
    Case 2 (two parts equal to 3): delete both, remove 4 from the remaining
    parts, insert a new part 2m-2.  Case 3 (otherwise): remove 2 from every
    part.  Cases 1 and 2 land back in the i=1 family one part shorter; case 3
    lands in the i=2 family at the same length.
    """
    case, image = _p_case_map(_input(p, _P1))
    return case, _check_codomain(image, _P_IMAGE[case], "p_case_map[%d]" % case)


def _p_case_inverse(case: int, q: Partition, target_m: int) -> Partition:
    if case == 3:
        _require(len(q) == target_m, "case 3 needs len(q) == target_m")
        return tuple([x + 2 for x in q])
    _require(len(q) == target_m - 1, "cases 1 and 2 need len(q) == target_m - 1")
    evens = [x for x in q if x % 2 == 0]
    if case == 1:
        clause = "case 1 needs every even part of q to be at least 2*target_m"
        _require(not evens or evens[-1] >= 2 * target_m, clause)
        return _insert_desc(q, 2 * target_m)
    clause = "case 2 needs smallest even part of q equal to 2*(target_m - 1)"
    _require(bool(evens) and evens[-1] == 2 * (target_m - 1), clause)
    rest = list(q)
    rest.remove(2 * (target_m - 1))
    return tuple(sorted(tuple([x + 4 for x in rest]) + (3, 3), reverse=True))


def p_case_inverse(case: int, q: Partition, target_m: int) -> Partition:
    """Rebuild the preimage of q under the given case, of length target_m.

    Case 1 inserts a part equal to 2*target_m, so q's even parts, if any,
    must already be at least that big (partitions with no even part do occur
    as case 1 images and are accepted).  Case 2 requires the smallest even
    part of q to equal 2*(target_m - 1); it is deleted, 4 is added to the
    rest and two parts 3 are appended.  Case 3 adds 2 to every part.
    """
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2 or 3")
    _require(target_m >= 1, "target length must be at least 1")
    image = _p_case_inverse(case, _input(q, _P_IMAGE[case]), target_m)
    if not is_member(image, _P1) or _p_case_of(image) != case:
        raise CodomainError("p_case_inverse[%d] image %r invalid" % (case, image), image)
    return image


def _b_case_map(p: Partition) -> tuple[int, Partition]:
    _require(p, "empty partition is outside the domain")
    if p[-1] == 2:
        return 1, tuple([x - 2 for x in p[:-1]])
    return 2, tuple([x - 2 for x in p])


def b_case_map(p: Partition) -> tuple[int, Partition]:
    """Two-way split of the gap members with smallest part at least 2.

    Case 1 (smallest part is 2): delete it and remove 2 from the rest,
    landing one part shorter in the same family.  Case 2 (smallest part at
    least 3): remove 2 from every part, landing in the i=2 family.
    """
    case, image = _b_case_map(_input(p, _B1))
    return case, _check_codomain(image, _B_IMAGE[case], "b_case_map[%d]" % case)


def _b_case_inverse(case: int, q: Partition) -> Partition:
    _require(case == 1 or q, "case 2 preimages are nonempty")
    return tuple([x + 2 for x in q]) + ((2,) if case == 1 else ())


def b_case_inverse(case: int, q: Partition) -> Partition:
    """Add 2 to every part, appending a part 2 for case 1."""
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    image = _b_case_inverse(case, _input(q, _B_IMAGE[case]))
    if not is_member(image, _B1) or (image[-1] == 2) != (case == 1):
        raise CodomainError("b_case_inverse[%d] image %r invalid" % (case, image), image)
    return image


def _shift_family(kind: str, i: int, min_part: int) -> FamilySpec:
    if kind not in ("B", "P"):
        raise BijectionDomainError("shift maps apply to kinds B and P only")
    return FamilySpec(kind, i, min_part)


def _shift_parts(p: Partition, delta: int) -> Partition:
    return tuple([x + delta for x in p])


def _shift(p, k, kind, i, source, target, name):
    """Move p, a member of (kind, i) with minimum part source, to minimum part target."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = _input(p, _shift_family(kind, i, source))
    return _check_codomain(_shift_parts(p, target - source), FamilySpec(kind, i, target), name)


def shift_sub_2k(p: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Remove 2k from every part: minimum part 2k+1 down to the base family."""
    return _shift(p, k, kind, i, 2 * k + 1, 1, "shift_sub_2k")


def shift_sub_2k_inverse(q: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Add 2k to every part: base family up to minimum part 2k+1."""
    return _shift(q, k, kind, i, 1, 2 * k + 1, "shift_sub_2k_inverse")


def shift_add_one(p: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Add 1 to every part: minimum part 2k up to 2k+1, swapping parities."""
    return _shift(p, k, kind, i, 2 * k, 2 * k + 1, "shift_add_one")


def shift_add_one_inverse(q: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Remove 1 from every part: minimum part 2k+1 down to 2k."""
    return _shift(q, k, kind, i, 2 * k + 1, 2 * k, "shift_add_one_inverse")


class _Map(NamedTuple):
    """One traced map: its families (FamilySpecs, or for a shift map minimum
    parts as functions of k), takes(p), true when a nonempty member is in
    the domain, the case a case map's domain falls under, and its private
    arithmetic by module name."""

    domain: object
    takes: Callable[[Partition], bool]
    case: Optional[int]
    codomain: object
    forward: str
    inverse: str


_MAPS = {
    "P-drop-one": _Map(_P2, lambda p: p.count(1) == 1, None, _P2, "_drop_one", "_drop_one_inverse"),
    "P-case-even-eq": _Map(_P1, lambda p: _p_case_of(p) == 1, 1, _P1, "_p_case_map", "_p_case_inverse"),
    "P-case-two-threes": _Map(_P1, lambda p: _p_case_of(p) == 2, 2, _P1, "_p_case_map", "_p_case_inverse"),
    "P-case-generic": _Map(_P1, lambda p: _p_case_of(p) == 3, 3, _P2, "_p_case_map", "_p_case_inverse"),
    "B-drop-one": _Map(_B2, lambda p: p.count(1) == 1, None, _B2, "_drop_one", "_drop_one_inverse"),
    "B-case-min2": _Map(_B1, lambda p: p[-1] == 2, 1, _B1, "_b_case_map", "_b_case_inverse"),
    "B-case-min3": _Map(_B1, lambda p: p[-1] != 2, 2, _B2, "_b_case_map", "_b_case_inverse"),
    "shift-sub-2k": _Map(lambda k: 2 * k + 1, bool, None, lambda k: 1, "_shift_parts", "_shift_parts"),
    "shift-add-one": _Map(lambda k: 2 * k, bool, None, lambda k: 2 * k + 1, "_shift_parts", "_shift_parts"),
}

BIJECTION_NAMES = tuple(_MAPS)


def _record(name) -> _Map:
    rec = _MAPS.get(name)
    if rec is None:
        raise ValueError("unknown bijection %r" % (name,))
    return rec


def takes_k(name) -> bool:
    """True for a shift map, whose domain follows from k, kind and index."""
    return callable(_record(name).domain)


def _resolve(name, k, kind, i):
    """The named map as (domain, takes, case, codomain, forward, inverse):
    FamilySpecs, forward(p) -> (case or None, image), and inverse(case,
    image, m) -> the preimage of length m.  The arithmetic is read from the
    module when this runs, so a trace uses whatever the module names then.
    """
    rec = _record(name)
    domain, codomain = rec.domain, rec.codomain
    fwd, inv = globals()[rec.forward], globals()[rec.inverse]
    if callable(domain):
        if k is None or k < 1:
            raise ValueError("%s needs k >= 1" % name)
        i = 2 if i is None else i
        source, target = domain(k), codomain(k)
        domain, codomain = _shift_family(kind, i, source), FamilySpec(kind, i, target)
        delta = target - source
        forward, inverse = (lambda p: (None, fwd(p, delta))), (lambda c, q, m: inv(q, -delta))
    elif rec.case is None:
        forward, inverse = (lambda p: (None, fwd(p))), (lambda c, q, m: inv(q))
    else:
        # of the case inverses, only kind P's needs the preimage's length
        forward, inverse = fwd, inv if domain.kind == "P" else (lambda c, q, m: inv(c, q))
    return domain, rec.takes, rec.case, codomain, forward, inverse


def bijection_domain(name, n, k=None, kind="P", i=None):
    """Iterate over the domain members of the named map at weight n.

    The empty partition is never listed (weight 0 traces are empty).  Shift
    maps need k >= 1; their kind defaults to P and their index to 2.
    """
    domain, takes = _resolve(name, k, kind, i)[:2]
    return (p for p in enumerate_family(n, domain) if p and takes(p))


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


def trace_bijection(name, n, k=None, kind="P", i=None):
    """Apply the named map to every domain member at weight n.

    Returns a list of TraceRow; the map is resolved once per trace.  A row
    checks the input's domain and case (raising BijectionDomainError), maps
    it, checks the image's codomain (codomain_ok; case None on a failure)
    and inverts it (roundtrip_ok: the preimage equals the input), making
    each distinct check once: the public inverse's own checks repeat these.
    """
    domain, _, want, codomain, forward, inverse = _resolve(name, k, kind, i)
    rows = []
    append = rows.append
    for p in bijection_domain(name, n, k=k, kind=kind, i=i):
        _require_member(p, domain)
        case, image = forward(p)
        if case != want:
            raise BijectionDomainError("input falls under case %d" % case)
        if not is_member(image, codomain):
            append(TraceRow(name, p, None, image, True, False, False))
            continue
        try:
            rt_ok = inverse(case, image, len(p)) == p
        except BijectionDomainError:
            rt_ok = False
        append(TraceRow(name, p, case, image, True, True, rt_ok))
    return rows
