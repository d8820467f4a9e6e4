"""Invertible maps behind the even-odd partition identities.

Each map validates its domain clause by clause, applies an arithmetic
transformation and then checks the image against the claimed codomain (the
check is an executable restatement of the corresponding proof step, never
assumed).  The inverse maps validate and reconstruct exactly.

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

from .partitions import FamilySpec, Partition, enumerate_family, is_member


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


_P1 = FamilySpec("P", 1)
_P2 = FamilySpec("P", 2)
_B1 = FamilySpec("B", 1)
_B2 = FamilySpec("B", 2)


def _drop_one_maps(f: FamilySpec, name: str):
    """The drop-one map of f, named name in its errors, and its inverse."""

    def forward(p: Partition) -> Partition:
        """Delete the single part 1 and remove 2 from every other part."""
        _require_member(p, f)
        _require(p.count(1) == 1, "expected exactly one part equal to 1")
        return _check_codomain(tuple([x - 2 for x in p[:-1]]), f, name)

    def inverse(q: Partition) -> Partition:
        """Add 2 to every part, then append a part 1."""
        _require_member(q, f)
        image = tuple([x + 2 for x in q]) + (1,)
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


def p_case_map(p: Partition) -> tuple[int, Partition]:
    """Three-way split of the even-odd members without a part 1.

    Case 1 (smallest even part equals twice the length): delete that part.
    Case 2 (two parts equal to 3): delete both, remove 4 from the remaining
    parts, insert a new part 2m-2.  Case 3 (otherwise): remove 2 from every
    part.  Cases 1 and 2 land back in the i=1 family one part shorter; case 3
    lands in the i=2 family at the same length.
    """
    _require_member(p, _P1)
    _require(p, "empty partition is outside the domain")
    m = len(p)
    case = _p_case_of(p)
    if case == 1:
        idx = max(t for t, x in enumerate(p) if x == 2 * m)
        image = p[:idx] + p[idx + 1 :]
        return 1, _check_codomain(image, _P1, "p_case_map[1]")
    if case == 2:
        rest = list(p)
        rest.remove(3)
        rest.remove(3)
        image = _insert_desc(tuple([x - 4 for x in rest]), 2 * m - 2)
        return 2, _check_codomain(image, _P1, "p_case_map[2]")
    image = tuple([x - 2 for x in p])
    return 3, _check_codomain(image, _P2, "p_case_map[3]")


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
    if case == 3:
        _require_member(q, _P2)
        _require(len(q) == target_m, "case 3 needs len(q) == target_m")
        image = tuple([x + 2 for x in q])
        expect_case = 3
    else:
        _require_member(q, _P1)
        _require(len(q) == target_m - 1, "cases 1 and 2 need len(q) == target_m - 1")
        evens = [x for x in q if x % 2 == 0]
        if case == 1:
            _require(
                not evens or evens[-1] >= 2 * target_m,
                "case 1 needs every even part of q to be at least 2*target_m",
            )
            image = _insert_desc(q, 2 * target_m)
            expect_case = 1
        else:
            _require(
                bool(evens) and evens[-1] == 2 * (target_m - 1),
                "case 2 needs smallest even part of q equal to 2*(target_m - 1)",
            )
            rest = list(q)
            rest.remove(2 * (target_m - 1))
            lifted = tuple([x + 4 for x in rest]) + (3, 3)
            image = tuple(sorted(lifted, reverse=True))
            expect_case = 2
    if not is_member(image, _P1) or _p_case_of(image) != expect_case:
        raise CodomainError("p_case_inverse[%d] image %r invalid" % (case, image), image)
    return image


def b_case_map(p: Partition) -> tuple[int, Partition]:
    """Two-way split of the gap members with smallest part at least 2.

    Case 1 (smallest part is 2): delete it and remove 2 from the rest,
    landing one part shorter in the same family.  Case 2 (smallest part at
    least 3): remove 2 from every part, landing in the i=2 family.
    """
    _require_member(p, _B1)
    _require(p, "empty partition is outside the domain")
    if p[-1] == 2:
        image = tuple([x - 2 for x in p[:-1]])
        return 1, _check_codomain(image, _B1, "b_case_map[1]")
    image = tuple([x - 2 for x in p])
    return 2, _check_codomain(image, _B2, "b_case_map[2]")


def b_case_inverse(case: int, q: Partition) -> Partition:
    """Add 2 to every part, appending a part 2 for case 1."""
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    if case == 1:
        _require_member(q, _B1)
        image = tuple([x + 2 for x in q]) + (2,)
        ok = is_member(image, _B1) and image[-1] == 2
    else:
        _require_member(q, _B2)
        _require(q, "case 2 preimages are nonempty")
        image = tuple([x + 2 for x in q])
        ok = is_member(image, _B1) and image[-1] >= 3
    if not ok:
        raise CodomainError("b_case_inverse[%d] image %r invalid" % (case, image), image)
    return image


def _shift_family(kind: str, i: int, min_part: int) -> FamilySpec:
    if kind not in ("B", "P"):
        raise BijectionDomainError("shift maps apply to kinds B and P only")
    return FamilySpec(kind, i, min_part)


def _shift(p, k, kind, i, source, target, delta, name):
    """Add delta to every part of p, a member of (kind, i) with minimum part
    source, and check that the image has minimum part target."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_member(p, _shift_family(kind, i, source))
    return _check_codomain(tuple([x + delta for x in p]), FamilySpec(kind, i, target), name)


def shift_sub_2k(p: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Remove 2k from every part: minimum part 2k+1 down to the base family."""
    return _shift(p, k, kind, i, 2 * k + 1, 1, -2 * k, "shift_sub_2k")


def shift_sub_2k_inverse(q: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Add 2k to every part: base family up to minimum part 2k+1."""
    return _shift(q, k, kind, i, 1, 2 * k + 1, 2 * k, "shift_sub_2k_inverse")


def shift_add_one(p: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Add 1 to every part: minimum part 2k up to 2k+1, swapping parities."""
    return _shift(p, k, kind, i, 2 * k, 2 * k + 1, 1, "shift_add_one")


def shift_add_one_inverse(q: Partition, k: int, kind: str = "P", i: int = 2) -> Partition:
    """Remove 1 from every part: minimum part 2k+1 down to 2k."""
    return _shift(q, k, kind, i, 2 * k + 1, 2 * k, -1, "shift_add_one_inverse")


class _Map(NamedTuple):
    """One traced map: its domain, its case, and its two maps by module name.

    domain is the family the map is applied to, or for a shift map the
    domain's minimum part as a function of k (kind and index come from the
    trace).  takes(p) says whether a nonempty member is in the domain.  case
    is the case a case map's domain falls under, None for the other maps.
    """

    domain: object
    takes: Callable[[Partition], bool]
    case: Optional[int]
    forward: str
    inverse: str


def _one_part_1(p):
    return p.count(1) == 1


_MAPS = {
    "P-drop-one": _Map(_P2, _one_part_1, None, "p_drop_one", "p_drop_one_inverse"),
    "P-case-even-eq": _Map(_P1, lambda p: _p_case_of(p) == 1, 1, "p_case_map", "p_case_inverse"),
    "P-case-two-threes": _Map(_P1, lambda p: _p_case_of(p) == 2, 2, "p_case_map", "p_case_inverse"),
    "P-case-generic": _Map(_P1, lambda p: _p_case_of(p) == 3, 3, "p_case_map", "p_case_inverse"),
    "B-drop-one": _Map(_B2, _one_part_1, None, "b_drop_one", "b_drop_one_inverse"),
    "B-case-min2": _Map(_B1, lambda p: p[-1] == 2, 1, "b_case_map", "b_case_inverse"),
    "B-case-min3": _Map(_B1, lambda p: p[-1] != 2, 2, "b_case_map", "b_case_inverse"),
    "shift-sub-2k": _Map(lambda k: 2 * k + 1, bool, None, "shift_sub_2k", "shift_sub_2k_inverse"),
    "shift-add-one": _Map(lambda k: 2 * k, bool, None, "shift_add_one", "shift_add_one_inverse"),
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


def bijection_domain(name, n, k=None, kind="P", i=None):
    """Yield the domain members of the named map at weight n.

    The empty partition is never listed (weight 0 traces are empty).  Shift
    maps need k; their kind defaults to P and their index to 2.
    """
    rec = _record(name)
    f = rec.domain
    if callable(f):
        if k is None:
            raise ValueError("%s needs k" % name)
        f = _shift_family(kind, 2 if i is None else i, f(k))
    takes = rec.takes
    for p in enumerate_family(n, f):
        if p and takes(p):
            yield p


def _resolve(name, k, kind, i):
    """The named map as a (forward, inverse) pair.

    forward(p) returns (case or None, image) and, for a case map, rejects an
    input that falls under another case; inverse(case, image, m) returns the
    preimage of length m.  The maps are read from the module when this runs,
    so a trace uses whatever the module names at its start.
    """
    rec = _record(name)
    fwd, inv = globals()[rec.forward], globals()[rec.inverse]
    if rec.case is None:
        args = (k, kind, 2 if i is None else i) if takes_k(name) else ()
        return (lambda p: (None, fwd(p, *args))), (lambda case, q, m: inv(q, *args))
    want = rec.case

    def forward(p):
        case, image = fwd(p)
        if case != want:
            raise BijectionDomainError("input falls under case %d" % case)
        return case, image

    # of the case inverses, only kind P's needs the preimage's length
    return forward, inv if rec.domain.kind == "P" else (lambda case, q, m: inv(case, q))


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

    Returns a list of TraceRow.  The map is resolved once per trace.
    codomain_ok records the post-check on the image; roundtrip_ok records
    inverse(image) == input.
    """
    forward, inverse = _resolve(name, k, kind, i)
    rows = []
    append = rows.append
    for p in bijection_domain(name, n, k=k, kind=kind, i=i):
        case, image, cod_ok, rt_ok = None, None, False, False
        try:
            case, image = forward(p)
            cod_ok = True
        except CodomainError as e:
            image = e.image
        if image is not None and cod_ok:
            try:
                rt_ok = inverse(case, image, len(p)) == p
            except (BijectionDomainError, CodomainError):
                pass
        append(TraceRow(name, p, case, image, True, cod_ok, rt_ok))
    return rows
