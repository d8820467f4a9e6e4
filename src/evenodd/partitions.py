"""Partitions, family membership and enumeration oracles.

A partition is a tuple of positive integers in non-increasing order.  Three
families of partitions are counted throughout this package:

* kind "A": partitions whose parts avoid the residues 0, i and 5-i mod 5,
* kind "B": partitions whose successive parts differ by at least 2, with at
  most i-1 parts equal to the minimum allowed part,
* kind "P": the even-odd family, where every even part is at least twice the
  length (plus a shift) and odd parts two positions apart differ by at least 4.

Each family comes with an index i in {1, 2} and a minimum part (1 for the base
families, 2k or 2k+1 for the shifted variants).
"""

from collections import Counter
from operator import sub
from typing import Iterator, Optional, Sequence

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and normalize a sequence of parts into a Partition tuple.

    Raises ValueError unless every part is a positive integer and the
    sequence is non-increasing.
    """
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError("parts must be positive integers, got %r" % (x,))
    if any(p[t] < p[t + 1] for t in range(len(p) - 1)):
        raise ValueError("parts must be non-increasing, got %r" % (p,))
    return p


_KINDS = ("A", "B", "P")


class FamilySpec:
    """Selects one counted family: kind in {A, B, P}, index i, minimum part.

    min_part is 1 for the base families; the shifted variants use 2k+1 or 2k.
    Kind A admits no shifted variant, so it requires min_part == 1.

    A spec is immutable and compares and hashes by its three fields; it
    equals only another FamilySpec (never a tuple), and it is neither
    iterable nor ordered.
    """

    __slots__ = ("kind", "i", "min_part")

    def __init__(self, kind: str, i: int, min_part: int = 1):
        if kind not in _KINDS:
            raise ValueError("kind must be one of %r, got %r" % (_KINDS, kind))
        if type(i) is not int or i not in (1, 2):
            raise ValueError("i must be 1 or 2, got %r" % (i,))
        if type(min_part) is not int or min_part < 1:
            raise ValueError("min_part must be a positive integer, got %r" % (min_part,))
        if kind == "A" and min_part != 1:
            raise ValueError("kind A has no shifted variant; min_part must be 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "min_part", min_part)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return self.__class__, (self.kind, self.i, self.min_part)

    def __repr__(self) -> str:
        return "FamilySpec(kind=%r, i=%r, min_part=%r)" % (self.kind, self.i, self.min_part)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.i, self.min_part) == (other.kind, other.i, other.min_part)

    def __hash__(self) -> int:
        return hash((self.kind, self.i, self.min_part))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "i": self.i, "min_part": self.min_part}

    def label(self) -> str:
        return "%s(i=%d,min_part=%d)" % (self.kind, self.i, self.min_part)


def part_allowed_for_A(x: int, i: int) -> bool:
    """True iff x avoids the residues 0, i and 5-i modulo 5."""
    return x % 5 not in (0, i, 5 - i)


def is_member(p: Partition, f: FamilySpec) -> bool:
    """Membership predicate for a partition in family f.

    A tuple with a part whose type is not int (a bool, a float) or whose
    parts increase anywhere is not canonical and belongs to no family.
    """
    return set(map(type, p)) <= {int} and is_member_unchecked(p, f)


def is_member_unchecked(p: Partition, f: FamilySpec) -> bool:
    """is_member for a tuple whose parts are known to be ints.

    A tuple whose parts increase anywhere belongs to no family (for kind B
    the gap clause already says so).  All gap clauses are vacuous when the
    relevant parity class has fewer than 3 parts; the smallest-part bound
    clauses are vacuous when that parity class is empty.  The empty partition
    belongs to every family.
    """
    j = f.min_part
    if p and p[-1] < j:
        return False
    if f.kind == "B":
        return p.count(j) < f.i and (len(p) < 2 or min(map(sub, p, p[1:])) >= 2)
    if any(a < b for a, b in zip(p, p[1:])):
        return False
    if f.kind == "A":
        return all(part_allowed_for_A(x, f.i) for x in p)
    # kind P, one parity class at a time: every part of the bound class
    # (the parity of j-1) is at least 2m+j-1 for m = len(p); in the gap
    # class (the parity of j) at most i-1 parts equal j, and parts two
    # places apart differ by at least 4
    bound_class = [x for x in p if x % 2 != j % 2]
    if bound_class and bound_class[-1] < 2 * len(p) + j - 1:
        return False
    gap_class = [x for x in p if x % 2 == j % 2]
    if gap_class.count(j) > f.i - 1:
        return False
    return all(gap_class[t] - gap_class[t + 2] >= 4 for t in range(len(gap_class) - 2))


def enumerate_partitions(
    n: int, fixed_length: Optional[int] = None, min_part: int = 1
) -> Iterator[Partition]:
    """Yield every partition of n, lexicographically decreasing.

    With fixed_length, only partitions of exactly that many parts are
    produced; with min_part, every part is at least that value.  The empty
    partition appears only for n == 0 with fixed_length absent or 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(rem, maxp, left):
        if rem == 0:
            if left is None or left == 0:
                yield ()
            return
        if left == 0 or maxp < min_part:
            return
        hi = min(maxp, rem)
        lo = min_part
        if left is not None:
            # rem must split into exactly `left` parts from [min_part, v]
            if rem < left * min_part:
                return
            hi = min(hi, rem - (left - 1) * min_part)
            lo = max(lo, -(-rem // left))
        for v in range(hi, lo - 1, -1):
            for tail in gen(rem - v, v, None if left is None else left - 1):
                yield (v,) + tail

    return gen(n, n, fixed_length)


# sub-lists of at most this weight (the free-length B tails and the P class
# lists) are built once per process and shared by every call that reaches
# them; heavier ones are built again on each call, so the memos stay small.
# Each memo maps a key whose first field is that weight to a tuple of tuples.
_B_MEMO_MAX_REM = 32
_B_TAILS = {}
_P_CLASSES = {}

# the tails of a group whose prefix is a whole member
_WHOLE = ((),)


def _b_groups(n, i, j, fixed_length):
    # the members as member_groups describes them.  A free-length subtree of
    # remaining weight <= _B_MEMO_MAX_REM below a nonempty prefix is one
    # group: the prefix and that subtree's list in _B_TAILS, keyed by
    # (remaining weight, max part, floor), which every prefix reaching the
    # subtree shares.  It can be empty, since parts() bounds what a tail can
    # make up only from above.
    # gap >= 2 forces distinct parts, so "at most i-1 parts equal j" reduces
    # to a floor: lo = j for i=2, lo = j+1 for i=1
    lo = j if i == 2 else j + 1
    if n == 0:
        if not fixed_length:
            yield (), _WHOLE
        return
    if fixed_length == 0:
        return

    def parts(rem, hi):
        # each next part v <= hi, largest first, that leaves a remainder of 0
        # or one a gap->=2 partition with parts in [lo, v-2] can make up; the
        # heaviest such partition is v-2, v-4, ... down to lo
        for v in range(hi, lo - 1, -1):
            r = rem - v
            if r == 0:
                yield v
                continue
            top = v - 2
            t = (top - lo) // 2 + 1
            if top < lo or r > t * (top - t + 1):
                return
            if r >= lo:
                yield v

    def tails(rem, maxp):
        # every gap->=2 partition of rem > 0 with parts in [lo, maxp], as a
        # tuple in lexicographically decreasing order
        maxp = min(maxp, rem)
        key = (rem, maxp, lo)
        out = _B_TAILS.get(key)
        if out is None:
            out = []
            for v in parts(rem, maxp):
                if v == rem:
                    out.append((v,))
                else:
                    out.extend([(v,) + tail for tail in tails(rem - v, v - 2)])
            out = _B_TAILS[key] = tuple(out)
        return out

    def gen(prefix, rem, maxp, left):
        if left is None:
            if rem <= _B_MEMO_MAX_REM and prefix:
                yield prefix, tails(rem, maxp)
                return
            hi = min(maxp, rem)
        elif left == 1:
            if lo <= rem <= maxp:
                yield prefix + (rem,), _WHOLE
            return
        else:
            # keep room for `left-1` smaller parts, the tightest packing
            # below v being v-2, v-4, ...
            hi = min(maxp, rem - ((left - 1) * lo + (left - 1) * (left - 2)))
            left -= 1
        for v in parts(rem, hi):
            if v == rem:
                yield prefix + (v,), _WHOLE
            else:
                yield from gen(prefix + (v,), rem - v, v - 2, left)

    yield from gen((), n, n, fixed_length)


def _enumerate_B(n, i, j, fixed_length):
    # the members one tuple at a time: every group flattened
    for prefix, tails in _b_groups(n, i, j, fixed_length):
        for t in tails:
            yield prefix + t


def _p_lengths(n, i, j):
    # the least weight of an m-part member grows with m, so the first
    # length that cannot reach n ends the lengths a member of weight n has
    m = 0
    while _p_least_weights(i, j, m)[m] <= n:
        yield m
        m += 1


def _enumerate_P(n, i, j, fixed_length):
    if fixed_length is not None:
        yield from _p_members_fixed(n, i, j, fixed_length)
        return
    out = []
    for m in _p_lengths(n, i, j):
        out.extend(_p_members_fixed(n, i, j, m))
    out.sort(reverse=True)
    yield from out


def _p_least_weights(i, j, m):
    """lw[l] for l = 0 .. m: a lower bound on the weight of any l parts of an
    m-part member of P with index i and minimum part j.

    lw[l] is the sum of min(c_t, bound) over t < l, where bound = 2m+j-1 and
    c_0, c_1, ... is j, j+2, j+4, ... when i = 2, else j+2, j+2, j+6, j+6, ...
    Proof: take the l smallest parts.  Each in the bound class (the parity
    of j-1) is at least bound.  Those in the gap class (the parity of j),
    ascending y_0 <= y_1 <= ..., have y_0 >= j (j+2 when i = 1, as no part
    equals j), y_1 >= j+2 (at most one part equals j) and y_{t+2} >= y_t + 4
    (they are the smallest of their class), so y_t >= c_t.  Term by term,
    g gap-class and l-g bound-class parts thus weigh at least lw[l].

    For t <= m-2, c_t <= j+2+2t < bound, so for l <= m-1 lw[l] is the least
    weight of l gap-class parts.  lw[m] grows with m: each term is
    nondecreasing in m, and a longer member adds a term.
    """
    bound = 2 * m + j - 1
    lw = [0]
    for t in range(m):
        c = j + 2 * t if i == 2 else j + 2 + 4 * (t // 2)
        lw.append(lw[-1] + min(c, bound))
    return lw


def _p_class(rem, left, a, b, gap, lo, last_lo):
    # every non-increasing tuple of `left` parts of lo's parity summing to
    # rem, as a tuple in lexicographically decreasing order: the first part
    # is at most a and the second at most b, parts two places apart differ
    # by at least gap, and every part is at least lo except the last, which
    # is at least last_lo (<= lo, of lo's parity)
    if (rem - left * lo) % 2:
        return ()
    if left == 0:
        return _WHOLE if rem == 0 else ()
    if left == 1:
        return ((rem,),) if last_lo <= rem <= a else ()
    a = min(a, rem)
    b = min(b, a)
    key = (rem, left, a, b, gap, lo, last_lo)
    out = _P_CLASSES.get(key)
    if out is None:
        # the first part is the largest, so at least rem/left, and leaves
        # at least (left-2)*lo + last_lo for the others
        hi = min(a, rem - (left - 2) * lo - last_lo)
        hi -= (hi - lo) % 2
        out = []
        for x in range(hi, max(lo, -(-rem // left)) - 1, -2):
            rest = _p_class(rem - x, left - 1, min(x, b), x - gap, gap, lo, last_lo)
            out.extend([(x,) + t for t in rest])
        out = tuple(out)
        if rem <= _B_MEMO_MAX_REM:
            _P_CLASSES[key] = out
    return out


def _p_pairs(n, i, j, m):
    """The even-odd family members with exactly m parts, as (tops, gaps)
    pairs of class lists whose members are every merge of one entry of
    tops with one entry of gaps.

    By is_member_unchecked, the parts of an m-part member split by parity
    into two classes, each with clauses of its own:

    * the bound class: r1 parts of the parity of j-1, each at least
      bound = 2m+j-1, so bound + 2u_1, ..., bound + 2u_r1 for u a
      partition into at most r1 parts, padded with zeros;
    * the gap class: the other m-r1 parts, of the parity of j, any two of
      them two places apart differing by at least 4, each at least j+2
      except the smallest, which is at least j when i = 2 (at most i-1
      parts equal j).

    The classes differ in parity, so every pair of class-list entries
    merges into one member and every member splits into one pair of
    entries: the lists pair up once per r1 and bound-class weight, and
    hold len(tops) * len(gaps) members.  tops is ((),) when r1 = 0.
    """
    bound = 2 * m + j - 1
    last_lo = j if i == 2 else j + 2
    # the m - r1 gap-class parts weigh at least lw[m - r1], and the parts'
    # parities make n = m*j - r1 (mod 2)
    lw = _p_least_weights(i, j, m)
    for r1 in range((m * j - n) % 2, m + 1, 2):
        for w1 in range(r1 * bound, n - lw[m - r1] + 1, 2) if r1 else (0,):
            gaps = _p_class(n - w1, m - r1, n, n, 4, j + 2, last_lo)
            if gaps:
                yield _p_class(w1, r1, w1, w1, 0, bound, bound), gaps


def _p_members_fixed(n, i, j, m):
    # the members of every pair of _p_pairs, lexicographically decreasing;
    # a gap-class entry alone is a whole member
    out = []
    for tops, gaps in _p_pairs(n, i, j, m):
        if tops == _WHOLE:
            out.extend(gaps)
        else:
            out.extend([tuple(sorted(t + g, reverse=True)) for t in tops for g in gaps])
    out.sort(reverse=True)
    return out


def _p_count(n, i, j, m):
    # the number of members _p_members_fixed lists, from the pairs alone
    return sum(len(tops) * len(gaps) for tops, gaps in _p_pairs(n, i, j, m))


def _enumerate_A(n, i, fixed_length):
    def gen(rem, maxp, left):
        if rem == 0:
            if left is None or left == 0:
                yield ()
            return
        if left == 0:
            return
        hi = min(maxp, rem)
        if left is not None:
            if rem < left:
                return
            hi = min(hi, rem - (left - 1))
        for v in range(hi, 0, -1):
            if not part_allowed_for_A(v, i):
                continue
            for tail in gen(rem - v, v, None if left is None else left - 1):
                yield (v,) + tail

    return gen(n, n, fixed_length)


def _check_bounds(n, fixed_length):
    if n < 0:
        raise ValueError("n must be >= 0")
    if fixed_length is not None and fixed_length < 0:
        raise ValueError("fixed_length must be >= 0")


def enumerate_family(
    n: int, f: FamilySpec, fixed_length: Optional[int] = None
) -> Iterator[Partition]:
    """Yield the members of family f at weight n, lexicographically decreasing.

    Agrees with filtering enumerate_partitions through is_member for every n
    where both are feasible.  The B enumerator prunes on the gap structure
    (output-proportional cost, usable far beyond the unrestricted oracle)
    and yields groups of members that share a prefix (see member_groups);
    this form flattens them.  The P enumerator lists each length on its own
    as the product of its two parity classes, and the free-length form
    merges the lengths' lists.  Sub-lists of weight at most 32 (B tails, P
    class lists) are built once per process and shared by later calls, as
    tuples no consumer can change; the counts read the same sub-lists.
    """
    _check_bounds(n, fixed_length)
    if f.kind == "A":
        yield from _enumerate_A(n, f.i, fixed_length)
    elif f.kind == "B":
        yield from _enumerate_B(n, f.i, f.min_part, fixed_length)
    else:
        yield from _enumerate_P(n, f.i, f.min_part, fixed_length)


def member_groups(
    n: int, f: FamilySpec, fixed_length: Optional[int] = None
) -> Iterator[tuple[Partition, Sequence[Partition]]]:
    """The members of enumerate_family(n, f, fixed_length), in its order, as
    (prefix, tails) groups whose members are prefix + t for t in tails.

    Every tails is a tuple.  For kind B, a group's tails may be a
    free-length tail list that the enumerator lists once per process and
    hands to every prefix that reaches it, so a consumer can do per-tail
    work once per distinct list.  Such a list can be empty.  Every other
    member, and every member of kinds P and A, is a group of its own with
    tails ((),).  A prefix is empty only in the group of the empty
    partition.
    """
    _check_bounds(n, fixed_length)
    if f.kind == "B":
        return _b_groups(n, f.i, f.min_part, fixed_length)
    return ((p, _WHOLE) for p in enumerate_family(n, f, fixed_length))


def count_family(n: int, f: FamilySpec, fixed_length: Optional[int] = None) -> int:
    """Number of members of family f at weight n (optionally of fixed length).

    Kinds P and B are counted from the enumerator's sub-lists, building no
    member: len(tops) * len(gaps) per pair of P class lists, len(tails) per
    B group.  Kind A is enumerated.
    """
    _check_bounds(n, fixed_length)
    if f.kind == "B":
        return sum(len(tails) for _, tails in _b_groups(n, f.i, f.min_part, fixed_length))
    if f.kind == "P":
        lengths = _p_lengths(n, f.i, f.min_part) if fixed_length is None else (fixed_length,)
        return sum(_p_count(n, f.i, f.min_part, m) for m in lengths)
    return sum(1 for _ in enumerate_family(n, f, fixed_length))


def counts_by_length(n: int, f: FamilySpec) -> Counter:
    """Counter mapping length m to the number of members of f at weight n;
    lengths with no member are absent.

    One pass over the sub-lists count_family reads (a B member's length is
    its prefix's plus its tail's); cheaper than calling count_family per
    length when a whole column of refined counts is needed.
    """
    _check_bounds(n, None)
    if f.kind == "A":
        return Counter(map(len, enumerate_family(n, f)))
    c = Counter()
    if f.kind == "B":
        for prefix, tails in _b_groups(n, f.i, f.min_part, None):
            c.update(map(len(prefix).__add__, map(len, tails)))
    else:
        for m in _p_lengths(n, f.i, f.min_part):
            members = _p_count(n, f.i, f.min_part, m)
            if members:
                c[m] = members
    return c
