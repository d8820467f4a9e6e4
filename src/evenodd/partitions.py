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
from operator import add, sub
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
    return _partitions(n, fixed_length, min_part, None)


def _partitions(n, fixed_length, min_part, allowed):
    # enumerate_partitions with every part v also satisfying allowed(v), or
    # every part when allowed is None
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
            hi = min(hi, rem - (left - 1) * min_part)
            lo = max(lo, -(-rem // left))
        parts = range(hi, lo - 1, -1)
        for v in parts if allowed is None else filter(allowed, parts):
            for tail in gen(rem - v, v, None if left is None else left - 1):
                yield (v,) + tail

    return gen(n, n, fixed_length)


# sub-lists of at most this weight (the free-length B tails, and the offset
# tuples u of P's classes and B's fixed lengths, weighed as 2*sum(u)) are
# built once per process and shared by every call that reaches them; heavier
# ones are built again on each call, so the memos stay small.  Each memo
# maps a key whose first field is the tails' weight, or sum(u), to a tuple.
_B_MEMO_MAX_REM = 32
_B_TAILS = {}
_P_OFFSETS = {}

# the P counts recurse over the listing's branching rules and keep the
# states they reach as ints or tuples of ints: the class sizes and least
# weights.  The B counts read _B_ROWS alone (see _b_at_most).  A top-level
# count that leaves more than _COUNT_MEMO_MAX states, each cell of
# _B_ROWS one, clears them all.
_P_SIZES = {}
_P_LEAST = {}
_B_ROWS = []
_COUNT_MEMO_MAX = 1 << 18

# the tails of a group whose prefix is a whole member
_WHOLE = ((),)


def _b_floor(i, j):
    # gap >= 2 forces distinct parts, so "at most i-1 parts equal j" reduces
    # to a floor: lo = j for i=2, lo = j+1 for i=1
    return j if i == 2 else j + 1


def _b_parts(rem, hi, lo):
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


def _b_groups(n, i, j, fixed_length):
    # the members as member_groups describes them.  An m-part member is the
    # staircase lo+2(m-1), ..., lo+2, lo plus a partition of u = n-m(lo+m-1)
    # into at most m parts, padded with zeros: a fixed length lists the
    # offset tuples of the bound-class state (u, m, u, u, 0, 0) of
    # _p_offsets, each member a group of its own.  A free-length subtree of
    # remaining weight <= _B_MEMO_MAX_REM below a nonempty prefix is one
    # group: the prefix and that subtree's list in _B_TAILS, keyed by
    # (remaining weight, max part, floor), which every prefix reaching the
    # subtree shares.  It can be empty, since _b_parts bounds what a tail
    # can make up only from above.
    lo = _b_floor(i, j)
    if fixed_length is not None:
        m = fixed_length
        u = n - m * (lo + m - 1)
        if u >= 0:
            stair = range(lo + 2 * m - 2, lo - 1, -2)
            for t in _p_offsets(u, m, u, u, 0, 0):
                yield tuple(map(add, stair, t)), _WHOLE
        return
    if n == 0:
        yield (), _WHOLE
        return

    def tails(rem, maxp):
        # every gap->=2 partition of rem > 0 with parts in [lo, maxp], as a
        # tuple in lexicographically decreasing order
        maxp = min(maxp, rem)
        key = (rem, maxp, lo)
        out = _B_TAILS.get(key)
        if out is None:
            out = []
            for v in _b_parts(rem, maxp, lo):
                if v == rem:
                    out.append((v,))
                else:
                    out.extend([(v,) + tail for tail in tails(rem - v, v - 2)])
            out = _B_TAILS[key] = tuple(out)
        return out

    def gen(prefix, rem, maxp):
        if rem <= _B_MEMO_MAX_REM and prefix:
            yield prefix, tails(rem, maxp)
            return
        for v in _b_parts(rem, min(maxp, rem), lo):
            if v == rem:
                yield prefix + (v,), _WHOLE
            else:
                yield from gen(prefix + (v,), rem - v, v - 2)

    yield from gen((), n, n)


def _b_at_most(k, v):
    # p_{<=k}(v), the partitions of v into at most k parts (0 when v < 0).
    # Up to two parts it is 1, or v//2 + 1 for two (a count of twos).  Row t >= 3
    # of _B_ROWS holds p_{<=t}(w) at w = 0, 1, ..., widened in place as far
    # as a count asks: row t-1 plus itself t places back (a partition into
    # at most t parts has fewer parts, or is t ones added to another).  Rows
    # 0 to 2 stay empty, and a count that would add more than
    # _COUNT_MEMO_MAX cells raises ValueError
    k = min(k, v)
    if k < 3:
        return v // 2 + 1 if k == 2 else int(v == 0 or k == 1)
    rows = _B_ROWS
    if k < len(rows) and v < len(rows[k]):
        return rows[k][v]
    rows += [[] for _ in range(k + 1 - len(rows))]
    if sum(max(0, v + 1 - len(rows[t])) for t in range(3, k + 1)) > _COUNT_MEMO_MAX:
        raise ValueError("a B count of at most %d parts at weight %d would add more than"
                         " _COUNT_MEMO_MAX = %d cells to its table" % (k, v, _COUNT_MEMO_MAX))
    for t in range(3, k + 1):
        row = rows[t]
        start = len(row)
        row += rows[t - 1][start:v + 1] if t > 3 else [w // 2 + 1 for w in range(start, v + 1)]
        for w in range(max(start, t), v + 1):
            row[w] += row[w - t]
    return rows[k][v]


def _b_lengths(n, i, j):
    # h[m] = _b_count(n, i, j, m) at every m whose staircase fits in n, not
    # read through _b_count: tests/mutants.py patches both, once each
    lo, h = _b_floor(i, j), []
    while (u := n - len(h) * (lo + len(h) - 1)) >= 0:
        h.append(_b_at_most(len(h), u))
    return h


def _b_count(n, i, j, m):
    # the number of B members of weight n with m parts: the partitions of
    # n - m(lo+m-1) into at most m parts, as _b_groups lists them
    return _b_at_most(m, n - m * (_b_floor(i, j) + m - 1))


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
    lengths = _p_lengths(n, i, j) if fixed_length is None else (fixed_length,)
    return sorted([p for m in lengths for p in _p_members_fixed(n, i, j, m)], reverse=True)


def _p_least_weights(i, j, m):
    """lw[l] for l = 0 .. m, as a tuple: a lower bound on the weight of any
    l parts of an m-part member of P with index i and minimum part j.

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
    lw = _P_LEAST.get((i, j, m))
    if lw is None:
        bound = 2 * m + j - 1
        lw = [0]
        for t in range(m):
            c = j + 2 * t if i == 2 else j + 2 + 4 * (t // 2)
            lw.append(lw[-1] + min(c, bound))
        lw = _P_LEAST[i, j, m] = tuple(lw)
    return lw


def _p_size(u, left, a, b, g, d):
    # len(_p_offsets(u, left, a, b, g, d)), by the same rule, for P's
    # classes only (a fixed B length is listed by _p_offsets, not counted)
    if left < 2:
        return int(u == 0 if left == 0 else -d <= u <= a)
    if a > u + d:
        a = u + d
    if b > a:
        b = a
    key = (u, left, a, b, g, d)
    c = _P_SIZES.get(key)
    if c is None:
        c = _P_SIZES[key] = sum([
            _p_size(u - x, left - 1, x if x < b else b, x - g, g, d)
            for x in range(a, max(0, -(-u // left)) - 1, -1)
        ])
    return c


def _p_offsets(u, left, a, b, g, d):
    # every non-increasing tuple of `left` offsets summing to u, in
    # lexicographically decreasing order (a P class, or the B members of one
    # fixed length, see _b_groups), as a tuple when it is light enough to
    # keep and otherwise as a generator, read once, so that a heavy list
    # streams as the B enumerator does: the first offset is at most a
    # and the second at most b, offsets two places apart differ by at least
    # g, and every offset is at least 0 except the last, which is at least
    # -d.  The first offset is the largest, so at least u/left, and leaves
    # at least -d for the others.
    if left < 2:
        if left == 0:
            return _WHOLE if u == 0 else ()
        return ((u,),) if -d <= u <= a else ()
    a = min(a, u + d)
    b = min(b, a)
    if u == g == d == 0:  # all zeros, at once, not one nested generator per part
        return ((0,) * left,) if b >= 0 else ()
    key = (u, left, a, b, g, d)
    out = _P_OFFSETS.get(key)
    if out is None:
        out = (
            (x,) + t
            for x in range(a, max(0, -(-u // left)) - 1, -1)
            for t in _p_offsets(u - x, left - 1, min(x, b), x - g, g, d)
        )
        if 2 * u <= _B_MEMO_MAX_REM:
            out = _P_OFFSETS[key] = tuple(out)
    return out


def _p_pairs(n, i, j, m):
    """The even-odd family members with exactly m parts, as pairs of
    _p_offsets states (tops, gaps): the members are every merge of a tops
    tuple u as parts 2m+j-1+2u with a gaps tuple u as parts j+2+2u.

    By is_member_unchecked, the parts of an m-part member split by parity
    into two classes, each with clauses of its own:

    * the bound class: r1 parts of the parity of j-1, each at least
      bound = 2m+j-1, so u is a partition into at most r1 parts, padded
      with zeros;
    * the gap class: the other m-r1 parts, of the parity of j, two places
      apart differing by at least 4 (u by 2), each at least j+2 (u >= 0)
      except the smallest, which is at least j (u >= -1) when i = 2 (at
      most i-1 parts equal j).

    The classes differ in parity, so every pair of tuples merges into one
    member and every member splits into one pair: the states pair up once
    per r1 and bound-class weight.  A bound-class state depends on neither
    m nor j, and a gap-class state not on j.  B's fixed lengths are listed
    as bound-class states too, of offsets from a staircase (see _b_groups).

    Every part is at least j, so there is no pair when m*j > n; this is
    checked first, as a huge fixed length would otherwise build m+1 least
    weights and try m+1 values of r1.
    """
    if m * j > n:
        return
    bound = 2 * m + j - 1
    d = i - 1
    # the m - r1 gap-class parts weigh at least lw[m - r1], and the parts'
    # parities make n = m*j - r1 (mod 2)
    lw = _p_least_weights(i, j, m)
    for r1 in range((m * j - n) % 2, m + 1, 2):
        u = (n - r1 * bound - (m - r1) * (j + 2)) // 2
        for u1 in range((n - lw[m - r1] - r1 * bound) // 2 + 1 if r1 else 1):
            yield (u1, r1, u1, u1, 0, 0), (u - u1, m - r1, u - u1 + d, u - u1 + d, 2, d)


def _p_members_fixed(n, i, j, m):
    # the members of every pair of _p_pairs, in no particular order; with
    # r1 = 0 a gap-class tuple alone is a whole member
    bound = 2 * m + j - 1
    out = []
    for tops, gaps in _p_pairs(n, i, j, m):
        gaps = [tuple([j + 2 + 2 * u for u in t]) for t in _p_offsets(*gaps)]
        if tops[1]:
            tops = [tuple([bound + 2 * u for u in t]) for t in _p_offsets(*tops)]
            gaps = [tuple(sorted(t + g, reverse=True)) for t in tops for g in gaps]
        out.extend(gaps)
    return out


def _p_count(n, i, j, m):
    # the number of P members of weight n with m parts
    return sum([_p_size(*tops) * _p_size(*gaps) for tops, gaps in _p_pairs(n, i, j, m)])


def _a_lengths(n, i, longest):
    # h[m] = the number of A members of weight n with m parts, for m up to
    # longest and n // lo, lo the least allowed part.  rows[m][w] counts
    # the partitions of w into exactly m allowed parts.  The part sizes s
    # are folded in one at a time; for each m, ascending, those with a part
    # s are s plus one of w - s into m - 1 parts, which row m - 1 already
    # counts with s allowed.  A table of more than _COUNT_MEMO_MAX cells
    # raises ValueError
    lo = 1 if i == 2 else 2
    top = min(longest, n // lo)
    if (top + 1) * (n + 1) > _COUNT_MEMO_MAX:
        raise ValueError("an A count of at most %d parts at weight %d would build more than"
                         " _COUNT_MEMO_MAX = %d cells" % (top, n, _COUNT_MEMO_MAX))
    rows = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(top)]
    for s in range(lo, n + 1):
        if part_allowed_for_A(s, i):
            # m parts, one of them s and the rest >= lo, weigh <= n
            for m in range(1, min(top, (n - s) // lo + 1) + 1):
                rows[m][s:] = map(add, rows[m][s:], rows[m - 1][:n + 1 - s])
    return [row[n] for row in rows]


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
    merges the lengths' lists; each class is listed as offsets from its
    least part (see _p_pairs), and a fixed-length B member as a P
    bound-class tuple of offsets from a staircase (see _b_groups).
    Sub-lists of weight at most 32 (B tails, offset tuples) are built once
    per process and shared by later calls, as tuples no consumer can
    change.  The counts build none of these lists.
    """
    _check_bounds(n, fixed_length)
    if f.kind == "A":
        yield from _partitions(n, fixed_length, 1, lambda v: part_allowed_for_A(v, f.i))
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


def _bounded(result):
    # result, after clearing the count memos if they hold too many states
    if len(_P_SIZES) + len(_P_LEAST) + sum(map(len, _B_ROWS)) > _COUNT_MEMO_MAX:
        for memo in (_P_SIZES, _P_LEAST, _B_ROWS):
            memo.clear()
    return result


def count_family(n: int, f: FamilySpec, fixed_length: Optional[int] = None) -> int:
    """Number of members of family f at weight n (optionally of fixed length).

    Kinds P and B build no member and no sub-list.  P is counted by a
    memoized recursion over the enumerator's branching rule: a pair of
    class states (see _p_pairs) holds the product of their sizes in
    members.  B of m parts is counted as the partitions of n - m(lo+m-1)
    into at most m parts, lo its least allowed part (see _b_groups), read
    from a table of them that nothing else reads.  The states and cells
    are kept across calls until a call leaves more than _COUNT_MEMO_MAX,
    which clears them all.  A is counted by length from a table of the
    partitions into exactly m allowed parts, built for the call (see
    _a_lengths).  No count lists a member.
    """
    _check_bounds(n, fixed_length)
    if fixed_length is None:
        return counts_by_length(n, f).total()
    if f.kind == "A":
        h = _a_lengths(n, f.i, fixed_length)
        return h[fixed_length] if fixed_length < len(h) else 0
    return _bounded((_b_count if f.kind == "B" else _p_count)(n, f.i, f.min_part, fixed_length))


def counts_by_length(n: int, f: FamilySpec) -> Counter:
    """Counter mapping length m to the number of members of f at weight n;
    lengths with no member are absent.

    Each kind reads what count_family reads at every length a member of
    weight n can have, which is cheaper than one call per length.
    """
    _check_bounds(n, None)
    if f.kind == "A":
        counts = enumerate(_a_lengths(n, f.i, n))
    elif f.kind == "B":
        counts = enumerate(_b_lengths(n, f.i, f.min_part))
    else:
        counts = ((m, _p_count(n, f.i, f.min_part, m)) for m in _p_lengths(n, f.i, f.min_part))
    return _bounded(Counter({m: c for m, c in counts if c}))
