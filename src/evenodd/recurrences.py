"""Recurrence tables for length-refined family counts and identity sweeps.

Three recursion systems determine the refined counts t(i, m, n).  They share
one shape, parametrized by an offset a:

    t(1, m, n) = t(1, m-1, n-2m-a) + t(2, m, n-2m)
    t(2, m, n) = t(1, m, n) + t(2, m-1, n-2m-a+1)

with base value 1 at (m, n) = (0, 0) and 0 whenever m <= 0 or n <= 0
otherwise.  A family of minimum part j has the offset a = j - 1
(variant_for_min_part): System1 (a = 0) for the base families, j = 1;
System2(k) (a = 2k) for j = 2k+1; System3(k) (a = 2k-1) for j = 2k.  Every
recursive reference lowers n, so tables fill in increasing n with i=1
computed before i=2 at each cell.
"""

from math import isqrt

from .partitions import FamilySpec
from .sources import ENUMERATION, PRODUCT, TABLE


class CountTable:
    """Lazily filled table of refined counts for one recursion system.

    A cell t(i, m, n) can be nonzero only when n >= m^2 + a*m, so row n of
    index i is a list over m = 0 .. M(n), the largest m with m^2 + a*m <= n.
    Every other cell is a structural zero.  A row holds about sqrt(n) cells,
    so a table filled to weight N holds O(N^1.5) cells, not the O(N^2) with
    m <= n.

    Why the zeros are safe.  Take a cell with m >= 1, n >= 1 and
    n < m^2 + a*m, and assume every such cell of smaller weight (or of i=1 at
    the same weight) is 0.  Each reference (m', n') of its equation is again
    below the bound:

        (m-1, n-2m-a):    n' < (m-1)^2 + a(m-1)  iff  n < m^2 + a*m + 1
        (m, n-2m):        n' < n < m^2 + a*m
        (m-1, n-2m-a+1):  n' < (m-1)^2 + a(m-1)  iff  n < m^2 + a*m
        t(1, m, n):       the same cell, with i=1

    A reference below the bound is a base zero (m' <= 0 or n' <= 0) or zero
    by the assumption; it is never the base cell (0, 0) = 1, which meets the
    bound.  So the cell is 0, by induction on n.  The third line also shows
    that (m-1, n-2m-a+1) is a stored cell whenever (m, n) is.
    """

    def __init__(self, variant: str, offset: int):
        self.variant = variant
        self.offset = offset
        # _rows[i - 1][n][m] is t(i, m, n) for m <= M(n); filled in n order
        self._rows = ([], [])

    def _fill(self, upto):
        a = self.offset
        rows1, rows2 = self._rows
        for n in range(len(rows1), upto + 1):
            top = (isqrt(a * a + 4 * n) - a) // 2  # M(n)
            row1, row2 = [0] * (top + 1), [0] * (top + 1)
            if n == 0:
                row1[0] = row2[0] = 1
            for m in range(1, top + 1):
                lo, mid = n - 2 * m - a, n - 2 * m
                v1 = rows1[lo][m - 1] if lo >= 0 and m <= len(rows1[lo]) else 0
                if mid >= 0 and m < len(rows2[mid]):
                    v1 += rows2[mid][m]
                row1[m] = v1
                row2[m] = v1 + rows2[lo + 1][m - 1]
            rows1.append(row1)
            rows2.append(row2)

    def row(self, i, n):
        """The stored cells t(i, 0 .. M(n), n); every longer length counts 0."""
        if i not in (1, 2):
            raise ValueError("i must be 1 or 2")
        if n >= len(self._rows[0]):
            self._fill(n)
        return self._rows[i - 1][n]

    def stores(self, m, n):
        """True when t(i, m, n) is a stored cell, which value reads by
        filling the table to weight n; every other cell it answers at once."""
        return m > 0 and m * (m + self.offset) <= n

    def value(self, i, m, n):
        if i not in (1, 2):
            raise ValueError("i must be 1 or 2")
        if not self.stores(m, n):
            # structural zeros, answered without filling
            return 1 if m == 0 and n == 0 else 0
        return self.row(i, n)[m]


def variant_for_min_part(min_part: int) -> CountTable:
    """The recursion table of a family with minimum part j = min_part, of
    offset j - 1: System1 for j = 1, System2(k) for j = 2k+1, System3(k)
    for j = 2k."""
    if type(min_part) is not int or min_part < 1:
        raise ValueError("min_part must be a positive integer, got %r" % (min_part,))
    name = "System1" if min_part == 1 else "System%d(k=%d)" % (2 if min_part % 2 else 3, min_part // 2)
    return CountTable(name, min_part - 1)


def family_count_via_table(t: CountTable, i: int, n: int) -> int:
    """Total count at weight n as the sum of refined counts over lengths."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(t.row(i, n))


class VerificationReport:
    """Outcome of one identity sweep: empty violations means verified.  A
    sweep of totals lists them per weight in totals, as (n, {source: total})."""

    def __init__(self, system: str, family: str, max_n: int, violations=None, totals=()):
        self.system = system
        self.family = family
        self.max_n = max_n
        self.violations = [] if violations is None else violations
        self.totals = totals

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "family": self.family,
            "max_n": self.max_n,
            "violations": self.violations,
        }


def mismatches(cells, pairs):
    """Yield a violation record for every disagreeing source pair at a cell.

    cells yields (i, m, n, counts) with counts mapping a source name to its
    count at that cell; pairs lists (expected, actual) source names.  Cells
    are read in order, and as they are needed, so a caller can stop at the
    first record; at each cell the pairs are checked in order, and each pair
    whose counts differ gives {"i", "m", "n", "expected", "actual"}.
    """
    for i, m, n, counts in cells:
        for want, got in pairs:
            if counts[want] != counts[got]:
                yield {"i": i, "m": m, "n": n, "expected": counts[want], "actual": counts[got]}


def _cells(max_n, sources, indices):
    # every cell (i, m, n), 0 <= m <= n <= max_n and i in indices, in n, m,
    # i order, with each source's count there, read as the cell is reached
    return (
        (i, m, n, {name: count(i, m, n) for name, count in sources.items()})
        for n in range(max_n + 1)
        for m in range(n + 1)
        for i in indices
    )


def sweep(system, family, max_n, sources, pairs, indices=(1, 2)) -> VerificationReport:
    """The mismatches of pairs at the cells of _cells; sources maps each
    source name to a reader (i, m, n) -> count (see sources.Source)."""
    violations = list(mismatches(_cells(max_n, sources, indices), pairs))
    return VerificationReport(system, family, max_n, violations)


def verify_system(f: FamilySpec, max_n: int) -> VerificationReport:
    """Check that f's refined oracle counts (the enumeration row's, a column
    at a time) satisfy the two equations of the table of f's minimum part.

    The equations couple the index values, so both i=1 and i=2 are swept
    regardless of f.i.  Violated cells carry the equation's right-hand side
    as "expected" and the oracle count as "actual".
    """
    t = variant_for_min_part(f.min_part)
    oracle = ENUMERATION.open(f.kind, f.min_part, max_n, {})
    a = t.offset

    def equation(i, m, n):
        if (m, n) == (0, 0):
            return 1  # the base value
        if i == 1:
            return oracle(1, m - 1, n - 2 * m - a) + oracle(2, m, n - 2 * m)
        return oracle(1, m, n) + oracle(2, m - 1, n - 2 * m - a + 1)

    sources = {"equation": equation, "oracle": oracle}
    return sweep(t.variant, f.label(), max_n, sources, [("equation", "oracle")])


def compare_table_oracle(f: FamilySpec, max_n: int) -> VerificationReport:
    """Cellwise table row against oracle: t(i,m,n), t the table of f's
    minimum part, vs the refined count of f; both index values swept."""
    sources = {row.name: row.open(f.kind, f.min_part, max_n, {}) for row in (TABLE, ENUMERATION)}
    name = variant_for_min_part(f.min_part).variant + ":cells"
    return sweep(name, f.label(), max_n, sources, [("table", "enumeration")])


def shift_identity_check(k: int, i: int, max_n: int, columns=None) -> VerificationReport:
    """Pointwise checks of the four shift equations for one k and index i.

    For all m <= n <= max_n, using oracle counts (p for kind P, b for kind B):

        p[2k+1](m, n) = p(m, n - 2mk)        b[2k+1](m, n) = b(m, n - 2mk)
        p[2k](m, n)   = p[2k+1](m, n + m)    b[2k](m, n)   = b[2k+1](m, n + m)

    Every count is the enumeration row's: each left side, and p[2k+1](m,
    n + m) when n + m <= max_n, from a whole column, kept in columns (which
    may hold the caller's); every other right side as one fixed-length
    count.  So nothing is counted at a cell that no equation reads.

    Both sides read the same count states (B's staircase cells and P's
    class sizes serve every minimum part), so this sees a member dropped at
    one minimum part, but a corrupted state gives both sides the same wrong
    count: only a check of P against B or the table (verify_family) sees it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    columns = {} if columns is None else columns

    def equations(kind):
        base = ENUMERATION.open(kind, 1, max_n)
        odd = ENUMERATION.open(kind, 2 * k + 1, max_n, columns)
        sources = {
            "odd": odd,
            "base": lambda i, m, n: base(i, m, n - 2 * m * k),
            "even": ENUMERATION.open(kind, 2 * k, max_n, columns),
            "odd-up": lambda i, m, n: odd(i, m, n + m),
        }
        pairs = [("base", "odd"), ("odd-up", "even")]
        return sweep("shift-equations(k=%d)" % k, "P+B(i=%d)" % i, max_n, sources, pairs, (i,))

    report = equations("P")
    report.violations += equations("B").violations
    return report


def verify_family(f: FamilySpec, max_n: int) -> VerificationReport:
    """The P and B length counts of f's index and minimum part against each
    other and the table row, at every cell up to max_n; then, at a minimum
    part 2k+1 or 2k, the shift equations, read from the same two columns.
    The totals are P's and B's at each weight."""
    columns = {}
    sources = {kind: ENUMERATION.open(kind, f.min_part, max_n, columns) for kind in "PB"}
    sources["table"] = TABLE.open(f.kind, f.min_part, max_n)
    pairs = [("B", "P"), ("table", "P"), ("table", "B")]
    family = "P+B(i=%d,min_part=%d)" % (f.i, f.min_part)
    report = sweep("P=B+" + variant_for_min_part(f.min_part).variant, family, max_n, sources, pairs, (f.i,))
    report.totals = [(n, {kind: sources[kind](f.i, None, n) for kind in "PB"}) for n in range(max_n + 1)]
    if f.min_part > 1:
        k = f.min_part // 2  # the minimum part is 2k+1 or 2k
        report.violations += shift_identity_check(k, f.i, max_n, columns).violations
        report.system += "+shift-equations"
    return report


def verify_product(i: int, max_n: int, witness_max_n) -> VerificationReport:
    """The product row (kind-A totals) against the table row's System1 B
    totals at each weight up to max_n; then, unless witness_max_n is None,
    refined_AB_witness up to that weight, whose cell is a violation.  The
    totals are A's and B's."""
    sources = {"A": PRODUCT.open("A", 1, max_n), "B": TABLE.open("B", 1, max_n)}
    totals = [(n, {kind: read(i, None, n) for kind, read in sources.items()}) for n in range(max_n + 1)]
    cells = [(i, None, n, counts) for n, counts in totals]
    w = None if witness_max_n is None else refined_AB_witness(i, witness_max_n)
    if w is not None:
        m, n, ca, cb = w
        cells.append((i, m, n, {"A": ca, "B": cb}))
    system = "A-product=B-counts" + ("" if witness_max_n is None else "+refined")
    violations = list(mismatches(cells, [("B", "A")]))
    return VerificationReport(system, FamilySpec("A", i).label(), max_n, violations, totals)


def refined_AB_witness(i: int, max_n: int):
    """Smallest (n, m) in lexicographic order where the fixed-length counts
    of kinds A and B disagree, as (m, n, countA, countB); None if none occurs
    up to max_n.  The total counts at any weight still agree, so a witness
    shows the identity does not refine by length.  Both are the enumeration
    row's, and each weight is counted only once the ones below it agree.
    """
    sources = {kind: ENUMERATION.open(kind, 1, max_n, {}) for kind in "AB"}
    v = next(mismatches(_cells(max_n, sources, (i,)), [("B", "A")]), None)
    return None if v is None else (v["m"], v["n"], v["actual"], v["expected"])
