"""Recurrence tables for length-refined family counts and identity sweeps.

Three recursion systems determine the refined counts t(i, m, n).  They share
one shape, parametrized by an offset a:

    t(1, m, n) = t(1, m-1, n-2m-a) + t(2, m, n-2m)
    t(2, m, n) = t(1, m, n) + t(2, m-1, n-2m-a+1)

with base value 1 at (m, n) = (0, 0) and 0 whenever m <= 0 or n <= 0
otherwise.  System1 has a = 0 and governs the base families (minimum part 1);
System2(k) has a = 2k for minimum part 2k+1; System3(k) has a = 2k-1 for
minimum part 2k.  Every recursive reference lowers n, so tables fill in
increasing n with i=1 computed before i=2 at each cell.
"""

from math import isqrt

from .partitions import FamilySpec, count_family, counts_by_length


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


def system1() -> CountTable:
    return CountTable("System1", 0)


def system2(k: int) -> CountTable:
    if k < 1:
        raise ValueError("k must be >= 1")
    return CountTable("System2(k=%d)" % k, 2 * k)


def system3(k: int) -> CountTable:
    if k < 1:
        raise ValueError("k must be >= 1")
    return CountTable("System3(k=%d)" % k, 2 * k - 1)


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

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


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


def column(f: FamilySpec, max_n: int, columns=None) -> list:
    """[counts_by_length(n, f) for n = 0 .. max_n], one count per weight
    (for kinds P and B, counted without building a member); or the
    column for f that the caller has counted in columns."""
    col = (columns or {}).get(f)
    return col if col is not None else [counts_by_length(n, f) for n in range(max_n + 1)]


def sweep(system, family, max_n, sources, pairs, indices=(1, 2)) -> VerificationReport:
    """The mismatches of pairs at every cell (i, m, n), 0 <= m <= n <= max_n
    and i in indices, in n, m, i order; sources maps each source name to a
    function (i, m, n) -> count, read once per cell."""
    cells = (
        (i, m, n, {name: count(i, m, n) for name, count in sources.items()})
        for n in range(max_n + 1)
        for m in range(n + 1)
        for i in indices
    )
    return VerificationReport(system, family, max_n, list(mismatches(cells, pairs)))


def variant_for_min_part(min_part: int) -> CountTable:
    """The recursion system governing a family with the given minimum part."""
    if min_part == 1:
        return system1()
    if min_part % 2 == 1:
        return system2((min_part - 1) // 2)
    return system3(min_part // 2)


def _oracle(t, f, max_n):
    # the variant check, then the enumerated count of f's kind at (i, m, n)
    # for both index values, as a source
    if variant_for_min_part(f.min_part).variant != t.variant:
        raise ValueError(
            "table %s does not govern min_part %d" % (t.variant, f.min_part)
        )
    columns = [column(FamilySpec(f.kind, i, f.min_part), max_n) for i in (1, 2)]
    # out-of-range cells count nothing; in-range cells come from the oracle
    return lambda i, m, n: columns[i - 1][n][m] if 0 <= m <= n else 0


def verify_system(t: CountTable, f: FamilySpec, max_n: int) -> VerificationReport:
    """Check that f's refined oracle counts satisfy t's two equations.

    The equations couple the index values, so both i=1 and i=2 are swept
    regardless of f.i.  The table variant must match f.min_part (System1 for
    minimum part 1, System2(k) for 2k+1, System3(k) for 2k); a mismatch is a
    usage error.  Violated cells carry the equation's right-hand side as
    "expected" and the oracle count as "actual".
    """
    oracle = _oracle(t, f, max_n)
    a = t.offset

    def equation(i, m, n):
        if (m, n) == (0, 0):
            return 1  # the base value
        if i == 1:
            return oracle(1, m - 1, n - 2 * m - a) + oracle(2, m, n - 2 * m)
        return oracle(1, m, n) + oracle(2, m - 1, n - 2 * m - a + 1)

    sources = {"equation": equation, "oracle": oracle}
    return sweep(t.variant, f.label(), max_n, sources, [("equation", "oracle")])


def compare_table_oracle(t: CountTable, f: FamilySpec, max_n: int) -> VerificationReport:
    """Cellwise table against oracle: t(i,m,n) vs refined count of f.

    Same variant-matching rule as verify_system; both index values swept.
    """
    sources = {"table": t.value, "oracle": _oracle(t, f, max_n)}
    return sweep(t.variant + ":cells", f.label(), max_n, sources, [("table", "oracle")])


def shift_identity_check(k: int, i: int, max_n: int, columns=None) -> VerificationReport:
    """Pointwise checks of the four shift equations for one k and index i.

    For all m <= n <= max_n, using oracle counts (p for kind P, b for kind B):

        p[2k+1](m, n) = p(m, n - 2mk)        b[2k+1](m, n) = b(m, n - 2mk)
        p[2k](m, n)   = p[2k+1](m, n + m)    b[2k](m, n)   = b[2k+1](m, n + m)

    Every left side is read from a whole column (counts_by_length at each
    weight n <= max_n).  A right side is read per cell: the base count
    p(m, n - 2mk) as one fixed-length count (0 at a negative weight), and
    p[2k+1](m, n + m) from the odd-shift column when n + m <= max_n, else
    as one fixed-length count.  So nothing is counted at a cell that no
    equation reads.  Each count is count_family's, which builds no
    member for kinds P and B.

    columns, when given, maps a FamilySpec to a column the caller has
    already counted, which is read rather than counted again.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def equations(kind):
        f_base, f_odd = FamilySpec(kind, i, 1), FamilySpec(kind, i, 2 * k + 1)
        odd = column(f_odd, max_n, columns)
        even = column(FamilySpec(kind, i, 2 * k), max_n, columns)
        sources = {
            "odd": lambda i, m, n: odd[n][m],
            "base": lambda i, m, n: count_family(n - 2 * m * k, f_base, m) if n >= 2 * m * k else 0,
            "even": lambda i, m, n: even[n][m],
            "odd-up": lambda i, m, n: odd[n + m][m] if n + m <= max_n else count_family(n + m, f_odd, m),
        }
        pairs = [("base", "odd"), ("odd-up", "even")]
        return sweep("shift-equations(k=%d)" % k, "P+B(i=%d)" % i, max_n, sources, pairs, (i,))

    report = equations("P")
    report.violations += equations("B").violations
    return report


def verify_family(f: FamilySpec, max_n: int) -> VerificationReport:
    """Enumerated P and B of f's index and minimum part against each other
    and the table that governs them, at every cell up to max_n; then, at a
    minimum part 2k+1 or 2k, the shift equations, read from the same two
    columns.  The totals are P's and B's at each weight."""
    table = variant_for_min_part(f.min_part)
    fP, fB = FamilySpec("P", f.i, f.min_part), FamilySpec("B", f.i, f.min_part)
    colP, colB = column(fP, max_n), column(fB, max_n)
    sources = {
        "P": lambda i, m, n: colP[n][m],
        "B": lambda i, m, n: colB[n][m],
        "table": table.value,
    }
    pairs = [("B", "P"), ("table", "P"), ("table", "B")]
    family = "P+B(i=%d,min_part=%d)" % (f.i, f.min_part)
    report = sweep("P=B+%s" % table.variant, family, max_n, sources, pairs, (f.i,))
    report.totals = [(n, {"P": colP[n].total(), "B": colB[n].total()}) for n in range(max_n + 1)]
    if f.min_part > 1:
        k = f.min_part // 2  # the minimum part is 2k+1 or 2k
        report.violations += shift_identity_check(k, f.i, max_n, {fP: colP, fB: colB}).violations
        report.system += "+shift-equations"
    return report


def verify_product(i: int, max_n: int, product, witness_max_n) -> VerificationReport:
    """The kind-A product series against the System1 table's B totals at each
    weight up to max_n; then, unless witness_max_n is None, refined_AB_witness
    up to that weight, whose cell is a violation.  The totals are A's and B's."""
    table = system1()
    totals = [(n, {"A": product[n], "B": family_count_via_table(table, i, n)}) for n in range(max_n + 1)]
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
    shows the identity does not refine by length.  Each weight is counted
    only once the ones below it agree.
    """
    fa = FamilySpec("A", i)
    fb = FamilySpec("B", i)

    def cells():
        for n in range(0, max_n + 1):
            ca = counts_by_length(n, fa)
            cb = counts_by_length(n, fb)
            for m in range(0, n + 1):
                yield i, m, n, {"A": ca[m], "B": cb[m]}

    v = next(mismatches(cells(), [("B", "A")]), None)
    return None if v is None else (v["m"], v["n"], v["actual"], v["expected"])
