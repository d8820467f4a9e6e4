"""The count sources: one row per independent way to count a family, in
the order pick tries them (SOURCES).

A row holds the kinds it counts, whether it counts each length (refined),
the name of its bound ("oracle limit" or "fill limit", whose values the
caller holds) and what a refusal says it reads.  row.open(kind, min_part,
upto, columns) is its reader count(i, m, n): the count of index i and
length m (None for the total) at weight n, where upto is the product's
degree and the end of an enumerated column.  The product and table rows
load their modules only when used, and no row reaches another row's
(tests/test_independence.py), so a check of two rows never compares a
count with itself.
"""

from functools import lru_cache

from .partitions import FamilySpec, count_family, counts_by_length


class Source:
    """A row of SOURCES.  unfilled(min_part, m, n), when given, is true at
    the cells the row answers without a fill, which it admits at any weight."""

    def __init__(self, name, kinds, refined, bound, reads, open_, unfilled=None):
        self.name, self.kinds, self.refined, self.bound = name, kinds, refined, bound
        self.reads, self.open, self.unfilled = reads, open_, unfilled

    def admits(self, min_part, m, n, limit) -> bool:
        """True when the row reads weight n within limit, its bound's value."""
        return n <= limit or self.unfilled is not None and self.unfilled(min_part, m, n)


def _product(kind, min_part, upto, columns=None):
    # qseries.product_for_A, each index's series to degree upto computed
    # when it is first read
    from .qseries import product_for_A

    series = lru_cache(None)(lambda i: product_for_A(i, upto))
    return lambda i, m, n: series(i)[n]


def _enumeration(kind, min_part, upto, columns=None):
    # evenodd.partitions: one count_family per read; or, given columns, the
    # family's counts_by_length at each weight up to a read's n <= upto,
    # kept in columns by FamilySpec for every reader given the same dict.
    # A negative weight or length counts 0
    specs = {i: FamilySpec(kind, i, min_part) for i in (1, 2)}

    def count(i, m, n):
        if n < 0 or m is not None and m < 0:
            return 0
        if columns is None or n > upto:
            return count_family(n, specs[i], m)
        col = columns.setdefault(specs[i], [])
        while len(col) <= n:
            col.append(counts_by_length(len(col), specs[i]))
        return col[n].total() if m is None else col[n][m]

    return count


def _table_for(min_part):
    from .recurrences import variant_for_min_part

    return variant_for_min_part(min_part)


def _table(kind, min_part, upto, columns=None):
    # the recursion table of the minimum part; a total sums its lengths
    from .recurrences import family_count_via_table

    t = _table_for(min_part)
    return lambda i, m, n: family_count_via_table(t, i, n) if m is None else t.value(i, m, n)


PRODUCT = Source("product", "A", False, "fill limit",
                 lambda kind, min_part: "reads the kind-A product", _product)
ENUMERATION = Source("enumeration", "ABP", True, "oracle limit",
                     lambda kinds, _: "reads the length counts of kind " + " and ".join(kinds),
                     _enumeration)
# a structural zero needs no fill
TABLE = Source("table", "BP", True, "fill limit",
               lambda kind, min_part: "reads the %s table" % _table_for(min_part).variant, _table,
               lambda min_part, m, n: m is not None and not _table_for(min_part).stores(m, n))
SOURCES = (PRODUCT, ENUMERATION, TABLE)


def pick(kind, min_part, m, n, limits):
    """The first row that counts kind (by length when m is not None) and admits
    weight n within limits[row.bound]; else the one whose bound reaches farthest."""
    rows = [row for row in SOURCES if kind in row.kinds and (m is None or row.refined)]
    return next((row for row in rows if row.admits(min_part, m, n, limits[row.bound])),
                max(rows, key=lambda row: limits[row.bound]))
