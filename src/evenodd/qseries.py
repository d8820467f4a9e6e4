"""Truncated formal power series over exact integers.

Used to realize the product side of the partition identities: the generating
function of partitions into an allowed set of part sizes is the product of
geometric factors 1/(1-q^j) over allowed j, truncated at the working degree.
Coefficients are plain Python ints, so they never overflow or round.
"""

from typing import Callable

from .partitions import FamilySpec, count_family, part_allowed_for_A


class TruncatedSeries:
    """Coefficients c[0..N] of a power series in q, truncated at degree N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        self.coeffs = cs

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return "TruncatedSeries([%s%s])" % (head, tail)

    def to_decimal_strings(self) -> list:
        """JSON-friendly export: decimal strings indexed by degree."""
        return [str(c) for c in self.coeffs]


def restricted_parts_product(allowed: Callable[[int], bool], degree: int) -> TruncatedSeries:
    """Product of 1/(1-q^j) over allowed part sizes j <= degree.

    The coefficient of q^n counts partitions of n into allowed parts.  Each
    geometric factor is folded in as an in-place stride-j prefix sum, which
    is the same Cauchy product with the zero terms skipped.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    c = [0] * (degree + 1)
    c[0] = 1
    for j in range(1, degree + 1):
        if not allowed(j):
            continue
        for t in range(j, degree + 1):
            c[t] += c[t - j]
    return TruncatedSeries(c)


def product_for_A(i: int, degree: int) -> TruncatedSeries:
    """Generating function of the residue-restricted family with index i."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    return restricted_parts_product(lambda j: part_allowed_for_A(j, i), degree)


def series_from_counts(f: FamilySpec, degree: int) -> TruncatedSeries:
    """Series whose coefficient of q^n is the enumerated count of f at n."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return TruncatedSeries([count_family(n, f) for n in range(degree + 1)])
