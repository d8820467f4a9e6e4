"""Truncated formal power series over exact integers.

Used to realize the product side of the partition identities.  The
generating function of kind A is computed as a theta quotient,
(q^5;q^5)_inf / theta(q), whose numerator and denominator have O(sqrt(N))
nonzero terms below degree N, so N coefficients cost O(N^1.5) additions.
The literal product of geometric factors 1/(1-q^j) over allowed part sizes
j, truncated at the working degree, is kept as `restricted_parts_product`,
the reference it is tested against.  Coefficients are plain Python ints, so
they never overflow or round.
"""

from typing import Callable

from .partitions import FamilySpec, count_family


class TruncatedSeries:
    """Coefficients c[0..N] of a power series in q, truncated at degree N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        if any(type(c) is not int for c in cs):
            raise ValueError("coefficients must be ints")
        self.coeffs = cs

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return "TruncatedSeries([%s%s])" % (head, tail)


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


def _signed_exponents(c: int, b: int, degree: int):
    """The exponents (c*n*n - b*n)/2 <= degree over the integers n != 0,
    split by the sign (-1)^n: (those of +1, those of -1), each ascending.

    For 0 < b < c with c - b even the exponents are distinct positive
    integers that grow with |n|, and n gives a smaller one than -n, so the
    search stops at the first n whose exponent passes degree.
    """
    signed = ([], [])
    n = 1
    while (c * n * n - b * n) // 2 <= degree:
        for e in ((c * n * n - b * n) // 2, (c * n * n + b * n) // 2):
            if e <= degree:
                signed[n % 2].append(e)
        n += 1
    return sorted(signed[0]), sorted(signed[1])


def product_for_A(i: int, degree: int) -> TruncatedSeries:
    """Generating function of the residue-restricted family with index i.

    Kind A allows the part sizes j = a, 5-a mod 5 with a = 3 - i, so its
    generating function is 1/((q^a;q^5)_inf (q^(5-a);q^5)_inf).  Two classical
    identities (Andrews, The Theory of Partitions, 1976, ch. 1-2) give it as
    a quotient of two sparse series:

    * Jacobi's triple product at base q^5 and z = q^a,
        theta(q) = sum over n in Z of (-1)^n q^((5n^2 - (5-2a)n)/2)
                 = (q^a;q^5)_inf (q^(5-a);q^5)_inf (q^5;q^5)_inf;
    * Euler's pentagonal number theorem at q^5,
        E(q) = (q^5;q^5)_inf = sum over k in Z of (-1)^k q^(5k(3k-1)/2).

    Dividing the second by the first cancels (q^5;q^5)_inf and leaves the
    product.  theta_0 = 1, so c = E/theta solves theta*c = E one coefficient
    at a time over the integers: c[t] = E[t] - sum_{0<e<=t} theta_e c[t-e].
    c[t] reads only degrees up to t, so the truncation at degree is exact.
    Below degree N theta and E have O(sqrt(N)) nonzero terms, so the whole
    series costs O(N^1.5) additions, against O(N^2) for the literal product
    that `restricted_parts_product` folds.
    """
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    a = 3 - i
    c = [0] * (degree + 1)
    c[0] = 1
    plus, minus = _signed_exponents(15, 5, degree)
    for e in plus:
        c[e] = 1
    for e in minus:
        c[e] = -1
    # c holds E; step t turns c[t] into E[t] - sum theta_e c[t-e], reading
    # only the coefficients below t, which earlier steps have turned
    plus, minus = _signed_exponents(5, 5 - 2 * a, degree)
    for t in range(degree + 1):
        c[t] += sum([c[t - e] for e in minus if e <= t])
        c[t] -= sum([c[t - e] for e in plus if e <= t])
    return TruncatedSeries(c)


def series_from_counts(f: FamilySpec, degree: int) -> TruncatedSeries:
    """Series whose coefficient of q^n is the enumerated count of f at n.

    No command calls it; like `restricted_parts_product` it is kept as the
    tests' reference and as a boundary the benchmark's tracer counts."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return TruncatedSeries([count_family(n, f) for n in range(degree + 1)])
