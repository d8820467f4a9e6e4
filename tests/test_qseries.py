import pytest

from evenodd.partitions import FamilySpec, count_family, part_allowed_for_A
from evenodd.qseries import (
    TruncatedSeries,
    product_for_A,
    restricted_parts_product,
    series_from_counts,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        restricted_parts_product(lambda j: True, -1)
    # a coefficient that is not an int is refused, not truncated
    for coeffs in ([1.5, 2.7, True], [1, 2.0], [True], [1, "2"]):
        with pytest.raises(ValueError):
            TruncatedSeries(coeffs)


def test_restricted_product_examples():
    assert product_for_A(2, 6)[6] == 3
    assert product_for_A(1, 6)[6] == 2
    assert product_for_A(2, 0)[0] == 1
    assert restricted_parts_product(lambda j: False, 5).coeffs == (1, 0, 0, 0, 0, 0)


def test_product_against_independent_count():
    # independent oracle: textbook bounded-part DP over allowed part sizes
    def dp_counts(allowed, N):
        c = [[0] * (N + 1) for _ in range(N + 2)]
        for m in range(N + 2):
            c[m][0] = 1
        for maxp in range(1, N + 1):
            for n in range(1, N + 1):
                c[maxp][n] = c[maxp - 1][n]
                if allowed(maxp) and n >= maxp:
                    c[maxp][n] += c[maxp][n - maxp]
        return [c[N][n] for n in range(N + 1)]

    for i in (1, 2):
        allowed = lambda j, i=i: j % 5 not in (0, i, 5 - i)
        assert list(product_for_A(i, 60).coeffs) == dp_counts(allowed, 60)
    assert list(restricted_parts_product(lambda j: j % 2 == 1, 40).coeffs) == dp_counts(
        lambda j: j % 2 == 1, 40
    )


def _literal_A(i, degree):
    return restricted_parts_product(lambda j: part_allowed_for_A(j, i), degree)


@pytest.mark.parametrize("i", [1, 2])
def test_theta_quotient_equals_literal_product(i):
    # the theta quotient against the literal product at every degree, so
    # every truncation point and every theta and Euler term up to 300 is hit
    for degree in range(301):
        assert product_for_A(i, degree) == _literal_A(i, degree), degree
    assert product_for_A(i, 2000) == _literal_A(i, 2000)


def test_product_for_A_rejects_bad_arguments():
    for i in (1, 2):
        with pytest.raises(ValueError):
            product_for_A(i, -1)
    with pytest.raises(ValueError):
        product_for_A(3, 5)


def test_series_from_counts():
    assert series_from_counts(FamilySpec("A", 2), 10) == product_for_A(2, 10)
    assert series_from_counts(FamilySpec("B", 2), 6)[6] == 3
    assert series_from_counts(FamilySpec("P", 1), 0).coeffs == (1,)


def test_product_matches_family_counts_small():
    for i in (1, 2):
        prod = product_for_A(i, 30)
        for n in range(0, 31):
            assert prod[n] == count_family(n, FamilySpec("A", i))


def test_truncation_consistency():
    big = product_for_A(2, 50)
    small = product_for_A(2, 20)
    assert big.coeffs[:21] == small.coeffs
