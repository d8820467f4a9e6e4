"""End-to-end acceptance checks.

Each criterion is one test emitting a single "PASS criterion N" /
"FAIL criterion N" line (visible with -s or in failure output) and holding a
pinned wall-clock budget.  Every check is exact; no tolerances.  The report
text each criterion builds is cached so the determinism criterion can compare
a second full run byte for byte.
"""

import time
from collections import Counter

from evenodd.bijections import (
    b_case_map,
    b_case_inverse,
    b_drop_one,
    b_drop_one_inverse,
    bijection_domain,
    p_case_map,
    p_case_inverse,
    p_drop_one,
    p_drop_one_inverse,
    shift_add_one,
    shift_add_one_inverse,
    shift_sub_2k,
    shift_sub_2k_inverse,
)
from evenodd.partitions import (
    FamilySpec,
    count_family,
    counts_by_length,
    enumerate_family,
    is_member,
)
from evenodd.qseries import product_for_A
from evenodd.recurrences import (
    compare_table_oracle,
    family_count_via_table,
    refined_AB_witness,
    shift_identity_check,
    variant_for_min_part,
    verify_system,
)
from reports import report_json

BUDGET_SECONDS = {1: 1.0, 2: 120.0, 3: 120.0, 4: 60.0, 5: 300.0, 6: 120.0, 7: 1.0}

_REPORTS: dict = {}


def _run(criterion) -> str:
    started = time.monotonic()
    try:
        text = _BUILDERS[criterion]()
    except BaseException:
        print("FAIL criterion %d" % criterion)
        raise
    elapsed = time.monotonic() - started
    budget = BUDGET_SECONDS[criterion]
    if elapsed >= budget:
        print("FAIL criterion %d (%.2fs, budget %.0fs)" % (criterion, elapsed, budget))
        raise AssertionError(
            "criterion %d took %.2fs, budget %.0fs" % (criterion, elapsed, budget)
        )
    print("PASS criterion %d (%.2fs, budget %.0fs)" % (criterion, elapsed, budget))
    _REPORTS[criterion] = text
    return text


def _counter_line(c: Counter) -> str:
    return ",".join("%d:%d" % (m, c[m]) for m in sorted(c))


def _criterion_1() -> str:
    golden = (
        ("P", [(6,), (5, 1), (3, 3)]),
        ("B", [(6,), (5, 1), (4, 2)]),
        ("A", [(6,), (4, 1, 1), (1, 1, 1, 1, 1, 1)]),
    )
    lines = []
    for kind, expect in golden:
        f = FamilySpec(kind, 2)
        members = list(enumerate_family(6, f))
        assert members == expect, (kind, members)
        assert count_family(6, f) == 3
        lines.append("%s(6): %s" % (kind, "; ".join(str(p) for p in members)))
    return "\n".join(lines) + "\n"


def _criterion_2() -> str:
    lines = []
    for i in (1, 2):
        fP, fB = FamilySpec("P", i), FamilySpec("B", i)
        for n in range(0, 61):
            cP, cB = counts_by_length(n, fP), counts_by_length(n, fB)
            assert cP == cB, (i, n, cP, cB)
            lines.append(
                "i=%d n=%d total=%d by_length=%s"
                % (i, n, sum(cP.values()), _counter_line(cP))
            )
    return "\n".join(lines) + "\n"


def _criterion_3() -> str:
    parts = []
    for kind in ("P", "B"):
        f = FamilySpec(kind, 2)
        equations = verify_system(f, 40)
        cells = compare_table_oracle(f, 40)
        assert equations.ok, equations.violations[:3]
        assert cells.ok, cells.violations[:3]
        parts += [report_json(equations), report_json(cells)]
    return "".join(p + "\n" for p in parts)


def _criterion_4() -> str:
    table = variant_for_min_part(1)
    lines = []
    for i in (1, 2):
        prod = product_for_A(i, 200)
        for n in range(0, 201):
            assert prod[n] == family_count_via_table(table, i, n), (i, n)
        lines.append("i=%d coeffs=%s" % (i, ",".join(map(str, prod.coeffs))))
    return "\n".join(lines) + "\n"


def _criterion_5() -> str:
    lines = []
    for k in (1, 2, 3):
        for i in (1, 2):
            for min_part in (2 * k + 1, 2 * k):
                fP = FamilySpec("P", i, min_part)
                fB = FamilySpec("B", i, min_part)
                for n in range(0, 61):
                    cP, cB = counts_by_length(n, fP), counts_by_length(n, fB)
                    assert cP == cB, (k, i, min_part, n)
            pointwise = shift_identity_check(k, i, 60)
            assert pointwise.ok, pointwise.violations[:3]
            lines.append(report_json(pointwise))
        for min_part in (2 * k + 1, 2 * k):
            for kind in ("P", "B"):
                r = verify_system(FamilySpec(kind, 2, min_part), 40)
                assert r.ok, r.violations[:3]
                lines.append(report_json(r))
    return "".join(line + "\n" for line in lines)


def _sweep_drop_one(fam, forward, inverse, nmax) -> int:
    seen = 0
    for n in range(0, nmax + 1):
        cells = Counter()
        for p in enumerate_family(n, fam):
            if p.count(1) != 1:
                continue
            q = forward(p)
            assert inverse(q) == p
            assert is_member(q, fam)
            cells[(len(p) - 1, sum(q))] += 1
            seen += 1
        for (mq, nq), c in cells.items():
            assert c == count_family(nq, fam, fixed_length=mq)
    return seen


def _sweep_p_cases(nmax) -> int:
    P1, P2 = FamilySpec("P", 1), FamilySpec("P", 2)
    names = ("P-case-even-eq", "P-case-two-threes", "P-case-generic")
    seen = 0
    for n in range(0, nmax + 1):
        members = [p for p in enumerate_family(n, P1) if p]
        split = [q for nm in names for q in bijection_domain(nm, n)]
        assert sorted(split) == sorted(members)  # the three cases partition
        low, high = Counter(), Counter()
        for p in members:
            case, q = p_case_map(p)
            m = len(p)
            assert p_case_inverse(case, q, m) == p
            if case in (1, 2):
                assert is_member(q, P1) and (len(q), sum(q)) == (m - 1, n - 2 * m)
                low[(m - 1, n - 2 * m)] += 1
            else:
                assert is_member(q, P2) and (len(q), sum(q)) == (m, n - 2 * m)
                high[(m, n - 2 * m)] += 1
            seen += 1
        for (mq, nq), c in low.items():
            assert c == count_family(nq, P1, fixed_length=mq)
        for (mq, nq), c in high.items():
            assert c == count_family(nq, P2, fixed_length=mq)
    return seen


def _sweep_b_cases(nmax) -> int:
    B1, B2 = FamilySpec("B", 1), FamilySpec("B", 2)
    seen = 0
    for n in range(0, nmax + 1):
        members = [p for p in enumerate_family(n, B1) if p]
        split = [
            q
            for nm in ("B-case-min2", "B-case-min3")
            for q in bijection_domain(nm, n)
        ]
        assert sorted(split) == sorted(members)
        one, two = Counter(), Counter()
        for p in members:
            case, q = b_case_map(p)
            m = len(p)
            assert b_case_inverse(case, q) == p
            if case == 1:
                assert is_member(q, B1) and (len(q), sum(q)) == (m - 1, n - 2 * m)
                one[(m - 1, n - 2 * m)] += 1
            else:
                assert is_member(q, B2) and (len(q), sum(q)) == (m, n - 2 * m)
                two[(m, n - 2 * m)] += 1
            seen += 1
        for (mq, nq), c in one.items():
            assert c == count_family(nq, B1, fixed_length=mq)
        for (mq, nq), c in two.items():
            assert c == count_family(nq, B2, fixed_length=mq)
    return seen


def _sweep_shifts(nmax) -> int:
    seen = 0
    for k in (1, 2, 3):
        for kind in ("P", "B"):
            for i in (1, 2):
                base = FamilySpec(kind, i, 1)
                odd = FamilySpec(kind, i, 2 * k + 1)
                even = FamilySpec(kind, i, 2 * k)
                for n in range(0, nmax + 1):
                    sub_cells, add_cells = Counter(), Counter()
                    for p in enumerate_family(n, odd):
                        if not p:
                            continue
                        q = shift_sub_2k(p, k, kind, i)
                        assert shift_sub_2k_inverse(q, k, kind, i) == p
                        assert is_member(q, base)
                        sub_cells[(len(p), sum(q))] += 1
                        seen += 1
                    for p in enumerate_family(n, even):
                        if not p:
                            continue
                        q = shift_add_one(p, k, kind, i)
                        assert shift_add_one_inverse(q, k, kind, i) == p
                        assert is_member(q, odd)
                        add_cells[(len(p), sum(q))] += 1
                        seen += 1
                    for (mq, nq), c in sub_cells.items():
                        assert c == count_family(nq, base, fixed_length=mq)
                    for (mq, nq), c in add_cells.items():
                        assert c == count_family(nq, odd, fixed_length=mq)
    return seen


def _criterion_6() -> str:
    P2, B2 = FamilySpec("P", 2), FamilySpec("B", 2)
    totals = [
        ("P-drop-one", _sweep_drop_one(P2, p_drop_one, p_drop_one_inverse, 40)),
        ("B-drop-one", _sweep_drop_one(B2, b_drop_one, b_drop_one_inverse, 40)),
        ("P-cases", _sweep_p_cases(40)),
        ("B-cases", _sweep_b_cases(40)),
        ("shifts", _sweep_shifts(40)),
    ]
    return "".join("%s: %d members verified\n" % row for row in totals)


def _criterion_7() -> str:
    w = refined_AB_witness(2, 20)
    assert w is not None
    m, n, ca, cb = w
    assert ca != cb
    fa, fb = FamilySpec("A", 2), FamilySpec("B", 2)
    assert count_family(n, fa, fixed_length=m) == ca
    assert count_family(n, fb, fixed_length=m) == cb
    assert count_family(n, fa) == count_family(n, fb)
    # (m=2, n=6) disagrees as well; the search returns the earlier cell
    assert (counts_by_length(6, fa)[2], counts_by_length(6, fb)[2]) == (0, 2)
    return "witness m=%d n=%d countA=%d countB=%d\n" % w


_BUILDERS = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
}


def test_criterion_1_golden_weight_six():
    _run(1)


def test_criterion_2_counts_agree_to_sixty():
    _run(2)


def test_criterion_3_base_recursion_system():
    _run(3)


def test_criterion_4_product_coefficients_to_two_hundred():
    _run(4)


def test_criterion_5_shifted_families_and_systems():
    _run(5)


def test_criterion_6_bijection_suite():
    _run(6)


def test_criterion_7_refined_counterexample():
    _run(7)


def test_criterion_8_reports_are_deterministic():
    try:
        for criterion in range(1, 8):
            first = _REPORTS.get(criterion)
            if first is None:
                first = _BUILDERS[criterion]()
            second = _BUILDERS[criterion]()
            assert first.encode("utf-8") == second.encode("utf-8"), (
                "criterion %d report differs between runs" % criterion
            )
    except BaseException:
        print("FAIL criterion 8")
        raise
    print("PASS criterion 8")
