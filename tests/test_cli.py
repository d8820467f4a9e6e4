import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import time
from collections import Counter

import pytest

from evenodd import bijections, cli, partitions, qseries, recurrences, sources
from evenodd.bijections import TraceRow, bijection_domain, trace_bijection
from evenodd.cli import main
from evenodd.partitions import FamilySpec, enumerate_family, member_groups, part_allowed_for_A
from evenodd.qseries import TruncatedSeries, restricted_parts_product
from evenodd.recurrences import family_count_via_table, variant_for_min_part
from mutants import drop_b_members, drop_p_members


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_p_members_of_six(capsys):
    code, out, _ = run(capsys, "list", "--family", "P", "--i", "2", "--n", "6")
    assert code == 0
    assert out == "(6)\n(5,1)\n(3,3)\n"


def test_list_b_i1_of_six(capsys):
    code, out, _ = run(capsys, "list", "--family", "B", "--i", "1", "--n", "6")
    assert code == 0
    assert out == "(6)\n(4,2)\n"


def test_list_zero(capsys):
    code, out, _ = run(capsys, "list", "--family", "A", "--n", "0")
    assert code == 0
    assert out == "()\n"


@pytest.mark.parametrize("fmt,out", [("text", ""), ("json", "[]\n"), ("csv", "parts\n")])
def test_list_of_no_parts_above_weight_zero_is_empty(capsys, fmt, out):
    argv = ["list", "--family", "A", "--n", "5", "--fixed-length", "0", "--format", fmt]
    assert run(capsys, *argv) == (0, out, "")


def test_list_json_round_trips(capsys):
    code, out, _ = run(capsys, "list", "--family", "P", "--n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[6], [5, 1], [3, 3]]


def test_count_golden(capsys):
    code, out, _ = run(capsys, "count", "--family", "P", "--i", "2", "--n", "6")
    assert code == 0 and out == "3\n"


def test_count_beyond_oracle_limit_uses_table(capsys):
    code, out, _ = run(capsys, "count", "--family", "B", "--i", "2", "--n", "100")
    assert code == 0 and out == "74040\n"


def test_count_kind_A_beyond_limit_uses_product(capsys):
    code, out, _ = run(capsys, "count", "--family", "A", "--i", "2", "--n", "100")
    code2, out2, _ = run(capsys, "count", "--family", "B", "--i", "2", "--n", "100")
    assert code == code2 == 0
    assert out == out2 == "74040\n"


def test_verify_pb_clean(capsys):
    code, out, _ = run(capsys, "verify", "--family", "P", "--i", "2", "--max-n", "6")
    assert code == 0
    assert "n=6: P=3 B=3" in out
    assert out.rstrip().endswith("violations: 0")


def test_verify_max_n_zero(capsys):
    code, out, _ = run(capsys, "verify", "--family", "P", "--max-n", "0")
    assert code == 0
    body = [line for line in out.splitlines() if line.startswith("n=")]
    assert body == ["n=0: P=1 B=1"]


def test_verify_shifted_family(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "B", "--i", "1", "--k", "1", "--parity", "odd",
        "--max-n", "14",
    )
    assert code == 0
    assert "System2(k=1)" in out and "shift-equations" in out


def test_verify_A_totals_clean(capsys):
    code, out, _ = run(capsys, "verify", "--family", "A", "--i", "2", "--max-n", "30")
    assert code == 0
    assert "n=6: A=3 B=3" in out


def test_verify_A_refined_finds_witness(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "A", "--i", "2", "--max-n", "10", "--refined"
    )
    assert code == 1
    assert "violations: 1" in out
    assert "m=1 n=2" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "P", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"system", "family", "max_n", "violations"}
    assert d["max_n"] == 4 and d["violations"] == []


def test_verify_oracle_limit_guard(capsys):
    code, _, err = run(capsys, "verify", "--family", "P", "--max-n", "80")
    assert code == 2
    assert "oracle limit" in err


# counts that ran past 60 s, or crashed with RecursionError (exit 3), with
# a raised --oracle-limit: the cap refuses each before anything is counted
@pytest.mark.parametrize("argv", [
    "count --family B --n 5000 --fixed-length 30 --oracle-limit 5000",
    "count --family B --n 5000 --oracle-limit 5000",
    "count --family P --n 2000 --fixed-length 20 --oracle-limit 5000",
    "count --family P --n 400000 --fixed-length 600 --oracle-limit 2000000",
    "count --family B --n 1001000 --fixed-length 1000 --oracle-limit 2000000",
])
def test_oracle_limit_past_the_cap_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "")
    assert err == "count enumerates up to the oracle limit; --oracle-limit %s exceeds the oracle cap %d\n" % (
        argv.split()[-1], cli.MAX_ORACLE_N)


@pytest.mark.parametrize("family", [["--i", "1"], ["--i", "2"], ["--k", "1", "--parity", "odd"]])
def test_b_count_at_the_cap_equals_the_table(capsys, family):
    # at the cap a B count is the staircase count; without it, the table's
    at_cap = run(capsys, "count", "--family", "B", *family, "--n", "300", "--oracle-limit", "300")
    assert at_cap == run(capsys, "count", "--family", "B", *family, "--n", "300")
    assert at_cap[0] == 0 and int(at_cap[1]) > 0


def test_bijection_trace_drop_one(capsys):
    code, out, _ = run(capsys, "bijection", "P-drop-one", "--n", "6")
    assert code == 0
    assert out == "(5,1) -> (3) round-trip ok\n"


def test_bijection_trace_case_two_threes(capsys):
    code, out, _ = run(capsys, "bijection", "P-case-two-threes", "--n", "16")
    assert code == 0
    assert "(10,3,3) -> case 2 -> (6,4) round-trip ok" in out


def test_bijection_trace_empty_at_zero(capsys):
    for argv in (["P-drop-one"], ["B-case-min2"], ["shift-add-one", "--k", "1"]):
        code, out, _ = run(capsys, "bijection", *argv, "--n", "0")
        assert code == 0 and out == ""


def test_bijection_shift_needs_k(capsys):
    code, _, err = run(capsys, "bijection", "shift-sub-2k", "--n", "9")
    assert code == 2 and "--k" in err


def test_bijection_shift_rejects_k_zero(capsys):
    code, out, err = run(capsys, "bijection", "shift-sub-2k", "--k", "0", "--n", "5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--k" in err


@pytest.mark.parametrize("name", ["shift-sub-2k", "shift-add-one"])
def test_bijection_shift_rejects_family_a(capsys, name):
    code, out, err = run(capsys, "bijection", name, "--family", "A", "--k", "1", "--n", "8")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and name in err


def _image_fails_codomain(real):
    # (7,3) goes to (5,4), whose gap of 1 fails the trace's codomain check
    def bad_map(p):
        return (2, (5, 4)) if p == (7, 3) else real(p)

    return bad_map


def _inverse_misses(real):
    # the image (5,1) of (7,3) is sent back to (8,3)
    def bad_inverse(case, q, m):
        return (8, 3) if q == (5, 1) else real(case, q, m)

    return bad_inverse


def _inverse_raises(real):
    # the image (5,1) of (7,3) is refused by the inverse
    def bad_inverse(case, q, m):
        if q == (5, 1):
            raise bijections.BijectionDomainError("refused %r" % (q,))
        return real(case, q, m)

    return bad_inverse


# patched name (the private arithmetic the trace resolves), patch, and the
# (7,3) row: case, output, codomain_ok, text line
FAILING_TRACES = {
    "codomain": ("_b_case_map", _image_fails_codomain, None, (5, 4), False, "(7,3) -> (5,4) FAILED"),
    "roundtrip": ("_b_case_inverse", _inverse_misses, 2, (5, 1), True, "(7,3) -> case 2 -> (5,1) FAILED"),
    "inverse-raises": ("_b_case_inverse", _inverse_raises, 2, (5, 1), True, "(7,3) -> case 2 -> (5,1) FAILED"),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("broken", sorted(FAILING_TRACES))
def test_failing_trace_is_reported_and_exits_1(capsys, monkeypatch, broken, fmt):
    # one map patched in the module: a trace resolved after the patch uses it
    attr, patch, case, image, cod_ok, line = FAILING_TRACES[broken]
    monkeypatch.setattr(bijections, attr, patch(getattr(bijections, attr)))
    rows = trace_bijection("B-case-min3", bijection_domain("B-case-min3", 10))
    assert [(r.input, r.case, r.output, r.codomain_ok, r.roundtrip_ok) for r in rows] == [
        ((10,), 2, (8,), True, True),
        ((7, 3), case, image, cod_ok, False),
        ((6, 4), 2, (4, 2), True, True),
    ]
    code, out, _ = run(capsys, "bijection", "B-case-min3", "--n", "10", "--format", fmt)
    assert code == 1
    if fmt == "json":
        bad = {"bijection": "B-case-min3", "codomain_ok": cod_ok, "domain_ok": True,
               "input": [7, 3], "output": list(image)}
        if case is not None:
            bad["case"] = case
        got = json.loads(out)
        assert got[1] == bad and got[0]["codomain_ok"] and got[2]["codomain_ok"]
    elif fmt == "csv":
        got = list(csv.reader(io.StringIO(out)))
        assert got[2] == ["B-case-min3", "7 3", "" if case is None else str(case),
                          " ".join(map(str, image)), "True", str(cod_ok)]
        assert got[1][-1] == got[3][-1] == "True"
    else:
        assert out.splitlines() == [
            "(10) -> case 2 -> (8) round-trip ok",
            line,
            "(6,4) -> case 2 -> (4,2) round-trip ok",
        ]


# bijection P-case-generic --n 6 with (4,2), which is not a member of
# P(i=1), listed first as its domain
INJECTED_NON_MEMBER = {
    "text": "(4,2) not in the domain FAILED\n(6) -> case 3 -> (4) round-trip ok\n",
    "json": '[{"bijection":"P-case-generic","codomain_ok":false,"domain_ok":false,"input":[4,2],"output":null},'
    '{"bijection":"P-case-generic","case":3,"codomain_ok":true,"domain_ok":true,"input":[6],"output":[4]}]\n',
    "csv": "bijection,input,case,output,domain_ok,codomain_ok\n"
    "P-case-generic,4 2,,,False,False\nP-case-generic,6,3,4,True,True\n",
}


@pytest.mark.parametrize("fmt", sorted(INJECTED_NON_MEMBER))
def test_trace_reports_a_domain_disagreement(capsys, monkeypatch, fmt):
    # the enumerator and is_member are two sources: a disagreement is exit 1
    real = bijections.member_groups
    monkeypatch.setattr(bijections, "member_groups", lambda n, f: itertools.chain([((4, 2), ((),))], real(n, f)))
    code, out, err = run(capsys, "bijection", "P-case-generic", "--n", "6", "--format", fmt)
    assert (code, out, err) == (1, INJECTED_NON_MEMBER[fmt], "")


def _streamed(monkeypatch, argv):
    """Run argv with trace blocks of 20 rows and writes of 1 KiB: the exit
    status, stdout, the row count of each trace_bijection call, and how many
    rows trace_groups had traced, and how many trace_bijection calls had
    been made, when stdout first received bytes.  trace_bijection traces
    through trace_groups, so a blocked trace counts its rows there too."""
    blocks, traced, first_write = [], [0], []
    real_block, real_groups = bijections.trace_bijection, bijections.trace_groups

    def counting_blocks(*args, **kwargs):
        rows = real_block(*args, **kwargs)
        blocks.append(len(rows))
        return rows

    def counting_groups(*args, **kwargs):
        for group in real_groups(*args, **kwargs):
            traced[0] += len(group[2])
            yield group

    class Recorder(io.StringIO):
        def write(self, s):
            if s and not first_write:
                first_write.append((traced[0], len(blocks)))
            return super().write(s)

    monkeypatch.setattr(cli, "_TRACE_BLOCK", 20)
    monkeypatch.setattr(cli, "_EMIT_BLOCK_CHARS", 1 << 10)
    monkeypatch.setattr(bijections, "trace_bijection", counting_blocks)
    monkeypatch.setattr(bijections, "trace_groups", counting_groups)
    out = Recorder()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), blocks, traced[0], first_write[0]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bijection_traces_and_writes_one_block_at_a_time(capsys, monkeypatch, fmt):
    # a kind-B domain is traced group by group, as one stream: no block
    # call, and output begins before the last row is traced
    argv = ["bijection", "B-case-min3", "--n", "40", "--format", fmt]
    ref = run(capsys, *argv)
    code, out, blocks, traced, (rows_at_write, _) = _streamed(monkeypatch, argv)
    assert (code, out, "") == ref and code == 0
    assert blocks == [] and traced == 154
    assert rows_at_write < traced


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_p_domain_bijection_traces_one_block_at_a_time(capsys, monkeypatch, fmt):
    argv = ["bijection", "P-case-generic", "--n", "36", "--format", fmt]
    ref = run(capsys, *argv)
    code, out, blocks, traced, (_, blocks_at_write) = _streamed(monkeypatch, argv)
    assert (code, out, "") == ref and code == 0
    # 99 rows: five blocks and the empty call that ends them
    assert blocks == [20] * 4 + [19, 0] and traced == 99
    assert blocks_at_write < len(blocks)


# B-case-min3 --n 40's last member, its image, and that row failing its
# codomain check (the image sent to (10,9)) or its round trip (the image
# sent back to itself)
_LATE, _LATE_IMAGE = (12, 10, 8, 6, 4), (10, 8, 6, 4, 2)
LATE_FAILURES = {
    "codomain": ("_b_case_map", lambda real: lambda p: (2, (10, 9)) if p == _LATE else real(p)),
    "roundtrip": ("_b_case_inverse", lambda real: lambda case, q, m: q if q == _LATE_IMAGE else real(case, q, m)),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("broken", sorted(LATE_FAILURES))
def test_failure_in_the_last_block_exits_1(capsys, monkeypatch, broken, fmt):
    argv = ["bijection", "B-case-min3", "--n", "40", "--format", fmt]
    _, ref, _ = run(capsys, *argv)
    attr, patch = LATE_FAILURES[broken]
    monkeypatch.setattr(bijections, attr, patch(getattr(bijections, attr)))
    code, out, _, traced, (rows_at_write, _) = _streamed(monkeypatch, argv)
    # output began before the last row, the failing one, was traced
    assert code == 1 and rows_at_write < traced == 154
    # every row but the last as before; the json and csv rows carry no
    # round-trip flag, so there a round-trip failure shows in the exit only
    image = (10, 9) if broken == "codomain" else _LATE_IMAGE
    if fmt == "json":
        want = json.loads(ref)
        want[-1].update(codomain_ok=broken != "codomain", output=list(image))
        if broken == "codomain":
            del want[-1]["case"]
        assert json.loads(out) == want
    elif fmt == "csv":
        want = list(csv.reader(io.StringIO(ref)))
        if broken == "codomain":
            want[-1][2:] = ["", "10 9", "True", "False"]
        assert list(csv.reader(io.StringIO(out))) == want
    else:
        arrow = " ->" if broken == "codomain" else " -> case 2 ->"
        failed = "(12,10,8,6,4)%s (%s) FAILED" % (arrow, ",".join(map(str, image)))
        assert out.splitlines() == ref.splitlines()[:-1] + [failed]


def test_json_trace_row_matches_the_encoder():
    # one stream that mixes both names, every case and all four flag pairs:
    # a row head cached under too small a key shows up in a later row
    names = ("B-case-min3", 'q"\\\u00e9\n')
    inputs = ((7, 3), (12,), ())
    outputs = (None, (), (5, 1), (10, 8, 3))
    flags = (True, False)
    rows = [
        TraceRow(name, p, case, output, dom, cod, dom and cod)
        for name, p, case, output, dom, cod in itertools.product(
            names, inputs, (None, 1, 2, 3), outputs, flags, flags
        )
    ]
    got = list(cli._json_trace_rows(cli._trace_inputs(((r.input, ((),), [r]) for r in rows), ",")))
    assert len(got) == len(rows)
    for r, line in zip(rows, got):
        assert line == cli._json_encode(r.to_dict()), (r.bijection, r.input, r.case, r.output)


def test_negative_fixed_length_is_a_usage_error(capsys):
    code, out, err = run(capsys, "count", "--family", "B", "--n", "5", "--fixed-length", "-1")
    assert (code, out, err) == (2, "", "--fixed-length must be >= 0\n")


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, "count", "--family", "P", "--n", "6", "--out", target)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and target in err


def test_empty_out_exits_2(capsys):
    # an empty name is no file to write, not a request for stdout
    code, out, err = run(capsys, "count", "--family", "B", "--n", "5", "--out", "")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


def test_internal_error_exits_3(capsys, monkeypatch):
    def crash(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "count", crash)
    code, out, err = run(capsys, "count", "--family", "P", "--n", "6")
    assert code == 3 and out == ""
    assert err == "evenodd: internal error: RuntimeError: boom\n"


def test_table_dump_limit(capsys):
    code, out, err = run(capsys, "table", "--max-n", "1001")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "limit 1000" in err


_PAST_FILL = str(cli.MAX_FILL_N + 1)


def _no_fill(*args):
    raise AssertionError("a table or product was filled")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "B", "--n", _PAST_FILL],
        ["count", "--family", "P", "--k", "2", "--parity", "odd", "--n", _PAST_FILL,
         "--fixed-length", "3"],
        ["count", "--family", "A", "--n", _PAST_FILL],
        ["series", "--family", "P", "--max-n", _PAST_FILL],
        ["series", "--family", "A", "--i", "1", "--max-n", _PAST_FILL],
        ["verify", "--family", "A", "--max-n", _PAST_FILL],
    ],
)
def test_fill_limit(capsys, monkeypatch, argv):
    monkeypatch.setattr(recurrences.CountTable, "_fill", _no_fill)
    monkeypatch.setattr(qseries, "product_for_A", _no_fill)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "fill limit %d" % cli.MAX_FILL_N in err


@pytest.mark.parametrize("m", ["0", "100000"])
def test_structural_zero_counts_need_no_fill(capsys, monkeypatch, m):
    monkeypatch.setattr(recurrences.CountTable, "_fill", _no_fill)
    code, out, err = run(capsys, "count", "--family", "B", "--n", "1000000000", "--fixed-length", m)
    assert (code, out, err) == (0, "0\n", "")


def test_p_fixed_length_past_the_weight_builds_nothing(capsys, monkeypatch):
    # every part is at least 1, so no member of weight 10 has more than 10
    # parts: neither command builds least weights for a longer member
    monkeypatch.setattr(partitions, "_P_LEAST", {})
    assert run(capsys, "count", "--family", "P", "--n", "10", "--fixed-length", "1000000") == (0, "0\n", "")
    assert run(capsys, "list", "--family", "P", "--n", "10", "--fixed-length", "1000000") == (0, "", "")
    assert not [key for key in partitions._P_LEAST if key[2] > 10]


def test_b_fixed_length_past_the_weight_builds_nothing(capsys, monkeypatch):
    # every part is at least 1, so no member of weight 10 has more than 10
    # parts: neither command builds an offset state for a longer member
    # or a staircase table row for one: the count reads _B_ROWS, the
    # listing _P_OFFSETS
    monkeypatch.setattr(partitions, "_B_ROWS", [])
    monkeypatch.setattr(partitions, "_P_OFFSETS", {})
    assert run(capsys, "count", "--family", "B", "--n", "10", "--fixed-length", "1000000") == (0, "0\n", "")
    assert len(partitions._B_ROWS) <= 11 and all(len(row) <= 11 for row in partitions._B_ROWS)
    assert run(capsys, "list", "--family", "B", "--n", "10", "--fixed-length", "1000000") == (0, "", "")
    assert not [key for key in partitions._P_OFFSETS if key[1] > 10]


def test_b_fixed_length_lists_a_long_all_zero_tail(capsys):
    # 500 parts: the staircase 999, 997, ..., 1 weighs 250000, so the
    # members are the 7 partitions of 5 added to its largest parts
    stair = list(range(999, 0, -2))
    code, out, err = run(capsys, "list", "--family", "B", "--n", "250005", "--fixed-length", "500")
    members = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    expected = [
        "(%s)\n" % ",".join(str(s + u) for s, u in zip(stair, offsets + (0,) * (500 - len(offsets))))
        for offsets in members
    ]
    assert (code, err) == (0, "") and out == "".join(expected)


def test_bijection_json_trace_keys(capsys):
    code, out, _ = run(
        capsys, "bijection", "B-case-min2", "--n", "6", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {
            "bijection": "B-case-min2",
            "case": 1,
            "codomain_ok": True,
            "domain_ok": True,
            "input": [4, 2],
            "output": [2],
        }
    ]


def test_series_json_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "series", "--family", "A", "--i", "2", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == ["1", "1", "1", "1", "2", "2", "3"]


def test_series_family_B_matches_A(capsys):
    _, out_a, _ = run(capsys, "series", "--family", "A", "--max-n", "40", "--format", "json")
    _, out_b, _ = run(capsys, "series", "--family", "B", "--max-n", "40", "--format", "json")
    assert out_a == out_b


def test_series_A_at_the_fill_limit_matches_table_and_literal_product(capsys):
    # the product (kind A) against two independent sources: the System1
    # table's totals to 1500, and the literal product at every degree
    code, out, _ = run(capsys, "series", "--family", "A", "--i", "1", "--max-n", "5000")
    assert code == 0
    coeffs = []
    for n, line in enumerate(out.splitlines()):
        degree, c = line.split(": ")
        assert int(degree) == n
        coeffs.append(int(c))
    table = variant_for_min_part(1)
    assert coeffs[:1501] == [family_count_via_table(table, 1, n) for n in range(1501)]
    literal = restricted_parts_product(lambda j: part_allowed_for_A(j, 1), 5000)
    assert coeffs == list(literal.coeffs)


def test_table_base_cell(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out == "i,m,n,count\n1,0,0,1\n2,0,0,1\n"


def test_table_contains_known_cell(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "6", "--format", "csv")
    assert code == 0
    assert "2,2,6,2" in out.splitlines()


def test_witness_text(capsys):
    code, out, _ = run(capsys, "witness", "--i", "2")
    assert code == 0 and out == "m=1 n=2 countA=0 countB=1\n"


def test_witness_none_below_threshold(capsys):
    code, out, _ = run(capsys, "witness", "--i", "2", "--max-n", "1")
    assert code == 0 and out == "no witness up to max_n=1\n"


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "--i", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"found": True, "m": 1, "n": 4, "countA": 0, "countB": 1}


def test_list_guard_for_unpruned_kinds(capsys):
    code, _, err = run(capsys, "list", "--family", "P", "--n", "100")
    assert code == 2 and "oracle limit" in err
    code, out, _ = run(capsys, "list", "--family", "B", "--n", "61", "--fixed-length", "1")
    assert code == 0 and out == "(61)\n"


def test_byte_determinism(capsys):
    battery = [
        ("verify", "--family", "P", "--max-n", "20", "--format", "json"),
        ("verify", "--family", "A", "--max-n", "60", "--format", "json"),
        ("series", "--family", "B", "--max-n", "80", "--format", "json"),
        ("table", "--max-n", "12", "--format", "csv"),
        ("bijection", "P-case-generic", "--n", "14", "--format", "json"),
        ("witness", "--i", "2", "--format", "json"),
    ]
    first = [run(capsys, *argv) for argv in battery]
    second = [run(capsys, *argv) for argv in battery]
    assert first == second


def test_family_flag_validation(capsys):
    # the usage checks evenodd makes itself return 2 after one stderr line
    for argv, message in [
        (["count", "--family", "A", "--min-part", "3", "--n", "5"], "kind A has no shifted variant"),
        (["count", "--family", "P", "--min-part", "2", "--k", "1", "--parity", "odd", "--n", "5"],
         "--min-part and --k are mutually exclusive"),
        (["count", "--family", "P", "--n", "-3"], "--n must be >= 0"),
        (["count", "--family", "P", "--k", "1", "--n", "5"], "--k needs --parity"),
        (["verify", "--family", "P", "--max-n", "-1"], "--max-n must be >= 0"),
        (["count", "--family", "P", "--n", "5", "--oracle-limit", "-1"], "--oracle-limit must be >= 0"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and message in err, argv
    # argparse's own errors still raise SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "X", "--n", "5"])
    assert exc.value.code == 2


# shift flags that would select no family or go unread, flags a command or
# a non-shift bijection map would not read, a shift map without --k or on
# kind A, --refined on kinds P and B, and an unknown flag: each is refused
# with one stderr line before anything runs, a bound on --n included
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--family", "P", "--k", "0", "--parity", "odd", "--max-n", "6"], "--k"),
        (["count", "--family", "B", "--k", "-1", "--parity", "even", "--n", "5"], "--k"),
        (["verify", "--family", "P", "--parity", "even", "--max-n", "6"], "--parity"),
        (["list", "--family", "B", "--min-part", "3", "--parity", "odd", "--n", "9"], "--parity"),
        (["bijection", "B-case-min3", "--min-part", "5", "--n", "10"], "--min-part"),
        (["bijection", "B-case-min3", "--parity", "odd", "--n", "10"], "--parity"),
        (["bijection", "P-drop-one", "--k", "0", "--n", "6"], "--k"),
        (["table", "--family", "A", "--i", "1", "--max-n", "1"], "--family A"),
        (["witness", "--min-part", "3", "--max-n", "5"], "--min-part"),
        (["witness", "--k", "1", "--parity", "odd", "--max-n", "5"], "--k"),
        (["witness", "--parity", "even", "--max-n", "5"], "--parity"),
        (["bijection", "P-drop-one", "--k", "3", "--n", "6"], "--k"),
        (["table", "--i", "1", "--max-n", "3"], "--i 1"),
        (["table", "--i", "2", "--max-n", "3"], "--i 2"),
        (["table", "--family", "P", "--max-n", "3"], "--family P"),
        (["table", "--family", "B", "--max-n", "3"], "--family B"),
        (["witness", "--family", "A", "--max-n", "5"], "--family"),
        (["witness", "--family", "B", "--max-n", "5"], "--family"),
        (["bijection", "B-case-min3", "--family", "A", "--i", "1", "--n", "6"],
         "B-case-min3 takes no --family, --i or --k"),
        (["bijection", "P-drop-one", "--i", "1", "--n", "6"], "P-drop-one takes no --family, --i or --k"),
        (["table", "--oracle-limit", "5", "--max-n", "2"], "--oracle-limit 5"),
        (["verify", "--family", "P", "--refined", "--max-n", "5"], "--refined"),
        (["count", "--bogus", "3", "--n", "5"], "--bogus 3"),
        (["count", "--family", "A", "--n", "100", "--oracle-limit", "5"],
         "count takes no --oracle-limit on kind-A totals"),
        (["series", "--family", "A", "--max-n", "10", "--oracle-limit", "5"],
         "series takes no --oracle-limit on kind-A totals"),
        (["list", "--family", "B", "--n", "8", "--oracle-limit", "1"],
         "list takes no --oracle-limit on kind B"),
        (["verify", "--family", "A", "--max-n", "5", "--oracle-limit", "1"],
         "verify takes no --oracle-limit on kind A without --refined"),
        (["bijection", "shift-sub-2k", "--n", "61"], "shift-sub-2k needs --k >= 1"),
        (["bijection", "shift-add-one", "--family", "A", "--k", "1", "--n", "61"],
         "shift-add-one applies to families P and B only"),
    ],
)
def test_unread_shift_flags_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and flag in err


# --oracle-limit where the family makes the run read it: a given value, even
# the default, is accepted, and it is the bound the run is refused past
@pytest.mark.parametrize(
    "argv,refused",
    [
        (["count", "--family", "A", "--n", "6", "--fixed-length", "2"], "--n 6 exceeds the oracle limit 5"),
        (["count", "--family", "B", "--n", "6"], None),
        (["series", "--family", "P", "--max-n", "6"], None),
        (["list", "--family", "P", "--n", "6"], "--n 6 exceeds the oracle limit 5"),
        (["verify", "--family", "A", "--refined", "--max-n", "6"], None),
        (["verify", "--family", "B", "--max-n", "6"], "--max-n 6 exceeds the oracle limit 5"),
        (["bijection", "P-drop-one", "--n", "6"], "--n 6 exceeds the oracle limit 5"),
        (["witness", "--max-n", "6"], "--max-n 6 exceeds the oracle limit 5"),
    ],
)
def test_oracle_limit_is_taken_where_read(capsys, argv, refused):
    default = run(capsys, *argv)
    assert default[0] in (0, 1) and default[1] and default[2] == ""
    assert run(capsys, *argv, "--oracle-limit", "60") == default
    code, out, err = run(capsys, *argv, "--oracle-limit", "5")
    if refused is None:
        assert code in (0, 1) and out and err == ""
    else:
        assert (code, out) == (2, "") and len(err.splitlines()) == 1 and refused in err


# the flags each command reads besides --format and --out and a run of it
# that exits 0, and a value for each flag
READS = {
    "verify": ({"--family", "--i", "--min-part", "--k", "--parity", "--oracle-limit", "--max-n",
                "--refined"}, ["verify", "--max-n", "2"]),
    "count": ({"--family", "--i", "--min-part", "--k", "--parity", "--oracle-limit", "--n",
               "--fixed-length"}, ["count", "--n", "2"]),
    "list": ({"--family", "--i", "--min-part", "--k", "--parity", "--oracle-limit", "--n",
              "--fixed-length"}, ["list", "--n", "2"]),
    "series": ({"--family", "--i", "--min-part", "--k", "--parity", "--oracle-limit", "--max-n"},
               ["series", "--max-n", "2"]),
    "bijection": ({"--family", "--i", "--k", "--oracle-limit", "--n"},
                  ["bijection", "P-drop-one", "--n", "2"]),
    "table": ({"--min-part", "--k", "--parity", "--max-n"}, ["table", "--max-n", "2"]),
    "witness": ({"--i", "--oracle-limit", "--max-n"}, ["witness", "--max-n", "2"]),
}
FLAG_VALUES = {
    "--family": ["P"], "--i": ["2"], "--min-part": ["1"], "--k": ["1"], "--parity": ["odd"],
    "--oracle-limit": ["5"], "--max-n": ["2"], "--n": ["2"], "--fixed-length": ["1"],
    "--refined": [],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, (reads, _) in READS.items() for f in FLAG_VALUES if f not in reads],
)
def test_each_unread_flag_is_refused(capsys, command, flag):
    argv = READS[command][1] + [flag] + FLAG_VALUES[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "%s takes no %s\n" % (command, " ".join([flag] + FLAG_VALUES[flag]))


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == READS[command][0] | {"-h", "--help", "--format", "--out"}


# stdout SHA-256 of `evenodd -h` and of each `evenodd <command> -h` at 80
# columns (the same on Python 3.10 to 3.13): a subparser adds its flags
# when it first parses, and these pin their order and wording
HELP_DIGESTS = {
    "": "3b8b301af034f7671a31ffc8940fce4fcd6bd678b9e86aa3045491f7a4a46b15",
    "verify": "bc6d2f06a94e2ae89ac13456dd8215d563e21a181a197ddeca4495f9556ec002",
    "count": "867ef1e2348873eb52fc06f051b73b9bfc6a7f0588912e1e47854d01a1122b3b",
    "list": "ba9ca66d77015d6ffed6642676740d6afc8b25ad07532921e0048c95b87f430c",
    "bijection": "0c151ace6b7d1865ab2289b5afd0dc2cb880e311c55b948af5f67fbda8c418ed",
    "series": "c35e518a1adbc5e6fe1a1f36ddac400f5d3d80eee7cb053e9ce423ae7bc17903",
    "table": "b7e35b237489b423f697e4a871261eb5c7794671fdcf675fb3057438625127b1",
    "witness": "aa1495cbf53d9c59a683eb137b3e9f00353c866f7911f5c29c4aede696e81f75",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["-h"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


# bounds no other test reaches: one stderr line names the flag, its value
# and the bound it passed
@pytest.mark.parametrize(
    "argv,bound",
    [
        (["bijection", "P-drop-one", "--n", "61"], "--n 61 exceeds the oracle limit 60"),
        (["witness", "--max-n", "61"], "--max-n 61 exceeds the oracle limit 60"),
        (["count", "--family", "A", "--n", "61", "--fixed-length", "2"],
         "--n 61 exceeds the oracle limit 60"),
    ],
)
def test_refusal_names_the_bound(capsys, argv, bound):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and bound in err


def _rows_read(monkeypatch):
    """The names of the sources.SOURCES rows read from now on: each row's
    readers note its name when they are read."""
    read = set()

    def recording(row, open_):
        def opened(*args):
            count = open_(*args)

            def reading(*cell):
                read.add(row.name)
                return count(*cell)

            return reading

        return opened

    for row in sources.SOURCES:
        monkeypatch.setattr(row, "open", recording(row, row.open))
    return read


# the row count and series read for each kind at the weights 60 (the
# oracle limit), 100 and MAX_FILL_N + 1, or the bound they refuse past:
# totals, length 3, and length 100, which is a structural zero of System1
# at every weight up to 10000, read from the table without a fill (see
# test_structural_zero_counts_need_no_fill)
SOURCE_WEIGHTS = (60, 100, cli.MAX_FILL_N + 1)
SOURCES = {
    ("A", None): ("product", "product", "fill limit"),
    ("A", 3): ("enumeration", "oracle limit", "oracle limit"),
    ("A", 100): ("enumeration", "oracle limit", "oracle limit"),
    ("B", None): ("enumeration", "table", "fill limit"),
    ("B", 3): ("enumeration", "table", "fill limit"),
    ("B", 100): ("enumeration", "table", "table"),
    ("P", None): ("enumeration", "table", "fill limit"),
    ("P", 3): ("enumeration", "table", "fill limit"),
    ("P", 100): ("enumeration", "table", "table"),
}


@pytest.mark.parametrize("n", SOURCE_WEIGHTS)
@pytest.mark.parametrize(
    "command,kind,length",
    [("count", kind, length) for kind, length in SOURCES]
    + [("series", kind, None) for kind in "ABP"],
)
def test_source_each_command_reads(capsys, monkeypatch, command, kind, length, n):
    read = _rows_read(monkeypatch)
    argv = [command, "--family", kind, "--n" if command == "count" else "--max-n", str(n)]
    if length is not None:
        argv += ["--fixed-length", str(length)]
    code, out, err = run(capsys, *argv)
    expected = SOURCES[kind, length][SOURCE_WEIGHTS.index(n)]
    if expected in ("oracle limit", "fill limit"):
        assert (code, out, read) == (2, "", set())
        assert len(err.splitlines()) == 1 and expected in err
    else:
        assert (code, err) == (0, "") and out
        assert read == {expected}


# the rows each command reads, which between them read every row
ROWS_READ = [
    ("count --family A --n 5", {"product"}),
    ("count --family B --n 5 --fixed-length 2", {"enumeration"}),
    ("series --family P --max-n 100", {"table"}),
    ("verify --family P --k 1 --parity even --max-n 8", {"enumeration", "table"}),
    ("verify --family A --max-n 8", {"product", "table"}),
    ("verify --family A --refined --max-n 8", {"product", "table", "enumeration"}),
    ("witness --max-n 8", {"enumeration"}),
]


def test_every_row_is_read(capsys, monkeypatch):
    every = set()
    for argv, rows in ROWS_READ:
        read = _rows_read(monkeypatch)
        run(capsys, *argv.split())
        assert read == rows, argv
        every |= read
    assert every == {row.name for row in sources.SOURCES}


def test_count_reads_the_row_pick_takes_in_the_registry_order(capsys, monkeypatch):
    # cli holds no source rule: with the table tried before the enumeration,
    # P totals come from the table, which no --oracle-limit bounds
    monkeypatch.setattr(sources, "SOURCES", (sources.PRODUCT, sources.TABLE, sources.ENUMERATION))
    assert run(capsys, "count", "--family", "P", "--n", "5", "--oracle-limit", "5") == (
        2, "", "count takes no --oracle-limit on kind-P totals, which come from the table\n")
    assert run(capsys, "count", "--family", "B", "--n", "5", "--fixed-length", "2", "--oracle-limit", "5") == (
        2, "", "count takes no --oracle-limit on kind-B fixed lengths, which come from the table\n")
    read = _rows_read(monkeypatch)
    assert run(capsys, "count", "--family", "P", "--n", "5") == (
        0, "%d\n" % partitions.count_family(5, FamilySpec("P", 2)), "")
    assert read == {"table"}


# every refusal of a count-source bound, whole: the command, what the row
# it reads says it reads, then the flag, the weight and the row's bound
SOURCE_REFUSALS = [
    ("count --family A --n 301 --fixed-length 10 --oracle-limit 300",
     "count reads the length counts of kind A; --n 301 exceeds the oracle limit 300"),
    ("count --family P --n 5001", "count reads the System1 table; --n 5001 exceeds the fill limit 5000"),
    ("series --family A --max-n 5001",
     "series reads the kind-A product; --max-n 5001 exceeds the fill limit 5000"),
    ("series --family B --k 1 --parity odd --max-n 5001",
     "series reads the System2(k=1) table; --max-n 5001 exceeds the fill limit 5000"),
    ("verify --family A --max-n 5001",
     "verify reads the kind-A product; --max-n 5001 exceeds the fill limit 5000"),
    ("verify --family B --max-n 61",
     "verify reads the length counts of kind P and B; --max-n 61 exceeds the oracle limit 60"),
    ("verify --family P --k 1 --parity even --max-n 61",
     "verify reads the length counts of kind P and B; --max-n 61 exceeds the oracle limit 60"),
    ("witness --max-n 61",
     "witness reads the length counts of kind A and B; --max-n 61 exceeds the oracle limit 60"),
]


@pytest.mark.parametrize("argv,line", SOURCE_REFUSALS)
def test_source_refusals_are_pinned(capsys, argv, line):
    assert run(capsys, *argv.split()) == (2, "", line + "\n")


@pytest.mark.parametrize("argv,row", [
    ("verify --family B --max-n 61", "ENUMERATION"),
    ("witness --max-n 61", "ENUMERATION"),
    ("verify --family A --max-n 5001", "PRODUCT"),
    ("count --family P --n 5001", "TABLE"),
])
def test_refusals_take_their_text_from_the_row_read(capsys, monkeypatch, argv, row):
    monkeypatch.setattr(getattr(sources, row), "reads", lambda kinds, min_part: "reads <%s>" % kinds)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(argv.split()[0] + " reads <") and err.count("\n") == 1


# references for the streamed renderers, built the way the output was built
# before streaming: one json.dumps or one csv.writer over every row


def _ref_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _ref_csv(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _emitting(error=None):
    # a command that writes 20,000 rows that read "ok", more than one
    # block, then raises error, if given
    def command(args):
        def rows():
            yield from ("row %d ok\n" % r for r in range(20000))
            if error is not None:
                raise error

        cli._emit(args, rows())
        return 0

    return command


@pytest.mark.parametrize("error,code", [(RuntimeError("boom"), 3), (OSError(28, "No space left"), 2)])
@pytest.mark.parametrize("existing", [None, "old\n"])
def test_out_is_left_alone_by_a_run_that_fails(capsys, monkeypatch, tmp_path, error, code, existing):
    target = tmp_path / "out.txt"
    if existing is not None:
        target.write_text(existing)
    monkeypatch.setitem(cli._COMMANDS, "count", _emitting(error))
    got, out, err = run(capsys, "count", "--n", "6", "--out", str(target))
    assert (got, out, len(err.splitlines())) == (code, "", 1)
    # no partial file, at the target or beside it
    assert os.listdir(tmp_path) == ([] if existing is None else ["out.txt"])
    assert existing is None or target.read_text() == existing


def test_out_is_replaced_by_a_run_that_finishes(capsys, monkeypatch, tmp_path):
    target, link = tmp_path / "out.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target)
    monkeypatch.setitem(cli._COMMANDS, "count", _emitting())
    assert run(capsys, "count", "--n", "6", "--out", str(link)) == (0, "", "")
    # through the link, with the mode a plain open for writing gives
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["link.txt", "out.txt"]
    assert target.read_text() == "".join("row %d ok\n" % r for r in range(20000))
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask


def test_out_leaves_a_file_at_its_temporary_name_alone(capsys, tmp_path):
    # a link planted where the run would write first is neither followed
    # nor removed, and the run writes nothing
    target, victim = tmp_path / "out.txt", tmp_path / "victim.txt"
    victim.write_text("keep\n")
    planted = tmp_path / ("out.txt.%d.tmp" % os.getpid())
    planted.symlink_to(victim)
    code, out, err = run(capsys, "count", "--n", "6", "--out", str(target))
    assert (code, out, len(err.splitlines())) == (2, "", 1) and planted.name in err
    assert victim.read_text() == "keep\n" and planted.is_symlink() and not target.exists()


def test_out_holds_the_violations_of_a_run_that_exits_1(capsys, monkeypatch, tmp_path):
    _bump_product(monkeypatch)
    argv = ["verify", "--family", "A", "--max-n", "30"]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert code == 1 and target.read_text() == out


def _ref_partition(p):
    return "(" + ",".join(str(x) for x in p) + ")"


def _run_both(capsys, tmp_path, argv):
    """Output of one invocation on stdout and through --out, checked equal."""
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    code_file, out_file, _ = run(capsys, *argv, "--out", str(target))
    assert (code_file, out_file) == (code, "")
    assert target.read_text() == out
    return code, out


@pytest.mark.parametrize(
    "n,f,fixed_length",
    [
        (40, FamilySpec("B", 2), None),
        (35, FamilySpec("B", 1), 3),
        (12, FamilySpec("P", 2), None),
        (0, FamilySpec("B", 2), None),
        (1, FamilySpec("B", 1), None),
        (9, FamilySpec("B", 2, 3), None),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_list_streams_the_reference_bytes(capsys, tmp_path, n, f, fixed_length, fmt):
    members = list(enumerate_family(n, f, fixed_length))
    argv = ["list", "--family", f.kind, "--i", str(f.i), "--min-part", str(f.min_part),
            "--n", str(n), "--format", fmt]
    if fixed_length is not None:
        argv += ["--fixed-length", str(fixed_length)]
    if fmt == "json":
        ref = _ref_json([list(p) for p in members])
    elif fmt == "csv":
        ref = _ref_csv(["parts"], [[" ".join(str(x) for x in p)] for p in members])
    else:
        ref = "".join(_ref_partition(p) + "\n" for p in members)
    assert _run_both(capsys, tmp_path, argv) == (0, ref)


def _ref_list(members, fmt):
    if fmt == "json":
        return _ref_json([list(p) for p in members])
    if fmt == "csv":
        return _ref_csv(["parts"], [[" ".join(str(x) for x in p)] for p in members])
    return "".join(_ref_partition(p) + "\n" for p in members)


# list renders B from groups that share a prefix and a memoized tail list
# (free-length tails of weight <= 32): the edge weights 0 and 1, weights
# whose groups all end in whole members, and weights past the memo bound.
# At 33, 34 and 39 some minimum parts reach an empty tail list; at 47 and 50
# one call holds two different tail lists of the same weight.
RENDER_WEIGHTS = (0, 1, 2, 12, 32, 33, 34, 39, 40, 47, 50)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("kind", ["B", "P"])
def test_list_renders_every_member_as_the_reference(capsys, monkeypatch, kind, fmt):
    # one parser for the whole grid: building it costs more than most cells
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    empty, shared_weight = set(), set()
    for i in (1, 2):
        for j in range(1, 6):
            f = FamilySpec(kind, i, j)
            for n in RENDER_WEIGHTS:
                lists = {id(tails): tails for _, tails in member_groups(n, f)}.values()
                if any(not tails for tails in lists):
                    empty.add(n)
                weights = [sum(tails[0]) for tails in lists if tails]
                if len(weights) > len(set(weights)):
                    shared_weight.add(n)
                for fixed_length in (None, *range(9)):
                    members = list(enumerate_family(n, f, fixed_length))
                    argv = ["list", "--family", kind, "--i", str(i), "--min-part", str(j),
                            "--n", str(n), "--format", fmt]
                    if fixed_length is not None:
                        argv += ["--fixed-length", str(fixed_length)]
                    assert run(capsys, *argv) == (0, _ref_list(members, fmt), ""), argv
    # kinds P and A render one-member groups only
    assert bool(empty) == bool(shared_weight) == (kind == "B")


# (sep, open_, close, between) of _member_lines for text, json and csv
MEMBER_FORMATS = {"text": (",", "(", ")\n", ""), "json": (",", "[", "]", ","), "csv": (" ", "", "\n", "")}


@pytest.mark.parametrize("fmt", sorted(MEMBER_FORMATS))
def test_member_lines_render_one_chunk_per_group(fmt):
    sep, open_, close, between = MEMBER_FORMATS[fmt]

    def member(p):
        return open_ + sep.join(str(x) for x in p) + close

    families = [(FamilySpec("B", i, j), fixed_length, 60)
                for i in (1, 2) for j in (1, 3) for fixed_length in (None, 3)]
    families.append((FamilySpec("P", 2), None, 20))
    empty = 0
    for f, fixed_length, max_n in families:
        for n in range(max_n + 1):
            groups = list(member_groups(n, f, fixed_length))
            assert [prefix + t for prefix, tails in groups for t in tails] == list(
                enumerate_family(n, f, fixed_length))
            empty += sum(1 for _, tails in groups if not tails)
            chunks = list(cli._member_lines(groups, sep, open_, close, between))
            assert chunks == [
                between.join(member(prefix + t) for t in tails) for prefix, tails in groups if tails
            ], (f, fixed_length, n)
    assert empty
    assert list(cli._member_lines([((5,), []), ((4,), [])], sep, open_, close, between)) == []


@pytest.mark.parametrize("table", list(map(variant_for_min_part, (1, 3, 4))),
                         ids=lambda t: t.variant)
@pytest.mark.parametrize("between", ["\n", "],["])
def test_table_cells_render_each_cell_of_a_row(table, between):
    for max_n in range(41):
        ref = [
            between.join("%d,%d,%d,%d" % (i, m, n, table.value(i, m, n)) for m in range(n + 1))
            for i in (1, 2)
            for n in range(max_n + 1)
        ]
        assert list(cli._table_cells(table, max_n, between)) == ref, max_n


def test_list_empty_json(capsys):
    assert run(capsys, "list", "--family", "B", "--i", "1", "--n", "1", "--format", "json") == (
        0, "[]\n", "")


@pytest.mark.parametrize(
    "max_n,flags,min_part",
    [
        (0, [], 1),
        (14, [], 1),
        (20, ["--min-part", "3"], 3),
        (20, ["--k", "2", "--parity", "even"], 4),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_streams_the_reference_bytes(capsys, tmp_path, max_n, flags, min_part, fmt):
    table = variant_for_min_part(min_part)
    cells = [
        [i, m, n, table.value(i, m, n)]
        for i in (1, 2)
        for n in range(0, max_n + 1)
        for m in range(0, n + 1)
    ]
    if fmt == "json":
        ref = _ref_json({"variant": table.variant, "cells": cells})
    elif fmt == "csv":
        ref = _ref_csv(["i", "m", "n", "count"], cells)
    else:
        ref = "%s cells (i,m,n,count)\n" % table.variant
        ref += "".join("%d,%d,%d,%d\n" % tuple(c) for c in cells)
    argv = ["table", *flags, "--max-n", str(max_n), "--format", fmt]
    assert _run_both(capsys, tmp_path, argv) == (0, ref)


@pytest.mark.parametrize(
    "name,n,flags,kind,k,i",
    [
        ("B-case-min3", 30, [], "P", None, 2),
        ("P-case-two-threes", 20, [], "P", None, 2),
        ("shift-add-one", 14, ["--family", "B", "--i", "1", "--k", "1"], "B", 1, 1),
        ("P-drop-one", 0, [], "P", None, 2),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bijection_streams_the_reference_bytes(capsys, tmp_path, name, n, flags, kind, k, i, fmt):
    rows = trace_bijection(name, bijection_domain(name, n, k=k, kind=kind, i=i), k=k, kind=kind, i=i)
    assert bool(rows) == (n > 0)
    if fmt == "json":
        ref = _ref_json([r.to_dict() for r in rows])
    elif fmt == "csv":
        ref = _ref_csv(
            ["bijection", "input", "case", "output", "domain_ok", "codomain_ok"],
            [
                [
                    r.bijection,
                    " ".join(str(x) for x in r.input),
                    "" if r.case is None else r.case,
                    "" if r.output is None else " ".join(str(x) for x in r.output),
                    r.domain_ok,
                    r.codomain_ok,
                ]
                for r in rows
            ],
        )
    else:
        ref = ""
        for r in rows:
            mid = " -> case %d ->" % r.case if r.case is not None else " ->"
            verdict = "round-trip ok" if r.roundtrip_ok and r.codomain_ok else "FAILED"
            ref += "%s%s %s %s\n" % (
                _ref_partition(r.input), mid, _ref_partition(r.output), verdict)
    argv = ["bijection", name, *flags, "--n", str(n), "--format", fmt]
    assert _run_both(capsys, tmp_path, argv) == (0, ref)


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--family", "B", "--n", "30"],
        ["table", "--max-n", "10", "--format", "json"],
        ["bijection", "B-case-min3", "--n", "20", "--format", "csv"],
    ],
)
def test_streamed_unwritable_out_exits_2(capsys, tmp_path, argv):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, *argv, "--out", target)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and target in err


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_shifted_verify_counts_each_column_once(capsys, monkeypatch, parity):
    # verify counts the P and B columns at the family's minimum part, and
    # the shift check reads them with the other parity's two columns
    seen = Counter()

    def counting(n, f):
        seen[n, f] += 1
        return partitions.counts_by_length(n, f)

    monkeypatch.setattr(sources, "counts_by_length", counting)
    code, _, _ = run(capsys, "verify", "--family", "P", "--k", "1", "--parity", parity, "--max-n", "12")
    assert code == 0
    assert set(seen.values()) == {1}
    assert {f for _, f in seen} == {FamilySpec(kind, 2, j) for kind in "PB" for j in (2, 3)}
    assert len(seen) == 4 * 13


def test_output_streams_before_a_late_failure(capsys, monkeypatch):
    # members are written as they are produced: a crash after many members
    # leaves the ones already written, and the exit status still says 3
    def groups(n, f, fixed_length=None):
        for v in range(100000, 0, -1):
            yield (v,), ((),)
        raise RuntimeError("late")

    monkeypatch.setattr(cli, "member_groups", groups)
    code, out, err = run(capsys, "list", "--family", "B", "--n", "5")
    assert code == 3 and err == "evenodd: internal error: RuntimeError: late\n"
    assert out and out.startswith("(100000)\n(99999)\n")


def test_emit_writes_whole_blocks(monkeypatch):
    # a pipe reader gets one full read per block, with no short tail reads
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    block = cli._EMIT_BLOCK_CHARS
    chunks = ["(%d,%d)\n" % (v, v % 7) for v in range(60000)] + ["x" * (2 * block + 5), "end\n"]
    monkeypatch.setattr(sys, "stdout", Recorder())
    cli._emit(argparse.Namespace(out=None), iter(chunks))
    assert "".join(writes) == "".join(chunks)
    assert len(writes) > 3
    assert all(w and len(w) % block == 0 for w in writes[:-1])
    assert len(writes[-1]) < block


# stdout SHA-256 and exit status of a fixed invocation set, recorded before
# the renderers streamed: every subcommand in every format stays byte-identical
DIGESTS = [
    ("verify --family P --i 1 --max-n 12 --format text", 0, "8c03d84cfa59de67c905bfb2dd1873d844d1da3a126ceb0248d6fb437389e5b9"),
    ("verify --family B --k 1 --parity odd --max-n 12 --format text", 0, "b5769f912a3432dd8af5f64f2e452cea45ff23a75c288c55b56ec1367a7d8518"),
    ("verify --family A --refined --max-n 10 --format text", 1, "b58ee6d1f84333d62a8f16d726fb3fddc11d28532c7133ed6fb212fae73c0a7a"),
    ("count --family B --n 100 --format text", 0, "8af97cb39fb4ff6846f72d96dd9fb976d976531a2dfaf3ae26308d1473786225"),
    ("list --family B --n 40 --format text", 0, "d46b4d278d60a9ef37af598a834ea06c2542e010cd9773fdf7d165071099f4b0"),
    ("list --family B --i 1 --n 36 --fixed-length 3 --format text", 0, "25cdbfe8b23ee5c3c06a16f7b75b85b993064c4dc70176c671152dd4a48fa9e9"),
    ("list --family P --n 12 --format text", 0, "baae4306fa1c70a5cc767f76bee341a467085922cb63c0b5159e2a8f6a6f9781"),
    ("list --family B --n 0 --format text", 0, "71d200d8ffab1b98ab940769da680c27d48873242f3f141a4910e6e10766e84b"),
    ("bijection B-case-min3 --n 34 --format text", 0, "35dd1cf263c1daddaca15d2e479ad8c69f190a820a635f065bbe9631f7a09d69"),
    ("bijection P-case-two-threes --n 20 --format text", 0, "0222b40629fa3f51f1af109b4c038f49a233ff23d3a7185be47ac8ff40e6f5e9"),
    ("bijection shift-add-one --k 1 --n 14 --format text", 0, "472571274430d58477a79dcbd1d7ee7ac2a9fdf45a026928c33c47aba3e3a2ce"),
    ("series --family B --i 1 --max-n 30 --format text", 0, "c190d65a523a0c53b7ea83cb335d986bea478fb701899e3d7c2679e0aed9d811"),
    ("table --max-n 14 --format text", 0, "bf4bf0cb582ed04c309417d61365867de30e6531dfc21e25fc271db9d4f7721c"),
    ("witness --i 1 --max-n 10 --format text", 0, "576dae555a803b42e0c05ee4bf7b95e52e50e6ed2ce39aabb1ab26971d4527d5"),
    ("verify --family P --i 1 --max-n 12 --format json", 0, "ce341e726cfd685a2fd5c47fb9d83791116083cf849ee4483b5a44c5347c7d76"),
    ("verify --family B --k 1 --parity odd --max-n 12 --format json", 0, "4ef75305236952a50ef5ee259bf81cf615d72b803b146d5082660ba87e415700"),
    ("verify --family A --refined --max-n 10 --format json", 1, "ae03f4eb6cd66d6c22dfa2f990ed05928f2fdf9da6d8d5ff2f6981ae3219b449"),
    ("count --family B --n 100 --format json", 0, "6a081e8261d0cd8bb8b0cf41fd14e92bccdc142b2386a976da0f057d5401f799"),
    ("list --family B --n 40 --format json", 0, "058544609def73ff4fce3cc64ce2cbc6067cd0c6d6cfc7b80360ca430420b0bb"),
    ("list --family B --i 1 --n 36 --fixed-length 3 --format json", 0, "7f6ce54bfa4da9eaa06adc42105eb962b4dccee1cb91cf23a4dfb00a84d8ae7d"),
    ("list --family P --n 12 --format json", 0, "57d26b46d786fb8df74c66920d6ac6b61051128e0ac3f1736251e2ee410b7621"),
    ("list --family B --n 0 --format json", 0, "a930ec39e7339fde7af6a7f1009d621c595aab52ec9324dde1e8387212ae64aa"),
    ("bijection B-case-min3 --n 34 --format json", 0, "cc219c8f001e62af0ac528ad51dde011ce0c29894a775335971df657afeffcf0"),
    ("bijection P-case-two-threes --n 20 --format json", 0, "cb7f14ac7c4954517b9675719ed24881bdb5fd2d2ddcb1e25aa76789334217f1"),
    ("bijection shift-add-one --k 1 --n 14 --format json", 0, "3f0be49856d215fe157a1c545bde6ee8bc5112de5393280a1a1a0c326f71125f"),
    ("series --family B --i 1 --max-n 30 --format json", 0, "9035ee06f042edc7856d7700de551ce389e31195f6cf15d7db9b1e7ecaa5137a"),
    ("table --max-n 14 --format json", 0, "c0d8f20e6c1dddaa0ef5ad1e9096c3cf30e39bc3aa740ed4618e46f41824a8a8"),
    ("witness --i 1 --max-n 10 --format json", 0, "74a2f38c46b1ee6f3cbb60f1a4ed73832fd077f4bc0bc999497484e357799021"),
    ("verify --family P --i 1 --max-n 12 --format csv", 0, "72459ceba0b24e16b8172119037b7f8a5aa1458f395688c5005ed343d89d125d"),
    ("verify --family B --k 1 --parity odd --max-n 12 --format csv", 0, "72459ceba0b24e16b8172119037b7f8a5aa1458f395688c5005ed343d89d125d"),
    ("verify --family A --refined --max-n 10 --format csv", 1, "d3cfa487e7867a8bdfb7fe1dd4cd224bcd39e355b7bbd4e692ebc3033628c7e1"),
    ("count --family B --n 100 --format csv", 0, "66f3018074a16c027d583669f75c6f1dcf70b82c10d9be511a051d7ceb107186"),
    ("list --family B --n 40 --format csv", 0, "3058afde51cc9f3a9141e4d532a734394f6ebe22e52909a61ce31ed46a4c11fd"),
    ("list --family B --i 1 --n 36 --fixed-length 3 --format csv", 0, "2fbf13645e4c7a796951c33943a1e28040e9ef0b4eabeab92f584886e56ae151"),
    ("list --family P --n 12 --format csv", 0, "65836ea0042ad11a1d3c8ff77971fdf710791f9565eeca05254751d77b2c861f"),
    ("list --family B --n 0 --format csv", 0, "e1813ef61de979347db9f2ff1f492f1888d74ea55b37370387b17fb439375d51"),
    ("bijection B-case-min3 --n 34 --format csv", 0, "86eaefb8638b60eb3d6ef81fa399b3ad9d53cdfce9a0c5c3283487bd60aeda53"),
    ("bijection P-case-two-threes --n 20 --format csv", 0, "18dd3c75c40d6193be815fb32e4643dc2d881ea1d453f22b7f514dd2b5cfd75a"),
    ("bijection shift-add-one --k 1 --n 14 --format csv", 0, "e1570ff35246c22b39efb4752ae926b2e8c9bcb6a5238d17b6e6e2b90eb553ab"),
    ("series --family B --i 1 --max-n 30 --format csv", 0, "34e88e605c0f314917bd0f2cc8f3beedd4d5ba464c6f10374e6393abc0043c7b"),
    ("table --max-n 14 --format csv", 0, "8e49113656908b34d382c7e0ab8c2ade9e46d9fe555683e1780b65fa36d4065c"),
    ("witness --i 1 --max-n 10 --format csv", 0, "28452af10f31ce6a396fccca6f7dd8e7c6e7768bd8bcb031bf0738ddf52e3390"),
    # where the P enumerator's prune acts (weights past the oracle test) and
    # where the shift check reads the columns verify already counted
    ("list --family P --n 40 --format text", 0, "94a77df6c5abff5f7f14ea99690bd1c416153a35f3de76f10dcb3412fa48b675"),
    ("list --family P --i 1 --k 2 --parity even --n 40 --format text", 0, "4beff56505a039de4ec13647d642bdc2bd228bc1ea36b290103c1c2f11d5ee69"),
    ("verify --family P --k 1 --parity even --max-n 30 --format text", 0, "7034fef697a03833212ec559af2d5fbbe99193c2215bfded0d82ed2413a303c0"),
    ("verify --family P --k 2 --parity odd --max-n 30 --format text", 0, "79a232def56085899c8e2452155c5c068931ba451dda12fcbc0ac671ed26bbeb"),
    ("list --family P --n 40 --format json", 0, "50aafe2626228409d332550d6122f7dea7d21060913e1f8de7ef53aac83d8b1c"),
    ("list --family P --i 1 --k 2 --parity even --n 40 --format json", 0, "5d3bc3e2ed88e5d56fbb89669db9ba79d7db791b1cbc6a717fb7175268c7df3a"),
    ("verify --family P --k 1 --parity even --max-n 30 --format json", 0, "d18122cfc3b5a1c9116ab8b7e8acf89b1dc16ead7871331096b955a4a14873a8"),
    ("verify --family P --k 2 --parity odd --max-n 30 --format json", 0, "67d6abc2cd426bfc5933e118db2309186ad1d011e9b23df8b8f043e40509f890"),
    # where list renders B from groups: prefixes past the memo bound share
    # memoized tail lists, some of them empty
    ("list --family B --n 60 --format json", 0, "5761018a3bf57c8980c77b939d56f3cef31e80825e968b9fa077ff577909e566"),
    ("list --family B --n 60 --format csv", 0, "8d597ef609bb2f916096a1af2f5b7fc15275bb94f4104587f7701848d72202ea"),
    ("list --family B --i 1 --n 50 --format text", 0, "eb8203f80653ac69ae4e40a46d8a10a0f8e4e4d5ce1417c51c89c2855889a17a"),
    ("list --family B --i 1 --n 50 --format json", 0, "e54d646f63861abe8afa7159dec13649378d32c240008f66ebffb21ffbc205e7"),
    ("list --family B --min-part 3 --n 48 --format csv", 0, "67d74326b13ac1e593e2a92ca08fe6bf5fb6a38a01625d59e85eee5facf12804"),
    # the maps no row above traces
    ("bijection P-drop-one --n 24 --format text", 0, "31f410ace389aa557a210d96f287c8483fbcfdd4cfb58d5b588b4bd2b7894b86"),
    ("bijection P-drop-one --n 24 --format json", 0, "3ea2cd6f328cf7bd47f2b96af473da51e7122e89d2ccd11cbda99d2fd2b4c328"),
    ("bijection P-case-even-eq --n 24 --format text", 0, "a5c60a3877f6641b110adbf3e0f20c94ce301f04d9a107e4d35b2d6544cd8f40"),
    ("bijection P-case-even-eq --n 24 --format json", 0, "df445b3c35ad0e2162528451b871ddb782bf6750ccb7d28762281bf17e48f537"),
    ("bijection P-case-generic --n 24 --format text", 0, "7f5b7ff67fbb7325d59930406395ad571144546730fd74eccbd9c363af88af86"),
    ("bijection P-case-generic --n 24 --format json", 0, "d308045b0047dd7c05bdecee411ecb326f382106c5c01c4aa44215a200641e60"),
    ("bijection B-drop-one --n 24 --format text", 0, "9d1e2df6b13079e26139a246c3f73db583c359486d4c07da982803261e6eddcd"),
    ("bijection B-drop-one --n 24 --format json", 0, "380eee85c49ad51debec8f4d22ce7d4acc754ca5a59b45c06b9b020649c03fe5"),
    ("bijection B-case-min2 --n 24 --format text", 0, "05d559f7dd77c9e8b813cfde8b0b815f3c3eda2219cc5d2b491ce4de7184f9dc"),
    ("bijection B-case-min2 --n 24 --format json", 0, "f59ec06de7ed413955ec7bdbba8032284f4eb0edd2408f87404a6430b7cada27"),
    ("bijection shift-sub-2k --k 1 --family B --i 1 --n 24 --format text", 0, "de7374dd05abf17c36d11cd8edca70a51f55ddc96a7db807af4b8713b82e7182"),
    ("bijection shift-sub-2k --k 1 --family B --i 1 --n 24 --format json", 0, "22f2fad37c82a3cae5662478c24bbc98e00ec352b30985906f1eaf704a55ecad"),
    # table dumps whose rows have no structural zeros (max_n 0 and 1), and
    # one at offset 2, recorded before the table rendered a row per string
    ("table --max-n 0 --format text", 0, "09d7b0e43485efddfe9d1fcdd13c7e3f2898c0f0efc97790fdd13f62dec4663b"),
    ("table --max-n 0 --format json", 0, "6f7d7f97001046620cc997a24a3b4124d5cda61bfb0d3bbb16fe906044bea989"),
    ("table --max-n 0 --format csv", 0, "6eb6013d9cfbac4a7c8c6684c6b8315e504895b5b809f7554c26d3687d0205de"),
    ("table --max-n 1 --format text", 0, "53772df0a8a7846835cb3a45f96270febbb09245809f0943fa2ba872edb21889"),
    ("table --max-n 1 --format json", 0, "762a8a5092fddee4b404d72890f11c1bf1f5c7c4ece158b9fe036e82876c77a8"),
    ("table --max-n 1 --format csv", 0, "9994c0bb0aefa6e7e1a6d4640d6980e7033528634bd228a7f73a125e1cc30ff8"),
    ("table --min-part 3 --max-n 20 --format text", 0, "225c6dd0a77d810b2a1977f87b0bc44386b169d2ff01ad7eb08573e6be126dc5"),
    ("table --min-part 3 --max-n 20 --format json", 0, "fed247216549535d58d05ccc8ae46a4d9b377f7b1343a28138c3ddb96175d52e"),
    ("table --min-part 3 --max-n 20 --format csv", 0, "78cf94dcbd07e26a7fa875021c966c1806bd31ca62b84cb5c0cb0c0e1c198e70"),
]


@pytest.mark.parametrize("argv,code,sha256", DIGESTS)
def test_output_digests(capsys, argv, code, sha256):
    got_code, out, _ = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


def _bump_product(monkeypatch):
    # one coefficient of the kind-A product is off by one
    original = qseries.product_for_A

    def bumped(i, degree):
        coeffs = list(original(i, degree).coeffs)
        coeffs[17] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(qseries, "product_for_A", bumped)


def _bump_table(monkeypatch):
    # t(2, 2, 10) is off by one in every recursion table, as read through
    # CountTable.row, which CountTable.value and the table totals read
    original = recurrences.CountTable.row

    def bumped(self, i, n):
        row = original(self, i, n)
        if (i, n) == (2, 10):
            row = row[:2] + [row[2] + 1] + row[3:]
        return row

    monkeypatch.setattr(recurrences.CountTable, "row", bumped)


# members are dropped at whatever minimum part they occur: (3,3), (4,2) and
# (5,1) at (m=2, n=6), (9,7,5,3) at (m=4, n=24), (6,) and (11,5) at
# (m=1, n=6) and (m=2, n=16).  drop-PB leaves P, B and the table three
# different counts at one cell; drop-P-shift breaks both shift equations at
# some cells.  bump-table perturbs the recursion table itself, not P or B.
MUTANTS = {
    "drop-P": lambda mp: drop_p_members(mp, {(9, 7, 5, 3), (3, 3)}),
    "drop-B": lambda mp: drop_b_members(mp, {(4, 2)}),
    "drop-PB": lambda mp: (drop_p_members(mp, {(3, 3)}), drop_b_members(mp, {(5, 1), (4, 2)})),
    "drop-P-shift": lambda mp: drop_p_members(mp, {(6,), (11, 5)}),
    "bump-A": _bump_product,
    "bump-table": _bump_table,
}

# stdout SHA-256 and exit status of failing sweeps, recorded before the
# comparisons shared one primitive (the bump-table rows before verify moved
# into the library): the violation lists stay byte-identical
FAILING_DIGESTS = [
    ("drop-P", "verify --family P --i 2 --max-n 24 --format text", 1, "7a7755c63906a8a15de616c605662e179b163bdb8760bf76668f5be71a13bf26"),
    ("drop-P", "verify --family P --i 2 --max-n 24 --format json", 1, "f080b358927925295416a5382f5011ba4e7c20cf4ccc5465a916f20286df93bf"),
    ("drop-P", "verify --family P --i 2 --max-n 24 --format csv", 1, "6e773d2a54652dedc11d1a26ab9907e23f44a662e038fd4983e95951f277ea0e"),
    ("drop-P", "verify --family P --k 1 --parity odd --max-n 24 --format text", 1, "6bbe4145b9a50f610b92ee3a9fb87279090f89b60ebc37b12d8c235d872295c2"),
    ("drop-P", "verify --family P --k 1 --parity odd --max-n 24 --format json", 1, "9ab4449e8b54f6bca964ecbbbfbc8a49640d674c9d32de99e096b2c638010e13"),
    ("drop-P", "verify --family P --k 1 --parity odd --max-n 24 --format csv", 1, "39cb27fd5f6103e699bcecb31903b6e61331f5ca0f8d769c9700efa6ed6d9c6d"),
    ("drop-B", "verify --family P --i 2 --max-n 24 --format text", 1, "ccf5609c24343cb38ce50183ffb36a4d0735eca69d6e9f1a5aa17f376ea58878"),
    ("drop-B", "verify --family P --i 2 --max-n 24 --format json", 1, "c483561f9158595e6d1bd27dcd0ef89a35d7047646ca927e374284dba8038744"),
    ("drop-B", "verify --family P --i 2 --max-n 24 --format csv", 1, "5b3d0295ff99a8dc14148debe78f956252cc2fddd4569735b5e9fe79682c8340"),
    ("drop-B", "verify --family P --k 1 --parity odd --max-n 24 --format text", 1, "027d77ea7f9d8081015241cde22685cf848d9d7d3ce78afedb9456ca1da08da2"),
    ("drop-B", "verify --family P --k 1 --parity odd --max-n 24 --format json", 1, "3adb41c16260116e1bc2f7160e35bd5fdf48f6088d1373f14f2d9024a3b9dacf"),
    ("drop-B", "verify --family P --k 1 --parity odd --max-n 24 --format csv", 1, "8c4f5896e3fd3aebcd253dc6f00c36fdb3fa4d8f5ae34ddbaef3e35bdc1684aa"),
    ("bump-A", "verify --family A --max-n 30 --format text", 1, "37d2ad66466871aa2903f610d7bae9d5238e3ff9e5f397b2b7ad80cf3503817f"),
    ("bump-A", "verify --family A --max-n 30 --format json", 1, "eb048cee6d9e494fe104269d9b51fbd2436117bd0d6247a69299e4c6bd382d2a"),
    ("bump-A", "verify --family A --max-n 30 --format csv", 1, "861a6dad59dd755c248c522df93cf0f2c234412c7a0c375ce8c65eff237027bb"),
    ("drop-PB", "verify --family P --i 2 --max-n 12 --format text", 1, "7fcd31b6c99acad5a0cc0bbec4a397b6cc06264f2077f20b5a0c5e3eff22713d"),
    ("drop-P-shift", "verify --family P --k 1 --parity odd --max-n 16 --format text", 1, "52bc06f640109bebe5ec3aa618954b0bba3c6f417e4b6b724599dcfa04b508cb"),
    ("bump-table", "verify --family P --i 2 --max-n 24 --format text", 1, "6d092fdaa5b39d94aa85b8bbdce42007cb23f91564811443a6709f31d4af62d3"),
    ("bump-table", "verify --family P --i 2 --max-n 24 --format json", 1, "4b2771c0daa0f4efac79d96f57dc49701cc547e56aa0e3f514a30a1ce6fa48da"),
    ("bump-table", "verify --family P --i 2 --max-n 24 --format csv", 1, "65851716ca27496da722c7be1416bb87675570972b0ea18fff92f399b9b447c7"),
    ("bump-table", "verify --family P --k 1 --parity odd --max-n 24 --format text", 1, "62ec741ab19346822f862221f329ff39876a44218fe4c5cf1ae5733c38c4e9a3"),
    ("bump-table", "verify --family P --k 1 --parity odd --max-n 24 --format json", 1, "093edd0b06f6446f6f04dbb13b09b3740e7706e36c35371eee4d7f1d9a181309"),
    ("bump-table", "verify --family P --k 1 --parity odd --max-n 24 --format csv", 1, "41a7dd78b499b6b74b16c6c7736b8d2ce0679e99dfe7b1d100cffb67bee50318"),
    ("bump-table", "verify --family A --max-n 30 --format text", 1, "29fcd4dd3c5d116ff14e63d030555a2bf7742b61dfbc54c72af221f8f225c01e"),
    ("bump-table", "verify --family A --max-n 30 --format json", 1, "bd14dc29cfbf8ea75577602afb0bfc3344a04b39b4b026d89eee706014068df9"),
    ("bump-table", "verify --family A --max-n 30 --format csv", 1, "1ae4d8bccc8c234c4763f085a05fbf312831882d8a9dff0e57a8ccf67b97ae51"),
]


@pytest.mark.parametrize("mutant,argv,code,sha256", FAILING_DIGESTS)
def test_failing_sweep_digests(capsys, monkeypatch, mutant, argv, code, sha256):
    MUTANTS[mutant](monkeypatch)
    got_code, out, _ = run(capsys, *argv.split())
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


def test_witness_enumerates_only_up_to_its_cell(capsys, monkeypatch):
    # the witness for i = 1 is at n = 4: kinds A and B are counted at
    # n = 0 .. 4 and at no greater weight
    seen = []

    def counting(n, f):
        seen.append((n, f.kind))
        return partitions.counts_by_length(n, f)

    monkeypatch.setattr(sources, "counts_by_length", counting)
    code, out, _ = run(capsys, "witness", "--i", "1", "--max-n", "60")
    assert (code, out) == (0, "m=1 n=4 countA=0 countB=1\n")
    assert seen == [(n, kind) for n in range(5) for kind in "AB"]


def test_fixed_length_a_count_at_the_oracle_cap_is_quick():
    # kind A is counted by length from a table: in a fresh process, the
    # 7,450,471 ten-part members of weight 300 in under 2 s (listing them
    # ran past 60 s)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    argv = "count --family A --n 300 --fixed-length 10 --oracle-limit 300".split()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "evenodd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7450471\n", "")


# A fresh interpreter that holds os, sys and time, as the benchmark's child
# does before it imports evenodd, but not json, so that loading json shows;
# it builds the parser, runs each argv (split at spaces) through main and
# prints, as its last line, the modules this added to sys.modules.
_STARTUP_SCRIPT = """
import os, sys, time
before = set(sys.modules)
import evenodd.cli
evenodd.cli.build_parser()
for argv in sys.argv[1:]:
    evenodd.cli.main(argv.split())
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""


def _modules_added(*argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, *map(" ".join, argvs)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_startup_loads_no_dataclasses_inspect_or_csv():
    added = _modules_added(["count", "--family", "B", "--n", "5"])
    assert "evenodd.cli" in added
    assert not added & {"dataclasses", "inspect", "csv"}
    # every command formats its csv directly, and json needs no csv either
    added = _modules_added(
        *[
            [*argv, "--format", fmt]
            for argv in (
                ["verify", "--family", "P", "--max-n", "4"],
                ["count", "--family", "B", "--n", "5"],
                ["list", "--family", "B", "--n", "9"],
                ["bijection", "P-drop-one", "--n", "6"],
                ["series", "--max-n", "4"],
                ["table", "--max-n", "3"],
                ["witness", "--max-n", "4"],
            )
            for fmt in ("json", "csv")
        ]
    )
    assert not added & {"dataclasses", "inspect", "csv"}


def test_each_command_loads_only_the_modules_it_reads():
    added = _modules_added()
    assert {m for m in added if m.split(".")[0] == "evenodd"} == {
        "evenodd", "evenodd.partitions", "evenodd.cli"}
    assert "json" not in added
    added = _modules_added(["count", "--family", "B", "--n", "5"])
    assert not added & {"evenodd.bijections", "evenodd.qseries", "json"}
    added = _modules_added(["bijection", "P-drop-one", "--n", "5"])
    assert "evenodd.bijections" in added
    assert not added & {"evenodd.qseries", "evenodd.recurrences"}
    added = _modules_added(["series", "--family", "A", "--max-n", "5"])
    assert "evenodd.qseries" in added
    assert not added & {"evenodd.recurrences", "evenodd.bijections"}


# the outputs the benchmark pins for its invocations, replayed in-process
with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")) as fh:
    BENCHMARK_EXPECTED = json.load(fh)


@pytest.mark.parametrize("argv", sorted(BENCHMARK_EXPECTED))
def test_benchmark_pinned_outputs(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    pinned = BENCHMARK_EXPECTED[argv]
    assert (code, len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        pinned["exit"], pinned["bytes"], pinned["sha256"])
