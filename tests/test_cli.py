import json

import pytest

from evenodd import cli
from evenodd.cli import main


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


def test_bijection_trace_drop_one(capsys):
    code, out, _ = run(capsys, "bijection", "P-drop-one", "--n", "6")
    assert code == 0
    assert out == "(5,1) -> (3) round-trip ok\n"


def test_bijection_trace_case_two_threes(capsys):
    code, out, _ = run(capsys, "bijection", "P-case-two-threes", "--n", "16")
    assert code == 0
    assert "(10,3,3) -> case 2 -> (6,4) round-trip ok" in out


def test_bijection_trace_empty_at_zero(capsys):
    for name in ("P-drop-one", "B-case-min2", "shift-add-one"):
        code, out, _ = run(capsys, "bijection", name, "--n", "0", "--k", "1")
        assert code == 0 and out == ""


def test_bijection_shift_needs_k(capsys):
    code, _, err = run(capsys, "bijection", "shift-sub-2k", "--n", "9")
    assert code == 2 and "--k" in err


def test_bijection_shift_rejects_k_zero(capsys):
    code, out, err = run(capsys, "bijection", "shift-sub-2k", "--k", "0", "--n", "5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--k" in err


def test_negative_fixed_length_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "B", "--n", "5", "--fixed-length", "-1"])
    assert exc.value.code == 2
    assert "fixed_length must be >= 0" in capsys.readouterr().err


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x")
    code, out, err = run(capsys, "count", "--family", "P", "--n", "6", "--out", target)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and target in err


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
    with pytest.raises(SystemExit):
        main(["count", "--family", "A", "--min-part", "3", "--n", "5"])
    with pytest.raises(SystemExit):
        main(["count", "--family", "P", "--min-part", "2", "--k", "1",
              "--parity", "odd", "--n", "5"])
    with pytest.raises(SystemExit):
        main(["count", "--family", "P", "--n", "-3"])
