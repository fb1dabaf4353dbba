import json
import tracemalloc
from pathlib import Path

import pytest

from nilclean import make_zmod
from nilclean.cli import main, table_json

GOLDEN = Path(__file__).parent / "golden" / "theorems_default.json"
GOLDEN_TABLE = Path(__file__).parent / "golden" / "theorems_default.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_z6(capsys):
    code, out, _ = run_cli(capsys, "info", "Z6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["idempotents"] == [0, 1, 3, 4]
    assert payload["nilpotents"] == [0]
    assert payload["jacobson"] == [0]
    assert payload["jacobson_count"] == 1
    assert payload["nil_clean_ring"] is False


def test_info_z4_is_nil_clean(capsys):
    code, out, _ = run_cli(capsys, "info", "Z4", "--format", "json")
    assert code == 0
    assert json.loads(out)["nil_clean_ring"] is True


def test_info_quotient_and_corner_specs(capsys):
    code, out, _ = run_cli(capsys, "info", "Q(Z12;[6])", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 6
    code, out, _ = run_cli(capsys, "info", "C(Z6;3)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["nil_clean_ring"] is True


def test_info_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "info", "Zx")
    assert code == 2
    assert "position" in err


def test_info_lists_the_radical_only_up_to_the_member_limit(capsys):
    code, out, _ = run_cli(capsys, "info", "Z512", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "jacobson" not in payload
    assert payload["jacobson_count"] == 256
    code, out, _ = run_cli(capsys, "info", "Z512")
    assert code == 0
    assert "jacobson        #256" in out.splitlines()


def test_info_order_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "info", "T3(Z9)")
    assert code == 3


@pytest.mark.parametrize("argv", [("Z5000", "--order-cap", "5000"), ("Z5000",)])
def test_info_above_4096_exits_3_whatever_the_cap(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "info", *argv)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "above cap 4096" in err
    # no table was built: one at order 5000 would hold 200 MB
    assert peak < 1_000_000


@pytest.mark.parametrize("depth", [9, 40])
def test_deeply_nested_spec_exits_3_at_once(capsys, depth):
    spec = "T2(" * depth + "Z2" + ")" * depth
    code, out, err = run_cli(capsys, "info", spec)
    assert code == 3
    assert out == ""
    assert "above cap 4096" in err


@pytest.mark.parametrize(
    "spec,element,base",
    [("C(Z6;2)", 2, "Z6"), ("C(T2(Z2);4)", 4, "T2(Z2)")],
)
def test_corner_at_non_central_idempotent_exits_2(capsys, spec, element, base):
    code, out, err = run_cli(capsys, "info", spec)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {spec}: element {element} of {base} is not a central idempotent\n"
    )


def test_ideal_nil_clean_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "Z6", "--gens", "2", "--property", "nil-clean",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["ideal"]["members"] == [0, 2, 4]
    assert payload["witness"]["element"] == 2
    assert payload["witness"]["decompositions"] == []


def test_ideal_clean_true(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "Z6", "--gens", "2", "--property", "clean",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_ideal_z27_nil_clean_true(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "Z27", "--gens", "3", "--property", "nil-clean",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_decompose_z4(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "Z4", "3", "nil-clean", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [(d["idempotent"], d["second"]) for d in payload["decompositions"]] == [
        (1, 2)
    ]
    assert payload["decompositions"][0]["nil_index"] == 2


def test_decompose_z6_clean(capsys):
    code, out, _ = run_cli(capsys, "decompose", "Z6", "2", "clean", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [(d["idempotent"], d["second"]) for d in payload["decompositions"]] == [
        (1, 1),
        (3, 5),
    ]


def test_decompose_empty_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "Z6", "2", "nil-clean", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["decompositions"] == []


def test_decompose_bad_element_exits_2(capsys):
    code, _, err = run_cli(capsys, "decompose", "Z6", "9", "nil-clean")
    assert code == 2


def test_theorems_single_id(capsys):
    code, out, _ = run_cli(
        capsys, "theorems", "--ids", "TT1", "--family", "T2(Z2)",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["id"] == "TT1"
    assert payload["reports"][0]["verdict"] == "verified"


def test_theorems_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "theorems", "--ids", "nope")
    assert code == 2


def test_theorems_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "theorems", "--ids", "L1", "PPP1", "--family", "Z4", "Z6"
    )
    assert code == 0
    assert "verdict" in out
    assert "L1" in out and "PPP1" in out


def test_theorems_explore_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "theorems",
        "--ids",
        "L1",
        "--family",
        "Z4",
        "--explore-noncommutative",
    )
    assert code == 0
    assert "noncommutative exploration" in out


def test_import_round_trip(tmp_path, capsys):
    table_file = tmp_path / "z6.json"
    table_file.write_text(json.dumps(table_json(make_zmod(6))), encoding="utf-8")
    code, out, _ = run_cli(capsys, "import", str(table_file), "--format", "json")
    assert code == 0
    imported = json.loads(out)

    code, out, _ = run_cli(capsys, "info", "Z6", "--format", "json")
    native = json.loads(out)
    for key in ("order", "commutative", "units_count", "idempotents", "nilpotents",
                "jacobson", "nil_clean_ring"):
        assert imported[key] == native[key]


def test_import_broken_table_exits_5(tmp_path, capsys):
    data = table_json(make_zmod(6))
    data["mul"][2][3] = 1
    table_file = tmp_path / "broken.json"
    table_file.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "import", str(table_file), "--format", "json")
    assert code == 5
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"]


def test_import_too_large_exits_3(tmp_path, capsys):
    order = 100
    add = [[(i + j) % order for j in range(order)] for i in range(order)]
    mul = [[(i * j) % order for j in range(order)] for i in range(order)]
    table_file = tmp_path / "big.json"
    table_file.write_text(
        json.dumps({"order": order, "add": add, "mul": mul, "zero": 0, "one": 1}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "import", str(table_file))
    assert code == 3


def test_import_malformed_exits_2(tmp_path, capsys):
    table_file = tmp_path / "bad.json"
    table_file.write_text("{not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, "import", str(table_file))
    assert code == 2
    table_file.write_text(json.dumps({"order": 3}), encoding="utf-8")
    code, _, _ = run_cli(capsys, "import", str(table_file))
    assert code == 2


def test_theorems_counterexample_verdict_maps_to_exit_4(monkeypatch, capsys):
    from nilclean import theorems as theorems_module
    from nilclean import cli as cli_module
    from nilclean.theorems import TheoremReport

    fake = TheoremReport("L1", "statement", 1, 1, "counterexample", {"reason": "forced"})
    monkeypatch.setattr(cli_module, "run_all", lambda config, ids=None: [fake])
    code, out, _ = run_cli(capsys, "theorems", "--ids", "L1")
    assert code == 4
    assert "forced" in out


def test_theorems_timings_flag_adds_millis(capsys):
    code, out, _ = run_cli(
        capsys, "theorems", "--ids", "PPP1_cor", "--family", "Z4",
        "--format", "json", "--timings",
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert "millis" in report


def test_theorems_table_timings_adds_a_millis_column(capsys):
    argv = ("theorems", "--ids", "L1", "PPP1", "--family", "Z4", "Z6")
    _, plain, _ = run_cli(capsys, *argv)
    code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == 0
    header, *rows = timed.splitlines()
    assert header.split() == ["id", "verdict", "instances", "hypotheses", "millis"]
    assert [row.split()[:4] for row in rows] == [row.split() for row in plain.splitlines()[1:]]
    assert all(float(row.split()[4]) >= 0 for row in rows)


def test_theorems_default_table_matches_golden_fixture(capsys):
    code, out, _ = run_cli(capsys, "theorems")
    assert code == 0
    assert out == GOLDEN_TABLE.read_text(encoding="utf-8")


def test_theorems_default_matches_golden_fixture(capsys):
    code, out, _ = run_cli(capsys, "theorems", "--format", "json")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_json_outputs_parse_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "Z12", "--gens", "2", "--property", "nil-clean",
        "--format", "json",
    )
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload
