import json
import tracemalloc
from pathlib import Path

import pytest

from nilclean import cli, make_zmod
from nilclean.cli import main, table_json
from nilclean.construct import MAX_SPEC_DEPTH

GOLDEN = Path(__file__).parent / "golden" / "theorems_default.json"
GOLDEN_TABLE = Path(__file__).parent / "golden" / "theorems_default.txt"
# Written once, before the per-element memos went in; never regenerated.
GOLDEN_LARGER = Path(__file__).parent / "golden" / "theorems_larger.json"
LARGER_FAMILY = ("T2(Z8)", "MZ(8,8,2)", "Z4xZ4xZ4")
# Written once, before images, corners and generated ideals stopped being
# re-verified; never regenerated.  Z2^6 has 64 ideals and 63 central
# idempotents, so hom_image, lift_mod_nil and corner walk many pairs.
GOLDEN_LATTICE = Path(__file__).parent / "golden" / "theorems_lattice.json"
LATTICE_FAMILY = ("Z2xZ2xZ2xZ2xZ2xZ2", "Z6xZ10", "T2(Z6)")


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


@pytest.mark.parametrize("flag", ["--order-cap", "--ideal-cap"])
@pytest.mark.parametrize(
    "value, message",
    [("0", "must be at least 1, got 0"), ("-1", "must be at least 1, got -1"),
     ("x", "invalid int value: 'x'")],
)
@pytest.mark.parametrize(
    "command", [("info", "Z8"), ("theorems", "--ids", "L1", "--family", "Z8")]
)
def test_non_positive_cap_exits_2(capsys, command, flag, value, message):
    code, out, err = run_cli(capsys, *command, flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: {message}\n" in err


@pytest.mark.parametrize("flag", ["--family", "--ids"])
@pytest.mark.parametrize("trailing", [(), ("--format", "json")])
def test_theorems_flag_without_values_exits_2(capsys, flag, trailing):
    code, out, err = run_cli(capsys, "theorems", flag, *trailing)
    assert code == 2
    assert out == ""
    assert "expected at least one argument" in err


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


def _nested(kind: str, depth: int) -> str:
    if kind == "T":
        return "T2(" * depth + "Z2" + ")" * depth
    return "Q(" * depth + "Z2" + ";[0])" * depth


COMMANDS = [("info",), ("theorems", "--family")]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind, code", [("T", 3), ("Q", 0)])
def test_spec_nested_256_deep_is_still_parsed(capsys, command, kind, code):
    assert run_cli(capsys, *command, _nested(kind, MAX_SPEC_DEPTH))[0] == code


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", ["T", "Q"])
@pytest.mark.parametrize("depth", [257, 1000, 100_000])
def test_spec_nested_deeper_than_256_exits_2(capsys, command, kind, depth):
    code, out, err = run_cli(capsys, *command, _nested(kind, depth))
    assert code == 2
    assert out == ""
    assert "nested deeper than 256" in err


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


def test_theorems_unknown_id_is_named_in_the_message(capsys):
    code, out, err = run_cli(capsys, "theorems", "--ids", "L1", "nope")
    assert code == 2
    assert out == ""
    assert err == "error: unknown check id 'nope'\n"


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("add", 5),
        ("add", [1, 2]),
        ("add", None),
        ("mul", [[0, 0], 3]),
        ("mul", {"0": [0, 0]}),
        ("mul", [[False, False], [False, True]]),
    ],
    ids=["int", "int-rows", "null", "int-row", "object", "bools"],
)
def test_import_table_that_is_no_array_of_int_arrays_exits_2(tmp_path, capsys, key, value):
    data = table_json(make_zmod(2))
    data[key] = value
    table_file = tmp_path / "bad.json"
    table_file.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "import", str(table_file))
    assert code == 2
    assert out == ""
    assert "malformed table file" in err


def test_theorems_counterexample_verdict_maps_to_exit_4(monkeypatch, capsys):
    from nilclean import theorems as theorems_module
    from nilclean import cli as cli_module
    from nilclean.theorems import TheoremReport

    fake = TheoremReport("L1", "statement", 1, 1, "counterexample", {"reason": "forced"})
    monkeypatch.setattr(cli_module, "run_all", lambda config, ids=None: [fake])
    code, out, _ = run_cli(capsys, "theorems", "--ids", "L1")
    assert code == 4
    assert "forced" in out


@pytest.mark.parametrize("bad, code", [("Z5000", 3), ("Q(", 2)])
def test_theorems_family_errors_come_before_any_build(monkeypatch, capsys, bad, code):
    from nilclean import theorems as theorems_module

    builds = []
    monkeypatch.setattr(
        theorems_module, "build", lambda spec, caps: builds.append(spec)
    )
    assert run_cli(capsys, "theorems", "--family", "Z4", bad)[0] == code
    assert builds == []


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


def test_theorems_larger_rings_match_golden_fixture(capsys):
    argv = ("theorems", "--format", "json", "--family", *LARGER_FAMILY)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_LARGER.read_text(encoding="utf-8")


def test_theorems_lattice_rings_match_golden_fixture(capsys):
    argv = ("theorems", "--format", "json", "--family", *LATTICE_FAMILY)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_LATTICE.read_text(encoding="utf-8")


def test_json_outputs_parse_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "Z12", "--gens", "2", "--property", "nil-clean",
        "--format", "json",
    )
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload


# Requests whose results must not depend on what ran before them in the
# process: the parser is built once and shared by every call of main.
MIXED_REQUESTS = (
    ("ideal", "Z12", "--gens", "4", "--property", "nil-clean", "--format", "json"),
    ("ideal", "Z12", "--property", "nil-clean", "--format", "json"),
    ("decompose", "Z6", "two", "clean"),
    ("info", "Zx"),
    ("--help",),
    ("ideal", "--help"),
    ("info", "T2(Z2)", "--format", "json"),
    ("theorems", "--ids", "L1"),
    ("theorems", "--ids", "L1", "nope"),
    ("decompose", "Z6", "2", "clean"),
)


def test_requests_give_the_same_result_in_any_order_in_one_process(capsys):
    first = {}
    for argv in MIXED_REQUESTS:
        cli._build_parser.cache_clear()
        first[argv] = run_cli(capsys, *argv)
    assert {code for code, _, _ in first.values()} == {0, 1, 2}
    assert json.loads(first[MIXED_REQUESTS[1]][1])["ideal"]["members"] == [0]
    cli._build_parser.cache_clear()
    for sequence in (MIXED_REQUESTS, MIXED_REQUESTS[::-1]):
        for argv in sequence:
            assert run_cli(capsys, *argv) == first[argv], argv
