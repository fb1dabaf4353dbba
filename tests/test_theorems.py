import pytest

from nilclean import (
    AxiomFailure,
    CHECKS,
    SuiteConfig,
    UnknownCheck,
    explore_noncommutative,
    make_zmod,
    make_table_ring,
    nilpotency_index,
    run_all,
    run_check,
)
from nilclean.cli import table_json


def test_registry_has_27_checks():
    assert len(CHECKS) == 27


def test_l1_over_selected_family():
    report = run_check("L1", ["Z6", "Z12", "Z27", "T2(Z4)"])
    assert report.verdict == "verified"
    # the converse failure is recorded: clean ideals that are not nil-clean
    assert report.details["clean_but_not_nil_clean"] >= 1


def test_tt1_on_t2z4_both_directions():
    report = run_check("TT1", ["T2(Z4)"])
    assert report.verdict == "verified"
    assert report.hypotheses_met == 3  # one instance per ideal of the base


def test_commutative_only_checks_are_vacuous_on_triangular():
    report = run_check("mmm", ["T2(Z2)"])
    assert report.verdict == "vacuous"
    assert report.instances_tested == 0


def test_empty_family_makes_everything_vacuous():
    for report in run_all(SuiteConfig(family=())):
        assert report.verdict == "vacuous", report.id


def test_unknown_check_rejected():
    with pytest.raises(UnknownCheck):
        run_check("nope", ["Z4"])
    with pytest.raises(UnknownCheck):
        run_all(SuiteConfig(family=("Z4",)), ids=["nope"])


def test_axiom_gate_rejects_corrupted_ring():
    data = table_json(make_zmod(6))
    data["mul"][2][3] = 1
    broken = make_table_ring(data["add"], data["mul"], 0, 1)
    with pytest.raises(AxiomFailure):
        run_all(SuiteConfig(family=(broken, "Z4")))


def test_reports_come_back_ordered_by_id():
    reports = run_all(SuiteConfig(family=("Z4", "Z6")), ids=["TT1", "L1", "PPP1"])
    assert [r.id for r in reports] == ["L1", "PPP1", "TT1"]


def test_nilpotency_index_of_two_grows_with_the_exponent():
    for n in range(1, 11):
        ring = make_zmod(2 ** n) if n > 1 else make_zmod(2)
        assert nilpotency_index(ring, 2 % (2 ** n)) == n


def test_morita_zero_iff_reports_both_readings():
    report = run_check("morita_zero_iff", ["MZ(4,2,2)", "MZ(2,2,2)"])
    assert report.verdict == "verified"
    assert report.details["strong_reading"] == "verified"
    assert report.details["plain_reading"] == "verified"


def test_strong_unique_reports_divergences():
    report = run_check("strong_unique", ["Z4", "T2(Z2)"])
    assert report.verdict == "verified"
    assert "unique_vs_strongly_unique_divergences" in report.details


def test_check_statements_are_nonempty():
    for check in CHECKS.values():
        assert check.statement
        assert check.id


def test_explore_noncommutative_returns_findings():
    findings = explore_noncommutative(family=("T2(Z2)",))
    assert findings
    assert {"ring", "ideal", "boolean_modulo_radical", "nil_clean", "agree"} <= set(
        findings[0]
    )


def test_report_json_shape():
    report = run_check("PPP1_cor", ["Z4"])
    blob = report.to_json()
    assert blob["id"] == "PPP1_cor"
    assert set(blob) >= {
        "id",
        "paper_result",
        "instances_tested",
        "hypotheses_met",
        "verdict",
    }
    assert "millis" not in blob
    assert "millis" in report.to_json(include_millis=True)
