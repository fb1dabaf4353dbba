import gc

import pytest

import nilclean.theorems as theorems
from nilclean import (
    AxiomFailure,
    CHECKS,
    FiniteRing,
    SuiteConfig,
    UnknownCheck,
    all_ideals,
    build,
    explore_noncommutative,
    ideal_generated,
    make_quotient,
    make_zmod,
    make_table_ring,
    nilpotency_index,
    run_all,
    run_check,
)
from nilclean.cli import table_json

from oracles import naive_is_ideal


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


def _corrupted_z6():
    data = table_json(make_zmod(6))
    data["mul"][2][3] = 1
    return make_table_ring(data["add"], data["mul"], 0, 1)


def test_axiom_gate_rejects_corrupted_ring():
    with pytest.raises(AxiomFailure):
        run_all(SuiteConfig(family=(_corrupted_z6(), "Z4")))


def test_run_check_gates_the_family():
    # a broken table must not reach a check and come back as a counterexample
    with pytest.raises(AxiomFailure):
        run_check("L1", [_corrupted_z6()])


# every kind of construction, and no spec a check builds internally (the
# morita checks build Z2 and Z4, a corner check on Z6 builds C(Z6;3)), so an
# internal ring reusing a freed family ring's address cannot pass for it
LIVENESS_FAMILY = (
    "C(Z6;3)",
    "Z6",
    "Z4xZ3",
    "T2(Z4)",
    "T3(Z2)",
    "Id(4,2)",
    "MZ(2,2,2)",
    "Q(Z8;[4])",
    "Q(T2(Z2);[2])",
)


def _alive_rings() -> set:
    return {(id(o), o.spec) for o in gc.get_objects() if isinstance(o, FiniteRing)}


def test_one_family_ring_alive_at_a_time(monkeypatch):
    # FiniteRing has no __weakref__ slot, so liveness is read off the objects
    # the collector tracks.  With the collector off, each ring the runner
    # built must be freed by reference counting before the next is built.
    built = []

    def tracking_build(spec, caps):
        assert not set(built) & _alive_rings(), f"still alive at {spec}"
        ring = build(spec, caps)
        built.append((id(ring), ring.spec))
        return ring

    monkeypatch.setattr(theorems, "build", tracking_build)
    gc.disable()
    try:
        reports = run_all(SuiteConfig(family=LIVENESS_FAMILY))
        assert not set(built) & _alive_rings()
    finally:
        gc.enable()
    assert len(built) == len(LIVENESS_FAMILY)
    assert {r.verdict for r in reports} <= {"verified", "vacuous"}


def test_release_reaches_the_quotients_in_a_memo():
    gc.disable()
    try:
        ring = build("Z12")
        quotient = make_quotient(ring, ideal_generated(ring, [6]))[0]
        all_ideals(quotient)  # the quotient's memo now holds its own cycle
        key = (id(ring), ring.spec)
        theorems._release(ring)
        del ring, quotient
        assert key not in _alive_rings()
    finally:
        gc.enable()


def test_caller_passed_rings_keep_their_memo():
    ring = build("Z12")
    ideals = all_ideals(ring)
    run_all(SuiteConfig(family=(ring, "Z4")), ids=["L1", "PPP1"])
    assert all_ideals(ring) is ideals


def test_reports_come_back_ordered_by_id():
    reports = run_all(SuiteConfig(family=("Z4", "Z6")), ids=["TT1", "L1", "PPP1"])
    assert [r.id for r in reports] == ["L1", "PPP1", "TT1"]


def test_nilpotency_index_of_two_grows_with_the_exponent():
    for n in range(1, 11):
        ring = make_zmod(2 ** n) if n > 1 else make_zmod(2)
        assert nilpotency_index(ring, 2 % (2 ** n)) == n


def test_nilindex_growth_builds_only_the_rows_it_reads(monkeypatch):
    rings, make = [], theorems.make_zmod

    def recording_make_zmod(*args, **kwargs):
        rings.append(make(*args, **kwargs))
        return rings[-1]

    monkeypatch.setattr(theorems, "make_zmod", recording_make_zmod)
    (report,) = run_all(ids=["nilindex_growth"])
    assert report.verdict == "verified"
    assert report.instances_tested == report.hypotheses_met == 10
    assert [ring.order for ring in rings] == [2 ** n for n in range(1, 11)]
    for n, ring in enumerate(rings, 1):
        built_mul = sum(type(row) is list for row in ring._mul_rows)
        built_add = sum(type(row) is list for row in ring._add_rows)
        assert built_mul <= n + 1, (ring.spec, built_mul)
        assert built_mul < ring.order and built_add < ring.order, ring.spec


def test_morita_zero_iff_reports_both_readings():
    report = run_check("morita_zero_iff", ["MZ(4,2,2)", "MZ(2,2,2)"])
    assert report.verdict == "verified"
    assert report.details["strong_reading"] == "verified"
    assert report.details["plain_reading"] == "verified"


def test_morita_diagonal_projections_pass_the_ideal_oracle():
    # built unverified: each is the image of an ideal under a surjection
    for spec in ("MZ(4,2,2)", "MZ(2,2,2)"):
        ring = build(spec)
        _, a, b, _ = ring.structure
        ring_a, ring_b = make_zmod(a), make_zmod(b)
        for ideal in all_ideals(ring):
            left, right = theorems._morita_diagonal_ideals(ring, ideal, ring_a, ring_b)
            assert naive_is_ideal(ring_a, left.mask), (spec, ideal.indices)
            assert naive_is_ideal(ring_b, right.mask), (spec, ideal.indices)


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
