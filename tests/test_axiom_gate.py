"""The basis-certified axiom gate, commutativity and center against the scans.

``verify_axioms`` accepts a ring from its additive basis and, up to order
64, scans all n^3 triples only when that certificate refutes the table, so
every report there must equal the one the scan alone builds.  The rings are
the default family and a few more from the spec grammar, all of order at
most 64, each as built and under seeded one- and two-entry table mutations;
the certificate's verdict must also equal the previous certificate's
(``oracles.all_columns_certificate``).  Such small changes break several
laws at once, so tables breaking only one distributive law or only
multiplicative associativity, an addition that is no group and one that is
a non-abelian group are checked too.  Above order 64 the certificate's own
violation is the report: mutants of three order 81-128 rings check that it
names a law the scan finds broken, with a witness that breaks it, and
``run_all`` gates every ring with it, never sampling.  ``is_commutative``
and ``center`` read the basis too and must equal the pairwise oracles.
"""

import json
import random

import pytest

import nilclean.theorems as theorems
from nilclean import AxiomFailure, SuiteConfig, build, center, is_commutative, verify_axioms
from nilclean.cli import main, table_json
from nilclean.construct import make_table_ring
from nilclean.ring import AxiomReport, _certified, _exhaustive_axioms

from oracles import all_columns_certificate, naive_center, naive_is_commutative

EXTRA_SPECS = ("T2(Z3)", "T2(Z2xZ2)", "Id(8,4)", "Q(Z24;[8])", "Z2xZ2xZ2xZ2xZ2xZ2")

# the rings the benchmark's query workload asks about, orders 54-256
QUERY_SPECS = (
    "Z64", "Z128", "Z200", "Id(32,4)", "MZ(4,4,2)", "Q(Z128;[64])", "Z8xZ8",
    "Z4xZ16", "Z2xZ4xZ8", "Z6xZ10", "T2(Z4)", "T3(Z2)", "T2(Z2xZ2)", "T2(Z3)xZ2",
    "Z256", "Z3xZ27", "T2(Z5)", "Id(16,16)", "MZ(8,8,2)", "Q(Z8xZ16;[8])",
    "C(Z64xZ2;2)", "T2(Z6)", "Z16xZ16",
)


@pytest.fixture(scope="module")
def gate_rings(family_rings):
    rings = {ring.spec: ring for ring in family_rings}
    for spec in EXTRA_SPECS:
        rings.setdefault(spec, build(spec))
    assert all(ring.order <= 64 for ring in rings.values())
    return list(rings.values())


def breaks(ring, axiom, witness) -> bool:
    """Whether the witness breaks the law, read entry by entry off the tables."""
    add, mul, zero, one = ring.add_i, ring.mul_i, ring.zero_i, ring.one_i
    laws = {
        "add_zero": lambda x: add(x, zero) != x,
        "add_inverse": lambda x: add(x, ring.neg_i(x)) != zero,
        "mul_one": lambda x: mul(x, one) != x or mul(one, x) != x,
        "add_comm": lambda x, y: add(x, y) != add(y, x),
        "add_assoc": lambda x, y, z: add(add(x, y), z) != add(x, add(y, z)),
        "mul_assoc": lambda x, y, z: mul(mul(x, y), z) != mul(x, mul(y, z)),
        "left_distrib": lambda x, y, z: mul(x, add(y, z)) != add(mul(x, y), mul(x, z)),
        "right_distrib": lambda x, y, z: mul(add(x, y), z) != add(mul(x, z), mul(y, z)),
    }
    return laws[axiom](*witness)


def scan_report(ring) -> AxiomReport:
    violations = sorted(_exhaustive_axioms(ring), key=lambda v: v.axiom)
    return AxiomReport(ring.spec, "exhaustive", ring.order ** 3, tuple(violations))


def table_ring(add, mul, zero, one):
    return make_table_ring(add, mul, zero, one, name=f"table{len(add)}")


def mutants(ring, count, seed):
    """`count` tables of the ring, each with one or two entries changed."""
    rng = random.Random(f"{seed}:{ring.spec}")
    data = table_json(ring)
    n = ring.order
    for m in range(count):
        add = [list(row) for row in data["add"]]
        mul = [list(row) for row in data["mul"]]
        for _ in range(1 + m % 2):
            table = rng.choice((add, mul))
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
        yield table_ring(add, mul, data["zero"], data["one"])


def mutant_count(order: int) -> int:
    # the scan that names a mutant's violations is cubic in the order
    return 52 if order <= 16 else 48 if order <= 32 else 12


def test_rings_are_certified_without_the_scan(gate_rings, monkeypatch):
    def no_scan(ring):
        raise AssertionError(f"{ring.spec} fell back to the scan")

    monkeypatch.setattr("nilclean.ring._exhaustive_axioms", no_scan)
    for ring in gate_rings:
        data = table_json(ring)
        imported = table_ring(data["add"], data["mul"], data["zero"], data["one"])
        report = verify_axioms(imported, mode="exhaustive")
        assert report.ok and report.checked == ring.order ** 3, ring.spec


def test_both_certificates_accept_every_ring_without_the_scan(gate_rings, monkeypatch):
    def no_scan(ring):
        raise AssertionError(f"{ring.spec} fell back to the scan")

    monkeypatch.setattr("nilclean.ring._exhaustive_axioms", no_scan)
    specs = QUERY_SPECS + ("T2(Z8)", "MZ(8,8,2)")
    for ring in gate_rings + [build(spec) for spec in specs]:
        assert _certified(ring) is None and all_columns_certificate(ring), ring.spec
        assert verify_axioms(ring, mode="certified").ok, ring.spec


def test_mutant_reports_equal_the_scan(gate_rings):
    total = rejected = 0
    for ring in gate_rings:
        for mutant in mutants(ring, mutant_count(ring.order), seed=6):
            expected = scan_report(mutant)
            assert verify_axioms(mutant, mode="exhaustive") == expected, ring.spec
            assert verify_axioms(mutant, mode="certified").violations == expected.violations
            refuted = _certified(mutant)
            assert (refuted is None) == all_columns_certificate(mutant), ring.spec
            if refuted is not None:
                assert refuted.axiom in {v.axiom for v in expected.violations}
                assert breaks(mutant, refuted.axiom, refuted.witness), (ring.spec, refuted)
            total += 1
            rejected += not expected.ok
    assert total >= 1000
    # a few changes happen to leave a ring, which the certificate accepts
    assert 0.99 * total < rejected < total


@pytest.mark.parametrize("spec", ["Z3xZ27", "T2(Z4)xZ2", "Z2xZ2xZ2xZ2xZ2xZ2xZ2"])
def test_mutants_above_the_scan_limit_get_the_certificate_violation(spec):
    ring = build(spec)
    assert 64 < ring.order <= 128
    rejected = 0
    # the scan costs about 0.1 s per mutant at order 128
    for mutant in mutants(ring, 14, seed=17):
        found = _exhaustive_axioms(mutant)
        report = verify_axioms(mutant, mode="certified")
        assert report.ok == (not found), spec
        if found:
            (violation,) = report.violations
            assert violation.axiom in {v.axiom for v in found}, (spec, violation)
            assert breaks(mutant, violation.axiom, violation.witness), (spec, violation)
        rejected += not report.ok
    assert rejected >= 12


def _maps_near_ring(opposite: bool):
    """The zero-preserving maps on Z3 under pointwise + and composition.

    Element (f(1), f(2)) has index 3*f(1) + f(2).  x*y = x o y is right but
    not left distributive; with `opposite`, x*y = y o x, the other way round.
    Both are associative with unity, so each breaks exactly one law.
    """
    maps = [(0, a, b) for a in range(3) for b in range(3)]
    index = {f: 3 * f[1] + f[2] for f in maps}

    def compose(f, g):
        return tuple(f[g[t]] for t in range(3))

    add = [[index[tuple((f[t] + g[t]) % 3 for t in range(3))] for g in maps] for f in maps]
    mul = [
        [index[compose(g, f) if opposite else compose(f, g)] for g in maps] for f in maps
    ]
    return table_ring(add, mul, index[(0, 0, 0)], index[(0, 1, 2)])


def _non_associative_algebra():
    """The Z2-algebra on 1, u, v with uu = v, vu = u and uv = vv = 0.

    Element c0 + c1*u + c2*v has index c0 + 2*c1 + 4*c2; the product is
    bilinear with unity 1, so only associativity fails: (uu)u = u, u(uu) = 0.
    """
    basis_products = {(1, 1): 4, (4, 2): 2}  # u*u = v, v*u = u

    def product(x, y):
        out = 0
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                if x & i and y & j:
                    out ^= i * j if 1 in (i, j) else basis_products.get((i, j), 0)
        return out

    add = [[x ^ y for y in range(8)] for x in range(8)]
    mul = [[product(x, y) for y in range(8)] for x in range(8)]
    return table_ring(add, mul, 0, 1)


@pytest.mark.parametrize(
    "table, law",
    [
        (lambda: _maps_near_ring(opposite=False), "left_distrib"),
        (lambda: _maps_near_ring(opposite=True), "right_distrib"),
        (_non_associative_algebra, "mul_assoc"),
    ],
    ids=["left_distrib", "right_distrib", "mul_assoc"],
)
def test_table_breaking_one_law_is_rejected(table, law):
    ring = table()
    report = verify_axioms(ring, mode="exhaustive")
    assert report == scan_report(ring)
    assert [v.axiom for v in report.violations] == [law]


def test_non_abelian_additive_group_gets_the_scan_report():
    """Addition is the group S3 (index 3*r + s for the permutation t^r c^s,
    c a 3-cycle and t a transposition), the unity is c and every product
    not by the unity is 0.  The addition is associative but not abelian, and
    the certificate checks commutativity on the basis only: it must still
    refute the table, and the report must be the scan's."""

    def compose(x, y):
        (r1, s1), (r2, s2) = divmod(x, 3), divmod(y, 3)
        # t^r1 c^s1 t^r2 c^s2 = t^(r1+r2) c^(s2 + s1 * (-1)^r2), as t c t = c^-1
        return 3 * ((r1 + r2) % 2) + (s2 + (-s1 if r2 else s1)) % 3

    one = 1
    add = [[compose(x, y) for y in range(6)] for x in range(6)]
    mul = [[y if x == one else x if y == one else 0 for y in range(6)] for x in range(6)]
    ring = table_ring(add, mul, 0, one)
    assert verify_axioms(ring, mode="certified").violations == scan_report(ring).violations
    assert verify_axioms(ring, mode="exhaustive") == scan_report(ring)
    assert "add_comm" in {v.axiom for v in scan_report(ring).violations}
    # commutativity is checked on the basis before either distributive law
    refuted = _certified(ring)
    assert refuted.axiom == "add_comm" and breaks(ring, refuted.axiom, refuted.witness)


def _min_table(n: int):
    """x + x = 0 and x + y = min(x, y) for distinct nonzero x, y: commutative
    with zero and negatives but no group, and its basis span overlaps itself
    on every generator."""
    add = [
        [x if y == 0 else y if x == 0 else 0 if x == y else min(x, y) for y in range(n)]
        for x in range(n)
    ]
    mul = [[x * y % n for y in range(n)] for x in range(n)]
    return table_ring(add, mul, 0, 1)


def test_non_group_addition_is_scanned_in_bounded_work():
    ring = _min_table(64)
    report = verify_axioms(ring, mode="exhaustive")
    assert report == scan_report(ring)
    assert "add_assoc" in {v.axiom for v in report.violations}


def test_import_of_a_near_ring_exits_5_with_the_scan_witness(tmp_path, capsys):
    near = _maps_near_ring(opposite=False)
    table_file = tmp_path / "near.json"
    table_file.write_text(json.dumps(table_json(near)), encoding="utf-8")
    assert main(["import", str(table_file), "--format", "json"]) == 5
    assert json.loads(capsys.readouterr().out) == scan_report(near).to_json()


def test_commutativity_and_center_match_the_pair_scans(gate_rings):
    rings = gate_rings + [build(spec) for spec in QUERY_SPECS]
    assert any(not naive_is_commutative(ring) for ring in rings)
    for ring in rings:
        assert is_commutative(ring) == naive_is_commutative(ring), ring.spec
        assert center(ring) == naive_center(ring), ring.spec


LARGER_FAMILY = ("T2(Z8)", "MZ(8,8,2)", "Z4xZ4xZ4", "Z3xZ27")


def test_run_all_gates_every_order_without_sampling(monkeypatch):
    def no_sampling(ring, count):
        raise AssertionError(f"{ring.spec} was sampled")

    modes = []

    def recording(ring, mode="exhaustive", count=100_000):
        modes.append((ring.order, mode))
        return verify_axioms(ring, mode, count)

    monkeypatch.setattr("nilclean.ring._sampled_axioms", no_sampling)
    monkeypatch.setattr(theorems, "verify_axioms", recording)
    theorems.run_all(SuiteConfig(LARGER_FAMILY), ids=["central_idem"])
    assert modes == [(512, "certified"), (256, "certified"), (64, "certified"), (81, "certified")]


def _broken_z2_7():
    """Z2^7 with one multiplication entry changed, past the scan limit."""
    data = table_json(build("Z2xZ2xZ2xZ2xZ2xZ2xZ2"))
    data["mul"][37][90] ^= 5
    return table_ring(data["add"], data["mul"], data["zero"], data["one"])


def test_run_all_rejects_a_broken_order_128_table():
    ring = _broken_z2_7()
    with pytest.raises(AxiomFailure) as failure:
        theorems.run_all(SuiteConfig((ring,)))
    (violation,) = failure.value.report.violations
    assert breaks(ring, violation.axiom, violation.witness), violation


def test_theorems_exits_5_on_a_broken_order_128_table(monkeypatch, capsys):
    monkeypatch.setattr(theorems, "build", lambda spec, caps: _broken_z2_7())
    assert main(["theorems", "--ids", "central_idem", "--family", "Z128"]) == 5
    assert "axiom verification failed" in capsys.readouterr().err
