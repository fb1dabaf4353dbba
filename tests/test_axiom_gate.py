"""The basis-certified axiom gate, commutativity and center against the scans.

``verify_axioms(mode="exhaustive")`` accepts a ring from its additive basis
and scans all n^3 triples only when that certificate fails, so every report
must equal the one the scan alone builds.  The rings are the default family
and a few more from the spec grammar, all of order at most 64, each as built
and under seeded one- and two-entry table mutations.  Such small changes
break several laws at once, so tables breaking only one distributive law or
only multiplicative associativity, and an addition that is no group, are
checked too.  ``is_commutative`` and ``center`` read the basis
too and must equal the pairwise oracles.
"""

import json
import random

import pytest

from nilclean import build, center, is_commutative, verify_axioms
from nilclean.cli import main, table_json
from nilclean.construct import make_table_ring
from nilclean.ring import AxiomReport, _exhaustive_axioms

from oracles import naive_center, naive_is_commutative

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


def test_mutant_reports_equal_the_scan(gate_rings):
    total = rejected = 0
    for ring in gate_rings:
        for mutant in mutants(ring, mutant_count(ring.order), seed=6):
            expected = scan_report(mutant)
            assert verify_axioms(mutant, mode="exhaustive") == expected, ring.spec
            total += 1
            rejected += not expected.ok
    assert total >= 1000
    # a few changes happen to leave a ring, which the certificate accepts
    assert 0.99 * total < rejected < total


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
