import gc
import importlib.util
import itertools
import random
import sys
import tracemalloc
import weakref

from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nilclean import (
    BadParameter,
    Caps,
    DEFAULT_FAMILY,
    SuiteConfig,
    FiniteRing,
    Ideal,
    NotCentralIdempotent,
    OrderCapExceeded,
    ParseError,
    all_ideals,
    build,
    idempotents,
    ideal_generated,
    is_boolean_ring,
    is_commutative,
    is_nil_clean_ring,
    is_unit,
    make_corner,
    make_idealization,
    make_morita_zero,
    make_product,
    make_quotient,
    make_table_ring,
    make_upper_triangular,
    make_zmod,
    nilpotents,
    parse_ring_spec,
    units,
    verify_axioms,
)
from nilclean.construct import DEFAULT_ORDER_CAP, TRI_POSITIONS, _is_rotation

import nilclean.theorems as theorems
from oracles import (
    bilinear_rows_by_cosets,
    naive_is_unit,
    naive_nil_index,
    quotient_coset_loop,
    reference_ops,
    tri_mat_mul,
)


def test_zmod_basics():
    z6 = make_zmod(6)
    assert z6.order == 6
    assert sorted(idempotents(z6)) == [0, 1, 3, 4]
    assert is_nil_clean_ring(make_zmod(4))
    assert is_boolean_ring(make_zmod(2))
    with pytest.raises(BadParameter):
        make_zmod(1)


def test_product_orders_and_examples():
    z4xz3 = build("Z4xZ3")
    assert z4xz3.order == 12
    assert not is_nil_clean_ring(z4xz3)
    assert is_boolean_ring(build("Z2xZ2"))


def test_product_single_part_is_identity_on_indices():
    z6 = make_zmod(6)
    wrapped = make_product([z6])
    for i in range(6):
        assert wrapped.decode(i) == (i,)
        for j in range(6):
            assert wrapped.add_i(i, j) == z6.add_i(i, j)
            assert wrapped.mul_i(i, j) == z6.mul_i(i, j)


def test_triangular_orders():
    assert build("T2(Z2)").order == 8
    assert build("T2(Z4)").order == 64
    assert build("T3(Z2)").order == 64
    with pytest.raises(BadParameter):
        make_upper_triangular(make_zmod(2), 4)
    with pytest.raises(OrderCapExceeded):
        make_upper_triangular(make_zmod(9), 3)


@pytest.mark.parametrize("spec,n,modulus", [("T2(Z4)", 2, 4), ("T3(Z2)", 3, 2)])
def test_triangular_matches_independent_matrix_arithmetic(spec, n, modulus):
    tri = build(spec)
    positions = TRI_POSITIONS[n]

    def as_dict(i):
        return dict(zip(positions, tri.decode(i)))

    for i in range(tri.order):
        for j in range(0, tri.order, 7):
            expected = tri_mat_mul(as_dict(i), as_dict(j), n, modulus)
            got = as_dict(tri.mul_i(i, j))
            assert got == expected
    # identity really is the identity matrix
    one = as_dict(tri.one_i)
    assert all(one[(r, c)] == (1 if r == c else 0) for r, c in positions)


def test_idealization_examples():
    r = make_idealization(4, 2)
    assert r.order == 8
    assert r.decode(r.one_i) == (1, 0)
    r44 = make_idealization(4, 4)
    x = 2 * 4 + 1  # (2, 1)
    y = 2 * 4 + 3  # (2, 3)
    assert r44.decode(r44.mul_i(x, y)) == (0, 0)
    with pytest.raises(BadParameter):
        make_idealization(6, 4)


def test_idealization_units_reduce_to_first_slot():
    r = make_idealization(8, 2)
    z8 = make_zmod(8)
    for i in range(r.order):
        first, _ = r.decode(i)
        assert is_unit(r, i) == is_unit(z8, first)


def test_morita_zero_examples():
    t = make_morita_zero(4, 2, 2)
    assert t.order == 32
    with pytest.raises(BadParameter):
        make_morita_zero(3, 4, 2)


def test_morita_zero_strips_kill_the_diagonal():
    t = make_morita_zero(4, 2, 2)
    strip = [i for i in range(t.order) if t.decode(i)[0] == 0 and t.decode(i)[1] == 0]
    for i, j in itertools.product(strip, repeat=2):
        r, s, _, _ = t.decode(t.mul_i(i, j))
        assert r == 0 and s == 0


def test_quotient_z12_by_6_is_z6():
    z12 = make_zmod(12)
    q, pi = make_quotient(z12, ideal_generated(z12, [6]))
    assert q.order == 6
    z6 = make_zmod(6)
    # representatives are 0..5, so the tables must agree index-for-index
    for i in range(6):
        for j in range(6):
            assert q.add_i(i, j) == z6.add_i(i, j)
            assert q.mul_i(i, j) == z6.mul_i(i, j)
    assert pi(z12.elem(7)).index == 1


def test_quotient_by_zero_is_identity():
    z6 = make_zmod(6)
    q, pi = make_quotient(z6, ideal_generated(z6, []))
    assert q.order == 6
    for i in range(6):
        assert pi(z6.elem(i)).index == i


def test_quotient_z8_by_2_is_boolean():
    z8 = make_zmod(8)
    q, _ = make_quotient(z8, ideal_generated(z8, [2]))
    assert q.order == 2
    assert is_boolean_ring(q)


def test_quotients_match_the_coset_loop(monkeypatch):
    # every quotient run_all builds on the default family, then two rings
    # whose spec is a quotient
    seen = []

    def recording(ring, ideal):
        seen.append((ring, ideal))
        return make_quotient(ring, ideal)

    monkeypatch.setattr(theorems, "make_quotient", recording)
    theorems.run_all(SuiteConfig())
    cases = {(ring.spec, ideal.mask): (ring, ideal) for ring, ideal in seen}
    assert len(cases) > 50, len(cases)
    for spec in ("Q(Z128;[64])", "Q(Z8xZ16;[8])"):
        quotient = build(spec)
        ring, mask = quotient.structure[1:]
        cases[spec, mask] = ring, next(i for i in all_ideals(ring) if i.mask == mask)
    for ring, ideal in cases.values():
        quotient, projection = make_quotient(ring, ideal)
        reps, index_map, add, mul = quotient_coset_loop(ring, ideal)
        assert projection.reps == reps and projection.index_map == index_map
        assert [quotient.add_row(i) for i in range(quotient.order)] == add
        assert [quotient.mul_row(i) for i in range(quotient.order)] == mul


def test_projection_is_a_surjective_ring_map(small_family_rings):
    from nilclean import all_ideals

    for ring in small_family_rings[:6]:
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            q, pi = make_quotient(ring, ideal)
            hit = set()
            for x in range(ring.order):
                hit.add(pi(ring.elem(x)).index)
                for y in range(ring.order):
                    assert pi(ring.add(x, y)) == pi(ring.elem(x)) + pi(ring.elem(y))
                    assert pi(ring.mul(x, y)) == pi(ring.elem(x)) * pi(ring.elem(y))
            assert pi(ring.one) == q.one
            assert hit == set(range(q.order))


def test_corner_examples():
    z6 = make_zmod(6)
    corner, emb = make_corner(z6, 3)
    assert corner.order == 2
    assert emb.parent_index == (0, 3)
    full, emb_full = make_corner(z6, z6.one_i)
    assert full.order == 6
    assert emb_full.parent_index == tuple(range(6))
    with pytest.raises(NotCentralIdempotent):
        make_corner(z6, 2)
    with pytest.raises(BadParameter):
        make_corner(z6, 0)


def test_every_family_ring_passes_axioms(family_rings):
    for ring in family_rings:
        mode = "exhaustive" if ring.order <= 64 else "sampled"
        assert verify_axioms(ring, mode=mode, count=100_000).ok, ring.spec


def test_large_ring_sampled_axioms():
    big = build("T2(Z8)")  # order 512, beyond the exhaustive limit
    assert verify_axioms(big, mode="sampled", count=100_000).ok


def test_parse_examples():
    assert str(parse_ring_spec("Z6")) == "Z6"
    assert str(parse_ring_spec("T2(Z4)")) == "T2(Z4)"
    assert str(parse_ring_spec("Id(4,2)")) == "Id(4,2)"
    assert str(parse_ring_spec("MZ(4,2,2)")) == "MZ(4,2,2)"
    assert str(parse_ring_spec("Q(Z12;[6])")) == "Q(Z12;[6])"
    assert str(parse_ring_spec("C(Z6;3)")) == "C(Z6;3)"
    assert str(parse_ring_spec(" T2( Z4 ) x Z3 ")) == "T2(Z4)xZ3"


def test_parse_round_trips_default_family():
    for spec in DEFAULT_FAMILY:
        assert str(parse_ring_spec(spec)) == spec


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_ring_spec("Zx")
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_ring_spec("T2(Z4")
    with pytest.raises(ParseError):
        parse_ring_spec("Z6 Z4")


# the grammar's characters, digits that str.isdigit accepts but int() does
# not read as ASCII, and fragments that reach nesting and long integers
SPEC_PIECES = list("ZTIdMQCx(),;[] 0123456789") + [
    "\u00b2", "\u0666", "T2(", "Q(", "C(", "Id(", "MZ(", ";[0])", "9" * 5000,
]


@given(st.lists(st.sampled_from(SPEC_PIECES), max_size=40).map("".join))
def test_parse_returns_or_raises_parse_error(text):
    try:
        parse_ring_spec(text)
    except (ParseError, BadParameter):
        pass


def test_parse_accepts_only_ascii_digits():
    for text in ("Z\u00b2", "Z\u0666", "Z6x Z\u00b2"):
        with pytest.raises(ParseError):
            parse_ring_spec(text)


def test_built_spec_round_trips_through_ring_spec_string():
    for spec in ("Z6", "Z4xZ3", "T2(Z4)", "Id(8,2)", "MZ(2,2,2)", "Q(Z12;[6])", "C(Z6;3)"):
        ring = build(spec)
        assert ring.spec == spec
        rebuilt = build(ring.spec)
        assert rebuilt.order == ring.order


@given(st.integers(2, 20), st.integers(2, 20))
def test_product_is_componentwise(n, m):
    ring = make_product([make_zmod(n), make_zmod(m)])
    assert is_commutative(ring)
    assert ring.decode(ring.one_i) == (1, 1)
    assert units(ring) == frozenset(
        a * m + b for a in units(make_zmod(n)) for b in units(make_zmod(m))
    )


# Every constructor, and nestings of them, at orders up to 256 (T2 over T2(Z2)
# has no smaller instance than 512).  T2(C(Z12;4)) is T2 over a corner
# isomorphic to Z3; 15 in T2(Z2)xZ3 is (identity, 0).
TABLE_SPECS = (
    "Z2", "Z12", "Z256",
    "Z4xZ3", "Z2xZ3xZ5", "Z16xZ16",
    "T2(Z2)", "T2(Z6)", "T3(Z2)",
    "Id(4,2)", "Id(6,1)", "Id(8,8)", "Id(16,16)",
    "MZ(2,4,1)", "MZ(4,2,2)", "MZ(3,6,3)", "MZ(4,4,4)",
    "Q(Z12;[6])", "Q(Z4xZ6;[3])", "Q(T2(Z4);[1])", "Q(MZ(4,4,2);[5])",
    "C(Z6;3)", "C(Z12;4)", "C(T2(Z2)xZ3;15)",
    "T2(Z2xZ3)", "T2(Q(Z12;[4]))", "T2(C(Z12;4))", "T2(Id(2,2))",
    "T2(T2(Z2))", "T2(Z2)xZ3", "Z2xT2(Z3)",
)


def _relabelled_z2():
    """Z2 as a table ring whose index 1 is the residue 0."""
    return make_table_ring([[1, 0], [0, 1]], [[0, 1], [1, 1]], zero=1, one=0)


@pytest.mark.parametrize(
    "spec",
    TABLE_SPECS
    + (
        pytest.param(make_product([_relabelled_z2(), make_zmod(3)]), id="Z2'xZ3"),
        # wide rotation levels (cyclic slots) over thin ones
        "Z64xZ2",
        "Z27xZ2xZ3",
        # a rotation table whose row 0 is not the identity, as the last slot
        pytest.param(make_product([make_zmod(3), _relabelled_z2()]), id="Z3xZ2'"),
        # slots whose add table is not a rotation table
        "T2(Z2xZ2)",
    ),
)
def test_tables_match_per_entry_closures(spec):
    """The row builders agree entry for entry with the per-entry reference
    computed from each constructor's definition."""
    ring = build(spec)
    add, mul, neg = reference_ops(ring)
    every = range(ring.order)
    for i in every:
        assert ring.add_row(i) == [add(i, j) for j in every], (spec, i)
        assert ring.mul_row(i) == [mul(i, j) for j in every], (spec, i)
    assert [ring.neg_i(i) for i in every] == [neg(i) for i in every]
    assert ring.add_row(ring.zero_i) == list(every)
    assert ring.mul_row(ring.one_i) == list(every)


def _rows(row_of, ring) -> list:
    return [row_of(ring, i) for i in range(ring.order)]


def _relabelled_z4():
    """Z4 as a table ring whose index 2 is the residue 3: cyclic, but its
    rows are not rotations of row 0."""
    value = [0, 1, 3, 2]
    index = {v: i for i, v in enumerate(value)}
    return make_table_ring(
        [[index[(a + b) % 4] for b in value] for a in value],
        [[index[(a * b) % 4] for b in value] for a in value],
        0,
        1,
    )


def test_rotation_tables_are_told_apart():
    """The direct-sum assembly rotates rows only over a slot table whose row
    a is row 0 rotated left by a."""
    add, mul = FiniteRing.add_row, FiniteRing.mul_row
    for ring in (make_zmod(2), make_zmod(12), _relabelled_z2(), build("Q(Z12;[4])")):
        assert _is_rotation(_rows(add, ring)), ring.spec
    for row_of, ring in (
        (add, build("Z2xZ2")), (add, build("T2(Z2)")), (add, _relabelled_z4()),
        (mul, make_zmod(12)), (mul, _relabelled_z2()),
    ):
        assert not _is_rotation(_rows(row_of, ring)), ring.spec


@pytest.mark.parametrize("spec", ["T2(Z11)", "Id(64,32)", "MZ(16,8,4)"])
def test_tables_above_order_1024_match_the_reference(spec):
    """Rings between orders 1025 and 4096 hold tables too; a seeded sample of
    rows matches the per-entry reference."""
    ring = build(spec)
    assert 1024 < ring.order <= 4096
    add, mul, neg = reference_ops(ring)
    every = range(ring.order)
    for i in random.Random(ring.order).sample(every, 24):
        assert ring.mul_row(i) is ring.mul_row(i)
        assert ring.add_row(i) == [add(i, j) for j in every], i
        assert ring.mul_row(i) == [mul(i, j) for j in every], i
    assert [ring.neg_i(i) for i in every] == [neg(i) for i in every]


@pytest.mark.parametrize("spec", ["Id(32,16)", "Z2xZ256", "T2(Z8)", "Z4xZ2xZ64", "Z128xZ4"])
def test_direct_sum_entries_share_one_int_per_index(spec):
    """Every add and mul entry is the int object the identity row holds for
    its value, so tables of n^2 entries hold n int objects."""
    ring = build(spec)
    assert ring.order > 256
    ints = ring.add_row(ring.zero_i)
    for table in (ring.add_row, ring.mul_row):
        for i in range(ring.order):
            assert all(x is ints[x] for x in table(i)), (table.__name__, i)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# T_n(Z_q), Id(n,m) with m | n and MZ(a,b,g) with g | gcd(a,b), order <= 256
BILINEAR_SPECS = st.one_of(
    st.integers(2, 6).map(lambda q: f"T2(Z{q})"),
    st.just("T3(Z2)"),
    st.integers(2, 128).flatmap(
        lambda n: st.sampled_from([m for m in _divisors(n) if n * m <= 256]).map(
            lambda m: f"Id({n},{m})"
        )
    ),
    st.tuples(st.integers(2, 64), st.integers(2, 64))
    .filter(lambda ab: ab[0] * ab[1] <= 256)
    .flatmap(
        lambda ab: st.sampled_from(
            [g for g in _divisors(gcd(*ab)) if ab[0] * ab[1] * g * g <= 256]
        ).map(lambda g: f"MZ({ab[0]},{ab[1]},{g})")
    ),
)


@given(BILINEAR_SPECS)
def test_bilinear_tables_match_the_reference_on_drawn_parameters(spec):
    ring = build(spec)
    assert ring.order <= 256
    add, mul, _ = reference_ops(ring)
    every = range(ring.order)
    for i in every:
        assert ring.add_row(i) == list(map(add, itertools.repeat(i), every)), (spec, i)
        assert ring.mul_row(i) == list(map(mul, itertools.repeat(i), every)), (spec, i)


def test_triangular_rows_are_permuted_to_index_order():
    """Over Z4 relabelled so that index 2 is the residue 3, the additive span
    lists the elements out of index order, and the rows are put back in it."""
    ring = make_upper_triangular(_relabelled_z4(), 2)
    _, mul, _ = reference_ops(ring)
    every = range(ring.order)
    for i in every:
        assert ring.mul_row(i) == [mul(i, j) for j in every], i
        assert sys.getsizeof(ring.mul_row(i)) == sys.getsizeof([0] * ring.order)


@pytest.mark.parametrize("n", [2, 3])
def test_triangular_over_a_base_whose_zero_is_not_index_0(n):
    """Over Z2 relabelled so that index 1 is the residue 0, the zero matrix
    is the all-ones tuple, and the ring is T_n(Z2) under that relabelling."""
    ring = make_upper_triangular(_relabelled_z2(), n)
    k = len(TRI_POSITIONS[n])
    assert ring.zero_i == ring.order - 1
    assert ring.decode(ring.zero_i) == (1,) * k
    assert verify_axioms(ring).ok
    add, mul, neg = reference_ops(ring)
    every = range(ring.order)
    for i in every:
        assert ring.add_row(i) == [add(i, j) for j in every], i
        assert ring.mul_row(i) == [mul(i, j) for j in every], i
        assert ring.neg_i(i) == neg(i), i


def _slot_orders(ring) -> list:
    kind = ring.structure[0]
    if kind == "product":
        return [p.order for p in ring.structure[1]]
    if kind == "tri":
        return [ring.structure[2].order] * len(TRI_POSITIONS[ring.structure[1]])
    if kind == "idealization":
        return list(ring.structure[1:])
    _, a, b, g = ring.structure
    return [a, b, g, g]


def _documented_label(ring, entries) -> str:
    kind = ring.structure[0]
    if kind == "product":
        return "(" + ",".join(p.label(d) for p, d in zip(ring.structure[1], entries)) + ")"
    if kind == "tri":
        n, base = ring.structure[1:]
        upper = iter(map(base.label, entries))  # row-major over the upper triangle
        zero = base.label(base.zero_i)
        rows = [" ".join(zero if c < r else next(upper) for c in range(n)) for r in range(n)]
        return "[" + "; ".join(rows) + "]"
    if kind == "idealization":
        r, v = entries
        return f"({r},{v})"
    r, s, m, n = entries
    return f"[{r} {n}; {m} {s}]"


@pytest.mark.parametrize(
    "spec, last_label",
    [
        ("Z4xZ3", "(3,2)"),
        ("Z2xT2(Z3)", "(1,[2 2; 0 2])"),
        ("T2(Z2xZ3)", "[(1,2) (1,2); (0,0) (1,2)]"),
        ("T3(Z2)", "[1 1 1; 0 1 1; 0 0 1]"),
        ("Id(8,2)", "(7,1)"),
        ("MZ(4,2,2)", "[3 1; 1 1]"),
        ("MZ(3,6,3)", "[2 2; 2 5]"),
    ],
)
def test_decode_is_mixed_radix_and_labels_follow_the_documented_format(spec, last_label):
    ring = build(spec)
    orders = _slot_orders(ring)
    for i in range(ring.order):
        digits, rest = [], i
        for o in reversed(orders):
            rest, d = divmod(rest, o)
            digits.append(d)
        assert ring.decode(i) == tuple(reversed(digits)), (spec, i)
        assert ring.label(i) == _documented_label(ring, ring.decode(i)), (spec, i)
    assert ring.label(ring.order - 1) == last_label


@pytest.mark.parametrize("spec", ["T2(Z6)", "Id(16,16)", "MZ(8,8,2)"])
def test_bilinear_rows_hold_no_spare_slots(spec):
    """Rows grown block by block are copied out at their exact length."""
    ring = build(spec)
    exact = sys.getsizeof([0] * ring.order)
    for i in range(ring.order):
        assert sys.getsizeof(ring.mul_row(i)) == exact, i


def _query_ring_specs() -> tuple:
    """The spec texts of the rings the benchmark's ``query`` workload asks
    about (``perfbench/workloads.py``, loaded from its file)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return tuple(r.text for r in module.query_rings())


GATHERED_SPECS = _query_ring_specs() + tuple(
    s for s in TABLE_SPECS if s.startswith(("Q(", "C("))
)


@pytest.mark.parametrize("spec", GATHERED_SPECS)
def test_gathered_tables_and_fills_match_the_oracles(spec):
    """Every table row equals its oracle: multiplication spanned from the
    generator products equals the coset walk by ``map``, quotient tables
    the per-entry coset loop, and every other row the per-entry reference.
    The nilpotent and unit fills equal plain iteration and inverse scans."""
    ring = build(spec)
    every = range(ring.order)
    add_rows, mul_rows = list(map(ring.add_row, every)), list(map(ring.mul_row, every))
    add, mul, _ = reference_ops(ring)
    kind = ring.structure[0]
    if kind == "quotient":
        parent, mask = ring.structure[1:]
        _, _, want_add, want_mul = quotient_coset_loop(parent, Ideal(parent, mask))
    else:
        want_add = [list(map(add, itertools.repeat(i), every)) for i in every]
        if kind in ("tri", "idealization", "morita_zero"):
            want_mul = bilinear_rows_by_cosets(add_rows, ring.zero_i, mul)
        else:
            want_mul = [list(map(mul, itertools.repeat(i), every)) for i in every]
    assert add_rows == want_add
    assert mul_rows == want_mul
    nil = {x: k for x in every if (k := naive_nil_index(ring, x)) is not None}
    assert nilpotents(ring) == nil
    assert units(ring) == frozenset(x for x in every if naive_is_unit(ring, x))


def _assert_zmod_matches_reference(n):
    """Rows are built on first read, so they are reached in a seeded random
    order, first through one add_i/mul_i entry each and only then as whole
    rows."""
    ring = make_zmod(n)
    add, mul, neg = reference_ops(ring)
    every = range(n)
    rng = random.Random(n)
    order = rng.sample(every, n)
    for i in order:
        j = rng.randrange(n)
        assert ring.add_i(i, j) == add(i, j), (n, i, j)
        assert ring.mul_i(i, j) == mul(i, j), (n, i, j)
    for i in order:
        assert ring.add_row(i) == list(map(add, itertools.repeat(i, n), every)), (n, i)
        assert ring.mul_row(i) == list(map(mul, itertools.repeat(i, n), every)), (n, i)
    assert [ring.neg_i(i) for i in every] == list(map(neg, every)), n


def test_zmod_tables_match_the_reference_for_every_small_modulus():
    """The stepped-slice multiplication rows change shape with how often the
    progression i*j wraps past the repeated residue list, so every modulus
    up to 300 is compared entry by entry."""
    for n in range(2, 301):
        _assert_zmod_matches_reference(n)


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2047])
def test_zmod_tables_match_the_reference_above_order_1000(n):
    _assert_zmod_matches_reference(n)


def test_zmod_row_accessors_return_built_rows():
    ring = make_zmod(97)
    for i in random.Random(97).sample(range(97), 97):
        for row in (ring.add_row(i), ring.mul_row(i)):
            assert type(row) is list, i
        assert ring.add_row(i) is ring.add_row(i)
        assert ring.mul_row(i) is ring.mul_row(i)
        assert ring.mul_i(i, 5) == ring.mul_row(i)[5] == i * 5 % 97


def test_zmod_filled_tables_drop_their_row_builders():
    """Once every row is read the tables hold only lists, and the builders,
    with the 64*n residue list the multiplication rows are cut from, are
    freed."""
    ring = make_zmod(300)
    builders = [weakref.ref(ring._add_rows[0].build), weakref.ref(ring._mul_rows[0].build)]
    for i in range(300):
        ring.add_i(i, 0)
        ring.mul_i(i, 0)
    assert all(type(row) is list for row in ring._add_rows + ring._mul_rows)
    assert [b() for b in builders] == [None, None]


def test_zmod_dropped_with_unbuilt_rows_frees_its_builders_at_once():
    """A table refers to its placeholders and they to it only weakly, so the
    ring and its row builders go with the last reference, without the
    cyclic garbage collector."""
    gc.disable()
    try:
        ring = make_zmod(1024)
        builders = [weakref.ref(ring._add_rows[0].build), weakref.ref(ring._mul_rows[0].build)]
        assert ring.add_i(2, 3) == 5 and ring.mul_i(2, 3) == 6
        del ring
        assert [b() for b in builders] == [None, None]
    finally:
        gc.enable()


def test_negatives_are_scanned_from_unbuilt_rows():
    z = make_zmod(45)
    ring = FiniteRing(45, 0, 1, "Z45", ("zmod", 45), z._add_rows, z._mul_rows)
    assert [ring.neg_i(i) for i in range(45)] == [-i % 45 for i in range(45)]


def test_zmod_mul_entries_share_one_int_per_residue():
    ring = make_zmod(1024)
    mul = [ring.mul_row(i) for i in range(1024)]
    assert len({id(x) for row in mul for x in row}) <= 1024


def _peak_alloc_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("cap", [DEFAULT_ORDER_CAP, 5000, 10**6])
def test_order_above_the_default_cap_is_refused_before_tables(cap):
    parts = [make_zmod(64), make_zmod(65)]

    def attempt():
        with pytest.raises(OrderCapExceeded):
            make_zmod(5000, cap=cap)
        with pytest.raises(OrderCapExceeded):
            make_product(parts, cap=cap)
        with pytest.raises(OrderCapExceeded):
            build("Z5000", Caps(order_cap=cap))

    # a table at order 5000 alone would hold 200 MB
    assert _peak_alloc_bytes(attempt) < 1_000_000
