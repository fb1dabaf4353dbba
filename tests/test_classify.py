import pytest

from nilclean import (
    BadParameter,
    build,
    center,
    complete_orthogonal_central_sets,
    idempotents,
    is_boolean_ring,
    is_central,
    is_idempotent,
    jacobson_radical,
    make_zmod,
    nilpotency_index,
    nilpotents,
    units,
)

from oracles import (
    complete_sets_by_combinations,
    naive_is_ideal,
    naive_is_unit,
    naive_nil_index,
    radical_of_modulus,
)


def test_idempotent_examples():
    z6 = make_zmod(6)
    assert is_idempotent(z6, 3)
    assert not is_idempotent(z6, 2)
    assert is_idempotent(z6, 0)


def test_nilpotency_examples():
    z8, z6 = make_zmod(8), make_zmod(6)
    assert nilpotency_index(z8, 2) == 3
    assert nilpotency_index(z6, 2) is None
    assert nilpotency_index(z6, 0) == 1


def test_nilpotency_matches_naive_iteration(differential_rings):
    for ring in differential_rings:
        nil = nilpotents(ring)
        for x in range(ring.order):
            k = nilpotency_index(ring, x)
            assert k == naive_nil_index(ring, x) == nil.get(x), (ring.spec, x)


def test_power_walk_reaches_the_log2_bound():
    # 2 in Z1024 has index 10 = log2(1024): a walk one step shorter misses it
    z1024 = make_zmod(1024)
    walked = [nilpotency_index(z1024, x) for x in range(z1024.order)]
    # each element walks its own powers; the whole-ring fill is not forced
    assert "nilpotents" not in z1024._memo
    nil = nilpotents(z1024)
    for x, k in enumerate(walked):
        assert k == naive_nil_index(z1024, x) == nil.get(x), x
    assert max(nil.values()) == 10


def test_nil_index_is_sharp(small_family_rings):
    for ring in small_family_rings:
        for x, k in nilpotents(ring).items():
            assert ring.pow_i(x, k) == ring.zero_i
            if k > 1:
                assert ring.pow_i(x, k - 1) != ring.zero_i


def test_unit_examples():
    assert sorted(units(make_zmod(6))) == [1, 5]
    assert sorted(units(make_zmod(4))) == [1, 3]
    z9 = make_zmod(9)
    assert z9.one_i in units(z9)


def test_units_match_naive_scan(small_family_rings):
    for ring in small_family_rings:
        assert units(ring) == frozenset(
            x for x in range(ring.order) if naive_is_unit(ring, x)
        )


def test_units_closed_under_product(small_family_rings):
    for ring in small_family_rings:
        u = units(ring)
        assert ring.one_i in u
        assert all(ring.mul_i(a, b) in u for a in u for b in u)


def test_units_disjoint_from_nilpotents(small_family_rings):
    for ring in small_family_rings:
        assert not units(ring) & set(nilpotents(ring))


def test_jacobson_examples():
    assert jacobson_radical(make_zmod(12)).indices == (0, 6)
    assert jacobson_radical(make_zmod(6)).indices == (0,)
    z8 = make_zmod(8)
    assert jacobson_radical(z8).indices == (0, 2, 4, 6)
    assert set(jacobson_radical(z8).indices) == set(nilpotents(z8))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 30])
def test_jacobson_of_zmod_is_radical_multiples(n):
    ring = make_zmod(n)
    rad = radical_of_modulus(n)
    expected = tuple(range(0, n, rad))
    assert jacobson_radical(ring).indices == expected
    assert tuple(sorted(nilpotents(ring))) == expected


def test_radical_contains_no_nonzero_idempotent(small_family_rings):
    for ring in small_family_rings:
        inside = set(jacobson_radical(ring).indices) & idempotents(ring)
        assert inside == {ring.zero_i}


def test_center_examples():
    z12 = make_zmod(12)
    assert center(z12) == frozenset(range(12))
    t2 = build("T2(Z2)")
    strict_upper = next(i for i in range(t2.order) if t2.decode(i) == (0, 1, 0))
    assert not is_central(t2, strict_upper)
    assert is_central(t2, t2.one_i)


def test_boolean_ring_examples():
    assert is_boolean_ring(make_zmod(2))
    assert not is_boolean_ring(make_zmod(4))
    assert is_boolean_ring(build("Z2xZ2"))


def test_complete_sets_examples():
    z6 = make_zmod(6)
    sets = complete_orthogonal_central_sets(z6)
    assert (1,) in sets
    assert (3, 4) in sets
    assert all(len(s) <= 4 for s in sets)
    assert complete_orthogonal_central_sets(make_zmod(4)) == [(1,)]


def test_complete_sets_always_include_one(small_family_rings):
    for ring in small_family_rings:
        assert (ring.one_i,) in complete_orthogonal_central_sets(ring)


def test_complete_sets_cap():
    with pytest.raises(BadParameter):
        complete_orthogonal_central_sets(make_zmod(6), max_size=5)


def test_complete_sets_are_orthogonal_and_sum_to_one(small_family_rings):
    for ring in small_family_rings:
        for combo in complete_orthogonal_central_sets(ring):
            total = ring.zero_i
            for e in combo:
                assert is_idempotent(ring, e) and is_central(ring, e)
                total = ring.add_i(total, e)
            assert total == ring.one_i
            for a in combo:
                for b in combo:
                    if a != b:
                        assert ring.mul_i(a, b) == ring.zero_i


ORACLE_EXTRA_SPECS = (
    "Z2xZ2xZ2xZ2xZ2xZ2xZ2",
    "T2(Z6)",
    "Z2xT2(Z2)",
    "Z210",
    "C(Z6xZ10;10)",
)


def test_complete_sets_match_the_combination_search(differential_rings):
    # compared as lists, so the order of the sets is pinned too
    rings = differential_rings + [build(spec) for spec in ORACLE_EXTRA_SPECS]
    for ring in rings:
        for max_size in range(1, 5):
            got = complete_orthogonal_central_sets(ring, max_size)
            want = complete_sets_by_combinations(ring, max_size)
            assert got == want, (ring.spec, max_size)


def _stirling2(n, k):
    """S(n, k), the partitions of n things into k nonempty blocks, from
    S(m, j) = j*S(m-1, j) + S(m-1, j-1) with S(0, 0) = 1."""
    row = [1] + [0] * n  # S(0, j) for j = 0, 1, ..., n
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, n + 1)]
    return row[k]


def test_complete_set_count_is_a_sum_of_stirling_numbers():
    # the central idempotents of Z2^m form the Boolean algebra of m atoms
    for m in range(1, 9):
        ring = build("x".join(["Z2"] * m))
        expected = sum(_stirling2(m, j) for j in range(1, min(4, m) + 1))
        assert len(complete_orthogonal_central_sets(ring)) == expected, m
    assert expected == 2795


def test_radical_passes_the_ideal_oracle(differential_rings):
    # the radical is built unverified: its docstring proves it an ideal
    for ring in differential_rings:
        assert naive_is_ideal(ring, jacobson_radical(ring).mask), ring.spec
