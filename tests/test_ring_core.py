import copy

import pytest
from hypothesis import given, strategies as st

from nilclean import (
    Elem,
    ElementRingMismatch,
    ExhaustiveTooLarge,
    build,
    idempotents,
    is_commutative,
    make_table_ring,
    make_zmod,
    nilpotents,
    units,
    verify_axioms,
)
from nilclean.cli import table_json


def test_zmod_arithmetic_examples():
    z6 = make_zmod(6)
    assert z6.add(2, 4).index == 0
    assert z6.mul(3, 4).index == 0
    assert z6.neg(2).index == 4
    z4 = make_zmod(4)
    assert z4.add(3, 3).index == 2


def test_identity_cases():
    z12 = make_zmod(12)
    for x in range(12):
        assert z12.add(x, z12.zero).index == x
        assert z12.mul(x, z12.one).index == x
        assert z12.mul(z12.one, x).index == x
    assert z12.pow(z12.one, 13) == z12.one


def test_pow_examples():
    z8 = make_zmod(8)
    assert z8.pow(2, 3).index == 0
    assert z8.pow(2, 2).index == 4
    assert z8.pow(5, 0) == z8.one


def test_strict_upper_triangular_squares_to_zero():
    t2 = build("T2(Z2)")
    # entries (0, 1, 0): zero diagonal, upper entry one
    u = next(
        e for e in t2.elements() if t2.decode(e.index) == (0, 1, 0)
    )
    assert (u * u).index == t2.zero_i


def test_cross_ring_elements_rejected():
    z6, z4 = make_zmod(6), make_zmod(4)
    with pytest.raises(ElementRingMismatch):
        z6.add(z6.elem(1), z4.elem(1))
    with pytest.raises(ElementRingMismatch):
        _ = z6.elem(2) * z4.elem(2)
    other_z6 = make_zmod(6)
    with pytest.raises(ElementRingMismatch):
        z6.index_of(other_z6.elem(3))


def test_verify_axioms_zmod_exhaustive():
    report = verify_axioms(make_zmod(6), mode="exhaustive")
    assert report.ok
    assert report.checked == 6 ** 3


def test_verify_axioms_sampled_t2z4():
    report = verify_axioms(build("T2(Z4)"), mode="sampled", count=10_000)
    assert report.ok
    assert report.mode == "sampled"


def test_exhaustive_rejected_above_limit():
    big = build("T2(Z8)")  # order 512
    with pytest.raises(ExhaustiveTooLarge):
        verify_axioms(big, mode="exhaustive")


def test_corrupted_table_names_axiom_and_witness():
    data = table_json(make_zmod(6))
    data["mul"][2][3] = 1  # 2*3 should be 0
    broken = make_table_ring(data["add"], data["mul"], 0, 1)
    report = verify_axioms(broken, mode="exhaustive")
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert axioms & {"mul_assoc", "left_distrib", "right_distrib"}
    assert all(len(v.witness) >= 1 for v in report.violations)


def test_is_commutative():
    assert is_commutative(make_zmod(12))
    assert not is_commutative(build("T2(Z2)"))
    assert is_commutative(build("Z2xZ3"))


def test_sampled_mode_is_reproducible():
    ring = build("T2(Z4)")
    first = verify_axioms(ring, mode="sampled", count=500)
    second = verify_axioms(ring, mode="sampled", count=500)
    assert first == second


@given(st.integers(2, 24), st.integers(0, 16), st.integers(0, 16), st.data())
def test_pow_additive_law(n, a, b, data):
    ring = make_zmod(n)
    x = data.draw(st.integers(0, n - 1))
    assert ring.pow_i(x, a + b) == ring.mul_i(ring.pow_i(x, a), ring.pow_i(x, b))


@given(st.sampled_from(["Z6", "Z8", "Z12", "T2(Z2)", "Id(4,2)", "MZ(2,2,2)"]), st.data())
def test_random_triples_satisfy_ring_axioms(spec, data):
    ring = build(spec)
    n = ring.order
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    add, mul = ring.add_i, ring.mul_i
    assert add(add(i, j), k) == add(i, add(j, k))
    assert add(i, j) == add(j, i)
    assert mul(mul(i, j), k) == mul(i, mul(j, k))
    assert mul(i, add(j, k)) == add(mul(i, j), mul(i, k))
    assert mul(add(i, j), k) == add(mul(i, k), mul(j, k))
    assert add(i, ring.neg_i(i)) == ring.zero_i


def test_memoized_sets_match_fresh_recomputation():
    ring = make_zmod(12)
    first = (units(ring), idempotents(ring), dict(nilpotents(ring)))
    again = (units(ring), idempotents(ring), dict(nilpotents(ring)))
    assert first == again
    fresh = make_zmod(12)
    assert units(fresh) == first[0]
    assert idempotents(fresh) == first[1]
    assert dict(nilpotents(fresh)) == first[2]


def test_elem_repr_uses_labels():
    ring = build("Id(4,2)")
    assert "(" in repr(ring.elem(3))
    assert repr(make_zmod(6).elem(4)) == "<Z6 4>"


def test_element_handles_are_made_on_demand():
    """Handles compare and hash by (ring, index), so each call may make a
    fresh one, and the ring keeps no list of handles."""
    ring = make_zmod(16)
    handles = list(ring.elements())
    assert ring.elem(5) == ring.elem(5) == handles[5]
    assert hash(ring.elem(5)) == hash(ring.elem(5)) == hash(handles[5])
    assert ring.elem(5) != ring.elem(6)
    assert ring.elem(5) != make_zmod(16).elem(5)
    held = [getattr(ring, name) for name in type(ring).__slots__ if hasattr(ring, name)]
    held += list(ring._memo.values())
    assert not any(
        isinstance(part, (list, tuple)) and any(isinstance(h, Elem) for h in part)
        for part in held
    )
