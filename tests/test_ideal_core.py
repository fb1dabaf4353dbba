"""The additive-span ideal core against the brute-force oracles.

Every ring of order at most 64 from the default family, plus a few more
from the spec grammar, is checked element by element: generated ideals,
the radical, the lattice and the ideal test must equal what the n^2-product
and quasi-regularity oracles in ``oracles.py`` compute.
"""

import random
import re

import pytest

from nilclean import Ideal, all_ideals, build, ideal_generated, ideal_sum, jacobson_radical
from nilclean.ideals import additive_basis, verify_ideal
from nilclean.errors import NotAnIdeal

from oracles import (
    naive_additive_closure,
    naive_ideal_generated,
    naive_is_ideal,
    naive_jacobson,
)

EXTRA_SPECS = ("T2(Z2)", "T2(Z3)", "T3(Z2)", "T2(Z2xZ2)", "Id(8,4)", "MZ(2,2,2)", "Q(Z24;[8])")


@pytest.fixture(scope="module")
def core_rings(small_family_rings):
    rings = {ring.spec: ring for ring in small_family_rings}
    for spec in EXTRA_SPECS:
        rings.setdefault(spec, build(spec))
    assert all(ring.order <= 64 for ring in rings.values())
    return list(rings.values())


def _accepts(ring, mask) -> bool:
    try:
        verify_ideal(ring, mask)
    except NotAnIdeal:
        return False
    return True


def test_additive_basis_spans_the_ring(core_rings):
    for ring in core_rings:
        basis = additive_basis(ring)
        assert 2 ** len(basis) <= ring.order, ring.spec
        full = (1 << ring.order) - 1
        assert naive_additive_closure(ring, sum(1 << a for a in basis)) == full, ring.spec


def test_generated_ideals_match_oracle(core_rings):
    rng = random.Random(5)
    for ring in core_rings:
        for g in range(ring.order):
            assert ideal_generated(ring, [g]).mask == naive_ideal_generated(ring, [g]), (
                ring.spec, g)
        for _ in range(8):
            gens = rng.sample(range(ring.order), 2)
            assert ideal_generated(ring, gens).mask == naive_ideal_generated(ring, gens), (
                ring.spec, gens)


def test_jacobson_matches_quasi_regularity_oracle(core_rings):
    for ring in core_rings:
        assert jacobson_radical(ring).mask == naive_jacobson(ring), ring.spec


def test_all_ideals_is_the_sum_closure_of_oracle_principals(core_rings):
    for ring in core_rings:
        principal = {naive_ideal_generated(ring, [g]) for g in range(ring.order)}
        closed, frontier = set(principal), list(principal)
        while frontier:
            current = frontier.pop()
            for p in principal:
                total = naive_additive_closure(ring, current | p)
                if total not in closed:
                    closed.add(total)
                    frontier.append(total)
        assert {ideal.mask for ideal in all_ideals(ring)} == closed, ring.spec


def test_verify_ideal_agrees_with_oracle(core_rings):
    rng = random.Random(7)
    for ring in core_rings:
        n = ring.order
        masks = []
        for ideal in all_ideals(ring):
            masks.append(ideal.mask)
            masks.append(ideal.mask ^ 1 << rng.randrange(n))
        # random sets (with and without zero) and random additive subgroups,
        # which reach the absorption checks
        for _ in range(10):
            masks.append(rng.getrandbits(n))
            masks.append(rng.getrandbits(n) | 1 << ring.zero_i)
            masks.append(naive_additive_closure(ring, 1 << rng.randrange(n)))
        for mask in masks:
            assert _accepts(ring, mask) == naive_is_ideal(ring, mask), (ring.spec, mask)


def test_lattice_of_order_512_ring():
    """T2(Z8): 30 ideals, each an ideal, closed under sums.  The n^2-product
    core took minutes here; the additive core takes a fraction of a second."""
    ring = build("T2(Z8)")
    ideals = all_ideals(ring)
    assert len(ideals) == 30
    masks = {ideal.mask for ideal in ideals}
    for ideal in ideals:
        verify_ideal(ring, ideal.mask)
    for left in ideals:
        for right in ideals:
            assert ideal_sum(left, right).mask in masks


def test_rejection_names_a_true_witness(core_rings):
    """Random sets fail on addition, random subgroups on absorption; either
    way the reported elements must really break the axiom."""
    rng = random.Random(11)
    for ring in core_rings:
        n = ring.order
        masks = [rng.getrandbits(n) | 1 << ring.zero_i for _ in range(10)]
        masks += [naive_additive_closure(ring, 1 << rng.randrange(n)) for _ in range(10)]
        for mask in masks:
            if naive_is_ideal(ring, mask):
                continue
            with pytest.raises(NotAnIdeal) as caught:
                verify_ideal(ring, mask)
            message = str(caught.value)
            inside = lambda i: mask >> int(i) & 1  # noqa: E731
            if found := re.search(r"addition at (\d+),(\d+)", message):
                y, s = found.groups()
                assert inside(y) and inside(s) and not inside(ring.add_i(int(y), int(s)))
            elif found := re.search(r"left-absorbing at (\d+)\*(\d+)", message):
                a, x = found.groups()
                assert inside(x) and not inside(ring.mul_i(int(a), int(x)))
            else:
                x, a = re.search(r"right-absorbing at (\d+)\*(\d+)", message).groups()
                assert inside(x) and not inside(ring.mul_i(int(x), int(a)))


def test_masks_outside_the_ring_are_refused_by_name():
    ring = build("Z4")
    # a bit far above the order, and a negative mask (bit 4 on, and up)
    for mask, bit in ((1 | 1 << 100, 100), (-1, 4), (1 | -(1 << 10), 10)):
        with pytest.raises(NotAnIdeal, match=rf"mask bit {bit} is not an element below 4"):
            Ideal(ring, mask)
        with pytest.raises(NotAnIdeal, match=rf"mask bit {bit} "):
            verify_ideal(ring, mask)
