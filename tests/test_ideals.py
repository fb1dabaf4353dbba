import json

import pytest

from nilclean import (
    BadParameter,
    CapExceeded,
    Ideal,
    NotAnIdeal,
    all_ideals,
    build,
    corner_ideal,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    image_ideal,
    is_nil_ideal,
    make_corner,
    make_quotient,
    make_zmod,
    unit_ideal,
    zero_ideal,
)
from nilclean.ideals import verify_ideal

from oracles import divisors, naive_nil_index


def test_ideal_contains_an_index_or_an_element():
    """An in-range index is read off the mask; anything else goes through
    the ring's index check."""
    ring = make_zmod(12)
    ideal = ideal_generated(ring, [4])
    assert [i for i in range(12) if i in ideal] == [0, 4, 8]
    assert ring.elem(8) in ideal and ring.elem(6) not in ideal
    assert True not in ideal and False in ideal
    with pytest.raises(BadParameter):
        12 in ideal
    with pytest.raises(BadParameter):
        -1 in ideal


def test_generated_examples():
    z6 = make_zmod(6)
    assert ideal_generated(z6, [2]).indices == (0, 2, 4)
    assert ideal_generated(z6, []).indices == (0,)
    assert ideal_generated(z6, [z6.one]).indices == tuple(range(6))


def test_generated_output_is_verified_closed(small_family_rings):
    for ring in small_family_rings[:8]:
        for g in range(0, ring.order, 3):
            ideal = ideal_generated(ring, [g])
            verify_ideal(ring, ideal.mask)  # raises on failure


def test_all_ideals_z12():
    z12 = make_zmod(12)
    ideals = all_ideals(z12)
    assert len(ideals) == 6
    members = [i.indices for i in ideals]
    assert members == [
        (0,),
        (0, 6),
        (0, 4, 8),
        (0, 3, 6, 9),
        (0, 2, 4, 6, 8, 10),
        tuple(range(12)),
    ]


def test_all_ideals_z27_and_prime():
    assert len(all_ideals(make_zmod(27))) == 4
    assert len(all_ideals(make_zmod(7))) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12, 16, 18, 27, 30])
def test_zmod_ideals_match_divisor_lattice(n):
    ring = make_zmod(n)
    got = {ideal.indices for ideal in all_ideals(ring)}
    expected = {tuple(range(0, n, d)) for d in divisors(n)}
    assert got == expected


def test_all_ideals_cap():
    with pytest.raises(CapExceeded):
        all_ideals(make_zmod(30), cap=3)


def test_sum_product_intersect_examples():
    z12 = make_zmod(12)
    two = ideal_generated(z12, [2])
    three = ideal_generated(z12, [3])
    assert ideal_product(two, three).indices == (0, 6)
    assert ideal_sum(two, zero_ideal(z12)) == two
    assert ideal_intersect(two, unit_ideal(z12)) == two


def test_product_inside_intersection(small_family_rings):
    for ring in small_family_rings[:8]:
        ideals = all_ideals(ring)
        for left in ideals:
            for right in ideals:
                prod = ideal_product(left, right)
                meet = ideal_intersect(left, right)
                assert prod.mask & ~meet.mask == 0


def test_lattice_closure_sanity(small_family_rings):
    for ring in small_family_rings:
        ideals = all_ideals(ring)
        if len(ideals) > 32:
            continue
        masks = {i.mask for i in ideals}
        for left in ideals:
            for right in ideals:
                assert ideal_sum(left, right).mask in masks
                assert ideal_product(left, right).mask in masks
                assert ideal_intersect(left, right).mask in masks


def test_nil_ideal_examples():
    z8, z6 = make_zmod(8), make_zmod(6)
    assert is_nil_ideal(ideal_generated(z8, [2]))
    assert not is_nil_ideal(ideal_generated(z6, [2]))
    assert is_nil_ideal(zero_ideal(z6))


def test_nil_ideal_matches_naive_members(differential_rings):
    for ring in differential_rings:
        for ideal in all_ideals(ring):
            naive = all(naive_nil_index(ring, x) is not None for x in ideal.indices)
            assert is_nil_ideal(ideal) == naive, (ring.spec, ideal.indices)


def test_image_ideal_examples():
    z12 = make_zmod(12)
    q, pi = make_quotient(z12, ideal_generated(z12, [6]))
    image = image_ideal(pi, ideal_generated(z12, [2]))
    assert image.indices == (0, 2, 4)
    trivial_q, trivial_pi = make_quotient(z12, zero_ideal(z12))
    assert image_ideal(trivial_pi, ideal_generated(z12, [3])).indices == (0, 3, 6, 9)
    assert image_ideal(pi, zero_ideal(z12)).indices == (0,)


def test_corner_ideal_examples():
    z6 = make_zmod(6)
    full = unit_ideal(z6)
    at_one = corner_ideal(z6, z6.one_i, full)
    assert at_one.indices == tuple(range(6))
    corner, emb = make_corner(z6, 3)
    cut = corner_ideal(z6, 3, full)
    assert tuple(emb.parent_index[i] for i in cut.indices) == (0, 3)
    assert corner_ideal(z6, 3, zero_ideal(z6)).indices == (corner.zero_i,)


def test_from_members_rejects_non_ideals():
    z6 = make_zmod(6)
    with pytest.raises(NotAnIdeal):
        Ideal.from_members(z6, [0, 1])
    with pytest.raises(NotAnIdeal):
        Ideal.from_members(z6, [2, 4])  # zero missing


def test_ideal_json_round_trip():
    z6 = make_zmod(6)
    ideal = ideal_generated(z6, [2])
    blob = json.dumps(ideal.to_json(), sort_keys=True)
    parsed = json.loads(blob)
    rebuilt = Ideal.from_members(build(parsed["ring"]), parsed["members"])
    assert rebuilt.indices == ideal.indices
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == blob


def test_ideal_ordering_is_by_size_then_members(small_family_rings):
    for ring in small_family_rings:
        ideals = all_ideals(ring)
        keys = [(len(i.indices), i.indices) for i in ideals]
        assert keys == sorted(keys)
