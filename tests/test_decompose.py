from collections import Counter

import pytest
from hypothesis import given, strategies as st

import nilclean.decompose as decompose_module
from nilclean import (
    Decomposition,
    PreconditionViolated,
    all_ideals,
    build,
    clean_decompositions,
    decomposition_within_ideal,
    ideal_generated,
    is_clean_ideal,
    is_nil_clean_ideal,
    is_nil_clean_ring,
    is_strongly_clean_ideal,
    is_strongly_nil_clean_ideal,
    is_uniquely_nil_clean_ideal,
    is_uniquely_strongly_clean_ideal,
    is_uniquely_strongly_nil_clean_ideal,
    make_zmod,
    nil_clean_decompositions,
    run_all,
    strongly_filter,
    unit_ideal,
    units,
    zero_ideal,
)

from nilclean.decompose import _admissible, _every_member

from oracles import brute_pairs, every_member_loop

KINDS = ("nil-clean", "clean")


def pairs(decs):
    return [(d.idempotent.index, d.second.index) for d in decs]


def brute_lists(ring, kind):
    """Per element, the brute-force pairs of the kind and the commuting ones."""
    full = [brute_pairs(ring, x, kind) for x in range(ring.order)]
    strong = [
        [(e, y) for e, y in found if ring.mul_i(e, y) == ring.mul_i(y, e)]
        for found in full
    ]
    return full, strong


def test_nil_clean_examples():
    z4 = make_zmod(4)
    assert pairs(nil_clean_decompositions(z4, 3)) == [(1, 2)]
    z6 = make_zmod(6)
    assert nil_clean_decompositions(z6, 2) == []
    assert (0, 0) in pairs(nil_clean_decompositions(z6, 0))


def test_clean_examples():
    z6 = make_zmod(6)
    assert pairs(clean_decompositions(z6, 2)) == [(1, 1), (3, 5)]
    assert pairs(clean_decompositions(z6, 0)) == [(1, 5)]
    z2 = make_zmod(2)
    assert pairs(clean_decompositions(z2, 0)) == [(1, 1)]


def test_decompositions_match_brute_force_all_pairs(differential_rings):
    for ring in differential_rings:
        for kind, decompose in zip(KINDS, (nil_clean_decompositions, clean_decompositions)):
            full, strong = brute_lists(ring, kind)
            # the second pass reads every element's memoized decompositions
            for x in [*range(ring.order), *range(ring.order)]:
                decs = decompose(ring, x)
                assert pairs(decs) == full[x], (ring.spec, kind, x)
                assert pairs(strongly_filter(decs)) == strong[x], (ring.spec, kind, x)


def test_strong_lists_match_commuting_brute_pairs(differential_rings):
    for ring in differential_rings:
        for kind in KINDS:
            _, strong = brute_lists(ring, kind)
            lists = _admissible(ring, kind, strong=True)
            for x in range(ring.order):
                assert [(e, ring.sub_i(x, e)) for e in lists[x]] == strong[x], (
                    ring.spec, kind, x,
                )


def test_ideal_predicates_match_brute_pairs(differential_rings):
    for ring in differential_rings:
        nil, strong_nil = brute_lists(ring, "nil-clean")
        clean, strong_clean = brute_lists(ring, "clean")
        for ideal in all_ideals(ring):
            members = ideal.indices
            expected = {
                is_nil_clean_ideal: all(nil[x] for x in members),
                is_clean_ideal: all(clean[x] for x in members),
                is_strongly_nil_clean_ideal: all(strong_nil[x] for x in members),
                is_strongly_clean_ideal: all(strong_clean[x] for x in members),
                is_uniquely_nil_clean_ideal: all(len(nil[x]) == 1 for x in members),
                is_uniquely_strongly_nil_clean_ideal: all(
                    len(strong_nil[x]) == 1 for x in members
                ),
                is_uniquely_strongly_clean_ideal: all(
                    len(strong_clean[x]) == 1 for x in members
                ),
            }
            for predicate, want in expected.items():
                assert predicate(ideal) == want, (ring.spec, predicate.__name__, members)


def test_member_masks_match_the_member_loop(family_rings):
    """The per-ring mask of elements with a decomposition decides each ideal
    as the member-by-member loop does, for every kind, strong and unique."""
    seen = Counter()
    for ring in family_rings:
        for ideal in all_ideals(ring):
            for kind in KINDS:
                for strong in (False, True):
                    lists = _admissible(ring, kind, strong)
                    for unique in (False, True):
                        want = every_member_loop(ideal, lists, unique)
                        assert _every_member(ideal, kind, strong, unique) == want, (
                            ring.spec, kind, strong, unique, ideal.indices,
                        )
                        seen[want] += 1
    assert seen[True] and seen[False]


def test_decompositions_self_verify(small_family_rings):
    for ring in small_family_rings[:8]:
        for x in range(0, ring.order, 5):
            for d in nil_clean_decompositions(ring, x):
                d.verify()
                assert d.idempotent + d.second == ring.elem(x)
            for d in clean_decompositions(ring, x):
                d.verify()
                assert d.second.index in units(ring)


def test_strongly_filter_is_identity_on_commutative():
    z12 = make_zmod(12)
    for x in range(12):
        decs = nil_clean_decompositions(z12, x)
        assert strongly_filter(decs) == decs


def test_strongly_filter_drops_noncommuting_pair():
    t2 = build("T2(Z2)")
    x = next(i for i in range(t2.order) if t2.decode(i) == (1, 1, 0))
    decs = nil_clean_decompositions(t2, x)
    assert any(not d.commutes for d in decs)
    assert strongly_filter(decs) == [d for d in decs if d.commutes]
    assert strongly_filter([]) == []


def test_ideal_predicate_examples():
    z6 = make_zmod(6)
    counterexample = ideal_generated(z6, [2])
    assert counterexample.indices == (0, 2, 4)
    assert is_clean_ideal(counterexample)
    assert not is_nil_clean_ideal(counterexample)

    z27 = make_zmod(27)
    assert is_nil_clean_ideal(ideal_generated(z27, [3]))

    zero = zero_ideal(z6)
    assert is_clean_ideal(zero)
    assert is_nil_clean_ideal(zero)
    assert is_strongly_nil_clean_ideal(zero)


def test_uniquely_examples():
    z4 = make_zmod(4)
    assert is_uniquely_nil_clean_ideal(ideal_generated(z4, [2]))
    assert is_uniquely_nil_clean_ideal(zero_ideal(z4))
    z6 = make_zmod(6)
    assert not is_uniquely_nil_clean_ideal(ideal_generated(z6, [2]))


def test_nil_clean_ring_examples():
    assert is_nil_clean_ring(make_zmod(4))
    assert not is_nil_clean_ring(make_zmod(27))
    assert is_nil_clean_ring(make_zmod(2))


def test_nil_clean_moduli_are_exactly_the_powers_of_two():
    got = [n for n in range(2, 65) if is_nil_clean_ring(make_zmod(n))]
    assert got == [2, 4, 8, 16, 32, 64]


def test_decomposition_within_ideal_examples():
    z27 = make_zmod(27)
    inner = ideal_generated(z27, [3])
    within = decomposition_within_ideal(inner, 3)
    assert pairs(within) == [(0, 3)]

    z4 = make_zmod(4)
    assert pairs(decomposition_within_ideal(unit_ideal(z4), 3)) == [(1, 2)]
    assert (0, 0) in pairs(decomposition_within_ideal(zero_ideal(z4), 0))

    with pytest.raises(PreconditionViolated):
        decomposition_within_ideal(inner, 2)


def test_within_ideal_parts_stay_inside(small_family_rings):
    from nilclean import all_ideals

    for ring in small_family_rings[:8]:
        for ideal in all_ideals(ring):
            for x in ideal.indices:
                for d in decomposition_within_ideal(ideal, x):
                    assert d.idempotent.index in ideal
                    assert d.second.index in ideal


def test_nil_clean_implies_clean_with_constructed_witness(small_family_rings):
    from nilclean import all_ideals

    for ring in small_family_rings:
        one = ring.one_i
        for ideal in all_ideals(ring):
            if not is_nil_clean_ideal(ideal):
                continue
            assert is_clean_ideal(ideal)
            for x in ideal.indices:
                for d in nil_clean_decompositions(ring, ring.neg_i(x)):
                    e, n = d.idempotent.index, d.second.index
                    em = ring.sub_i(one, e)
                    um = ring.neg_i(ring.add_i(one, n))
                    assert ring.add_i(em, um) == x
                    assert ring.mul_i(em, em) == em
                    assert um in units(ring)


def test_nil_clean_ideal_splits_inside_itself(small_family_rings):
    from nilclean import all_ideals

    for ring in small_family_rings:
        for ideal in all_ideals(ring):
            if is_nil_clean_ideal(ideal):
                assert all(
                    decomposition_within_ideal(ideal, x) for x in ideal.indices
                )


@given(st.sampled_from(["Z4", "Z6", "Z8", "Z12", "T2(Z2)", "Id(4,2)"]), st.data())
def test_decomposition_json_shape(spec, data):
    ring = build(spec)
    x = data.draw(st.integers(0, ring.order - 1))
    for d in nil_clean_decompositions(ring, x):
        blob = d.to_json()
        assert blob["element"] == x
        assert blob["kind"] == "nil-clean"
        assert set(blob) == {
            "element",
            "idempotent",
            "second",
            "kind",
            "commutes",
            "nil_index",
        }


# --------------------------------------------------------------------------
# the per-element memos


def test_returned_lists_are_fresh():
    ring = build("T2(Z4)")
    whole = unit_ideal(ring)
    for x in (0, 5, 17, 38):
        for call in (
            lambda: nil_clean_decompositions(ring, x),
            lambda: clean_decompositions(ring, x),
            lambda: decomposition_within_ideal(whole, x),
        ):
            first = call()
            before = list(first)
            first.clear()
            first.append(None)
            assert call() == before


def test_decompositions_are_built_for_the_asked_element_only(monkeypatch):
    made = []
    real = decompose_module._make

    def make(ring, x, e, kind):
        made.append((x, kind))
        return real(ring, x, e, kind)

    monkeypatch.setattr(decompose_module, "_make", make)
    ring = make_zmod(1024)
    decs = nil_clean_decompositions(ring, 5)
    assert pairs(decs) == [(1, 4)]
    assert made == [(5, "nil-clean")]
    clean_decompositions(ring, 5)
    assert {x for x, _ in made} == {5}


def test_run_all_makes_each_decomposition_once(monkeypatch):
    """Structural guard: one _make and one verify() per (ring, x, e, kind)."""
    made = Counter()
    verified = Counter()
    alive = []  # keeps every ring alive, so no id() is reused within the run
    real_make = decompose_module._make
    real_verify = Decomposition.verify

    def make(ring, x, e, kind):
        alive.append(ring)
        made[id(ring), x, e, kind] += 1
        return real_make(ring, x, e, kind)

    def verify(self):
        x, e = self.element, self.idempotent
        verified[id(x.ring), x.index, e.index, self.kind] += 1
        return real_verify(self)

    monkeypatch.setattr(decompose_module, "_make", make)
    monkeypatch.setattr(Decomposition, "verify", verify)
    run_all()
    assert made and max(made.values()) == 1
    assert verified == made
