import dataclasses
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import nilclean.decompose as decompose_module
from nilclean import (
    Decomposition,
    InternalInvariantViolation,
    PreconditionViolated,
    admissible_idempotents,
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
    splits_within_ideal,
    strongly_filter,
    unit_ideal,
    units,
    zero_ideal,
)

from nilclean.decompose import NIL_CLEAN, _admissible, _every_member

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


def test_decomposition_verify_checks_each_law():
    z4, z8 = make_zmod(4), make_zmod(8)
    d = nil_clean_decompositions(z4, 3)[0]
    for bad in (
        dataclasses.replace(d, second=z8.elem(2)),  # a part of another ring
        dataclasses.replace(d, idempotent=z4.elem(3), second=z4.elem(0)),  # 3*3 = 1
        dataclasses.replace(d, second=z4.elem(0)),  # 1 + 0 != 3
        dataclasses.replace(d, commutes=False),
        dataclasses.replace(d, nil_index=3),
        dataclasses.replace(d, kind="clean"),  # 2 is not a unit
        dataclasses.replace(d, kind="other"),
    ):
        with pytest.raises(InternalInvariantViolation):
            bad.verify()
    assert d.verify() is d


def test_admissible_idempotents_match_brute_pairs(differential_rings):
    for ring in [*differential_rings, build("T2(Z6)")]:
        for kind in KINDS:
            for x in range(ring.order):
                want = [e for e, _ in brute_pairs(ring, x, kind)]
                got = admissible_idempotents(ring, x, kind)
                assert list(got) == want, (ring.spec, kind, x)


def test_splits_within_ideal_matches_the_decompositions(family_rings):
    for ring in family_rings:
        for ideal in all_ideals(ring):
            for x in ideal.indices:
                want = bool(decomposition_within_ideal(ideal, x))
                assert splits_within_ideal(ideal, x) == want, (ring.spec, x)
    with pytest.raises(PreconditionViolated):
        splits_within_ideal(ideal_generated(make_zmod(27), [3]), 2)


def test_a_corrupted_admissible_list_is_an_error_verdict(monkeypatch):
    """The index checks are live: a non-idempotent slipped into element 0's
    nil-clean list on Z4 (2*2 = 0) stops main1 with an error verdict."""
    real = decompose_module._admissible

    def corrupted(ring, kind, strong=False):
        lists = real(ring, kind, strong)
        if ring.spec == "Z4" and kind == NIL_CLEAN and not strong:
            return [es + [2] if x == 0 else es for x, es in enumerate(lists)]
        return lists

    monkeypatch.setattr(decompose_module, "_admissible", corrupted)
    report = run_all(ids=["main1"])[0]
    assert report.verdict == "error"
    assert report.witness == {
        "reason": "Z4: 2 is not a nil-clean idempotent of element 0"
    }


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


def test_run_all_makes_no_decomposition(monkeypatch):
    """Structural guard: the checks read index facts, so a whole run builds
    no Decomposition, and checks each element's admissible idempotents at
    most once per (ring, x, kind)."""
    made = []
    checked = Counter()
    alive = []  # keeps every ring alive, so no id() is reused within the run
    real_init = Decomposition.__init__
    real_check = decompose_module._check_pairs

    def init(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    def check(ring, x, kind):
        alive.append(ring)
        checked[id(ring), x, kind] += 1
        return real_check(ring, x, kind)

    monkeypatch.setattr(Decomposition, "__init__", init)
    monkeypatch.setattr(decompose_module, "_check_pairs", check)
    run_all()
    assert made == []
    assert checked and max(checked.values()) == 1
