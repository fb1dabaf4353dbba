from collections import Counter

import pytest

import nilclean.decompose as decompose_module
from nilclean import (
    NotAlmostIdempotent,
    PreconditionViolated,
    build,
    ideal_generated,
    is_idempotent,
    lift_idempotent,
    lift_idempotent_mod_nil,
    lift_idempotent_path,
    make_zmod,
    nilpotency_index,
    run_all,
)


def test_lift_path_z8():
    z8 = make_zmod(8)
    path = lift_idempotent_path(z8, 3)
    assert [e.index for e in path] == [3, 5, 1]
    assert nilpotency_index(z8, z8.sub_i(3, 1)) is not None


def test_lift_fixed_points():
    z12 = make_zmod(12)
    assert lift_idempotent(z12, 4).index == 4
    for ring in (make_zmod(6), build("T2(Z2)")):
        for x in range(ring.order):
            if is_idempotent(ring, x):
                path = lift_idempotent_path(ring, x)
                assert len(path) == 1 and path[0].index == x


def test_lift_rejects_non_almost_idempotents():
    z6 = make_zmod(6)
    with pytest.raises(NotAlmostIdempotent):
        lift_idempotent(z6, 2)


def _subring_generated_by(ring, a):
    """Closure of {a} under +, *, and negation (no forced unit)."""
    members = {a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        new = {ring.neg_i(x)}
        for y in list(members):
            new.add(ring.add_i(x, y))
            new.add(ring.mul_i(x, y))
            new.add(ring.mul_i(y, x))
        for z in new:
            if z not in members:
                members.add(z)
                frontier.append(z)
    return members


def test_lift_over_whole_family(small_family_rings):
    for ring in small_family_rings:
        for a in range(ring.order):
            defect = ring.sub_i(a, ring.mul_i(a, a))
            v = nilpotency_index(ring, defect)
            if v is None:
                with pytest.raises(NotAlmostIdempotent):
                    lift_idempotent(ring, a)
                continue
            path = lift_idempotent_path(ring, a)
            e = path[-1].index
            assert ring.mul_i(e, e) == e
            assert nilpotency_index(ring, ring.sub_i(a, e)) is not None
            assert len(path) - 1 <= (v - 1).bit_length() + 1
            assert e in _subring_generated_by(ring, a)


def test_lift_endpoints_as_indices(small_family_rings):
    for ring in [*small_family_rings, build("T2(Z6)")]:
        for a in range(ring.order):
            if nilpotency_index(ring, ring.sub_i(a, ring.mul_i(a, a))) is None:
                continue
            end = decompose_module._lifted(ring, a)[-1]
            assert end == lift_idempotent_path(ring, a)[-1].index, (ring.spec, a)
            assert end == lift_idempotent(ring, a).index


def test_lift_mod_nil_examples():
    z8 = make_zmod(8)
    two = ideal_generated(z8, [2])
    e = lift_idempotent_mod_nil(z8, two, 3)
    assert e.index == 1
    assert z8.sub_i(1, 3) in two

    assert lift_idempotent_mod_nil(z8, two, 0).index == 0

    z6 = make_zmod(6)
    not_nil = ideal_generated(z6, [2])
    with pytest.raises(PreconditionViolated):
        lift_idempotent_mod_nil(z6, not_nil, 3)


def test_lift_mod_nil_requires_defect_inside():
    z8 = make_zmod(8)
    zero = ideal_generated(z8, [])
    with pytest.raises(PreconditionViolated):
        lift_idempotent_mod_nil(z8, zero, 3)  # 3^2 - 3 = 6 not in (0)


def test_lift_mod_nil_over_family(small_family_rings):
    from nilclean import all_ideals, is_nil_ideal

    for ring in small_family_rings[:10]:
        for ideal in all_ideals(ring):
            if not is_nil_ideal(ideal):
                continue
            for x in range(ring.order):
                if ring.sub_i(ring.mul_i(x, x), x) in ideal:
                    e = lift_idempotent_mod_nil(ring, ideal, x)
                    assert is_idempotent(ring, e)
                    assert ring.sub_i(e.index, x) in ideal


# --------------------------------------------------------------------------
# the per-element path memo


def test_lift_path_list_is_fresh():
    z8 = make_zmod(8)
    path = lift_idempotent_path(z8, 3)
    path.clear()
    assert [e.index for e in lift_idempotent_path(z8, 3)] == [3, 5, 1]
    assert lift_idempotent(z8, 3).index == 1


def test_lift_failure_raises_on_every_call():
    z6 = make_zmod(6)
    for _ in range(3):
        with pytest.raises(NotAlmostIdempotent):
            lift_idempotent_path(z6, 2)
        with pytest.raises(NotAlmostIdempotent):
            lift_idempotent(z6, 2)


def test_lift_fills_only_the_asked_element(monkeypatch):
    filled = []
    real = decompose_module._lift_path

    def fill(ring, i):
        filled.append(i)
        return real(ring, i)

    monkeypatch.setattr(decompose_module, "_lift_path", fill)
    ring = make_zmod(1024)
    for _ in range(3):
        assert lift_idempotent(ring, 3).index == 1
    assert filled == [3]


def test_run_all_lifts_each_element_once(monkeypatch):
    """Structural guard: one lifting fill per (ring, x) in a whole run."""
    filled = Counter()
    alive = []  # keeps every ring alive, so no id() is reused within the run
    real = decompose_module._lift_path

    def fill(ring, i):
        alive.append(ring)
        filled[id(ring), i] += 1
        return real(ring, i)

    monkeypatch.setattr(decompose_module, "_lift_path", fill)
    run_all()
    assert filled and max(filled.values()) == 1
