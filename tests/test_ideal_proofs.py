"""Ideals built without verification, against the member walks they replace.

Images in a quotient, corners eIe for a central idempotent e, generated
ideals and the lattice of ``all_ideals`` are ideals by proof (see each
builder's docstring), so none of them goes through ``verify_ideal``.  Here
each is compared with a construction in ``oracles.py`` (for images and
corners, the member walks that built them before), and every result must
pass the brute-force ideal test.
"""

import sys

import pytest

import nilclean.ideals as ideals_module
import nilclean.theorems as theorems
from nilclean import (
    Ideal,
    NilCleanError,
    NotAnIdeal,
    all_ideals,
    build,
    corner_ideal,
    ideal_generated,
    image_ideal,
    make_corner,
    make_quotient,
    make_zmod,
    run_all,
    run_check,
)
from nilclean.classify import center, idempotents

from oracles import (
    corner_member_walk,
    image_member_walk,
    lift_mod_nil_walk,
    naive_ideal_generated,
    naive_is_ideal,
)

EXTRA_SPECS = ("Z2xZ2xZ2xZ2xZ2xZ2", "Z6xZ10", "T2(Z6)")


@pytest.fixture(scope="module")
def proof_rings(family_rings):
    return family_rings + [build(spec) for spec in EXTRA_SPECS]


class IdealOracle:
    """naive_is_ideal, asked once per (ring, mask)."""

    def __init__(self):
        self.seen = {}

    def __call__(self, ring, mask) -> bool:
        key = (id(ring), mask)
        if key not in self.seen:
            # the ring is kept alive with its verdict, so its id is not reused
            self.seen[key] = (ring, naive_is_ideal(ring, mask))
        return self.seen[key][1]


def test_images_match_the_member_walk(proof_rings):
    is_ideal = IdealOracle()
    for ring in proof_rings:
        ideals = all_ideals(ring)
        for kernel in ideals:
            if not kernel.is_proper:
                continue
            quotient, projection = make_quotient(ring, kernel)
            for ideal in ideals:
                mask = image_ideal(projection, ideal).mask
                assert mask == image_member_walk(projection, ideal), (
                    ring.spec, kernel.mask, ideal.mask)
                assert is_ideal(quotient, mask), (ring.spec, kernel.mask, ideal.mask)


def test_corners_match_the_member_walk(proof_rings):
    is_ideal = IdealOracle()
    for ring in proof_rings:
        ideals = all_ideals(ring)
        for e in sorted(idempotents(ring) & center(ring)):
            if e == ring.zero_i:
                continue
            corner, embedding = make_corner(ring, e)
            for ideal in ideals:
                mask = corner_ideal(ring, e, ideal).mask
                assert mask == corner_member_walk(ring, e, ideal, embedding), (
                    ring.spec, e, ideal.mask)
                assert is_ideal(corner, mask), (ring.spec, e, ideal.mask)


def test_generated_ideals_match_the_product_closure(proof_rings):
    is_ideal = IdealOracle()
    for ring in proof_rings:
        for g in range(ring.order):
            mask = ideal_generated(ring, [g]).mask
            assert mask == naive_ideal_generated(ring, [g]), (ring.spec, g)
            assert is_ideal(ring, mask), (ring.spec, g)


def test_the_suite_verifies_only_member_sets_it_assembles(monkeypatch):
    """No ideal this library builds is verified during run_all: every call
    left comes through ``Ideal.from_members``, on a set of decoded tuples a
    check assembles (some checks ask whether such a set is an ideal)."""
    callers = []
    real = ideals_module.verify_ideal

    def counted(ring, mask):
        # frame 1 is Ideal.__init__, frame 2 the code that made the Ideal
        callers.append(sys._getframe(2).f_code.co_name)
        return real(ring, mask)

    monkeypatch.setattr(ideals_module, "verify_ideal", counted)
    run_all()
    assert callers and set(callers) == {"from_members"}


def test_masks_from_outside_are_still_verified():
    z6 = make_zmod(6)
    with pytest.raises(NotAnIdeal):
        Ideal.from_members(z6, [0, 1])
    ring = build("Z6xZ10")
    bad = ideal_generated(ring, [6]).mask | 1 << ring.one_i
    with pytest.raises(NotAnIdeal):
        Ideal(ring, bad)


def _listed(ideal) -> bool:
    """Whether the ideal's member tuple has been filled in."""
    try:
        Ideal.indices.__get__(ideal, Ideal)
    except AttributeError:
        return False
    return True


def test_lazy_member_tuples_agree_with_the_mask():
    ring = build("Z6xZ10")
    ideals = all_ideals(ring)
    images = []
    for kernel in ideals[1:4]:
        _, projection = make_quotient(ring, kernel)
        images += [image_ideal(projection, ideal) for ideal in ideals]
    assert images and not any(map(_listed, images))

    def expected(ideal):
        quotient = ideal.ring
        members = tuple(i for i in range(quotient.order) if ideal.mask >> i & 1)
        shown = ",".join(map(str, members[:8])) + (",..." if len(members) > 8 else "")
        return members, {
            "len": len(members),
            "is_zero": members == (quotient.zero_i,),
            "is_proper": len(members) < quotient.order,
            "to_json": {"ring": quotient.spec, "members": list(members)},
            "repr": f"<Ideal of {quotient.spec} {{{shown}}}>",
        }

    def seen(ideal):
        twin = Ideal(ideal.ring, ideal.mask, verify=False)
        assert ideal == twin and hash(ideal) == hash(twin)
        return {
            "len": len(ideal),
            "is_zero": ideal.is_zero,
            "is_proper": ideal.is_proper,
            "to_json": ideal.to_json(),
            "repr": repr(ideal),
        }

    for image in images:
        members, want = expected(image)
        assert (len(image), image.is_zero, image.is_proper) == (
            want["len"], want["is_zero"], want["is_proper"])
        assert not _listed(image)
        assert seen(image) == want
        assert _listed(image) and image.indices == members
        assert seen(image) == want


# One failing element each; then pairs of Z16 that one outer ideal lifts
# together, so the witness also pins the ascending order of the lifts.
LIFT_CASES = [
    (spec, (x,)) for spec, order in (("Z16", 16), ("Z4xZ3", 12)) for x in range(order)
] + [("Z16", pair) for pair in ((2, 14), (3, 7), (4, 12), (5, 13))]


@pytest.mark.parametrize("spec,failing", LIFT_CASES)
def test_lift_witness_is_the_set_walk_witness(monkeypatch, spec, failing):
    """A lift forced to fail on chosen elements gives the witness the old
    set-based loop finds: the same element, outer ideal and reason."""
    real = theorems.lifted_mod_nil

    def lift(ring, nil, x):
        if x in failing:
            raise NilCleanError(f"forced failure at {x}")
        return real(ring, nil, x)

    monkeypatch.setattr(theorems, "lifted_mod_nil", lift)
    report = run_check("lift_mod_nil", family=(spec,))
    ring = build(spec)
    found = lift_mod_nil_walk(ring, all_ideals(ring), lift, NilCleanError)
    if found is None:
        assert report.verdict == "verified" and report.witness is None
        return
    outer, x, message = found
    assert report.verdict == "counterexample"
    witness = report.witness
    assert (witness["element"], witness["ideal"], witness["reason"]) == (
        x, list(outer.indices), f"idempotent lift failed: {message}")
