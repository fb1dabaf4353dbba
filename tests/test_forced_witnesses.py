"""Pin the counterexample witnesses of the check registry.

The default report has no witness, so the failure path of every check is
exercised here by flipping one predicate at a time in ``nilclean.theorems``
and comparing the whole report with ``golden/forced_witnesses.json``.

A predicate is flipped on the arguments whose crc32 falls in a fixed
residue class, never on a call counter, so the result depends only on
which instances a check asks about and not on the order it asks in.
``is_clean_ideal`` and ``is_nil_ideal`` are left alone: flipped without the
per-element predicates they summarize, they describe ideals no element
witnesses.

The fixture was written before the checks were restated as generators and
must not be regenerated to absorb a change in a report.
"""

import json
import zlib
from pathlib import Path

import pytest

import nilclean.theorems as theorems
from nilclean import FiniteRing, Ideal, NilCleanError, all_ideals, build, run_all
from oracles import brute_pairs, naive_is_unit

FIXTURE = Path(__file__).parent / "golden" / "forced_witnesses.json"

FLIPPED = (
    "is_nil_clean_ideal",
    "is_strongly_nil_clean_ideal",
    "is_nil_clean_ring",
    "is_idempotent",
    "is_uniquely_nil_clean_ideal",
    "is_central",
    "decomposition_within_ideal",
    "lift_idempotent_mod_nil",
)

# The check reads some fixture entries through a predicate of another name;
# the fixture name stays in the flip key, so the same arguments are flipped.
READ_AS = {"decomposition_within_ideal": "splits_within_ideal"}

# One argument key in FLIP_MODULUS is flipped.  The salt picks which: with
# it the flips reach 21 of the 27 checks.  The other six (L1, PPP1,
# PPP1_cor, local_cor, morita_proj, nilindex_growth) read none of these
# predicates on the way to a counterexample; L1's constructed-pair witness is
# pinned by test_l1_constructed_pair_witness below instead.
FLIP_MODULUS = 5
FLIP_SALT = "b"


class ForcedFailure(NilCleanError):
    pass


def _token(arg) -> str:
    if isinstance(arg, Ideal):
        return f"{_token(arg.ring)}/{arg.mask}"
    if isinstance(arg, FiniteRing):
        if arg.structure[0] == "quotient":
            _, parent, mask = arg.structure
            return f"Q({_token(parent)}/{mask})"
        return arg.spec
    return repr(arg)


def _hit(name: str, args) -> bool:
    key = ":".join([FLIP_SALT, name] + [_token(a) for a in args])
    return zlib.crc32(key.encode()) % FLIP_MODULUS == 0


def _flipped(name: str, fn):
    if name == "lift_idempotent_mod_nil":

        def forced(*args):
            if _hit(name, args):
                raise ForcedFailure("forced lift failure")
            return fn(*args)

    else:

        def forced(*args):
            result = fn(*args)
            return (not result) if _hit(name, args) else result

    return forced


def forced_reports(monkeypatch, name: str) -> list:
    target = READ_AS.get(name, name)
    monkeypatch.setattr(theorems, target, _flipped(name, getattr(theorems, target)))
    return [report.to_json() for report in run_all()]


@pytest.mark.parametrize("name", FLIPPED)
def test_forced_witnesses_match_fixture(monkeypatch, name):
    expected = json.loads(FIXTURE.read_text())[name]
    assert forced_reports(monkeypatch, name) == expected


def test_flips_force_counterexamples():
    fixture = json.loads(FIXTURE.read_text())
    forced = {
        report["id"]
        for reports in fixture.values()
        for report in reports
        if report["verdict"] == "counterexample"
    }
    assert len(forced) == 21


# L1's last branch, the constructed clean pair (1-e, -1-n) of x for each
# -x = e + n, holds on every ring, so no flip above reaches it.  Taking one
# unit away from the check's view of one ring does: the witness is the first
# pair, in ideal and element order, whose second part is that unit.
L1_RING = "T2(Z4)"
L1_REMOVED_UNIT = 21


def _brute_l1_witness(ring, removed: int) -> dict:
    """The L1 witness, found by walking the ideals with brute-force pairs."""
    one = ring.one_i
    for ideal in all_ideals(ring):
        members = ideal.indices
        nil_clean = all(brute_pairs(ring, x, "nil-clean") for x in members)
        clean = all(brute_pairs(ring, x, "clean") for x in members)
        if not (nil_clean and clean):
            continue
        for x in members:
            for e, n in brute_pairs(ring, ring.neg_i(x), "nil-clean"):
                em = ring.sub_i(one, e)
                um = ring.neg_i(ring.add_i(one, n))
                if um == removed or not naive_is_unit(ring, um):
                    return {
                        "ring": ring.spec,
                        "reason": "constructed clean pair fails",
                        "ideal": sorted(members),
                        "element": x,
                        "element_label": ring.label(x),
                        "idempotent": em,
                        "unit": um,
                    }
    raise AssertionError("no constructed pair uses the removed unit")


def test_l1_constructed_pair_witness(monkeypatch):
    real = theorems.units

    def units(ring):
        found = real(ring)
        return found - {L1_REMOVED_UNIT} if ring.spec == L1_RING else found

    monkeypatch.setattr(theorems, "units", units)
    report = run_all(ids=["L1"])[0]
    assert report.verdict == "counterexample"
    expected = _brute_l1_witness(build(L1_RING), L1_REMOVED_UNIT)
    assert report.witness == expected
    assert len(expected["ideal"]) > 1 and expected["element"] != 0
