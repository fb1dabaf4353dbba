"""Registry of executable checks run over configurable ring families.

Each check evaluates one verified property (hypotheses first, then the
conclusion, both directions for equivalences) over every instance its
generator derives from one ring, and reports a verdict with a serialized
witness on failure.  A counterexample verdict on any registered property is
treated as a bug in this implementation, never as a mathematical discovery:
that inversion is the harness's core contract.

The runner walks the family once, in order: each ring is built, passes the
axiom gate, advances every selected check that has no witness yet, and is
released before the next is built, so one family ring is alive at a time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from operator import contains
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .classify import (
    center,
    complete_orthogonal_central_sets,
    idempotents,
    is_boolean_ideal,
    is_central,
    is_idempotent,
    jacobson_radical,
    nilpotency_index,
    nilpotents,
    units,
)
from .construct import (
    DEFAULT_ORDER_CAP,
    TRI_POSITIONS,
    Caps,
    _check_order,
    build,
    make_quotient,
    make_zmod,
    parse_ring_spec,
    spec_order,
)
from .decompose import (
    CLEAN,
    admissible_idempotents,
    failing_member,
    is_clean_ideal,
    is_nil_clean_ideal,
    is_nil_clean_ring,
    is_strongly_clean_ideal,
    is_strongly_nil_clean_ideal,
    is_uniquely_nil_clean_ideal,
    is_uniquely_strongly_clean_ideal,
    is_uniquely_strongly_nil_clean_ideal,
    lifted_mod_nil,
    splits_within_ideal,
)
from .errors import AxiomFailure, NilCleanError, NotAnIdeal, UnknownCheck
from .ideals import (
    Ideal,
    all_ideals,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    image_ideal,
    is_nil_ideal,
    corner_ideal,
    mask_of,
    non_nilpotent_member,
)
from .ring import FiniteRing, is_commutative, verify_axioms

DEFAULT_FAMILY: Tuple[str, ...] = (
    "Z2",
    "Z3",
    "Z4",
    "Z6",
    "Z8",
    "Z9",
    "Z12",
    "Z16",
    "Z27",
    "Z4xZ3",
    "T2(Z2)",
    "T2(Z4)",
    "T3(Z2)",
    "Id(4,2)",
    "Id(8,2)",
    "Id(4,4)",
    "MZ(4,2,2)",
    "MZ(2,2,2)",
)


@dataclass
class SuiteConfig:
    """Configuration for a full run: ring family and caps."""

    family: Sequence = DEFAULT_FAMILY
    caps: Caps = field(default_factory=Caps)


@dataclass
class TheoremReport:
    id: str
    statement: str
    instances_tested: int
    hypotheses_met: int
    verdict: str  # verified | counterexample | vacuous | error
    witness: Optional[dict] = None
    details: Optional[dict] = None
    millis: float = 0.0

    def to_json(self, include_millis: bool = False) -> dict:
        out = {
            "id": self.id,
            "paper_result": self.statement,
            "instances_tested": self.instances_tested,
            "hypotheses_met": self.hypotheses_met,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details is not None:
            out["details"] = self.details
        if include_millis:
            out["millis"] = self.millis
        return out


@dataclass(frozen=True)
class CheckDef:
    id: str
    statement: str
    commutative_only: bool
    fn: Callable


CHECKS: Dict[str, CheckDef] = {}

# yielded by a check for an instance whose hypothesis fails
SKIP = object()


def _register(check_id: str, statement: str, commutative_only: bool = False):
    """Register fn(ring, caps, report) under check_id: fn adds one ring's
    instances to the report and returns True once the check needs no more."""

    def register(fn: Callable) -> Callable:
        CHECKS[check_id] = CheckDef(check_id, statement, commutative_only, fn)
        return fn

    return register


def _summed(total: Optional[dict], part: Optional[dict]) -> Optional[dict]:
    """Per-ring details summed key by key; a non-count value is a constant."""
    if total is None:
        return part
    return {k: total[k] + v if isinstance(v, int) else v for k, v in part.items()}


def _tally(verdicts, report: TheoremReport) -> bool:
    """Add one ring's verdicts to the report; True once a witness ends the check."""
    while True:
        try:
            verdict = next(verdicts)
        except StopIteration as finished:
            report.details = _summed(report.details, finished.value)
            return False
        report.instances_tested += 1
        if verdict is not SKIP:
            report.hypotheses_met += 1
            if verdict is not None:
                report.witness, report.details = verdict, None
                return True


def _check(check_id: str, statement: str, commutative_only=False, once=False):
    """Register a check written as a generator over one ring's instances.

    Per instance the generator yields SKIP when the hypothesis fails, None
    when the conclusion holds, or a witness dict, which ends the check.  Its
    return value is the ring's details, summed key by key over the rings the
    check runs on.  A check registered with `once` is about rings of its own
    rather than the family's: it runs on the first family ring only.
    """

    def register(instances: Callable) -> Callable:
        def advance(ring: FiniteRing, caps: Caps, report: TheoremReport) -> bool:
            return _tally(instances(ring, caps), report) or once

        return _register(check_id, statement, commutative_only)(advance)

    return register


def _w(ring: FiniteRing, reason: str, ideal=None, element=None, **extra) -> dict:
    out: dict = {"ring": ring.spec, "reason": reason}
    if ideal is not None:
        out["ideal"] = sorted(ideal.indices if isinstance(ideal, Ideal) else ideal)
    if element is not None:
        out["element"] = element
        out["element_label"] = ring.label(element)
    out.update(extra)
    return out


def _unless(ok: bool, ring: FiniteRing, reason: str, ideal=None, element=None, **extra):
    """None when an implication's conclusion holds, else its witness."""
    return None if ok else _w(ring, reason, ideal, element, **extra)


def _iff(lhs: bool, rhs: bool, ring: FiniteRing, reason: str, ideal=None, **extra):
    """None when the two sides agree, else a witness naming the failing direction."""
    if lhs == rhs:
        return None
    direction = "forward" if lhs else "backward"
    return _w(ring, reason, ideal, **extra, direction=direction)


def _ideals(ring: FiniteRing, caps: Caps) -> List[Ideal]:
    return all_ideals(ring, cap=caps.ideal_cap)


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# --------------------------------------------------------------------------
# ideal builders for structured rings


def _members_where(ring: FiniteRing, keep) -> List[int]:
    """Indices of the elements whose decoded tuple satisfies `keep`."""
    every = range(ring.order)
    return list(itertools.compress(every, map(keep, map(ring.decode, every))))


def _morita_projections(ring: FiniteRing, ideal: Ideal):
    """The entries the ideal's members take in each of the four blocks."""
    return tuple(map(set, zip(*map(ring.decode, ideal.indices))))


def _subgroups_mod(g: int) -> List[frozenset]:
    return [frozenset(range(0, g, d)) for d in _divisors(g)]


# --------------------------------------------------------------------------
# the checks, each a generator over one ring's instances (see _check)


def _nil_or_witness(ring: FiniteRing, part: Ideal, reason: str, ideal: Ideal):
    """None when part is a nil ideal, else a witness naming its least
    non-nilpotent member."""
    bad = non_nilpotent_member(part)
    return _unless(bad is None, ring, reason, ideal, bad)


def _bad_clean_pair(ring: FiniteRing, x: int):
    """The first constructed pair (1-e, -1-n) from -x = e + n that is not a
    clean decomposition of x, or None."""
    one, minus_x = ring.one_i, ring.neg_i(x)
    for e in admissible_idempotents(ring, minus_x):
        em = ring.sub_i(one, e)
        um = ring.neg_i(ring.add_i(one, ring.sub_i(minus_x, e)))
        if ring.add_i(em, um) != x or ring.mul_i(em, em) != em or um not in units(ring):
            return em, um
    return None


def _clean_pair_failure(ring: FiniteRing, ideal: Ideal):
    """Check the constructive pair: if -x = e + n then (1-e) + (-1-n) = x.

    The verdict is a fact about the element, kept on the ring per element.
    """
    verdicts = ring.cached("clean_pair_bad", dict)
    for x in ideal.indices:
        if x not in verdicts:
            verdicts[x] = _bad_clean_pair(ring, x)
        if verdicts[x] is not None:
            em, um = verdicts[x]
            reason = "constructed clean pair fails"
            return _w(ring, reason, ideal, x, idempotent=em, unit=um)
    return None


@_check("L1", "every nil-clean ideal is a clean ideal")
def _check_l1(ring, caps):
    clean_not_nil = 0
    for ideal in _ideals(ring, caps):
        nil_clean = is_nil_clean_ideal(ideal)
        clean = is_clean_ideal(ideal)
        clean_not_nil += clean and not nil_clean
        if not nil_clean:
            yield SKIP
        elif not clean:
            bad = failing_member(ideal, CLEAN)
            yield _w(ring, "nil-clean ideal with a non-clean member", ideal, bad)
        else:
            yield _clean_pair_failure(ring, ideal)
    return {"clean_but_not_nil_clean": clean_not_nil}


@_check("PPP1", "a nil-clean ideal meets the radical in a nil ideal")
def _check_ppp1(ring, caps):
    radical = jacobson_radical(ring)
    for ideal in _ideals(ring, caps):
        if not is_nil_clean_ideal(ideal):
            yield SKIP
            continue
        meet = ideal_intersect(ideal, radical)
        reason = "radical meet contains a non-nilpotent"
        yield _nil_or_witness(ring, meet, reason, ideal)


@_check("PPP1_cor", "in a nil-clean ring the radical sits inside the nilpotents")
def _check_ppp1_cor(ring, caps):
    if not is_nil_clean_ring(ring):
        yield SKIP
        return
    radical = jacobson_radical(ring)
    reason = "radical member outside the nilpotents"
    yield _nil_or_witness(ring, radical, reason, radical)


@_check(
    "prod_ideals",
    "products of nil-clean ideals stay nil-clean (commutative)",
    commutative_only=True,
)
def _check_prod_ideals(ring, caps):
    ideals = _ideals(ring, caps)
    for left, right in itertools.combinations_with_replacement(ideals, 2):
        if not (is_nil_clean_ideal(left) and is_nil_clean_ideal(right)):
            yield SKIP
            continue
        product = ideal_product(left, right)
        reason = "product of nil-clean ideals is not nil-clean"
        yield _unless(is_nil_clean_ideal(product), ring, reason, product)


@_check("strong_iff", "strongly nil-clean = strongly clean with nilpotent a - a^2")
def _check_strong_iff(ring, caps):
    reason = "strongly nil-clean disagrees with strongly clean + nilpotent defect"
    nil = nilpotents(ring)
    for ideal in _ideals(ring, caps):
        lhs = is_strongly_nil_clean_ideal(ideal)
        rhs = is_strongly_clean_ideal(ideal) and all(
            ring.sub_i(x, ring.mul_i(x, x)) in nil for x in ideal.indices
        )
        yield _iff(lhs, rhs, ring, reason, ideal)


@_check(
    "strong_unique", "strongly nil-clean ideals are uniquely strongly (nil-)clean"
)
def _check_strong_unique(ring, caps):
    divergences = 0
    for ideal in _ideals(ring, caps):
        unique = is_uniquely_nil_clean_ideal(ideal)
        divergences += unique != is_uniquely_strongly_nil_clean_ideal(ideal)
        if not is_strongly_nil_clean_ideal(ideal):
            yield SKIP
        elif not is_uniquely_strongly_nil_clean_ideal(ideal):
            yield _w(ring, "strongly nil-clean but not uniquely so", ideal)
        else:
            ok = is_uniquely_strongly_clean_ideal(ideal)
            reason = "strongly nil-clean but not uniquely strongly clean"
            yield _unless(ok, ring, reason, ideal)
    return {"unique_vs_strongly_unique_divergences": divergences}


@_check(
    "TTT1",
    "with the radical inside: nil-clean = boolean modulo a nil radical",
    commutative_only=True,
)
def _check_ttt1(ring, caps):
    reason = "boolean-modulo-radical disagrees with nil-clean"
    radical = jacobson_radical(ring)
    radical_nil = is_nil_ideal(radical)
    _, projection = make_quotient(ring, radical)
    for ideal in _ideals(ring, caps):
        if ideal.mask & radical.mask != radical.mask:
            yield SKIP  # needs the radical inside the ideal
            continue
        lhs = radical_nil and is_boolean_ideal(image_ideal(projection, ideal))
        yield _iff(lhs, is_nil_clean_ideal(ideal), ring, reason, ideal)


@_check("central_idem", "idempotents of uniquely nil-clean ideals are central")
def _check_central_idem(ring, caps):
    reason = "non-central idempotent in a uniquely nil-clean ideal"
    idem = idempotents(ring)
    for ideal in _ideals(ring, caps):
        if not is_uniquely_nil_clean_ideal(ideal):
            yield SKIP
            continue
        bad = next(
            (x for x in ideal.indices if x in idem and not is_central(ring, x)),
            None,
        )
        yield _unless(bad is None, ring, reason, ideal, bad)


@_check("main1", "nil-clean ideals split with both parts inside the ideal")
def _check_main1(ring, caps):
    reason = "nil-clean disagrees with both-parts-inside splitting"
    for ideal in _ideals(ring, caps):
        lhs = is_nil_clean_ideal(ideal)
        bad = next(
            (x for x in ideal.indices if not splits_within_ideal(ideal, x)),
            None,
        )
        yield _unless(lhs == (bad is None), ring, reason, ideal, bad)


@_check(
    "local_cor", "without nontrivial idempotents, proper nil-clean ideals are nil"
)
def _check_local_cor(ring, caps):
    reason = "proper nil-clean ideal that is not nil"
    if idempotents(ring) != frozenset({ring.zero_i, ring.one_i}):
        return
    for ideal in _ideals(ring, caps):
        if ideal.is_proper and is_nil_clean_ideal(ideal):
            yield _nil_or_witness(ring, ideal, reason, ideal)
        else:
            yield SKIP


@_check(
    "mmm",
    "nil-clean = boolean modulo a nil meet with the radical (commutative)",
    commutative_only=True,
)
def _check_mmm(ring, caps):
    reason = "nil-clean disagrees with boolean-modulo-meet splitting"
    radical = jacobson_radical(ring)
    for ideal in _ideals(ring, caps):
        meet = ideal_intersect(ideal, radical)
        _, projection = make_quotient(ring, meet)
        lhs = is_nil_clean_ideal(ideal)
        rhs = is_nil_ideal(meet) and is_boolean_ideal(image_ideal(projection, ideal))
        yield _iff(lhs, rhs, ring, reason, ideal)


def _generates_nil_clean(ring: FiniteRing, e: int) -> bool:
    return is_nil_clean_ideal(ideal_generated(ring, [e]))


@_check(
    "main",
    "nil-clean ring = some central idempotent splits it into nil-clean ideals",
)
def _check_main(ring, caps):
    reason = "splitting central idempotent disagrees with nil-clean ring"
    exists = any(
        _generates_nil_clean(ring, e)
        and _generates_nil_clean(ring, ring.sub_i(ring.one_i, e))
        for e in sorted(idempotents(ring) & center(ring))
    )
    yield _iff(exists, is_nil_clean_ring(ring), ring, reason)


@_check(
    "complete_set",
    "nil-clean ring = a complete central set generates nil-clean ideals",
)
def _check_complete_set(ring, caps):
    reason = "complete-set generation disagrees with nil-clean ring"
    exists = any(
        all(_generates_nil_clean(ring, e) for e in combo)
        for combo in complete_orthogonal_central_sets(ring)
    )
    yield _iff(exists, is_nil_clean_ring(ring), ring, reason)


@_check("corner", "nil-clean ideal = nil-clean in every corner of a complete set")
def _check_corner(ring, caps):
    combos = complete_orthogonal_central_sets(ring)
    for ideal in _ideals(ring, caps):
        lhs = is_nil_clean_ideal(ideal)
        rhs = any(
            all(is_nil_clean_ideal(corner_ideal(ring, e, ideal)) for e in combo)
            for combo in combos
        )
        yield _iff(lhs, rhs, ring, "corner cuts disagree with nil-clean", ideal)


def _lift_failure(ring: FiniteRing, nil: Ideal, outer: Ideal, todo: int):
    """Exercise the idempotent lifting the backward direction uses.

    todo is the mask of the x with x^2 - x in nil not lifted yet; the
    members of outer among them are lifted in ascending order.  A failed
    lift ends the check, so its witness is the first failure.
    """
    pending = outer.mask & todo
    while pending:
        low = pending & -pending  # the least member left
        pending ^= low
        x = low.bit_length() - 1
        try:
            lifted_mod_nil(ring, nil, x)
        except NilCleanError as exc:
            return _w(ring, f"idempotent lift failed: {exc}", outer, x)
    return None


@_check("lift_mod_nil", "nil-clean transfers both ways across a nil-ideal quotient")
def _check_lift_mod_nil(ring, caps):
    reason = "nil-clean does not transfer along the nil quotient"
    ideals = _ideals(ring, caps)
    every = range(ring.order)
    defects = [ring.sub_i(ring.mul_i(x, x), x) for x in every]
    for nil in (i for i in ideals if is_nil_ideal(i)):
        _, projection = make_quotient(ring, nil)
        modulo = sorted(nil.indices)
        todo = mask_of(itertools.compress(every, map(nil.__contains__, defects)))
        for outer in ideals:
            if outer.mask & nil.mask != nil.mask:
                continue
            lhs = is_nil_clean_ideal(outer)
            rhs = is_nil_clean_ideal(image_ideal(projection, outer))
            witness = _iff(lhs, rhs, ring, reason, outer, modulo=modulo)
            yield witness or _lift_failure(ring, nil, outer, todo)
            todo &= ~outer.mask


@_check("hom_image", "projections of nil-clean ideals are nil-clean")
def _check_hom_image(ring, caps):
    reason = "projected nil-clean ideal stops being nil-clean"
    ideals = _ideals(ring, caps)
    for kernel in (k for k in ideals if k.is_proper):
        _, projection = make_quotient(ring, kernel)
        members = sorted(kernel.indices)
        for ideal in ideals:
            if not is_nil_clean_ideal(ideal):
                yield SKIP
                continue
            image = image_ideal(projection, ideal)
            ok = is_nil_clean_ideal(image)
            yield _unless(ok, ring, reason, ideal, kernel=members)


@_check("fin_prod", "finite product ideals are nil-clean iff every component is")
def _check_fin_prod(ring, caps):
    reason = "componentwise nil-clean disagrees with the product ideal"
    if ring.structure[0] != "product":
        return
    per_part = [_ideals(part, caps) for part in ring.structure[1]]
    for combo in itertools.product(*per_part):
        members = _members_where(ring, lambda t: all(map(contains, combo, t)))
        product = Ideal.from_members(ring, members)
        lhs = all(is_nil_clean_ideal(c) for c in combo)
        rhs = is_nil_clean_ideal(product)
        yield _iff(lhs, rhs, ring, reason, product)


@_check(
    "dirsum",
    "a nil-clean-by-not product ring is not nil-clean but its first strip is",
)
def _check_dirsum(ring, caps):
    if ring.structure[0] != "product" or len(ring.structure[1]) != 2:
        return
    first, second = ring.structure[1]
    if not (is_nil_clean_ring(first) and not is_nil_clean_ring(second)):
        yield SKIP
    elif is_nil_clean_ring(ring):
        yield _w(ring, "mixed product ring is unexpectedly nil-clean")
    else:
        zero = second.zero_i
        strip = Ideal.from_members(ring, _members_where(ring, lambda t: t[1] == zero))
        reason = "first-factor strip is not a nil-clean ideal"
        yield _unless(is_nil_clean_ideal(strip), ring, reason, strip)


@_check("nilindex_growth", "the nilpotency index of 2 modulo 2^n is exactly n", once=True)
def _check_nilindex_growth(_, caps):
    for n in range(1, 11):
        modulus = 2 ** n
        ring = make_zmod(modulus, cap=max(caps.order_cap, modulus))
        index = nilpotency_index(ring, 2 % modulus)
        reason = f"index of 2 is {index}, expected {n}"
        yield _unless(index == n, ring, reason, element=2 % modulus)


@_check("D211", "triangular idempotents/nilpotents are controlled by the diagonal")
def _check_d211(tri, caps):
    if tri.structure[0] != "tri":
        return
    n, base = tri.structure[1], tri.structure[2]
    diag_slots = [t for t, (r, c) in enumerate(TRI_POSITIONS[n]) if r == c]
    for i in range(tri.order):
        entries = tri.decode(i)
        diag = [entries[t] for t in diag_slots]
        if is_idempotent(tri, i) and any(base.mul_i(d, d) != d for d in diag):
            reason = "idempotent matrix with non-idempotent diagonal"
            yield _w(tri, reason, element=i)
            continue
        lhs = nilpotency_index(tri, i) is not None
        rhs = all(nilpotency_index(base, d) is not None for d in diag)
        reason = "matrix nilpotency disagrees with diagonal nilpotency"
        yield _unless(lhs == rhs, tri, reason, element=i)


@_check("TT1", "entrywise triangular ideals are nil-clean iff the base ideal is")
def _check_tt1(tri, caps):
    reason = "entrywise ideal disagrees with its base ideal"
    if tri.structure[0] != "tri":
        return
    for ideal in _ideals(tri.structure[2], caps):
        entrywise = _members_where(tri, lambda t: all(x in ideal for x in t))
        lifted = Ideal.from_members(tri, entrywise)
        lhs = is_nil_clean_ideal(ideal)
        rhs = is_nil_clean_ideal(lifted)
        base_ideal = sorted(ideal.indices)
        yield _iff(lhs, rhs, tri, reason, lifted, base_ideal=base_ideal)


def _idealization_failure(ring: FiniteRing, base: FiniteRing, i: int):
    _, n, m = ring.structure
    r, v = ring.decode(i)
    for k in range(1, 9):
        expected = (pow(r, k, n)) * m + (k * pow(r, k - 1, n) * v) % m
        if ring.pow_i(i, k) != expected:
            return _w(ring, f"power formula fails at exponent {k}", element=i)
    pair_nil = nilpotency_index(ring, i) is not None
    first_nil = nilpotency_index(base, r) is not None
    if pair_nil != first_nil:
        reason = "nilpotency does not reduce to the first coordinate"
        return _w(ring, reason, element=i)
    pair_idem = is_idempotent(ring, i)
    first_idem = base.mul_i(r, r) == r and v == 0
    reason = "idempotency does not reduce to (idempotent, 0)"
    return _unless(pair_idem == first_idem, ring, reason, element=i)


@_check(
    "RM",
    "idealization powers, nilpotency, idempotency reduce to the first slot",
)
def _check_rm(ring, caps):
    if ring.structure[0] != "idealization":
        return
    base = make_zmod(ring.structure[1])
    for i in range(ring.order):
        yield _idealization_failure(ring, base, i)


@_check("RM1", "idealization ideals are nil-clean iff the base ideal is")
def _check_rm1(ring, caps):
    reason = "pairing with a submodule changes nil-cleanness"
    if ring.structure[0] != "idealization":
        return
    _, n, m = ring.structure
    for ideal in _ideals(make_zmod(n), caps):
        for d in _divisors(m):
            try:
                pairs = _members_where(ring, lambda t: t[0] in ideal and t[1] % d == 0)
                lifted = Ideal.from_members(ring, pairs)
            except NotAnIdeal:
                # the pair set is only an ideal when ideal * module lands
                # inside the submodule; other pairs carry no claim
                yield SKIP
                continue
            lhs = is_nil_clean_ideal(ideal)
            rhs = is_nil_clean_ideal(lifted)
            pair = {"base_ideal": sorted(ideal.indices), "submodule_step": d}
            yield _iff(lhs, rhs, ring, reason, lifted, **pair)


def _morita_containments(a: int, b: int, g: int, a1, b1, m1, n1) -> bool:
    # each off-diagonal strip holds the products of both diagonal ideals with
    # the whole module and is closed under both full diagonal actions
    def lands(xs, ws, strip) -> bool:
        return all((x * w) % g in strip for w in ws for x in xs)

    return all(
        lands(side, range(g), strip) for strip in (m1, n1) for side in (b1, a1)
    ) and all(lands(range(k), strip, strip) for strip in (m1, n1) for k in (b, a))


def _is_ideal(ring: FiniteRing, members) -> bool:
    try:
        Ideal.from_members(ring, members)
    except NilCleanError:
        return False
    return True


@_check("morita_proj", "context ideals are exactly the containment-closed block sets")
def _check_morita_proj(ring, caps):
    if ring.structure[0] != "morita_zero":
        return
    _, a, b, g = ring.structure
    ring_a, ring_b = make_zmod(a), make_zmod(b)
    ideals = _ideals(ring, caps)
    known = {ideal.mask for ideal in ideals}

    def block_members(*blocks) -> List[int]:
        return _members_where(ring, lambda t: all(map(contains, blocks, t)))

    for ideal in ideals:
        a1, b1, m1, n1 = _morita_projections(ring, ideal)
        block = block_members(a1, b1, m1, n1)
        if tuple(block) != ideal.indices:
            yield _w(ring, "ideal is not the block set of its projections", ideal)
        elif not (_is_ideal(ring_a, a1) and _is_ideal(ring_b, b1)):
            yield _w(ring, "diagonal projection is not an ideal", ideal)
        else:
            ok = _morita_containments(a, b, g, a1, b1, m1, n1)
            reason = "projections violate the block containments"
            yield _unless(ok, ring, reason, ideal)
    # converse: every containment-satisfying quadruple gives an ideal
    for ia, ib, m1, n1 in itertools.product(
        _ideals(ring_a, caps),
        _ideals(ring_b, caps),
        _subgroups_mod(g),
        _subgroups_mod(g),
    ):
        a1 = set(ia.indices)
        b1 = set(ib.indices)
        if not _morita_containments(a, b, g, a1, b1, m1, n1):
            continue
        members = block_members(a1, b1, m1, n1)
        try:
            block = Ideal.from_members(ring, members)
        except NilCleanError:
            reason = "containment-satisfying block set is not an ideal"
            yield _w(ring, reason, ideal=members)
            continue
        reason = "block ideal missing from the ideal list"
        yield _unless(block.mask in known, ring, reason, block)


_MORITA_NOTE = "second diagonal conclusion read as the lower-right block"


def _morita_diagonal_ideals(ring: FiniteRing, ideal: Ideal, ring_a, ring_b):
    """The ideal's upper-left and lower-right projections, as ideals of Z_a
    and Z_b.  With the zero pairing, (r,s,m,n) -> r and -> s are surjective
    ring homomorphisms, and a surjection maps an ideal onto an ideal, so
    neither projection is verified again."""
    a1, b1, _, _ = _morita_projections(ring, ideal)
    return (
        Ideal(ring_a, mask_of(a1), verify=False),
        Ideal(ring_b, mask_of(b1), verify=False),
    )


@_check(
    "morita_corner",
    "strongly nil-clean context ideals have strongly nil-clean diagonals",
)
def _check_morita_corner(ring, caps):
    if ring.structure[0] == "morita_zero":
        _, a, b, _ = ring.structure
        ring_a, ring_b = make_zmod(a), make_zmod(b)
        for ideal in _ideals(ring, caps):
            if not is_strongly_nil_clean_ideal(ideal):
                yield SKIP
                continue
            left, right = _morita_diagonal_ideals(ring, ideal, ring_a, ring_b)
            if not is_strongly_nil_clean_ideal(left):
                yield _w(ring, "upper-left projection not strongly nil-clean", ideal)
            else:
                ok = is_strongly_nil_clean_ideal(right)
                reason = "lower-right projection not strongly nil-clean"
                yield _unless(ok, ring, reason, ideal)
    return {"interpretation": _MORITA_NOTE}


@_register(
    "morita_zero_iff",
    "zero pairing: context ideal nil-clean iff both diagonals are (both readings)",
)
def _check_morita_zero_iff(ring, caps, report) -> bool:
    # both readings are reported, so this check never stops at a witness: the
    # report keeps the first failure of each reading, the strong one first
    readings = report.details = report.details or dict(
        strong_reading="verified", plain_reading="verified", interpretation=_MORITA_NOTE
    )
    if ring.structure[0] != "morita_zero":
        return False
    _, a, b, _ = ring.structure
    ring_a, ring_b = make_zmod(a), make_zmod(b)
    for ideal in _ideals(ring, caps):
        report.instances_tested += 1
        report.hypotheses_met += 1
        sides = _morita_diagonal_ideals(ring, ideal, ring_a, ring_b)
        rhs = all(map(is_strongly_nil_clean_ideal, sides))
        strong_held = readings["strong_reading"] == "verified"
        if strong_held and is_strongly_nil_clean_ideal(ideal) != rhs:
            readings["strong_reading"] = "counterexample"
            report.witness = _w(ring, "strong reading fails", ideal, reading="strong")
        if readings["plain_reading"] == "verified" and is_nil_clean_ideal(ideal) != rhs:
            readings["plain_reading"] = "counterexample"
            plain = _w(ring, "plain reading fails", ideal, reading="plain")
            report.witness = report.witness or plain
    return False


@_check("tri_cor", "2x2 triangular pair ideals are nil-clean iff both corners are")
def _check_tri_cor(tri, caps):
    reason = "corner pair disagrees with the triangular ideal"
    if tri.structure[0] != "tri" or tri.structure[1] != 2:
        return
    ideals = _ideals(tri.structure[2], caps)
    for left, right in itertools.product(ideals, ideals):
        # members (a, b, d) with a in left, d in right, middle entry free
        pairs = _members_where(tri, lambda t: t[0] in left and t[2] in right)
        lifted = Ideal.from_members(tri, pairs)
        lhs = is_nil_clean_ideal(left) and is_nil_clean_ideal(right)
        rhs = is_nil_clean_ideal(lifted)
        yield _iff(lhs, rhs, tri, reason, lifted)


def _admitted(entry, caps: Caps):
    """A family entry parsed and its order checked against the caps, unbuilt."""
    if isinstance(entry, FiniteRing):
        return entry
    spec = parse_ring_spec(entry) if isinstance(entry, str) else entry
    _check_order(spec_order(spec, DEFAULT_ORDER_CAP), caps.order_cap, f"spec {spec}")
    return spec


def _release(ring: FiniteRing) -> None:
    """Empty the memos of a ring the runner is done with.

    Memoized ideals and quotient maps point back at their ring, so a dropped
    ring would wait for the cycle collector.  The rings in its structure and
    the quotients and corners in its memo go with it: the only memo entries
    holding rings are their ``(ring, map)`` pairs, keyed ``("quotient",
    mask)`` or ``("corner", e)`` (a string key's first item is one letter).
    """
    todo, seen = [ring], set()
    while todo:
        ring = todo.pop()
        if id(ring) in seen:
            continue
        seen.add(id(ring))
        todo += [p for p in ring.structure[1:] if isinstance(p, FiniteRing)]
        todo += [v[0] for k, v in ring._memo.items() if k[0] in ("quotient", "corner")]
        ring._memo.clear()


def _advance(check: CheckDef, ring: FiniteRing, caps: Caps, reports) -> bool:
    """Run one check on one ring; True once the check needs no further ring."""
    if check.commutative_only and not is_commutative(ring):
        return False
    report = reports[check.id]
    start = time.perf_counter()
    try:
        done = check.fn(ring, caps, report)
    except NilCleanError as exc:
        failed = TheoremReport(check.id, check.statement, 0, 0, "error", {"reason": str(exc)})
        failed.millis = report.millis
        report = reports[check.id] = failed
        done = True
    else:
        if report.witness is not None:
            report.verdict = "counterexample"
        elif report.hypotheses_met:
            report.verdict = "verified"
    report.millis += (time.perf_counter() - start) * 1000.0
    return done


def run_check(check_id: str, family=DEFAULT_FAMILY, caps: Caps = Caps()) -> TheoremReport:
    """Evaluate one registered check over the given family (see run_all)."""
    return run_all(SuiteConfig(family, caps), ids=[check_id])[0]


def run_all(
    config: SuiteConfig = SuiteConfig(), ids: Optional[Sequence[str]] = None
) -> List[TheoremReport]:
    """Run the selected checks (default all) over the configured family.

    Every entry is parsed and its order checked before the first ring is
    built; then the family is walked once, ring by ring (see the module
    docstring).  Reports come back ordered by check id.
    """
    running = sorted(ids) if ids is not None else sorted(CHECKS)
    for check_id in running:
        if check_id not in CHECKS:
            raise UnknownCheck(f"unknown check id {check_id!r}")
    caps = config.caps
    family = [_admitted(entry, caps) for entry in config.family]
    reports = {c: TheoremReport(c, CHECKS[c].statement, 0, 0, "vacuous") for c in running}
    for entry in family:
        ring = entry if isinstance(entry, FiniteRing) else build(entry, caps)
        axioms = verify_axioms(ring, mode="certified")
        if not axioms.ok:
            raise AxiomFailure(axioms)
        running = [c for c in running if not _advance(CHECKS[c], ring, caps, reports)]
        if ring is not entry:
            _release(ring)
        del ring  # before the next build, which would otherwise overlap it
    return list(reports.values())


def explore_noncommutative(
    family: Sequence[str] = ("T2(Z2)", "T2(Z4)", "T3(Z2)"), caps: Caps = Caps()
) -> List[dict]:
    """Probe the boolean-modulo-radical splittings on triangular rings.

    The splitting characterizations above are only asserted for commutative
    rings; this sweep reports whether the two sides agree on noncommutative
    triangular instances without treating disagreement as a failure.
    """
    findings = []
    for spec in family:
        ring = build(spec, caps)
        radical = jacobson_radical(ring)
        radical_nil = is_nil_ideal(radical)
        _, projection = make_quotient(ring, radical)
        for ideal in all_ideals(ring, cap=caps.ideal_cap):
            if ideal.mask & radical.mask != radical.mask:
                continue
            boolean_side = radical_nil and is_boolean_ideal(image_ideal(projection, ideal))
            nil_clean_side = is_nil_clean_ideal(ideal)
            findings.append(
                {
                    "ring": ring.spec,
                    "ideal": list(ideal.indices),
                    "boolean_modulo_radical": boolean_side,
                    "nil_clean": nil_clean_side,
                    "agree": boolean_side == nil_clean_side,
                }
            )
    return findings
