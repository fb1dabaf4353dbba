"""Clean and nil-clean element decompositions and the derived ideal predicates.

A decomposition of x is a pair (e, y) with e idempotent, e + y = x, and y
nilpotent (nil-clean kind) or a unit (clean kind).  Since y = x - e, every
decomposition is determined by its idempotent; one per-ring fill below
therefore lists, for each element, its admissible idempotent indices in
ascending order, and everything else is rebuilt from that.

An element's admissible idempotents, each pair checked on indices against
the decomposition laws, and its idempotent lifting path, a tuple of
indices, are facts about the ring and the element alone, so each is built
at most once per element, when first asked for, and kept on the ring.  The
checks read these index facts; `Decomposition` and `Elem` objects are built
only for the public functions that return them, afresh on every call.

`PROPERTIES` is the one place where what a property asks of an element is
spelled out.  The ideal predicates, the least member an ideal property fails
on (`failing_member`), and the decompositions listed for a property
(`decompositions`) all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .classify import idempotents, nilpotency_index, nilpotents, units
from .errors import (
    InternalInvariantViolation,
    NotAlmostIdempotent,
    PreconditionViolated,
)
from .ideals import Ideal, _mask_of_flags, first_outside, is_nil_ideal
from .ring import Elem, ElemLike, FiniteRing

NIL_CLEAN = "nil-clean"
CLEAN = "clean"

# name -> (kind, strong, unique).  Each property asks of an element x for
# idempotents e with x - e nilpotent (nil-clean kind) or a unit (clean
# kind), e and x - e commuting if strong: exactly one such e if unique, else
# at least one.  The second part is x - e, so counting the idempotents
# counts the decompositions.  The names are the ideal predicates' and the
# command line's properties and decomposition kinds.
PROPERTIES = {
    "nil-clean": (NIL_CLEAN, False, False),
    "clean": (CLEAN, False, False),
    "strongly-nil-clean": (NIL_CLEAN, True, False),
    "strongly-clean": (CLEAN, True, False),
    "uniquely-nil-clean": (NIL_CLEAN, False, True),
    "uniquely-strongly-nil-clean": (NIL_CLEAN, True, True),
    "uniquely-strongly-clean": (CLEAN, True, True),
}


@dataclass(frozen=True)
class Decomposition:
    """One witness pair for an element: idempotent + second = element."""

    element: Elem
    idempotent: Elem
    second: Elem
    kind: str
    commutes: bool
    nil_index: Optional[int] = None

    def verify(self) -> "Decomposition":
        ring = self.element.ring
        if not (self.idempotent.ring is ring and self.second.ring is ring):
            raise InternalInvariantViolation("parts belong to another ring")
        x, e, y = self.element.index, self.idempotent.index, self.second.index
        if ring.mul_i(e, e) != e:
            raise InternalInvariantViolation("idempotent part fails e*e = e")
        if ring.add_i(e, y) != x:
            raise InternalInvariantViolation("parts do not sum to the element")
        if self.commutes != _commuting(ring, e, y):
            raise InternalInvariantViolation("commutation flag is wrong")
        if self.kind == NIL_CLEAN:
            if nilpotents(ring).get(y) != self.nil_index:
                raise InternalInvariantViolation("stated nilpotency index is wrong")
        elif self.kind == CLEAN:
            if y not in units(ring):
                raise InternalInvariantViolation("second part is not a unit")
        else:
            raise InternalInvariantViolation(f"unknown kind {self.kind!r}")
        return self

    def to_json(self) -> dict:
        return {
            "element": self.element.index,
            "idempotent": self.idempotent.index,
            "second": self.second.index,
            "kind": self.kind,
            "commutes": self.commutes,
            "nil_index": self.nil_index,
        }


# --------------------------------------------------------------------------
# the per-ring admissible-idempotent fill


def _commuting(ring: FiniteRing, e: int, y: int) -> bool:
    return ring.mul_i(e, y) == ring.mul_i(y, e)


def _admissible(ring: FiniteRing, kind: str, strong: bool = False) -> List[List[int]]:
    """For each element x, the ascending idempotents e with x - e admissible.

    One walk: for each idempotent e in ascending order and each y in the
    admissible set (nilpotents or units), e joins the list of e + y.  That
    is one step per decomposition, |E|*|S| in all, with no test per pair.
    The strong lists keep the e whose parts e and x - e commute.
    """

    def fill():
        if strong:
            return [
                [e for e in es if _commuting(ring, e, ring.sub_i(x, e))]
                for x, es in enumerate(_admissible(ring, kind))
            ]
        second = nilpotents(ring) if kind == NIL_CLEAN else units(ring)
        lists = [[] for _ in range(ring.order)]
        for e in sorted(idempotents(ring)):
            row = ring.add_row(e)
            for y in second:
                lists[row[y]].append(e)
        return lists

    return ring.cached(("admissible", kind, strong), fill)


def _make(ring: FiniteRing, x: int, e: int, kind: str) -> Decomposition:
    y = ring.sub_i(x, e)
    return Decomposition(
        element=ring.elem(x),
        idempotent=ring.elem(e),
        second=ring.elem(y),
        kind=kind,
        commutes=_commuting(ring, e, y),
        nil_index=nilpotency_index(ring, y) if kind == NIL_CLEAN else None,
    ).verify()


def admissible_idempotents(
    ring: FiniteRing, x: ElemLike, kind: str = NIL_CLEAN
) -> Tuple[int, ...]:
    """The idempotents e, ascending, with x - e nilpotent (nil-clean kind) or
    a unit (clean kind), as indices: x's decompositions without building
    them.  Memoized element by element once each pair is checked."""
    i = ring.index_of(x)
    memo = ring.cached(("checked", kind), dict)
    found = memo.get(i)
    if found is None:
        found = memo[i] = _check_pairs(ring, i, kind)
    return found


def _check_pairs(ring: FiniteRing, i: int, kind: str) -> Tuple[int, ...]:
    """Element i's admissible idempotents, each pair (e, i - e) checked on
    indices against the laws `verify()` checks: e*e = e, e + (i - e) = i,
    and i - e nilpotent or a unit by kind."""
    second = nilpotents(ring) if kind == NIL_CLEAN else units(ring)
    found = tuple(_admissible(ring, kind)[i])
    for e in found:
        y = ring.sub_i(i, e)
        if ring.mul_i(e, e) != e or ring.add_i(e, y) != i or y not in second:
            raise InternalInvariantViolation(
                f"{ring.spec}: {e} is not a {kind} idempotent of element {i}"
            )
    return found


def decompositions(ring: FiniteRing, x: ElemLike, prop: str) -> List[Decomposition]:
    """x's verified decompositions of the property's kind, only those with
    commuting parts if it is strong (see `PROPERTIES`), by idempotent
    ascending.  Built on each call."""
    kind, strong, _ = PROPERTIES[prop]
    i = ring.index_of(x)
    decs = [_make(ring, i, e, kind) for e in admissible_idempotents(ring, i, kind)]
    return strongly_filter(decs) if strong else decs


def nil_clean_decompositions(ring: FiniteRing, x: ElemLike) -> List[Decomposition]:
    """All pairs (e, x-e) with e idempotent and x-e nilpotent, by e ascending.

    An empty list means x is not nil-clean.
    """
    return decompositions(ring, x, NIL_CLEAN)


def clean_decompositions(ring: FiniteRing, x: ElemLike) -> List[Decomposition]:
    """All pairs (e, x-e) with e idempotent and x-e a unit, by e ascending."""
    return decompositions(ring, x, CLEAN)


def strongly_filter(decompositions: List[Decomposition]) -> List[Decomposition]:
    """Keep the decompositions whose two parts commute."""
    return [d for d in decompositions if d.commutes]


# --------------------------------------------------------------------------
# ideal- and ring-level predicates


def _member_mask(ring: FiniteRing, rule: Tuple[str, bool, bool]) -> int:
    """The mask of the elements that satisfy a rule (kind, strong, unique) of
    `PROPERTIES`, kept on the ring under the rule itself."""

    def fill():
        kind, strong, unique = rule
        lists = _admissible(ring, kind, strong)
        if unique:
            return _mask_of_flags(bytearray(len(es) == 1 for es in lists))
        return _mask_of_flags(bytearray(map(bool, lists)))

    return ring.cached(rule, fill)


def _every_member(ideal: Ideal, kind: str, strong: bool = False, unique: bool = False) -> bool:
    """Every member has a decomposition of the kind (exactly one if unique):
    the predicates by rule, also for a rule `PROPERTIES` does not name."""
    return ideal.mask & ~_member_mask(ideal.ring, (kind, strong, unique)) == 0


def failing_member(ideal: Ideal, prop: str) -> Optional[int]:
    """The least member of the ideal without the property, or None."""
    return first_outside(ideal, _member_mask(ideal.ring, PROPERTIES[prop]))


def is_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["clean"]) == 0


def is_nil_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["nil-clean"]) == 0


def is_strongly_nil_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["strongly-nil-clean"]) == 0


def is_strongly_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["strongly-clean"]) == 0


def is_uniquely_nil_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["uniquely-nil-clean"]) == 0


def is_uniquely_strongly_nil_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["uniquely-strongly-nil-clean"]) == 0


def is_uniquely_strongly_clean_ideal(ideal: Ideal) -> bool:
    return ideal.mask & ~_member_mask(ideal.ring, PROPERTIES["uniquely-strongly-clean"]) == 0


def is_nil_clean_ring(ring: FiniteRing) -> bool:
    """True iff every element of the ring is nil-clean."""
    return all(_admissible(ring, NIL_CLEAN))


def splits_within_ideal(ideal: Ideal, x: ElemLike) -> bool:
    """Whether x has a nil-clean decomposition with both parts in the ideal.

    That is whether some admissible idempotent e of x lies in the ideal:
    x is in the ideal I, so if e is in I then x - e is, and if x - e is in I
    then e = x - (x - e) is.
    """
    ring = ideal.ring
    i = ring.index_of(x)
    if i not in ideal:
        raise PreconditionViolated(f"element {i} is not in the ideal")
    return any(e in ideal for e in admissible_idempotents(ring, i))


def decomposition_within_ideal(ideal: Ideal, x: ElemLike) -> List[Decomposition]:
    """Nil-clean decompositions of x whose both parts lie inside the ideal."""
    ring = ideal.ring
    i = ring.index_of(x)
    if i not in ideal:
        raise PreconditionViolated(f"element {i} is not in the ideal")
    return [
        d
        for d in decompositions(ring, i, NIL_CLEAN)
        if d.idempotent.index in ideal and d.second.index in ideal
    ]


# --------------------------------------------------------------------------
# constructive idempotent lifting


def _cube_step(ring: FiniteRing, t: int) -> int:
    # t -> 3t^2 - 2t^3, the idempotent-refining polynomial step
    t2 = ring.mul_i(t, t)
    t3 = ring.mul_i(t2, t)
    three_t2 = ring.add_i(t2, ring.add_i(t2, t2))
    two_t3 = ring.add_i(t3, t3)
    return ring.sub_i(three_t2, two_t3)


def lift_idempotent_path(ring: FiniteRing, a: ElemLike) -> List[Elem]:
    """Iterates of t -> 3t^2 - 2t^3 from a down to a fixed idempotent.

    Requires a - a^2 nilpotent.  Each step squares the nilpotency order of
    t - t^2 (up to a commuting factor), so at most ceil(log2 v) + 1 steps are
    needed, v being the nilpotency index of a - a^2; the bound is asserted.
    A path is memoized per element as a tuple of indices; a failure is not,
    and raises every time.
    """
    return list(map(ring.elem, _lifted(ring, ring.index_of(a))))


def _lifted(ring: FiniteRing, i: int) -> Tuple[int, ...]:
    """Element i's lifting path as indices, memoized per element."""
    paths = ring.cached("lift_paths", dict)
    path = paths.get(i)
    if path is None:
        path = paths[i] = _lift_path(ring, i)
    return path


def _lift_path(ring: FiniteRing, i: int) -> Tuple[int, ...]:
    defect = ring.sub_i(i, ring.mul_i(i, i))
    v = nilpotency_index(ring, defect)
    if v is None:
        raise NotAlmostIdempotent(
            f"{ring.spec}: a - a^2 is not nilpotent for element {i}"
        )
    bound = (v - 1).bit_length() + 1
    path = [i]
    t = i
    steps = 0
    while ring.mul_i(t, t) != t:
        t = _cube_step(ring, t)
        steps += 1
        path.append(t)
        if steps > bound:
            raise InternalInvariantViolation(
                f"lifting exceeded {bound} steps on {ring.spec} element {i}"
            )
    if nilpotency_index(ring, ring.sub_i(i, t)) is None:
        raise InternalInvariantViolation(
            f"lifted idempotent is not congruent to {i} modulo nilpotents"
        )
    return tuple(path)


def lift_idempotent(ring: FiniteRing, a: ElemLike) -> Elem:
    """An idempotent e, polynomial in a, with a - e nilpotent."""
    return ring.elem(_lifted(ring, ring.index_of(a))[-1])


def lift_idempotent_mod_nil(ring: FiniteRing, ideal: Ideal, x: ElemLike) -> Elem:
    """An idempotent congruent to x modulo a nil ideal that holds x^2 - x
    (``lifted_mod_nil`` as an element)."""
    return ring.elem(lifted_mod_nil(ring, ideal, x))


def lifted_mod_nil(ring: FiniteRing, ideal: Ideal, x: ElemLike) -> int:
    """Index of an idempotent congruent to x modulo a nil ideal that holds
    x^2 - x.

    The iteration only ever moves x by multiples of x - x^2, so the result
    stays congruent to x modulo the ideal; that containment is re-checked.
    """
    if ideal.ring is not ring:
        raise PreconditionViolated("ideal belongs to a different ring")
    if not is_nil_ideal(ideal):
        raise PreconditionViolated(f"{ring.spec}: the ideal is not nil")
    i = ring.index_of(x)
    defect = ring.sub_i(ring.mul_i(i, i), i)
    if defect not in ideal:
        raise PreconditionViolated(f"x^2 - x is not in the ideal for element {i}")
    e = _lifted(ring, i)[-1]
    if ring.sub_i(e, i) not in ideal:
        raise InternalInvariantViolation(
            f"lift left the coset of {i} modulo the ideal"
        )
    return e
