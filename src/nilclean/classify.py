"""Element and ring classifiers: idempotents, nilpotents, units, center,
the Jacobson radical, booleanness, complete orthogonal central sets.

All set-valued results are frozensets of element indices and are memoized on
the ring; single-element predicates accept Elem handles or raw indices.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import BadParameter, InternalInvariantViolation, NotAnIdeal
from .ring import ElemLike, FiniteRing

COMPLETE_SET_MAX = 4


def idempotents(ring: FiniteRing) -> FrozenSet[int]:
    """Indices of all x with x*x = x."""
    return ring.cached(
        "idem",
        lambda: frozenset(i for i in range(ring.order) if ring.mul_i(i, i) == i),
    )


def is_idempotent(ring: FiniteRing, x: ElemLike) -> bool:
    i = ring.index_of(x)
    return ring.mul_i(i, i) == i


def _nil_map(ring: FiniteRing) -> Dict[int, int]:
    return ring.cached("nilmap", dict)


def nilpotency_index(ring: FiniteRing, x: ElemLike) -> Optional[int]:
    """Least k >= 1 with x^k = 0, or None when x is not nilpotent.

    Decided by squaring up to x^(2^m) with 2^m >= order (a nilpotent's index
    is bounded by the number of distinct powers, hence by the order), then
    binary-searching the least vanishing exponent.
    """
    i = ring.index_of(x)
    memo = _nil_map(ring)
    if i in memo:
        got = memo[i]
        return got if got > 0 else None
    zero = ring.zero_i
    m = max(1, (ring.order - 1).bit_length())
    t = i
    for _ in range(m):
        if t == zero:
            break
        t = ring.mul_i(t, t)
    if t != zero:
        memo[i] = 0
        return None
    lo, hi = 1, 1 << m
    while lo < hi:
        mid = (lo + hi) // 2
        if ring.pow_i(i, mid) == zero:
            hi = mid
        else:
            lo = mid + 1
    memo[i] = lo
    return lo


def is_nilpotent(ring: FiniteRing, x: ElemLike) -> bool:
    return nilpotency_index(ring, x) is not None


def nilpotents(ring: FiniteRing) -> Dict[int, int]:
    """Index -> nilpotency index for every nilpotent element."""

    def fill():
        return {
            i: nilpotency_index(ring, i)
            for i in range(ring.order)
            if nilpotency_index(ring, i) is not None
        }

    return ring.cached("nilpotents", fill)


def units(ring: FiniteRing) -> FrozenSet[int]:
    """Indices of two-sided units: the x whose multiplication row holds one.

    A finite ring is Dedekind-finite (xy = 1 implies yx = 1), so a right
    inverse is two-sided and one scan of each row decides the question.
    """

    def fill():
        one = ring.one_i
        return frozenset(i for i in range(ring.order) if one in ring.mul_row(i))

    return ring.cached("units", fill)


def is_unit(ring: FiniteRing, x: ElemLike) -> bool:
    return ring.index_of(x) in units(ring)


def center(ring: FiniteRing) -> FrozenSet[int]:
    """Indices of elements commuting with the whole ring.

    r -> xr - rx is additive, so x is central iff it commutes with each
    element b of the additive basis, that is iff entry b of row x equals
    entry x of row b: n*k lookups for k <= log2(n) basis elements, against
    n^2 for a scan over all r.
    """
    from .ideals import additive_basis

    def fill():
        rows = [ring.mul_row(x) for x in range(ring.order)]
        central = range(ring.order)
        for b in additive_basis(ring):
            row_b = rows[b]
            central = [x for x in central if rows[x][b] == row_b[x]]
        return frozenset(central)

    return ring.cached("center", fill)


def is_central(ring: FiniteRing, x: ElemLike) -> bool:
    return ring.index_of(x) in center(ring)


def jacobson_radical(ring: FiniteRing):
    """The radical as an Ideal: {x : every member of xR is nilpotent}.

    A finite ring is Artinian, so its Jacobson radical J is the largest nil
    ideal and holds every nil one-sided ideal (Lam, A First Course in
    Noncommutative Rings).  Hence x in J gives xR inside J, nil; and xR nil
    makes xR a nil right ideal inside J, so x = x*1 is in J.  The set is
    read off the multiplication rows and re-verified against the ideal
    axioms; failure means a bug, not bad input.
    """
    from .ideals import Ideal

    def fill():
        nil = set(nilpotents(ring))
        members = [x for x in nil if nil.issuperset(ring.mul_row(x))]
        try:
            return Ideal.from_members(ring, members)
        except NotAnIdeal as exc:
            raise InternalInvariantViolation(
                f"computed radical of {ring.spec} is not an ideal"
            ) from exc

    return ring.cached("jacobson", fill)


def is_boolean_ring(ring: FiniteRing) -> bool:
    """True iff every element is idempotent."""
    return len(idempotents(ring)) == ring.order


def is_boolean_ideal(ideal) -> bool:
    """True iff every member of the ideal squares to itself in its ring."""
    ring = ideal.ring
    return all(ring.mul_i(i, i) == i for i in ideal.indices)


def complete_orthogonal_central_sets(
    ring: FiniteRing, max_size: int = COMPLETE_SET_MAX
) -> List[Tuple[int, ...]]:
    """All sets of nonzero central idempotents with pairwise products zero
    and sum one, as sorted index tuples, smallest sets first.

    Enumeration is capped at size 4; beyond that the combinatorics explode
    without exercising anything new.
    """
    if max_size > COMPLETE_SET_MAX:
        raise BadParameter(f"complete-set size capped at {COMPLETE_SET_MAX}")

    def fill():
        candidates = sorted(
            (idempotents(ring) & center(ring)) - {ring.zero_i}
        )
        found = []
        for k in range(1, COMPLETE_SET_MAX + 1):
            for combo in itertools.combinations(candidates, k):
                if any(
                    ring.mul_i(a, b) != ring.zero_i
                    for a, b in itertools.combinations(combo, 2)
                ):
                    continue
                total = ring.zero_i
                for e in combo:
                    total = ring.add_i(total, e)
                if total == ring.one_i:
                    found.append(combo)
        return found

    full = ring.cached("complete_sets", fill)
    return [s for s in full if len(s) <= max_size]
