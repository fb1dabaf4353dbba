"""Element and ring classifiers: idempotents, nilpotents, units, center,
the Jacobson radical, booleanness, complete orthogonal central sets.

All set-valued results are frozensets of element indices and are memoized on
the ring; single-element predicates accept Elem handles or raw indices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import BadParameter
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


def nilpotents(ring: FiniteRing) -> Dict[int, int]:
    """Index -> nilpotency index for every nilpotent element: the walk of
    :func:`nilpotency_index` along each row, inline over the rows of one
    ``map``: O(n log n) lookups."""

    def fill():
        zero, found = ring.zero_i, {}
        steps = range(1, ring.order.bit_length())
        for x, row in enumerate(map(ring.mul_row, range(ring.order))):
            power = x
            for k in steps:
                if power == zero:
                    found[x] = k
                    break
                power = row[power]
        return found

    return ring.cached("nilpotents", fill)


def nilpotency_index(ring: FiniteRing, x: ElemLike) -> Optional[int]:
    """Least k >= 1 with x^k = 0, or None when x is not nilpotent.

    Walks x's own powers x, x^2, ... along row x of the multiplication
    table, and x is not nilpotent if it is still nonzero after log2(order)
    steps.  If x has index k, the right ideals R > xR > x^2R > ... > x^kR =
    0 strictly decrease: were x^iR = x^(i+1)R with i < k, then x^i =
    x^(i+1)r = x*x^i*r for some r, so x^i = x^k*x^i*r^k = 0.  Each is an
    additive subgroup of the one before, so at most half its size, and
    k <= log2(order).  Only row x is read, so the walk builds no other row
    of a ring built row by row.
    """
    i = ring.index_of(x)
    row, zero = ring.mul_row(i), ring.zero_i
    power = i
    for k in range(1, ring.order.bit_length()):
        if power == zero:
            return k
        power = row[power]
    return None


def is_nilpotent(ring: FiniteRing, x: ElemLike) -> bool:
    return ring.index_of(x) in nilpotents(ring)


def units(ring: FiniteRing) -> FrozenSet[int]:
    """Indices of two-sided units: the x whose multiplication row holds one.

    A finite ring is Dedekind-finite (xy = 1 implies yx = 1), so a right
    inverse is two-sided and one scan of each row decides the question.
    """

    def fill():
        one, rows = ring.one_i, map(ring.mul_row, range(ring.order))
        return frozenset(i for i, row in enumerate(rows) if one in row)

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
    read off the multiplication rows, and as it is J, an ideal, it is not
    verified again.
    """
    from .ideals import Ideal, mask_of

    def fill():
        nil = set(nilpotents(ring))
        members = [x for x in nil if nil.issuperset(ring.mul_row(x))]
        return Ideal(ring, mask_of(members), verify=False)

    return ring.cached("jacobson", fill)


def is_boolean_ring(ring: FiniteRing) -> bool:
    """True iff every element is idempotent."""
    return len(idempotents(ring)) == ring.order


def is_boolean_ideal(ideal) -> bool:
    """True iff every member of the ideal squares to itself in its ring: one
    test against the mask of the idempotents, kept on the ring."""
    from .ideals import first_outside, mask_of

    ring = ideal.ring
    idem = ring.cached("idem_mask", lambda: mask_of(idempotents(ring)))
    return first_outside(ideal, idem) is None


def complete_orthogonal_central_sets(
    ring: FiniteRing, max_size: int = COMPLETE_SET_MAX
) -> List[Tuple[int, ...]]:
    """All sets of nonzero central idempotents with pairwise products zero
    and sum one, as sorted index tuples, smallest sets first.

    The central idempotents form a finite Boolean algebra (meet ef, join
    e + f - ef, complement 1 - e).  Its atoms are the nonzero central
    idempotents e with ef in {0, e} for every central idempotent f.  Given
    a complete orthogonal set, each atom a is a*1, the sum of the a*e_i,
    each 0 or a, and a*e_i = a*e_j = a would make a = a*e_i*e_j = 0: so a
    lies under exactly one e_i, and e_i is the sum of the atoms under it.
    Conversely the block sums of a partition of the atoms are nonzero
    central idempotents, orthogonal as their atoms are, and sum to the sum
    of all atoms, which is 1.  So the sets of size at most k are the
    partitions of the atoms into at most k blocks, each block summed; they
    are built atom by atom, each joining an existing block or opening a new
    one.  The size cap stays at 4 because it is the public contract, pinned
    by ``test_complete_sets_cap``.
    """
    if max_size > COMPLETE_SET_MAX:
        raise BadParameter(f"complete-set size capped at {COMPLETE_SET_MAX}")

    def fill():
        central = idempotents(ring) & center(ring)
        zero, mul, add = ring.zero_i, ring.mul_i, ring.add_i
        atoms = [
            e for e in central - {zero} if all(mul(e, f) in (zero, e) for f in central)
        ]
        partitions = [[]]
        for a in atoms:
            partitions = [
                p[:i] + [add(p[i], a)] + p[i + 1 :]
                for p in partitions
                for i in range(len(p))
            ] + [p + [a] for p in partitions if len(p) < COMPLETE_SET_MAX]
        sets = [tuple(sorted(p)) for p in partitions]
        return sorted(sets, key=lambda s: (len(s), s))

    full = ring.cached("complete_sets", fill)
    return [s for s in full if len(s) <= max_size]
