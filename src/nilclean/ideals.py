"""Two-sided ideals stored as packed membership bit vectors.

A membership set is one Python int: bit i is set iff element i belongs.
Unions, intersections, and subset tests are then single big-int operations,
which is what the enumeration loops spend their time on.

Every ring has one memoized additive basis: k <= log2(n) elements whose
sums reach the whole ring (``additive_basis``).  One span primitive grows an
additive subgroup by whole cosets read off the addition rows; spanning a
subgroup of size m costs O(m) list steps plus one O(n) flag array, however
many generators are offered.  The ideal layer is built on it, and so are
the multiplication tables of ``construct._bilinear_rows``:

- the ideal generated by g is the span of the k^2 products a*g*b over basis
  elements a, b: O(k^2 + |I|) per generated ideal, against n^2 products
  before;
- an ideal is verified by spanning its members inside the mask and checking
  a*x and x*a for the basis elements a and the at most log2|I| generators x
  of that span: O(|I| + k*log2|I|), against O(|I|^2 + |I|*n) pairwise;
- sums span one ideal's members over the other, products span the products
  of the two ideals' additive generators.

Only masks from outside are verified (``Ideal(ring, mask)``,
``Ideal.from_members``).  What this module builds is an ideal by proof, and
each builder's docstring gives the argument: generated ideals and their
sums, products and intersections, images under a quotient map, and corners
eIe for a central idempotent e.  An ideal's member tuple is listed on first
read; size, zero and properness are read off the mask.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .classify import nilpotents, units
from .construct import DEFAULT_IDEAL_CAP
from .errors import CapExceeded, ElementRingMismatch, NotAnIdeal, NotCentralIdempotent
from .ring import ElemLike, FiniteRing


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> Tuple[int, ...]:
    bits = bin(mask)[:1:-1]  # bit i is character i
    return tuple([i for i, c in enumerate(bits) if c == "1"])


_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask_of_flags(flags: bytearray) -> int:
    """The mask of a 0/1 bytearray, flag i for bit i."""
    return int(flags[::-1].translate(_FLAG_DIGITS), 2)


def additive_basis(ring: FiniteRing) -> Tuple[int, ...]:
    """A generating set of the ring's additive group, memoized on the ring.

    Greedy: walk the indices and keep each element not yet in the span.  Each
    kept element at least doubles the span, so there are at most log2(order).
    """
    return ring.cached(
        "additive_basis", lambda: tuple(_grow(ring, range(ring.order))[2])
    )


def _span(add_row, order: int, members: Iterable[int], gens: Iterable[int]):
    """Grow the additive subgroup H listed by members by gens, in a group of
    `order` elements whose addition row of s is ``add_row(s)``.

    A generator s outside H adds the cosets H + s, H + 2s, ... up to the
    first one that lands back in H, listed by ``_cosets``.  Returns the
    grown mask, its members (H's first, then each coset in order) and the
    generators that grew it.

    On a table that is no additive group the cosets can overlap, and the
    member list could double with every generator.  A group's span never
    lists more than ``order`` members, so past that no further coset is
    counted.  The work stays O(order^2), and every member listed is still
    made from the first one and the kept generators by sums: it is c + w
    for an earlier member w, where c is s or c' + c' for an earlier such c'.
    """
    members = list(members)
    inside = bytearray(order)
    for x in members:
        inside[x] = 1
    kept = []
    for s in gens:
        if inside[s]:
            continue
        kept.append(s)
        h, row = len(members), add_row(s)
        # a coset of H is H itself or disjoint from it, so the walk returns
        # to H first at the m-th coset, H counted as the 0th
        t, m = row[members[0]], 1
        while not inside[t] and m * h <= order:
            t, m = row[t], m + 1
        _cosets(add_row, members, s, m)
        for y in members[h:]:
            inside[y] = 1
    return _mask_of_flags(inside), members, kept


def _cosets(add_row, listed: list, s: int, m: int) -> None:
    """Extend the list of H by H + s, H + 2s, ..., H + (m-1)s, in blocks of
    1, 2, 4, ... cosets: once j cosets are listed, the next block is one
    ``map`` of ``add_row(j*s)`` over the first min(j, m - j) of them."""
    top, c = m * len(listed), s
    while len(listed) < top:
        row = add_row(c)
        listed.extend(map(row.__getitem__, listed[: top - len(listed)]))
        c = row[c]


def _grow(ring: FiniteRing, gens: Iterable[int]):
    """The additive subgroup spanned by gens: (mask, members, kept gens)."""
    return _span(ring.add_row, ring.order, (ring.zero_i,), gens)


def verify_ideal(ring: FiniteRing, mask: int) -> None:
    """Raise NotAnIdeal unless mask is a two-sided ideal of the ring.

    The members' additive span must not leave the mask (then the mask is
    that span, a subgroup), and a*x, x*a must stay inside for every element
    a of the additive basis and every generator x of the span.  Sums of
    those products then cover r*y and y*r for all r in R and y in the mask.
    A mask with a bit at or above the order, or a negative one (every bit
    set from some point on), names no set of elements and is refused first.
    """
    high = mask >> ring.order
    if high:
        bit = ring.order + (high & -high).bit_length() - 1
        raise NotAnIdeal(
            f"{ring.spec}: mask bit {bit} is not an element below {ring.order}"
        )
    if not mask >> ring.zero_i & 1:
        raise NotAnIdeal(f"{ring.spec}: zero missing")
    members = indices_of(mask)
    span, _, gens = _grow(ring, members)
    if span != mask:
        # a mask closed under adding each generator is closed under adding
        # their sums, the whole span, so some generator leads out of it
        y, s = next(
            (y, s) for s in gens for y in members if not mask >> ring.add_i(y, s) & 1
        )
        raise NotAnIdeal(f"{ring.spec}: not closed under addition at {y},{s}")
    mul = ring.mul_i
    for a in additive_basis(ring):
        for x in gens:
            if not mask >> mul(a, x) & 1:
                raise NotAnIdeal(f"{ring.spec}: not left-absorbing at {a}*{x}")
            if not mask >> mul(x, a) & 1:
                raise NotAnIdeal(f"{ring.spec}: not right-absorbing at {x}*{a}")


class Ideal:
    """An immutable two-sided ideal of one specific ring."""

    # `indices`, the ascending member tuple, is left unset until its first
    # read fills it (__getattr__): many ideals are only ever tested by mask
    __slots__ = ("ring", "mask", "indices", "generators")

    def __init__(
        self,
        ring: FiniteRing,
        mask: int,
        generators: Optional[Tuple[int, ...]] = None,
        verify: bool = True,
    ):
        if verify:
            verify_ideal(ring, mask)
        self.ring = ring
        self.mask = mask
        self.generators = generators

    def __getattr__(self, name):
        # reached only when ordinary lookup fails, so once per ideal here
        if name != "indices":
            raise AttributeError(name)
        self.indices = indices = indices_of(self.mask)
        return indices

    @classmethod
    def from_members(cls, ring: FiniteRing, members: Iterable[ElemLike], generators=None) -> "Ideal":
        mask = mask_of(ring.index_of(x) for x in members)
        return cls(ring, mask, generators=generators)

    def __contains__(self, x: ElemLike) -> bool:
        if type(x) is int and 0 <= x < self.ring.order:
            return self.mask >> x & 1 == 1
        return self.mask >> self.ring.index_of(x) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring is self.ring
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.ring), self.mask))

    @property
    def is_zero(self) -> bool:
        return self.mask == 1 << self.ring.zero_i

    @property
    def is_proper(self) -> bool:
        return self.mask.bit_count() < self.ring.order

    def to_json(self) -> dict:
        return {"ring": self.ring.spec, "members": list(self.indices)}

    def __repr__(self):
        shown = ",".join(str(i) for i in self.indices[:8])
        more = ",..." if len(self.indices) > 8 else ""
        return f"<Ideal of {self.ring.spec} {{{shown}{more}}}>"


def _require_same_ring(a: Ideal, b: Ideal) -> FiniteRing:
    if a.ring is not b.ring:
        raise ElementRingMismatch("ideals of different rings")
    return a.ring


def ideal_generated(ring: FiniteRing, gens: Iterable[ElemLike]) -> Ideal:
    """Least two-sided ideal containing the generators.

    The additive span of the products a*g*b, for a and b in the additive
    basis: r*(a*g*b) is a sum of terms a'*g*b because r*a is a sum of basis
    elements, so the span absorbs multiplication on both sides, and it holds
    g = 1*g*1.  So the span is an ideal, built without verification.
    """
    gen_idx = tuple(sorted({ring.index_of(g) for g in gens}))
    mask = _generated(ring, gen_idx)[0]
    return Ideal(ring, mask, generators=gen_idx, verify=False)


def _generated(ring: FiniteRing, gen_idx: Iterable[int]):
    """The generated ideal's mask and the additive generators that span it."""
    basis = additive_basis(ring)
    mul = ring.mul_i
    products = []
    for g in gen_idx:
        for a in basis:
            row = ring.mul_row(mul(a, g))
            products.extend(row[b] for b in basis)
    mask, _, kept = _grow(ring, products)
    return mask, kept


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1 << ring.zero_i, generators=(), verify=False)


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(
        ring, (1 << ring.order) - 1, generators=(ring.one_i,), verify=False
    )


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """Setwise sum; the sum of two additive subgroups is already a subgroup,
    and r*(x + y) = r*x + r*y keeps it absorbing on both sides."""
    ring = _require_same_ring(a, b)
    mask = _span(ring.add_row, ring.order, a.indices, b.indices)[0]
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = tuple(sorted(set(a.generators) | set(b.generators)))
    return Ideal(ring, mask, generators=gens, verify=False)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Ideal generated by all pairwise products x*y with x in a, y in b.

    Every x*y is a sum of products of the two ideals' additive generators,
    and the products of ideal members absorb ring multiplication on both
    sides already, so the span of those products is the whole ideal.
    """
    ring = _require_same_ring(a, b)
    right = _grow(ring, b.indices)[2]
    products = []
    for x in _grow(ring, a.indices)[2]:
        row = ring.mul_row(x)
        products.extend(row[y] for y in right)
    return Ideal(ring, _grow(ring, products)[0], verify=False)


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """The meet; an intersection of ideals is an ideal."""
    ring = _require_same_ring(a, b)
    return Ideal(ring, a.mask & b.mask, verify=False)


def all_ideals(ring: FiniteRing, cap: int = DEFAULT_IDEAL_CAP) -> List[Ideal]:
    """Every two-sided ideal, ordered by size then member tuple.

    Every ideal is a finite sum of principal ideals, so closing the set of
    principal ideals under "add one principal ideal" reaches all of them.
    Each principal ideal is a generated ideal (see ``ideal_generated``) and
    a sum of ideals is an ideal, so nothing in the pool is verified.
    """

    def fill():
        # u*g generates the same ideal as g for every unit u, so each orbit
        # of the units is spanned once, from its least element
        unit_rows = [ring.mul_row(u) for u in units(ring)]
        done = bytearray(ring.order)
        principal, kept = {}, {}
        for g in range(ring.order):
            if done[g]:
                continue
            for row in unit_rows:
                done[row[g]] = 1
            mask, spanning = _generated(ring, (g,))
            if mask not in principal:
                principal[mask] = (g,)
                kept[mask] = spanning
        if len(principal) > cap:
            raise CapExceeded(f"{ring.spec}: more than {cap} ideals")
        pool = dict(principal)
        queue = list(principal)
        while queue:
            current = queue.pop()
            members = indices_of(current)
            for pmask in principal:
                # p inside current adds nothing; current inside p makes the
                # sum p, which is in the pool from the start
                if pmask & ~current == 0 or current & ~pmask == 0:
                    continue
                # a principal ideal is the additive span of its kept generators
                union = _span(ring.add_row, ring.order, members, kept[pmask])[0]
                if union not in pool:
                    if len(pool) >= cap:
                        raise CapExceeded(
                            f"{ring.spec}: more than {cap} ideals"
                        )
                    pool[union] = None
                    queue.append(union)
        ideals = [
            Ideal(ring, mask, generators=gens, verify=False)
            for mask, gens in pool.items()
        ]
        ideals.sort(key=lambda i: (len(i.indices), i.indices))
        return ideals

    return ring.cached(("all_ideals", cap), fill)


def first_outside(ideal: Ideal, mask: int) -> Optional[int]:
    """The least member of the ideal outside the mask, or None: the lowest
    set bit of ``ideal.mask & ~mask``."""
    rest = ideal.mask & ~mask
    return (rest & -rest).bit_length() - 1 if rest else None


def _nil_mask(ring: FiniteRing) -> int:
    return ring.cached("nil_mask", lambda: mask_of(nilpotents(ring)))


def non_nilpotent_member(ideal: Ideal) -> Optional[int]:
    """The least member that is not nilpotent, or None."""
    return first_outside(ideal, _nil_mask(ideal.ring))


def is_nil_ideal(ideal: Ideal) -> bool:
    """True iff every member is nilpotent: one test against the nil mask."""
    return ideal.mask & ~_nil_mask(ideal.ring) == 0


def image_ideal(projection, ideal: Ideal) -> Ideal:
    """Push an ideal through a quotient projection p: R -> R/K.

    p is a surjective ring homomorphism, so p(I) is an ideal: it is an
    additive subgroup as the image of one, and for s = p(r) in R/K and
    p(x) in p(I), s*p(x) = p(r*x) and p(x)*s = p(x*r) lie in p(I).  The
    image is built without verification.  Memoized on the quotient, keyed
    by the ideal's mask, so an image is computed once per (quotient, ideal).
    """
    if ideal.ring is not projection.domain:
        raise ElementRingMismatch("ideal does not live in the projection's domain")

    def image():
        mask = mask_of(map(projection.index_map.__getitem__, ideal.indices))
        return Ideal(projection.codomain, mask, verify=False)

    return projection.codomain.cached(("image", ideal.mask), image)


def corner_ideal(ring: FiniteRing, e: ElemLike, ideal: Ideal) -> Ideal:
    """The set e*I*e inside the corner ring eRe, for a central idempotent e.

    ``make_corner`` rejects an e that is not a central idempotent.  As e is
    central, e*x*e = e*e*x = e*x, so eIe = eI is read off one row of e.  It is
    an ideal of eRe: an additive subgroup as the image of I under x -> e*x,
    and (e*r*e)(e*x*e) = e*(r*e*x)*e with r*e*x in I, likewise on the right.
    So the result is built without verification.
    """
    from .construct import make_corner

    if ideal.ring is not ring:
        raise ElementRingMismatch("ideal belongs to a different ring")
    corner, embedding = make_corner(ring, e)
    ex = map(ring.mul_row(ring.index_of(e)).__getitem__, ideal.indices)
    mask = mask_of(map(embedding.corner_index.__getitem__, ex))
    return Ideal(corner, mask, verify=False)
