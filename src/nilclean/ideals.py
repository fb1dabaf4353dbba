"""Two-sided ideals stored as packed membership bit vectors.

A membership set is one Python int: bit i is set iff element i belongs.
Unions, intersections, and subset tests are then single big-int operations,
which is what the enumeration loops spend their time on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from .construct import DEFAULT_IDEAL_CAP
from .errors import CapExceeded, ElementRingMismatch, NotAnIdeal, NotCentralIdempotent
from .ring import ElemLike, FiniteRing


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> Tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def verify_ideal(ring: FiniteRing, mask: int) -> None:
    """Raise NotAnIdeal unless mask is a two-sided ideal of the ring."""
    if not mask >> ring.zero_i & 1:
        raise NotAnIdeal(f"{ring.spec}: zero missing")
    members = indices_of(mask)
    for x in members:
        if not mask >> ring.neg_i(x) & 1:
            raise NotAnIdeal(f"{ring.spec}: not closed under negation at {x}")
        for y in members:
            if not mask >> ring.add_i(x, y) & 1:
                raise NotAnIdeal(f"{ring.spec}: not closed under addition at {x},{y}")
        for r in range(ring.order):
            if not mask >> ring.mul_i(r, x) & 1:
                raise NotAnIdeal(f"{ring.spec}: not left-absorbing at {r}*{x}")
            if not mask >> ring.mul_i(x, r) & 1:
                raise NotAnIdeal(f"{ring.spec}: not right-absorbing at {x}*{r}")


class Ideal:
    """An immutable two-sided ideal of one specific ring."""

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
        self.indices = indices_of(mask)
        self.generators = generators

    @classmethod
    def from_members(cls, ring: FiniteRing, members: Iterable[ElemLike], generators=None) -> "Ideal":
        mask = mask_of(ring.index_of(x) for x in members)
        return cls(ring, mask, generators=generators)

    def __contains__(self, x: ElemLike) -> bool:
        return self.mask >> self.ring.index_of(x) & 1 == 1

    def __len__(self) -> int:
        return len(self.indices)

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
        return self.indices == (self.ring.zero_i,)

    @property
    def is_proper(self) -> bool:
        return len(self.indices) < self.ring.order

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


def additive_closure(ring: FiniteRing, mask: int) -> int:
    """Close a member mask under addition (finite, so also under negation)."""
    mask |= 1 << ring.zero_i
    closed = mask
    queue = list(indices_of(mask))
    add = ring.add_i
    while queue:
        x = queue.pop()
        for y in indices_of(closed):
            s = add(x, y)
            if not closed >> s & 1:
                closed |= 1 << s
                queue.append(s)
    return closed


def ideal_generated(ring: FiniteRing, gens: Iterable[ElemLike]) -> Ideal:
    """Least two-sided ideal containing the generators.

    Seeds with every product r*g*s and closes the seed under addition; the
    seed is already absorbed by multiplication on both sides, so the additive
    closure is the whole ideal.
    """
    gen_idx = tuple(sorted({ring.index_of(g) for g in gens}))
    seed = 1 << ring.zero_i
    n = ring.order
    mul = ring.mul_i
    for g in gen_idx:
        for r in range(n):
            rg = mul(r, g)
            for s in range(n):
                seed |= 1 << mul(rg, s)
    mask = additive_closure(ring, seed)
    return Ideal(ring, mask, generators=gen_idx)


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1 << ring.zero_i, generators=(), verify=False)


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(
        ring, (1 << ring.order) - 1, generators=(ring.one_i,), verify=False
    )


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """Setwise sum; the sum of two additive subgroups is already a subgroup."""
    ring = _require_same_ring(a, b)
    mask = _sum_masks(ring, a.mask, b.mask)
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = tuple(sorted(set(a.generators) | set(b.generators)))
    return Ideal(ring, mask, generators=gens, verify=False)


def _sum_masks(ring: FiniteRing, am: int, bm: int) -> int:
    add = ring.add_i
    out = 0
    for x in indices_of(am):
        for y in indices_of(bm):
            out |= 1 << add(x, y)
    return out


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Ideal generated by all pairwise products x*y with x in a, y in b."""
    ring = _require_same_ring(a, b)
    mul = ring.mul_i
    seed = 1 << ring.zero_i
    for x in a.indices:
        for y in b.indices:
            seed |= 1 << mul(x, y)
    # products of ideal members absorb ring multiplication on both sides
    # already, so the additive closure finishes the job
    return Ideal(ring, additive_closure(ring, seed), verify=False)


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    ring = _require_same_ring(a, b)
    return Ideal(ring, a.mask & b.mask, verify=False)


def all_ideals(ring: FiniteRing, cap: int = DEFAULT_IDEAL_CAP) -> List[Ideal]:
    """Every two-sided ideal, ordered by size then member tuple.

    Every ideal is a finite sum of principal ideals, so closing the set of
    principal ideals under "add one principal ideal" reaches all of them.
    """

    def fill():
        principal = {}
        for g in range(ring.order):
            ideal = ideal_generated(ring, [g])
            principal.setdefault(ideal.mask, ideal.generators)
        if len(principal) > cap:
            raise CapExceeded(f"{ring.spec}: more than {cap} ideals")
        pool = dict(principal)
        queue = list(principal)
        while queue:
            current = queue.pop()
            for pmask in principal:
                if pmask & ~current == 0:
                    continue
                union = _sum_masks(ring, current, pmask)
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


def is_nil_ideal(ideal: Ideal) -> bool:
    """True iff every member is nilpotent."""
    from .classify import nilpotency_index

    return all(nilpotency_index(ideal.ring, i) is not None for i in ideal.indices)


def image_ideal(projection, ideal: Ideal) -> Ideal:
    """Push an ideal through a quotient projection; re-verified as an ideal."""
    if ideal.ring is not projection.domain:
        raise ElementRingMismatch("ideal does not live in the projection's domain")
    mask = mask_of(projection.image_index(i) for i in ideal.indices)
    return Ideal(projection.codomain, mask)


def corner_ideal(ring: FiniteRing, e: ElemLike, ideal: Ideal) -> Ideal:
    """The set e*I*e inside the corner ring eRe, for a central idempotent e."""
    from .construct import make_corner

    if ideal.ring is not ring:
        raise ElementRingMismatch("ideal belongs to a different ring")
    corner, embedding = make_corner(ring, e)
    e_i = ring.index_of(e)
    members = set()
    for x in ideal.indices:
        exe = ring.mul_i(ring.mul_i(e_i, x), e_i)
        members.add(embedding.to_corner_index(exe))
    return Ideal(corner, mask_of(members))
