"""Finite unital rings with canonical element indexing.

Every ring maps its elements onto the indices ``0 .. order-1`` and stores
its addition and multiplication as whole Cayley tables, which the
constructors build row by row from tables that already exist.  A ring keeps
the tables it is given and never copies them; at order n they hold about
16*n^2 bytes.

A ring is immutable once built; the ``cached`` helper backs fill-once memo
slots (classifier sets, ideal lists) whose fills are pure and idempotent.

Questions quantified over all pairs or triples of elements are answered on
the additive basis of ``nilclean.ideals`` (k <= log2(order) elements whose
sums reach every element), because the maps involved are additive in each
argument: commutativity costs k^2 lookups, and the exhaustive axiom gate
certifies a ring in O(n^2 k) and falls back to the O(n^3) scan only to
name the violations of a table that is not a ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import BadParameter, ElementRingMismatch, ExhaustiveTooLarge

EXHAUSTIVE_LIMIT = 64


class Elem:
    """Handle on one element of one specific ring.

    Arithmetic operators work between elements of the same ring only;
    mixing rings raises :class:`ElementRingMismatch`.
    """

    __slots__ = ("ring", "index")

    def __init__(self, ring: "FiniteRing", index: int):
        self.ring = ring
        self.index = index

    def _peer(self, other: "Elem") -> int:
        if other.ring is not self.ring:
            raise ElementRingMismatch(
                f"element of {other.ring.spec} used in {self.ring.spec}"
            )
        return other.index

    def __eq__(self, other):
        return (
            isinstance(other, Elem)
            and other.ring is self.ring
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.ring), self.index))

    def __add__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.ring.elem(self.ring.add_i(self.index, self._peer(other)))

    def __sub__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.ring.elem(self.ring.sub_i(self.index, self._peer(other)))

    def __mul__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        return self.ring.elem(self.ring.mul_i(self.index, self._peer(other)))

    def __neg__(self):
        return self.ring.elem(self.ring.neg_i(self.index))

    def __pow__(self, k: int):
        return self.ring.elem(self.ring.pow_i(self.index, k))

    @property
    def label(self) -> str:
        return self.ring.label(self.index)

    def __repr__(self):
        return f"<{self.ring.spec} {self.label}>"


ElemLike = Union[Elem, int]


class FiniteRing:
    """A finite associative ring with unity, elements indexed 0..order-1.

    `add` and `mul` are Cayley tables, lists of rows taken as given and never
    copied; `neg` is the negation list, or None to scan the add table for
    inverses.
    """

    __slots__ = (
        "order",
        "spec",
        "structure",
        "zero_i",
        "one_i",
        "decode",
        "_add_rows",
        "_mul_rows",
        "_neg_list",
        "_labeler",
        "_elems",
        "_memo",
    )

    def __init__(
        self,
        order: int,
        zero: int,
        one: int,
        spec: str,
        structure: tuple,
        add: Sequence[Sequence[int]],
        mul: Sequence[Sequence[int]],
        neg: Optional[Sequence[int]] = None,
        decode: Optional[Callable[[int], object]] = None,
        labeler: Optional[Callable[[int], str]] = None,
    ):
        if order < 2:
            raise BadParameter(f"ring order must be at least 2, got {order}")
        if zero == one:
            raise BadParameter("zero and one coincide; the zero ring is rejected")
        self.order = order
        self.zero_i = zero
        self.one_i = one
        self.spec = spec
        self.structure = structure
        self.decode = decode if decode is not None else (lambda i: i)
        self._labeler = labeler
        self._elems: Optional[list] = None
        self._memo: dict = {}
        self._add_rows = add
        self._mul_rows = mul
        self._neg_list = neg if neg is not None else self._scan_negatives()

    def _scan_negatives(self) -> list:
        zero = self.zero_i
        out = []
        for row in self._add_rows:
            # a row without zero has no additive inverse; keep a placeholder so
            # verify_axioms can report the add_inverse violation instead of
            # crashing here
            out.append(row.index(zero) if zero in row else 0)
        return out

    # -- index-level arithmetic -------------------------------------------

    def add_i(self, i: int, j: int) -> int:
        return self._add_rows[i][j]

    def mul_i(self, i: int, j: int) -> int:
        return self._mul_rows[i][j]

    def neg_i(self, i: int) -> int:
        return self._neg_list[i]

    def sub_i(self, i: int, j: int) -> int:
        return self.add_i(i, self.neg_i(j))

    def pow_i(self, i: int, k: int) -> int:
        """k-th power by repeated squaring; pow(x, 0) is one for every x."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = self.one_i
        base = i
        while k:
            if k & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            k >>= 1
        return result

    # -- element-level API -------------------------------------------------

    def index_of(self, x: ElemLike) -> int:
        if isinstance(x, Elem):
            if x.ring is not self:
                raise ElementRingMismatch(
                    f"element of {x.ring.spec} used in {self.spec}"
                )
            return x.index
        i = int(x)
        if not 0 <= i < self.order:
            raise BadParameter(f"index {i} outside ring of order {self.order}")
        return i

    def elem(self, i: int) -> Elem:
        if not 0 <= i < self.order:
            raise BadParameter(f"index {i} outside ring of order {self.order}")
        elems = self._elems
        if elems is None:
            elems = [Elem(self, j) for j in range(self.order)]
            self._elems = elems
        return elems[i]

    def elements(self) -> Iterator[Elem]:
        return (self.elem(i) for i in range(self.order))

    @property
    def zero(self) -> Elem:
        return self.elem(self.zero_i)

    @property
    def one(self) -> Elem:
        return self.elem(self.one_i)

    def add(self, x: ElemLike, y: ElemLike) -> Elem:
        return self.elem(self.add_i(self.index_of(x), self.index_of(y)))

    def mul(self, x: ElemLike, y: ElemLike) -> Elem:
        return self.elem(self.mul_i(self.index_of(x), self.index_of(y)))

    def sub(self, x: ElemLike, y: ElemLike) -> Elem:
        return self.elem(self.sub_i(self.index_of(x), self.index_of(y)))

    def neg(self, x: ElemLike) -> Elem:
        return self.elem(self.neg_i(self.index_of(x)))

    def pow(self, x: ElemLike, k: int) -> Elem:
        return self.elem(self.pow_i(self.index_of(x), k))

    def label(self, x: ElemLike) -> str:
        i = self.index_of(x)
        return self._labeler(i) if self._labeler is not None else str(i)

    def cached(self, key, fill):
        """Fill-once memo slot for a pure fill."""
        memo = self._memo
        if key in memo:
            return memo[key]
        value = fill()
        memo[key] = value
        return value

    def add_row(self, i: int) -> list:
        return self._add_rows[i]

    def mul_row(self, i: int) -> list:
        return self._mul_rows[i]

    def __repr__(self):
        return f"<FiniteRing {self.spec} order={self.order}>"


def is_commutative(ring: FiniteRing) -> bool:
    """True iff xy = yx for every pair, memoized.

    (x, y) -> xy - yx is additive in each argument, so it vanishes
    everywhere iff it vanishes on pairs of additive basis elements: k^2
    lookups for a basis of k <= log2(order) elements, against n^2/2 for a
    scan of all pairs.
    """
    from .ideals import additive_basis

    def fill() -> bool:
        basis = additive_basis(ring)
        mul = ring.mul_i
        return all(mul(a, b) == mul(b, a) for a in basis for b in basis)

    return ring.cached("commutative", fill)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class AxiomReport:
    ring_spec: str
    mode: str
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"{self.ring_spec}: all axioms hold ({self.mode}, {self.checked} triples)"
        parts = ", ".join(f"{v.axiom} at {v.witness}" for v in self.violations)
        return f"{self.ring_spec}: {parts}"

    def to_json(self) -> dict:
        return {
            "ring": self.ring_spec,
            "mode": self.mode,
            "checked": self.checked,
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)} for v in self.violations
            ],
        }


def _exhaustive_axioms(ring: FiniteRing) -> list:
    n = ring.order
    add = [ring.add_row(i) for i in range(n)]
    mul = [ring.mul_row(i) for i in range(n)]
    zero, one = ring.zero_i, ring.one_i
    found: dict = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = AxiomViolation(axiom, witness)

    rng_n = range(n)
    for i in rng_n:
        if add[i][zero] != i:
            record("add_zero", (i,))
        if add[i][ring.neg_i(i)] != zero:
            record("add_inverse", (i,))
        if mul[i][one] != i or mul[one][i] != i:
            record("mul_one", (i,))
    for i in rng_n:
        row = add[i]
        for j in rng_n:
            if row[j] != add[j][i]:
                record("add_comm", (i, j))
                break
        else:
            continue
        break

    # Triple axioms compared row-by-row: for fixed (i, j) the k-indexed rows
    # of both sides are built and compared wholesale, then rescanned for the
    # witness k only on mismatch.
    mul_col = [[mul[x][i] for x in rng_n] for i in rng_n]
    for i in rng_n:
        ai, mi = add[i], mul[i]
        coli = mul_col[i]
        for j in rng_n:
            aj = add[j]
            aij, mij = ai[j], mi[j]
            if "add_assoc" not in found:
                lhs = add[aij]
                rhs = [ai[aj[k]] for k in rng_n]
                if lhs != rhs:
                    k = next(k for k in rng_n if lhs[k] != rhs[k])
                    record("add_assoc", (i, j, k))
            if "mul_assoc" not in found:
                lhs = mul[mij]
                rhs = [mi[mul[j][k]] for k in rng_n]
                if lhs != rhs:
                    k = next(k for k in rng_n if lhs[k] != rhs[k])
                    record("mul_assoc", (i, j, k))
            if "left_distrib" not in found:
                lhs = [mi[aj[k]] for k in rng_n]
                add_mij = add[mij]
                rhs = [add_mij[mi[k]] for k in rng_n]
                if lhs != rhs:
                    k = next(k for k in rng_n if lhs[k] != rhs[k])
                    record("left_distrib", (i, j, k))
            if "right_distrib" not in found:
                lhs = [coli[aj[k]] for k in rng_n]
                add_mji = add[mul[j][i]]
                rhs = [add_mji[coli[k]] for k in rng_n]
                if lhs != rhs:
                    k = next(k for k in rng_n if lhs[k] != rhs[k])
                    record("right_distrib", (j, k, i))
    return list(found.values())


def _certified(ring: FiniteRing) -> bool:
    """True when the tables provably satisfy every ring axiom.

    False only means "not certified": the exhaustive scan then decides and
    names the violations.  B is the additive basis, k = |B| <= log2(n).

    1. O(n): x + 0 = x, x + (-x) = 0, 1x = x1 = x and 0x = x0 = 0.
    2. O(n^2): the add table equals its transpose.
    3. Every element is kept in B or reached by the basis span as b + w,
       b in B, w reached before (``ideals._span``, given x + 0 = x).  A B
       longer than (n-1).bit_length() is no group's and is left to the scan.
    4. O(n^2 k): for b in B and all x, y: (x+y)+b = x+(y+b), y(x+b) =
       yx + yb and (x+b)y = xy + by, compared as whole rows and columns.
    5. O(k^3): (ab)c = a(bc) for a, b, c in B.

    Each law then holds on all of R by induction along the span.  Additive
    associativity in z: (x+y)+(w+b) = ((x+y)+w)+b = (x+(y+w))+b =
    x+((y+w)+b) = x+(y+(w+b)); so + is an abelian group.  Distributivity in
    the added term likewise, from 0y = 0 = y0 at z = 0.  Then (x, y, z) ->
    (xy)z - x(yz) is additive in each argument and vanishes on B^3, so it
    vanishes on R^3.
    """
    from .ideals import additive_basis

    n = ring.order
    ids = list(range(n))
    add = [ring.add_row(i) for i in ids]
    mul = [ring.mul_row(i) for i in ids]
    zero, one = ring.zero_i, ring.one_i
    zeros = [zero] * n
    if (
        [row[zero] for row in add] != ids
        or any(add[i][ring.neg_i(i)] != zero for i in ids)
        or mul[one] != ids
        or [row[one] for row in mul] != ids
        or mul[zero] != zeros
        or [row[zero] for row in mul] != zeros
    ):
        return False
    if [list(col) for col in zip(*add)] != add:
        return False
    basis = additive_basis(ring)
    if len(basis) > (n - 1).bit_length():
        return False
    # each row x -> yx and each column x -> xy of the mul table
    lines = mul + [list(col) for col in zip(*mul)]
    for b in basis:
        ab = add[b]
        for ax in add:
            # translation by b commutes with every translation
            if [ab[v] for v in ax] != [ax[v] for v in ab]:
                return False
        for line in lines:
            # line(x + b) = line(x) + line(b)
            shift = add[line[b]]
            if [line[v] for v in ab] != [shift[v] for v in line]:
                return False
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in basis
        for b in basis
        for c in basis
    )


def _sampled_axioms(ring: FiniteRing, count: int) -> list:
    n = ring.order
    add, mul = ring.add_i, ring.mul_i
    zero, one = ring.zero_i, ring.one_i
    rng = random.Random(f"axioms:{ring.spec}:{count}")
    found: dict = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = AxiomViolation(axiom, witness)

    for _ in range(count):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if add(add(i, j), k) != add(i, add(j, k)):
            record("add_assoc", (i, j, k))
        if add(i, j) != add(j, i):
            record("add_comm", (i, j))
        if add(i, zero) != i:
            record("add_zero", (i,))
        if add(i, ring.neg_i(i)) != zero:
            record("add_inverse", (i,))
        if mul(mul(i, j), k) != mul(i, mul(j, k)):
            record("mul_assoc", (i, j, k))
        if mul(i, one) != i or mul(one, i) != i:
            record("mul_one", (i,))
        if mul(i, add(j, k)) != add(mul(i, j), mul(i, k)):
            record("left_distrib", (i, j, k))
        if mul(add(i, j), k) != add(mul(i, k), mul(j, k)):
            record("right_distrib", (i, j, k))
    return list(found.values())


def verify_axioms(ring: FiniteRing, mode: str = "exhaustive", count: int = 100_000) -> AxiomReport:
    """Check the ring axioms either on all triples or on sampled ones.

    Exhaustive mode is only permitted up to order :data:`EXHAUSTIVE_LIMIT`.
    It decides every triple: a ring is certified from its additive basis in
    O(n^2 log n) (see ``_certified``: each law checked against the basis
    extends to all elements by induction on sums), and only a table that
    fails the certificate is scanned over all n^3 triples, which names the
    first witness of each violated axiom.  Sampled mode draws `count`
    triples from a deterministic generator so the report is reproducible
    run to run.
    """
    if mode == "exhaustive":
        if ring.order > EXHAUSTIVE_LIMIT:
            raise ExhaustiveTooLarge(
                f"exhaustive verification capped at order {EXHAUSTIVE_LIMIT}, "
                f"got {ring.order}"
            )
        violations = [] if _certified(ring) else _exhaustive_axioms(ring)
        checked = ring.order ** 3
    elif mode == "sampled":
        violations = _sampled_axioms(ring, count)
        checked = count
    else:
        raise BadParameter(f"unknown verification mode {mode!r}")
    violations.sort(key=lambda v: v.axiom)
    return AxiomReport(ring.spec, mode, checked, tuple(violations))
