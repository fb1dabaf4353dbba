"""Finite unital rings with canonical element indexing.

Every ring maps its elements onto the indices ``0 .. order-1`` and stores
its addition and multiplication as Cayley tables, lists of rows, which the
constructors build row by row from tables that already exist.  A ring keeps
the tables it is given and never copies them; at order n they hold about
16*n^2 bytes once every row is built.  A row may be a :class:`LazyRow`
placeholder that builds the row on first read and puts it in its place, so
a ring asked about a few elements builds only their rows; ``add_row`` and
``mul_row`` always return built rows.

A ring is immutable once built; the ``cached`` helper backs fill-once memo
slots (classifier sets, ideal lists) whose fills are pure and idempotent.

Questions quantified over all pairs or triples of elements are answered on
the additive basis of ``nilclean.ideals`` (k <= log2(order) elements whose
sums reach every element), because the maps involved are additive in each
argument: commutativity costs k^2 lookups, and the axiom gate certifies a
ring at any order in O(n^2 k), from one row-sized gather per row and basis
element for each of additive associativity and left distributivity.  The
O(n^3) scan runs only up to order 64, to name the violations of a table
the certificate refutes; above that the certificate's own witness is the
report.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from operator import getitem, itemgetter
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


class _Table(list):
    """A table of rows that its placeholders can refer to weakly."""

    __slots__ = ("__weakref__",)


class LazyRow:
    """Placeholder for row `i` of the table `rows`, built by ``build(i)``.

    The first index builds the row, writes the list over this placeholder
    in `rows` and drops the references to `rows` and `build`, so a table
    whose rows have all been read holds only lists and nothing that the
    builder keeps alive.  Only the table holds a placeholder, so each is
    read once: later reads of ``rows[i][j]`` hit the list directly.  The
    placeholder refers to its table weakly, so a table dropped with rows
    unbuilt is freed, with its builder, when its last reference goes and
    not only by the cyclic garbage collector.
    """

    __slots__ = ("rows", "i", "build")

    def __init__(self, rows: _Table, i: int, build: Callable[[int], list]):
        self.rows = weakref.ref(rows)
        self.i = i
        self.build = build

    @classmethod
    def table(cls, n: int, build: Callable[[int], list]) -> list:
        """A table of n unbuilt rows, row i to be built by ``build(i)``."""
        rows = _Table()
        rows.extend(cls(rows, i, build) for i in range(n))
        return rows

    def built(self) -> list:
        row = self.rows()[self.i] = self.build(self.i)
        self.rows = self.build = None
        return row

    def __getitem__(self, j):
        return self.built()[j]


class FiniteRing:
    """A finite associative ring with unity, elements indexed 0..order-1.

    `add` and `mul` are Cayley tables, lists of rows taken as given and never
    copied, whose rows may be :class:`LazyRow` placeholders built on first
    read; `neg` is the negation list, or None to scan the add table for
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
        for row in map(self.add_row, range(self.order)):
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
        """Row i of the addition table, built if it was not yet."""
        row = self._add_rows[i]
        return row.built() if type(row) is LazyRow else row

    def mul_row(self, i: int) -> list:
        """Row i of the multiplication table, built if it was not yet."""
        row = self._mul_rows[i]
        return row.built() if type(row) is LazyRow else row

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


def _first_miss(got, want) -> int:
    """The first index at which two sequences of one length differ, given
    that they do."""
    return next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)


def _certified(ring: FiniteRing) -> Optional[AxiomViolation]:
    """None when the tables provably satisfy every ring axiom, else the first
    law found broken, with a witness that breaks it.

    Each witness is in the order ``_exhaustive_axioms`` gives for its law.
    B is the additive basis (``ideals.additive_basis``) in the order it was
    kept, k = |B|.  Rows are compared whole, each gathered through one
    ``itemgetter`` per basis translation or per row; entries are read one by
    one only to name the witness in a row that differs.

    1. O(n): x + 0 = x, 0 + x = x (else ``add_comm`` at (0, x)),
       x + (-x) = 0 and 1x = x1 = x.
    2. O(n^2 k): middle associativity, x + (b + v) = (x + b) + v for b in B
       and all x, v: row x gathered through row b is row x + b.
    3. O(nk): commutativity from B, b + x = x + b: column b is row b.
       Steps 2 and 3 take the generators one at a time, in order.
    4. O(n^2 k): left distributivity, y(b + x) = yb + yx for every row y
       and b in B.
    5. O(n k^2): right distributivity on basis columns, (x + b)c = xc + bc
       for b, c in B and all x.
    6. O(k^3): (ab)c = a(bc) for a, b, c in B.

    Each law then holds on all of R by induction: ``_span`` lists every
    element as a sum of kept generators, so a set holding B that is closed
    under + is R.

    Addition.  Write L_a(v) = a + v.  The g with x + (g + v) = (x + g) + v
    for all x, v, that is L_x L_g = L_(x+g), hold 0 (step 1) and are closed
    under +: L_x L_(u+w) = L_x L_u L_w = L_(x+u) L_w = L_((x+u)+w), which
    at 0 says (x+u)+w = x+(u+w), so L_x L_(u+w) = L_(x+(u+w)).  Step 2 puts
    B among them, so + is associative, and with 0 and the negatives of step
    1, (R, +) is a group.  The elements commuting with every x hold 0 and B
    (step 3) and are closed under +, so the group is abelian.

    Bounded work on a table that is no group.  Let L = (n-1).bit_length().
    If steps 2 and 3 held at the first L kept generators, the g above
    would form a group G: each g has a multiple e = qg with e + e = e, and
    e = e + (e + (-e)) = (e + e) + (-e) = 0, so (q-1)g is its inverse.
    Each generator commutes with all of G, and the span listed before it is
    a subgroup, so ``_span`` lists the subgroup the two generate, at least
    twice the elements, without repeats.  After L generators that is at
    least 2^L >= n elements, all of R, and no further generator is kept.
    So steps 2 and 3 refute a table that is no abelian group within its
    first L generators, in O(n^2 log n) work.

    Multiplication.  The w with y(w + x) = yw + yx for all x, y hold B
    (step 4) and are closed under +: y((u+w)+x) = yu + (yw + yx) =
    y(u+w) + yx.  So left distributivity holds on R, and with it y0 = 0.
    Each z -> az is then additive, hence so is z -> (x+w)z - xz - wz; it
    vanishes on R once it vanishes on B, so step 5 gives (x + b)z = xz + bz
    for b in B and every z, and the w with (x + w)z = xz + wz for all x, z
    are closed under + as above; with 0x = (0 + 0)x = 0x + 0x, 0x = 0.  Both
    laws make (x, y, z) -> (xy)z - x(yz) additive in each argument, and it
    vanishes on B^3 (step 6), so on R^3.
    """
    from .ideals import additive_basis

    n = ring.order
    ids = list(range(n))
    add = list(map(ring.add_row, ids))
    mul = list(map(ring.mul_row, ids))
    zero, one = ring.zero_i, ring.one_i

    col = list(map(itemgetter(zero), add))
    if col != ids:
        return AxiomViolation("add_zero", (_first_miss(col, ids),))
    if add[zero] != ids:
        return AxiomViolation("add_comm", (zero, _first_miss(add[zero], ids)))
    sums, zeros = list(map(getitem, add, map(ring.neg_i, ids))), [zero] * n
    if sums != zeros:
        return AxiomViolation("add_inverse", (_first_miss(sums, zeros),))
    col = list(map(itemgetter(one), mul))
    if col != ids or mul[one] != ids:
        x = next(x for x in ids if col[x] != x or mul[one][x] != x)
        return AxiomViolation("mul_one", (x,))

    basis = additive_basis(ring)
    # through[b] gathers a row at b + v for every v: row x of add becomes
    # v -> x + (b + v), row y of mul becomes x -> y(b + x)
    through = []
    for b in basis:
        thru = itemgetter(*add[b])
        through.append(thru)
        col = list(map(itemgetter(b), add))
        for x, row in enumerate(add):
            got, want = thru(row), add[col[x]]
            if got != tuple(want):
                return AxiomViolation("add_assoc", (x, b, _first_miss(got, want)))
        if col != add[b]:
            return AxiomViolation("add_comm", (b, _first_miss(add[b], col)))

    for y, row in enumerate(mul):
        by_row = itemgetter(*row)  # a row s -> (s[yx] for every x)
        for b, thru in zip(basis, through):
            got, want = thru(row), by_row(add[row[b]])
            if got != want:
                return AxiomViolation("left_distrib", (y, b, _first_miss(got, want)))
    for c in basis:
        col = list(map(itemgetter(c), mul))
        by_col = itemgetter(*col)  # a row s -> (s[xc] for every x)
        for b, thru in zip(basis, through):
            # (x + b)c and, + being commutative, bc + xc for every x
            got, want = thru(col), by_col(add[mul[b][c]])
            if got != want:
                return AxiomViolation("right_distrib", (_first_miss(got, want), b, c))
    for a in basis:
        for b in basis:
            ab, row = mul[a][b], mul[a]
            for c in basis:
                if mul[ab][c] != row[mul[b][c]]:
                    return AxiomViolation("mul_assoc", (a, b, c))
    return None


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
    """Check the ring axioms on every triple, or on sampled ones.

    ``"certified"`` decides every triple at any order.  A ring is certified
    from its additive basis in O(n^2 log n) (``_certified``: each law
    checked against the basis extends to all elements by induction on
    sums).  A table the certificate refutes is scanned over all n^3 triples
    up to order :data:`EXHAUSTIVE_LIMIT`, which names the first witness of
    each violated axiom; above it, the certificate's violation, one law
    with a witness that breaks it, is the report.  ``"exhaustive"`` is the
    same below the limit and refuses a larger ring.  ``"sampled"`` draws
    `count` triples from a deterministic generator so the report is
    reproducible run to run.
    """
    if mode in ("exhaustive", "certified"):
        small = ring.order <= EXHAUSTIVE_LIMIT
        if mode == "exhaustive" and not small:
            raise ExhaustiveTooLarge(
                f"exhaustive verification capped at order {EXHAUSTIVE_LIMIT}, "
                f"got {ring.order}"
            )
        refuted = _certified(ring)
        if refuted is None:
            violations = []
        else:
            violations = _exhaustive_axioms(ring) if small else [refuted]
        checked = ring.order ** 3
    elif mode == "sampled":
        violations = _sampled_axioms(ring, count)
        checked = count
    else:
        raise BadParameter(f"unknown verification mode {mode!r}")
    violations.sort(key=lambda v: v.axiom)
    return AxiomReport(ring.spec, mode, checked, tuple(violations))
