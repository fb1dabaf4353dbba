"""Ring constructors and the ring-spec mini-language.

Grammar (whitespace-insensitive)::

    spec    := atom ('x' atom)*          -- product of the atoms
    atom    := 'Z' int                   -- integers modulo n
             | 'T' int '(' spec ')'      -- upper-triangular matrices, n in {2,3}
             | 'Id' '(' int ',' int ')'  -- idealization of Z_n by Z_m, m | n
             | 'MZ' '(' int ',' int ',' int ')'
                                         -- zero-pairing context ring over
                                            Z_a, Z_b with both strips Z_g
             | 'Q' '(' spec ';' '[' ints ']' ')'
                                         -- quotient by the ideal the listed
                                            element indices generate
             | 'C' '(' spec ';' int ')'  -- corner cut at a central idempotent

Every constructor fixes a bijection between its structured elements and the
indices ``0..order-1`` (mixed radix, first coordinate most significant), so
membership sets and tables stay uniform across families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import gcd, prod
from operator import itemgetter
from typing import Tuple, Union

from .errors import (
    BadParameter,
    NotCentralIdempotent,
    OrderCapExceeded,
    ParseError,
)
from .ring import Elem, FiniteRing, LazyRow

DEFAULT_ORDER_CAP = 4096
DEFAULT_IDEAL_CAP = 512
# deepest nesting of T(...), Q(...) and C(...) a spec may have; deeper text
# is refused before the recursive parser can exhaust the interpreter stack
MAX_SPEC_DEPTH = 256

TRI_POSITIONS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}


@dataclass(frozen=True)
class Caps:
    """Enumeration limits shared by constructors, ideal listing, and the CLI.

    An `order_cap` above DEFAULT_ORDER_CAP does not raise the order limit.
    """

    order_cap: int = DEFAULT_ORDER_CAP
    ideal_cap: int = DEFAULT_IDEAL_CAP


# --------------------------------------------------------------------------
# spec abstract syntax


@dataclass(frozen=True)
class Zmod:
    n: int

    def __str__(self):
        return f"Z{self.n}"


@dataclass(frozen=True)
class Product:
    parts: Tuple["RingSpec", ...]

    def __str__(self):
        return "x".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Tri:
    n: int
    base: "RingSpec"

    def __str__(self):
        return f"T{self.n}({self.base})"


@dataclass(frozen=True)
class Idealization:
    n: int
    m: int

    def __str__(self):
        return f"Id({self.n},{self.m})"


@dataclass(frozen=True)
class MoritaZero:
    a: int
    b: int
    g: int

    def __str__(self):
        return f"MZ({self.a},{self.b},{self.g})"


@dataclass(frozen=True)
class Quotient:
    base: "RingSpec"
    gens: Tuple[int, ...]

    def __str__(self):
        return f"Q({self.base};[{','.join(str(g) for g in self.gens)}])"


@dataclass(frozen=True)
class Corner:
    base: "RingSpec"
    e: int

    def __str__(self):
        return f"C({self.base};{self.e})"


RingSpec = Union[Zmod, Product, Tri, Idealization, MoritaZero, Quotient, Corner]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's int-from-text digit limit
            self.error("integer too long")

    def nested(self) -> RingSpec:
        """A spec inside T(...), Q(...) or C(...), at most MAX_SPEC_DEPTH deep."""
        self.depth += 1
        if self.depth > MAX_SPEC_DEPTH:
            self.error(f"ring spec nested deeper than {MAX_SPEC_DEPTH}")
        spec = self.spec()
        self.depth -= 1
        return spec

    def spec(self) -> RingSpec:
        parts = [self.atom()]
        while self.peek() == "x":
            self.take("x")
            parts.append(self.atom())
        if len(parts) == 1:
            return parts[0]
        flat: list = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Product) else [p])
        return Product(tuple(flat))

    def atom(self) -> RingSpec:
        self.skip_ws()
        rest = self.text[self.pos :]
        if rest.startswith("Id"):
            self.take("Id")
            self.take("(")
            n = self.integer()
            self.take(",")
            m = self.integer()
            self.take(")")
            return Idealization(n, m)
        if rest.startswith("MZ"):
            self.take("MZ")
            self.take("(")
            a = self.integer()
            self.take(",")
            b = self.integer()
            self.take(",")
            g = self.integer()
            self.take(")")
            return MoritaZero(a, b, g)
        if rest.startswith("Q"):
            self.take("Q")
            self.take("(")
            base = self.nested()
            self.take(";")
            self.take("[")
            gens = []
            if self.peek() != "]":
                gens.append(self.integer())
                while self.peek() == ",":
                    self.take(",")
                    gens.append(self.integer())
            self.take("]")
            self.take(")")
            return Quotient(base, tuple(gens))
        if rest.startswith("C"):
            self.take("C")
            self.take("(")
            base = self.nested()
            self.take(";")
            e = self.integer()
            self.take(")")
            return Corner(base, e)
        if rest.startswith("T"):
            self.take("T")
            n = self.integer()
            self.take("(")
            base = self.nested()
            self.take(")")
            return Tri(n, base)
        if rest.startswith("Z"):
            self.take("Z")
            return Zmod(self.integer())
        self.error("expected a ring spec")


def parse_ring_spec(text: str) -> RingSpec:
    """Parse the mini-language; raises ParseError with the failing position."""
    parser = _Parser(text)
    spec = parser.spec()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after spec")
    return spec


# --------------------------------------------------------------------------
# table builders
#
# Z_n rows are cut from stepped slices on their first read (``LazyRow``);
# every other constructor builds whole tables from tables that already
# exist.  Products and the additive groups of T_n, Id and MZ are
# componentwise, one comprehension step per entry.  The multiplication of
# T_n, Id and MZ is spanned from the products of additive generators, with
# no Python work per entry (``_bilinear_rows``).  Quotients and corners are
# induced from the parent's rows.  Entries are entries of other tables or
# looked up in one shared ``ints = list(range(order))``, so equal entries
# share one int object.


def _strides(orders) -> list:
    """Mixed-radix place values, first coordinate most significant."""
    out, acc = [], 1
    for o in reversed(orders):
        out.append(acc)
        acc *= o
    out.reverse()
    return out


def _radix_sum(vectors, ints) -> list:
    """Every sum of one entry per vector, first vector most significant.

    With vectors already scaled by their strides this is the mixed-radix
    combination: entry ``(d_1, .., d_k)`` is ``vectors[0][d_1] + .. +
    vectors[k-1][d_k]``.
    """
    acc = [0]
    for vec in vectors[:-1]:
        acc = [a + v for a in acc for v in vec]
    last = vectors[-1]
    return [ints[a + v] for a in acc for v in last]


def _componentwise_rows(tables, ints) -> list:
    """Rows of the componentwise operation on tuples, one table per slot."""
    strides = _strides([len(t) for t in tables])
    # the last slot has stride 1, so its table is used as it is
    scaled = [[[s * v for v in row] for row in t] for t, s in zip(tables[:-1], strides)]
    return [_radix_sum(rows, ints) for rows in itertools.product(*scaled, tables[-1])]


def _componentwise_list(vectors, ints) -> list:
    """The componentwise unary map on tuples, one vector per slot."""
    strides = _strides([len(v) for v in vectors])
    return _radix_sum([[s * x for x in v] for v, s in zip(vectors, strides)], ints)


def _bilinear_rows(add: list, zero: int, product) -> list:
    """Multiplication rows of the ring with add rows `add`, zero `zero` and
    product ``product(x, y)``.

    In a ring x -> xg and y -> xy are additive, so every column and row is
    fixed by its values on additive generators, and `product` is called only
    on pairs of the k <= log2(n) generators that ``ideals._span`` keeps.
    Each column x -> xg is listed along that span from the products a*g,
    then each row y -> xy from its values x*g read off the columns: one
    ``map`` over an add row per block of cosets (``ideals._cosets``).
    """
    from .ideals import _cosets, _span

    n = len(add)
    _, listed, gens = _span(add.__getitem__, n, (zero,), range(n))
    # generator g opens the cosets of the span listed before it
    sizes = [listed.index(g) for g in gens] + [n]
    counts = [b // a for a, b in zip(sizes, sizes[1:])]

    def along_span(values) -> list:
        out = [zero]
        for v, m in zip(values, counts):
            _cosets(add.__getitem__, out, v, m)
        return out

    cols = [along_span([product(a, g) for a in gens]) for g in gens]
    # reads a row listed along the span in index order, unless they agree
    at = None
    if listed != sorted(listed):
        at = itemgetter(*sorted(range(n), key=listed.__getitem__))
    rows = [None] * n
    # listed from the end, so the columns shrink as the table grows
    while listed:
        row = along_span([col.pop() for col in cols])
        # copied out at exact length, as a grown list keeps spare slots
        rows[listed.pop()] = row[:] if at is None else list(at(row))
    return rows


def _zmod_add_row(n: int):
    """Builder of Z_n addition rows: row i is r rotated left by i, one slice
    of r twice over."""
    r = list(range(n))
    rr = r + r
    return lambda i: rr[i : i + n]


def _zmod_add_rows(n: int) -> list:
    return list(map(_zmod_add_row(n), range(n)))


def _zmod_mul_row(n: int):
    """Builder of Z_n multiplication rows, i*j mod n cut from stepped slices
    of one repeated residue list.

    With r = [0, 1, ..., n-1] and s = r * repeat, s[t] == t % n for every
    t < repeat*n: t = k*n + (t % n) with k < repeat, and copy k of r sits at
    offsets k*n .. k*n + n-1.  Row i (i >= 1) is taken in runs of per =
    min(n, (repeat-1)*n // i + 1) entries.  The run from entry q on reads s
    at t = start + i*d, d < per, with start = i*q % n; then t <= n-1 +
    (repeat-1)*n < repeat*n, so s[t] == t % n == i*(q + d) % n, and the run
    is the slice ``s[start : start + i*per : i]``, cut short at the end of
    the row.  Row i takes about i/repeat slices plus n pointer copies, with
    no Python work per entry, and every entry is an int object of r.  The
    runs are assigned into a row allocated at full length, which holds no
    spare slots as a list grown by appending would.
    """
    repeat = 64  # s holds 64*n pointers while the builder lives
    r = list(range(n))
    s = r * repeat

    def build(i: int) -> list:
        row = r[:1] * n
        if i:
            per = min(n, (repeat - 1) * n // i + 1)
            for q in range(0, n, per):
                start = i * q % n
                row[q : q + per] = s[start : start + i * min(per, n - q) : i]
        return row

    return build


def _zmod_neg(n: int) -> list:
    r = list(range(n))
    return r[:1] + r[:0:-1]


def _table_rows(ring: FiniteRing) -> tuple:
    """(add rows, mul rows, negation list) of a ring."""
    n = ring.order
    return (
        [ring.add_row(i) for i in range(n)],
        [ring.mul_row(i) for i in range(n)],
        [ring.neg_i(i) for i in range(n)],
    )


def _induced_tables(ring: FiniteRing, elems, index) -> tuple:
    """Tables on `elems` (coset representatives or corner members) whose entry
    for (i, j) is ``index[elems[i] op elems[j]]``, from the parent's rows."""
    add = [[index[row[y]] for y in elems] for row in map(ring.add_row, elems)]
    mul = [[index[row[y]] for y in elems] for row in map(ring.mul_row, elems)]
    neg = [index[ring.neg_i(x)] for x in elems]
    return add, mul, neg


# --------------------------------------------------------------------------
# constructors


def _check_order(order: int, cap: int, name: str) -> None:
    """Refuse an order above `cap` before any table is allocated.

    Tables at order n hold about 16*n^2 bytes, so no cap lifts the limit
    above DEFAULT_ORDER_CAP.
    """
    limit = min(cap, DEFAULT_ORDER_CAP)
    if order > limit:
        raise OrderCapExceeded(f"{name} has order above cap {limit}")


def make_zmod(n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """The ring of integers modulo n; index i is the residue i.

    Each table row is built on its first read (``LazyRow``), so a ring asked
    about a few elements, such as the nilpotency index of 2 in Z1024,
    builds only their rows.
    """
    if n < 2:
        raise BadParameter(f"modulus must be at least 2, got {n}")
    _check_order(n, cap, f"Z{n}")
    return FiniteRing(
        order=n,
        zero=0,
        one=1,
        spec=f"Z{n}",
        structure=("zmod", n),
        add=LazyRow.table(n, _zmod_add_row(n)),
        mul=LazyRow.table(n, _zmod_mul_row(n)),
        neg=_zmod_neg(n),
    )


def make_product(parts, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Componentwise product; index = mixed radix over the part orders."""
    parts = tuple(parts)
    if not parts:
        raise BadParameter("a product needs at least one part")
    spec = "x".join(p.spec for p in parts)
    order = prod(p.order for p in parts)
    _check_order(order, cap, spec)
    strides = _strides([p.order for p in parts])

    def decode(i: int) -> tuple:
        out = []
        for p, s in zip(parts, strides):
            out.append((i // s) % p.order)
        return tuple(out)

    def encode(tup) -> int:
        return sum(t * s for t, s in zip(tup, strides))

    def labeler(i):
        return "(" + ",".join(p.label(a) for p, a in zip(parts, decode(i))) + ")"

    ints = list(range(order))
    adds, muls, negs = zip(*map(_table_rows, parts))
    return FiniteRing(
        order=order,
        zero=encode(tuple(p.zero_i for p in parts)),
        one=encode(tuple(p.one_i for p in parts)),
        spec=spec,
        structure=("product", parts),
        add=_componentwise_rows(adds, ints),
        mul=_componentwise_rows(muls, ints),
        neg=_componentwise_list(negs, ints),
        decode=decode,
        labeler=labeler,
    )


def make_upper_triangular(base: FiniteRing, n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """n-by-n upper-triangular matrices over `base`, n in {2, 3}.

    Entries are stored row-major over the upper triangle, first entry most
    significant in the index encoding.
    """
    if n not in TRI_POSITIONS:
        raise BadParameter(f"triangular size must be 2 or 3, got {n}")
    positions = TRI_POSITIONS[n]
    k = len(positions)
    order = base.order ** k
    spec = f"T{n}({base.spec})"
    _check_order(order, cap, spec)
    pos_index = {pos: t for t, pos in enumerate(positions)}
    b = base.order

    def decode(i: int) -> tuple:
        out = []
        for t in range(k - 1, -1, -1):
            out.append(i % b)
            i //= b
        out.reverse()
        return tuple(out)

    def encode(entries) -> int:
        i = 0
        for e in entries:
            i = i * b + e
        return i

    ints = list(range(order))
    base_add, _, base_neg = _table_rows(base)
    one_entries = [base.one_i if r == c else base.zero_i for (r, c) in positions]

    def product(i: int, j: int) -> int:
        x, y = dict(zip(positions, decode(i))), dict(zip(positions, decode(j)))
        return encode(
            reduce(base.add_i, [base.mul_i(x[r, t], y[t, c]) for t in range(r, c + 1)])
            for r, c in positions
        )

    def labeler(i):
        entries = decode(i)
        rows = []
        for r in range(n):
            cells = []
            for c in range(n):
                if c < r:
                    cells.append(base.label(base.zero_i))
                else:
                    cells.append(base.label(entries[pos_index[(r, c)]]))
            rows.append(" ".join(cells))
        return "[" + "; ".join(rows) + "]"

    add = _componentwise_rows([base_add] * k, ints)
    return FiniteRing(
        order=order,
        zero=0,
        one=encode(one_entries),
        spec=spec,
        structure=("tri", n, base),
        add=add,
        mul=_bilinear_rows(add, 0, product),
        neg=_componentwise_list([base_neg] * k, ints),
        decode=decode,
        labeler=labeler,
    )


def make_idealization(n: int, m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Ring on Z_n x Z_m with (r,v)(r',v') = (rr', rv' + r'v); needs m | n.

    Index encoding: (r, v) -> r*m + v.
    """
    if n < 2:
        raise BadParameter(f"base modulus must be at least 2, got {n}")
    if m < 1 or n % m != 0:
        raise BadParameter(f"module modulus must divide {n}, got {m}")
    order = n * m
    spec = f"Id({n},{m})"
    _check_order(order, cap, spec)

    def product(i: int, j: int) -> int:
        (r, v), (s, w) = divmod(i, m), divmod(j, m)
        return (r * s) % n * m + (r * w + s * v) % m

    ints = list(range(order))
    add = _componentwise_rows([_zmod_add_rows(n), _zmod_add_rows(m)], ints)
    return FiniteRing(
        order=order,
        zero=0,
        one=1 * m + 0,
        spec=spec,
        structure=("idealization", n, m),
        add=add,
        mul=_bilinear_rows(add, 0, product),
        neg=_componentwise_list([_zmod_neg(n), _zmod_neg(m)], ints),
        decode=lambda i: (i // m, i % m),
        labeler=lambda i: f"({i // m},{i % m})",
    )


def make_morita_zero(a: int, b: int, g: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Formal 2x2 matrices [r n; m s] over (Z_a, Z_b) with both strips Z_g.

    Both cross pairings are identically zero, so the diagonal of a product
    never sees the strips.  Requires g | gcd(a, b) so that both diagonal
    rings act on the strips by multiplication mod g.  Index encoding:
    (r, s, m, n) -> ((r*b + s)*g + m)*g + n.
    """
    if a < 2 or b < 2:
        raise BadParameter("diagonal moduli must be at least 2")
    if g < 1 or gcd(a, b) % g != 0:
        raise BadParameter(f"strip modulus {g} must divide gcd({a},{b})")
    order = a * b * g * g
    spec = f"MZ({a},{b},{g})"
    _check_order(order, cap, spec)

    def decode(i: int) -> tuple:
        i, nn = divmod(i, g)
        i, mm = divmod(i, g)
        r, s = divmod(i, b)
        return (r, s, mm, nn)

    def encode(r, s, mm, nn) -> int:
        return ((r * b + s) * g + mm) * g + nn

    def product(i: int, j: int) -> int:
        (r1, s1, m1, n1), (r2, s2, m2, n2) = decode(i), decode(j)
        # both cross pairings vanish: the diagonal never sees the strips
        return encode(
            (r1 * r2) % a, (s1 * s2) % b, (m1 * r2 + s1 * m2) % g, (r1 * n2 + n1 * s2) % g
        )

    ints = list(range(order))
    slots = (a, b, g, g)
    add = _componentwise_rows([_zmod_add_rows(q) for q in slots], ints)

    def labeler(i):
        r, s, mm, nn = decode(i)
        return f"[{r} {nn}; {mm} {s}]"

    return FiniteRing(
        order=order,
        zero=0,
        one=encode(1, 1, 0, 0),
        spec=spec,
        structure=("morita_zero", a, b, g),
        add=add,
        mul=_bilinear_rows(add, 0, product),
        neg=_componentwise_list([_zmod_neg(q) for q in slots], ints),
        decode=decode,
        labeler=labeler,
    )


@dataclass(frozen=True)
class QuotientMap:
    """Canonical surjection onto a quotient ring, with a representative section."""

    domain: FiniteRing
    codomain: FiniteRing
    index_map: tuple
    reps: tuple

    def __call__(self, x) -> Elem:
        return self.codomain.elem(self.index_map[self.domain.index_of(x)])

    def section(self, y) -> Elem:
        return self.domain.elem(self.reps[self.codomain.index_of(y)])

    def image_index(self, i: int) -> int:
        return self.index_map[i]


def make_quotient(ring: FiniteRing, ideal) -> tuple:
    """Quotient ring with smallest-index coset representatives, plus the map.

    Memoized on the parent ring keyed by the ideal's membership mask, so
    repeated quotients by the same ideal share one object.  The ideal is not
    re-verified: an ``Ideal`` is verified when it is made, or built by an
    ``ideals`` function whose result is an ideal by construction.
    """
    if ideal.ring is not ring:
        raise BadParameter("ideal belongs to a different ring")
    if ideal.mask == (1 << ring.order) - 1:
        raise BadParameter("quotient by the whole ring would be the zero ring")

    def build():
        n = ring.order
        members = ideal.indices
        rep_of = [-1] * n
        reps = []
        for x in range(n):
            if rep_of[x] >= 0:
                continue
            reps.append(x)
            for i in members:
                rep_of[ring.add_i(x, i)] = x
        q_index = {rep: qi for qi, rep in enumerate(reps)}
        index_map = tuple(q_index[rep_of[x]] for x in range(n))
        qadd, qmul, qneg = _induced_tables(ring, reps, index_map)
        gens = ideal.generators if ideal.generators is not None else ideal.indices
        spec = f"Q({ring.spec};[{','.join(str(g) for g in gens)}])"
        quotient = FiniteRing(
            order=len(reps),
            zero=index_map[ring.zero_i],
            one=index_map[ring.one_i],
            spec=spec,
            structure=("quotient", ring, ideal.mask),
            add=qadd,
            mul=qmul,
            neg=qneg,
            decode=lambda i: reps[i],
            labeler=lambda i: f"{ring.label(reps[i])}+I",
        )
        return quotient, QuotientMap(ring, quotient, index_map, tuple(reps))

    return ring.cached(("quotient", ideal.mask), build)


@dataclass(frozen=True)
class CornerEmbedding:
    """Embedding of a corner ring eRe back into its parent."""

    domain: FiniteRing
    codomain: FiniteRing
    parent_index: tuple

    def __call__(self, x) -> Elem:
        return self.codomain.elem(self.parent_index[self.domain.index_of(x)])

    def to_corner_index(self, i: int) -> int:
        # parent_index is ascending, so membership is a binary-search away;
        # corners are small enough that a dict would be overkill.
        lo, hi = 0, len(self.parent_index)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.parent_index[mid] < i:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self.parent_index) or self.parent_index[lo] != i:
            raise BadParameter(f"index {i} is not inside the corner")
        return lo


def make_corner(ring: FiniteRing, e) -> tuple:
    """Corner ring eRe for a nonzero central idempotent e, with its embedding."""
    e_i = ring.index_of(e)
    if e_i == ring.zero_i:
        raise BadParameter("corner identity must be nonzero")
    # central: row e of the table equals column e
    row_e = ring.mul_row(e_i)
    if row_e[e_i] != e_i or any(
        row_e[r] != ring.mul_i(r, e_i) for r in range(ring.order)
    ):
        raise NotCentralIdempotent(
            f"C({ring.spec};{e_i}): element {e_i} of {ring.spec} "
            "is not a central idempotent"
        )

    def build():
        members = sorted({ring.mul_i(ring.mul_i(e_i, x), e_i) for x in range(ring.order)})
        sub = {x: t for t, x in enumerate(members)}
        cadd, cmul, cneg = _induced_tables(ring, members, sub)
        corner = FiniteRing(
            order=len(members),
            zero=sub[ring.zero_i],
            one=sub[e_i],
            spec=f"C({ring.spec};{e_i})",
            structure=("corner", ring, e_i),
            add=cadd,
            mul=cmul,
            neg=cneg,
            decode=lambda i: members[i],
            labeler=lambda i: ring.label(members[i]),
        )
        return corner, CornerEmbedding(corner, ring, tuple(members))

    return ring.cached(("corner", e_i), build)


def make_table_ring(add, mul, zero: int, one: int, name: str = "") -> FiniteRing:
    """Ring defined directly by Cayley tables (the JSON import path).

    Only shape and index-range validity are enforced here; run
    :func:`nilclean.ring.verify_axioms` to check the algebra.  Tables and
    rows must be lists or tuples, entries ints (not bools).
    """
    arrays = (list, tuple)
    for label, table in (("add", add), ("mul", mul)):
        if not isinstance(table, arrays) or not all(isinstance(r, arrays) for r in table):
            raise BadParameter(f"{label} table is not an array of arrays")
    order = len(add)
    if order < 2:
        raise BadParameter("table order must be at least 2")
    for label, table in (("add", add), ("mul", mul)):
        if len(table) != order or any(len(row) != order for row in table):
            raise BadParameter(f"{label} table is not {order}x{order}")
        for row in table:
            for v in row:
                if type(v) is not int or not 0 <= v < order:
                    raise BadParameter(f"{label} table entry {v!r} is not an index below {order}")
    if not 0 <= zero < order or not 0 <= one < order:
        raise BadParameter("zero/one index out of range")
    return FiniteRing(
        order=order,
        zero=zero,
        one=one,
        spec=name or f"table{order}",
        structure=("table",),
        # copied: the ring keeps its tables, and these belong to the caller
        add=[list(row) for row in add],
        mul=[list(row) for row in mul],
    )


def spec_order(spec: RingSpec, cap=None) -> int:
    """Order the spec would have, before any quotient/corner shrinking.

    Quotients and corners return their base order (an upper bound).  With a
    `cap`, multiplying stops once the running order exceeds it, and the
    result is only known to be above the cap; this keeps deeply nested specs
    from growing astronomically large integers."""
    if isinstance(spec, Zmod):
        return spec.n
    if isinstance(spec, Product):
        factors = [spec_order(p, cap) for p in spec.parts]
    elif isinstance(spec, Tri):
        k = len(TRI_POSITIONS.get(spec.n, ()))
        if k == 0:
            raise BadParameter(f"triangular size must be 2 or 3, got {spec.n}")
        factors = [spec_order(spec.base, cap)] * k
    elif isinstance(spec, Idealization):
        factors = [spec.n, spec.m]
    elif isinstance(spec, MoritaZero):
        factors = [spec.a, spec.b, spec.g, spec.g]
    elif isinstance(spec, (Quotient, Corner)):
        return spec_order(spec.base, cap)
    else:
        raise BadParameter(f"unknown spec node {spec!r}")
    out = 1
    for f in factors:
        out *= f
        if cap is not None and out > cap:
            break
    return out


def build(spec, caps: Caps = Caps()) -> FiniteRing:
    """Materialize a RingSpec (or spec text) into a ring, enforcing caps."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    if isinstance(spec, FiniteRing):
        return spec
    _check_order(spec_order(spec, DEFAULT_ORDER_CAP), caps.order_cap, f"spec {spec}")
    if isinstance(spec, Zmod):
        return make_zmod(spec.n, cap=caps.order_cap)
    if isinstance(spec, Product):
        return make_product([build(p, caps) for p in spec.parts], cap=caps.order_cap)
    if isinstance(spec, Tri):
        return make_upper_triangular(build(spec.base, caps), spec.n, cap=caps.order_cap)
    if isinstance(spec, Idealization):
        return make_idealization(spec.n, spec.m, cap=caps.order_cap)
    if isinstance(spec, MoritaZero):
        return make_morita_zero(spec.a, spec.b, spec.g, cap=caps.order_cap)
    if isinstance(spec, Quotient):
        from .ideals import ideal_generated

        base = build(spec.base, caps)
        ideal = ideal_generated(base, spec.gens)
        return make_quotient(base, ideal)[0]
    if isinstance(spec, Corner):
        base = build(spec.base, caps)
        return make_corner(base, spec.e)[0]
    raise BadParameter(f"cannot build {spec!r}")
