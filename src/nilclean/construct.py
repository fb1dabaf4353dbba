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
from dataclasses import dataclass, field
from functools import reduce
from math import gcd, prod
from operator import itemgetter
from typing import Tuple, Union

from .classify import is_central
from .errors import (
    BadParameter,
    NotCentralIdempotent,
    OrderCapExceeded,
    ParseError,
)
from .ring import Elem, FiniteRing

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
# Z_n rows, cut from stepped slices, and quotient and corner add rows are
# built on first read, from the row builders their rings are given.
# Products, T_n, Id and MZ are direct sums of their slots' additive groups,
# and ``_direct_sum`` alone knows how their tuples are indexed; each of those
# constructors names its slots, its product and its label format.  Their
# additive groups are componentwise, assembled from row blocks: one gather
# per block of the last slot and slice copies above it, except on a slot
# whose table is a rotation table (Z_n), where each row is a slice of the
# row of slot value 0 written twice over.  The multiplication of a product
# is componentwise too; that of T_n, Id and MZ is spanned from the products
# of additive generators, with no Python work per entry (``_bilinear_rows``).
# Quotients and corners are induced from the parent's rows.  Entries are
# entries of other tables or looked up in one shared ``ints =
# list(range(order))``, so equal entries share one int object.  Where one
# index list is read from many rows, one ``_gather`` is built for it and
# applied to each row: about half the cost per entry of a ``map`` of
# ``row.__getitem__``.


def _gather(indices):
    """``src -> tuple(src[i] for i in indices)``, one ``itemgetter`` built
    once for a nonempty index list and reused on every source.

    ``itemgetter(i)`` alone returns the bare item, so a single index is
    wrapped to give a 1-tuple as well.
    """
    if len(indices) == 1:
        (i,) = indices
        return lambda src: (src[i],)
    return itemgetter(*indices)


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


def _is_rotation(table) -> bool:
    """Whether ``table[a][b] == table[0][(a + b) % o]`` for all a, b: every
    row is row 0 rotated left by its index, as in the add table of Z_n."""
    o = len(table)
    twice = table[0] * 2
    return all(row == twice[a : a + o] for a, row in enumerate(table))


def _direct_sum(spec, structure, slots, zero, one, mul, labeler) -> FiniteRing:
    """The ring on tuples over the slots' additive groups, added slot by slot.

    `slots` holds one ``(add rows, negation list)`` pair per slot, and `zero`
    and `one` are tuples.  The tuple ``(d_1, .., d_k)`` over slot orders
    ``(o_1, .., o_k)`` has index ``d_1*s_1 + .. + d_k*s_k`` with stride
    ``s_t = o_{t+1} * .. * o_k``: mixed radix, first slot most significant.
    That is the tuple's position in ``itertools.product(*map(range, orders))``,
    which advances its last iterable fastest, so ``decode`` reads the tuple
    off that list.  `mul` is either the product formula on tuples, spanned
    with ``_bilinear_rows``, or one multiplication table per slot for a
    componentwise product.  `labeler` formats the entries of a decoded tuple,
    passed as its arguments.

    A componentwise table is assembled from row blocks, bottom up.  Let
    ``T_t`` be slot t's table, and call row r of the table on slots t..k
    shifted by c when ``c*o_t*s_t`` is added to each of its entries (the
    table on slots t..k has order ``o_t*s_t``).  Row ``(a, r)`` of that
    table, ``r < s_t``, shifted by m, is the concatenation over ``b < o_t``
    of the block of slot value ``m*o_t + T_t[a][b]`` at row r: row r of the
    table on slots t+1..k, shifted by that value.  Its entry ``(b, j)`` is
    then ``(m*o_t + T_t[a][b])*s_t`` plus entry j of that row unshifted, as
    the mixed radix asks.  So the last slot's rows are cut, once per shift,
    from a window of `ints` by one gather per slot row (``_gather``, built
    once and applied to every window), and every higher row is a run of o_t
    slice copies into a row allocated at full length.  Each level lists n
    rows counted with their shifts, so this block path costs n*o_t slice
    copies at level t, and at the last n*o_k entries gathered in C, with
    Python work once per row and shift (n times), not per entry.

    When ``T_t`` is a rotation table (``_is_rotation``; the add table of
    Z_n is one), the blocks of row ``(a, r)`` are those of row ``(0, r)``
    rotated left by a, so that row is row ``(0, r)`` at the same shift
    rotated left by ``a*s_t`` entries: one slice of row ``(0, r)`` written
    twice over.  Only the n/o_t rows ``(0, r)`` are assembled from blocks
    (from a gathered window of row 0 at the last level, as ``T_t[0]`` need
    not be the identity), so such a level costs about 2n slice copies, and
    n entries gathered at the last.  Each row below is listed with all
    its shifts, read by the o_t rows above that use it and dropped, so the
    blocks held at once are about n entries per level.
    """
    adds, negs = zip(*slots)
    orders = [len(t) for t in adds]
    order = prod(orders)
    strides = [prod(orders[t + 1 :]) for t in range(len(orders))]
    decode = list(itertools.product(*map(range, orders))).__getitem__
    ints = list(range(order))

    def encode(entries) -> int:
        return sum(d * s for d, s in zip(entries, strides))

    def shifted(tables, t, copies, top=None):
        # pairs (r, blocks): blocks[m] is row r of the table on slots t..,
        # shifted by m, for each m < copies; above the last slot, `top`
        # holds the rows to fill in place of new ones, or to replace with
        # rotated ones (t = 0, copies = 1)
        table = tables[t]
        o = len(table)
        cyclic = _is_rotation(table)
        if t == len(tables) - 1:
            # tuples, as the level above only copies them into its rows
            windows = [ints[m * o : m * o + o] for m in range(copies)]
            if cyclic:  # row r is row 0 rotated left by r
                pick = _gather(table[0])
                heads = [pick(w) * 2 for w in windows]
                for r in range(o):
                    yield r, [head[r : r + o] for head in heads]
                return
            for r, row in enumerate(table):
                pick = _gather(row)
                yield r, [pick(w) for w in windows]
            return
        width = strides[t]
        length = o * width
        spans = [(b * width, b * width + width) for b in range(o)]
        for r, below in shifted(tables, t + 1, copies * o):
            for a, row in enumerate(table):
                if cyclic and a:  # row (0, r) rotated left by a*width
                    k = a * width
                    blocks = [head[k : k + length] for head in heads]
                    if top is not None:
                        top[k + r] = blocks[0]
                    yield k + r, blocks
                    continue
                blocks = []
                for m in range(0, copies * o, o):
                    placed = ints[:1] * length if top is None else top[a * width + r]
                    for (lo, hi), c in zip(spans, row):
                        placed[lo:hi] = below[m + c]
                    blocks.append(placed)
                if cyclic:  # a = 0: each shift of row (0, r), twice over
                    heads = [head * 2 for head in blocks]
                yield a * width + r, blocks

    def componentwise(tables) -> list:
        if len(tables) == 1:
            return [list(map(ints.__getitem__, row)) for row in tables[0]]
        # allocated before any block, so the blocks dropped along the way
        # are reused for later blocks and do not scatter the rows of the
        # table over the heap (a peak 12 MB higher for Z2xZ2048 otherwise)
        rows = [ints[:1] * order for _ in ints]
        for _ in shifted(tables, 0, 1, rows):
            pass
        return rows

    add = componentwise(adds)
    if callable(mul):  # a product formula on tuples
        rows = _bilinear_rows(add, encode(zero), lambda i, j: encode(mul(decode(i), decode(j))))
    else:  # one multiplication table per slot
        rows = componentwise(mul)
    return FiniteRing(
        order=order,
        zero=encode(zero),
        one=encode(one),
        spec=spec,
        structure=structure,
        add=add,
        mul=rows,
        neg=_radix_sum([[s * x for x in v] for v, s in zip(negs, strides)], ints),
        decode=decode,
        labeler=lambda i: labeler(*decode(i)),
    )


def _bilinear_rows(add: list, zero: int, product) -> list:
    """Multiplication rows of the ring with add rows `add`, zero `zero` and
    product ``product(x, y)``.

    In a ring x -> xg and y -> xy are additive, so every column and row is
    fixed by its values on additive generators, and `product` is called only
    on pairs of the k <= log2(n) generators that ``ideals._span`` keeps.
    Each column x -> xg is listed along that span from the products a*g,
    then each row y -> xy from its values x*g read off the columns.  Along
    the span, the first generator's multiples 0, v, 2v, .. are walked on
    the add row of v; each later generator adds the cosets H + v, H + 2v,
    .. of the list H so far, read by one gather at H (``_gather``, built
    once per level) from the add rows of v, 2v, ...  A row of n entries
    thus costs n - m entries gathered in C and m steps of Python, m the
    first generator's multiples, plus one step per later coset.  The tests
    compare these rows with a walk by one ``map`` per block of cosets
    (``oracles.bilinear_rows_by_cosets``).
    """
    from .ideals import _span

    n = len(add)
    _, listed, gens = _span(add.__getitem__, n, (zero,), range(n))
    # generator g opens the cosets of the span listed before it
    sizes = [listed.index(g) for g in gens] + [n]
    counts = [b // a for a, b in zip(sizes, sizes[1:])]

    def along_span(values) -> list:
        # the first level is 0, v, 2v, .., walked along the add row of v
        out, c, step = [zero], zero, add[values[0]]
        for _ in range(counts[0] - 1):
            c = step[c]
            out.append(c)
        for v, m in zip(values[1:], counts[1:]):
            # H + c for c = v, 2v, .., (m-1)v: one gather at H's list
            pick, c = _gather(out), v
            for _ in range(m - 1):
                row = add[c]
                out.extend(pick(row))
                c = row[v]
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


def _zmod_slot(n: int) -> tuple:
    """(add rows, negation list) of Z_n, a slot of ``_direct_sum``."""
    return list(map(_zmod_add_row(n), range(n))), _zmod_neg(n)


def _ring_slot(ring: FiniteRing) -> tuple:
    """(add rows, negation list) of a ring, a slot of ``_direct_sum``."""
    every = range(ring.order)
    return list(map(ring.add_row, every)), list(map(ring.neg_i, every))


def _induced_tables(ring: FiniteRing, elems, index) -> tuple:
    """(add-row builder, mul rows, negation list) on `elems` (coset
    representatives or corner members), entry (i, j) being ``index[elems[i]
    op elems[j]]``, from the parent's rows.

    One comprehension step per entry: a gather at `elems` would still need
    a second gather through `index` per row, and that measured no faster.
    The checks read few add rows (the admissible walk reads only the
    idempotents'), but the nilpotents fill reads every mul row.
    """

    def add_row(i: int) -> list:
        row = ring.add_row(elems[i])
        return [index[row[y]] for y in elems]

    mul = [[index[row[y]] for y in elems] for row in map(ring.mul_row, elems)]
    neg = [index[ring.neg_i(x)] for x in elems]
    return add_row, mul, neg


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

    The ring is given row builders, so a ring asked about a few elements,
    such as the nilpotency index of 2 in Z1024, builds only their rows.
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
        add=_zmod_add_row(n),
        mul=_zmod_mul_row(n),
        neg=_zmod_neg(n),
    )


def make_product(parts, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Componentwise product; index = mixed radix over the part orders."""
    parts = tuple(parts)
    if not parts:
        raise BadParameter("a product needs at least one part")
    spec = "x".join(p.spec for p in parts)
    _check_order(prod(p.order for p in parts), cap, spec)
    return _direct_sum(
        spec,
        ("product", parts),
        [_ring_slot(p) for p in parts],
        zero=tuple(p.zero_i for p in parts),
        one=tuple(p.one_i for p in parts),
        mul=[list(map(p.mul_row, range(p.order))) for p in parts],
        labeler=lambda *entries: "(" + ",".join(p.label(a) for p, a in zip(parts, entries)) + ")",
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
    spec = f"T{n}({base.spec})"
    _check_order(base.order ** k, cap, spec)

    def product(x, y) -> tuple:
        x, y = dict(zip(positions, x)), dict(zip(positions, y))
        return tuple(
            reduce(base.add_i, [base.mul_i(x[r, t], y[t, c]) for t in range(r, c + 1)])
            for r, c in positions
        )

    # cell {t} is entry t of the upper triangle, and {k} the zero below it
    cells = {pos: f"{{{t}}}" for t, pos in enumerate(positions)}
    rows = (" ".join(cells.get((r, c), f"{{{k}}}") for c in range(n)) for r in range(n))
    template = "[" + "; ".join(rows) + "]"
    zero = base.label(base.zero_i)

    return _direct_sum(
        spec,
        ("tri", n, base),
        [_ring_slot(base)] * k,
        zero=(base.zero_i,) * k,
        one=tuple(base.one_i if r == c else base.zero_i for r, c in positions),
        mul=product,
        labeler=lambda *entries: template.format(*map(base.label, entries), zero),
    )


def make_idealization(n: int, m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Ring on Z_n x Z_m with (r,v)(r',v') = (rr', rv' + r'v); needs m | n.

    Index encoding: (r, v) -> r*m + v.
    """
    if n < 2:
        raise BadParameter(f"base modulus must be at least 2, got {n}")
    if m < 1 or n % m != 0:
        raise BadParameter(f"module modulus must divide {n}, got {m}")
    spec = f"Id({n},{m})"
    _check_order(n * m, cap, spec)

    def product(x, y) -> tuple:
        (r, v), (s, w) = x, y
        return (r * s) % n, (r * w + s * v) % m

    return _direct_sum(
        spec,
        ("idealization", n, m),
        [_zmod_slot(n), _zmod_slot(m)],
        zero=(0, 0),
        one=(1, 0),
        mul=product,
        labeler="({},{})".format,
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
    spec = f"MZ({a},{b},{g})"
    _check_order(a * b * g * g, cap, spec)

    def product(x, y) -> tuple:
        (r1, s1, m1, n1), (r2, s2, m2, n2) = x, y
        # both cross pairings vanish: the diagonal never sees the strips
        return (r1 * r2) % a, (s1 * s2) % b, (m1 * r2 + s1 * m2) % g, (r1 * n2 + n1 * s2) % g

    return _direct_sum(
        spec,
        ("morita_zero", a, b, g),
        [_zmod_slot(a), _zmod_slot(b), _zmod_slot(g), _zmod_slot(g)],
        zero=(0, 0, 0, 0),
        one=(1, 1, 0, 0),
        mul=product,
        labeler="[{0} {3}; {2} {1}]".format,
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
    re-verified: an ``Ideal`` is verified when it is made from outside, or
    built by an ``ideals`` function whose result is an ideal by proof.  The
    map sends x to its coset and the quotient's tables are the coset sums
    and products, so it is a surjective ring homomorphism; that is what lets
    ``ideals.image_ideal`` build images without verifying them.
    """
    if ideal.ring is not ring:
        raise BadParameter("ideal belongs to a different ring")
    if ideal.mask == (1 << ring.order) - 1:
        raise BadParameter("quotient by the whole ring would be the zero ring")

    def build():
        members = ideal.indices
        coset = [-1] * ring.order
        reps = []
        for x in range(ring.order):
            if coset[x] < 0:
                # x + I, read off x's add row, is the next coset
                q = len(reps)
                reps.append(x)
                for y in map(ring.add_row(x).__getitem__, members):
                    coset[y] = q
        index_map = tuple(coset)
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
    """Embedding of a corner ring eRe back into its parent.

    ``corner_index[i]`` is the corner index of parent element i, -1 for an
    i outside eRe; it is derived from ``parent_index``.
    """

    domain: FiniteRing
    codomain: FiniteRing
    parent_index: tuple
    corner_index: tuple = field(compare=False, repr=False)

    def __call__(self, x) -> Elem:
        return self.codomain.elem(self.parent_index[self.domain.index_of(x)])


def make_corner(ring: FiniteRing, e) -> tuple:
    """Corner ring eRe for a nonzero central idempotent e, with its embedding."""
    e_i = ring.index_of(e)
    if e_i == ring.zero_i:
        raise BadParameter("corner identity must be nonzero")
    if ring.mul_i(e_i, e_i) != e_i or not is_central(ring, e_i):
        raise NotCentralIdempotent(
            f"C({ring.spec};{e_i}): element {e_i} of {ring.spec} "
            "is not a central idempotent"
        )

    def build():
        # e is central, so e*x*e = e*x and eRe is the set of e's row
        members = sorted(set(ring.mul_row(e_i)))
        sub = [-1] * ring.order
        for t, x in enumerate(members):
            sub[x] = t
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
        return corner, CornerEmbedding(corner, ring, tuple(members), tuple(sub))

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
