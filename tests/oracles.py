"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's memoized classifier sets
and shortcut algorithms: nilpotency by plain power iteration, units by full
inverse scans, decompositions by a double loop over all pairs, ideals by
all n^2 products r*g*s and pairwise closure, the radical by
quasi-regularity, commutativity and the center over all pairs, and ring
operations entry by entry from each constructor's defining formula.  Member sets are int bit masks, bit i for
element i, as in ``nilclean.ideals``.
"""

from __future__ import annotations


def naive_nil_index(ring, x: int):
    """Least k >= 1 with x^k = 0 by plain iteration, None past `order` steps."""
    power = x
    for k in range(1, ring.order + 1):
        if power == ring.zero_i:
            return k
        power = ring.mul_i(power, x)
    return None


def naive_is_unit(ring, x: int) -> bool:
    return any(
        ring.mul_i(x, y) == ring.one_i and ring.mul_i(y, x) == ring.one_i
        for y in range(ring.order)
    )


def naive_additive_closure(ring, mask: int) -> int:
    """Close a member mask (with zero added) under pairwise addition."""
    closed = mask | 1 << ring.zero_i
    queue = [i for i in range(ring.order) if closed >> i & 1]
    while queue:
        x = queue.pop()
        for y in range(ring.order):
            if closed >> y & 1:
                s = ring.add_i(x, y)
                if not closed >> s & 1:
                    closed |= 1 << s
                    queue.append(s)
    return closed


def naive_ideal_generated(ring, gens) -> int:
    """Mask of the ideal generated by gens: every r*g*s, closed under +."""
    seed = 0
    for g in gens:
        for r in range(ring.order):
            rg = ring.mul_i(r, g)
            for s in range(ring.order):
                seed |= 1 << ring.mul_i(rg, s)
    return naive_additive_closure(ring, seed)


def naive_is_ideal(ring, mask: int) -> bool:
    """Zero, negation, pairwise sums and both products with every r."""
    members = [i for i in range(ring.order) if mask >> i & 1]
    if not mask >> ring.zero_i & 1:
        return False
    for x in members:
        if not mask >> ring.neg_i(x) & 1:
            return False
        if any(not mask >> ring.add_i(x, y) & 1 for y in members):
            return False
        for r in range(ring.order):
            if not mask >> ring.mul_i(r, x) & 1 or not mask >> ring.mul_i(x, r) & 1:
                return False
    return True


def naive_jacobson(ring) -> int:
    """Mask of {x : 1 - r*x is a unit for every r} (quasi-regularity)."""
    units = {y for y in range(ring.order) if naive_is_unit(ring, y)}
    one = ring.one_i
    mask = 0
    for x in range(ring.order):
        if all(ring.sub_i(one, ring.mul_i(r, x)) in units for r in range(ring.order)):
            mask |= 1 << x
    return mask


def brute_pairs(ring, x: int, kind: str):
    """All (e, y) with e + y = x, e idempotent, y nilpotent or a unit."""
    out = []
    for e in range(ring.order):
        if ring.mul_i(e, e) != e:
            continue
        y = ring.sub_i(x, e)
        if kind == "nil-clean" and naive_nil_index(ring, y) is None:
            continue
        if kind == "clean" and not naive_is_unit(ring, y):
            continue
        out.append((e, y))
    return out


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def radical_of_modulus(n: int) -> int:
    """Product of the distinct primes dividing n."""
    rad, remaining, p = 1, n, 2
    while p * p <= remaining:
        if remaining % p == 0:
            rad *= p
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1:
        rad *= remaining
    return rad


def tri_mat_mul(a, b, n: int, modulus: int):
    """Independent n-by-n upper-triangular matrix product over Z_modulus.

    Matrices are dicts keyed by (row, col) over the upper triangle.
    """
    out = {}
    for r in range(n):
        for c in range(r, n):
            out[(r, c)] = (
                sum(a[(r, t)] * b[(t, c)] for t in range(r, c + 1)) % modulus
            )
    return out


def reference_ops(ring):
    """Per-entry (add, mul, neg) of a constructed ring, from its definition.

    Each entry is computed from ``ring.structure``, the ring's ``decode`` and
    its parts' ``add_i``/``mul_i``; the ring's own tables are never read, so
    they can be checked against these functions.  Results are mapped back to
    indices by inverting ``decode``.
    """
    kind, n = ring.structure[0], ring.order
    index = {ring.decode(i): i for i in range(n)}
    assert len(index) == n, "decode is not a bijection"
    dec = ring.decode

    if kind == "zmod":
        m = ring.structure[1]
        return (lambda i, j: (i + j) % m, lambda i, j: (i * j) % m, lambda i: -i % m)

    if kind == "product":
        parts = ring.structure[1]

        def lift(op):
            def entry(i, j):
                return index[tuple(
                    getattr(p, op)(a, b) for p, a, b in zip(parts, dec(i), dec(j))
                )]
            return entry

        def neg(i):
            return index[tuple(p.neg_i(a) for p, a in zip(parts, dec(i)))]

        return lift("add_i"), lift("mul_i"), neg

    if kind == "tri":
        size, base = ring.structure[1], ring.structure[2]
        positions = [(r, c) for r in range(size) for c in range(r, size)]

        def add(i, j):
            return index[tuple(base.add_i(a, b) for a, b in zip(dec(i), dec(j)))]

        def mul(i, j):
            x, y = dict(zip(positions, dec(i))), dict(zip(positions, dec(j)))
            out = []
            for r, c in positions:
                acc = base.zero_i
                for t in range(r, c + 1):
                    acc = base.add_i(acc, base.mul_i(x[(r, t)], y[(t, c)]))
                out.append(acc)
            return index[tuple(out)]

        def neg(i):
            return index[tuple(base.neg_i(a) for a in dec(i))]

        return add, mul, neg

    if kind == "idealization":
        b, m = ring.structure[1], ring.structure[2]

        def add(i, j):
            (r, v), (s, w) = dec(i), dec(j)
            return index[((r + s) % b, (v + w) % m)]

        def mul(i, j):
            (r, v), (s, w) = dec(i), dec(j)
            return index[((r * s) % b, (r * w + s * v) % m)]

        def neg(i):
            r, v = dec(i)
            return index[(-r % b, -v % m)]

        return add, mul, neg

    if kind == "morita_zero":
        a, b, g = ring.structure[1:]

        def add(i, j):
            (r1, s1, m1, n1), (r2, s2, m2, n2) = dec(i), dec(j)
            return index[((r1 + r2) % a, (s1 + s2) % b, (m1 + m2) % g, (n1 + n2) % g)]

        def mul(i, j):
            (r1, s1, m1, n1), (r2, s2, m2, n2) = dec(i), dec(j)
            return index[(
                (r1 * r2) % a,
                (s1 * s2) % b,
                (m1 * r2 + s1 * m2) % g,
                (r1 * n2 + n1 * s2) % g,
            )]

        def neg(i):
            r, s, mm, nn = dec(i)
            return index[(-r % a, -s % b, -mm % g, -nn % g)]

        return add, mul, neg

    if kind in ("quotient", "corner"):
        parent = ring.structure[1]
        if kind == "quotient":
            # every parent element maps to the coset holding it, x + I
            members = [x for x in range(parent.order) if ring.structure[2] >> x & 1]
            index = {
                parent.add_i(dec(q), x): q for q in range(n) for x in members
            }
            assert len(index) == parent.order, "cosets do not partition the ring"

        return (
            lambda i, j: index[parent.add_i(dec(i), dec(j))],
            lambda i, j: index[parent.mul_i(dec(i), dec(j))],
            lambda i: index[parent.neg_i(dec(i))],
        )

    raise ValueError(f"no reference for ring structure {kind!r}")


def naive_is_commutative(ring) -> bool:
    """xy = yx checked on every pair."""
    mul = ring.mul_i
    return all(
        mul(i, j) == mul(j, i) for i in range(ring.order) for j in range(i + 1, ring.order)
    )


def naive_center(ring) -> frozenset:
    """The x with xr = rx for every r."""
    mul = ring.mul_i
    return frozenset(
        i
        for i in range(ring.order)
        if all(mul(i, r) == mul(r, i) for r in range(ring.order))
    )


def every_member_loop(ideal, lists, unique: bool = False) -> bool:
    """Whether every member of the ideal has a nonempty list in `lists`
    (exactly one entry if unique), member by member."""
    if unique:
        return all(len(lists[x]) == 1 for x in ideal.indices)
    return all(lists[x] for x in ideal.indices)


def image_member_walk(projection, ideal) -> int:
    """Mask of an ideal's image in a quotient, one image per member."""
    mask = 0
    for i in ideal.indices:
        mask |= 1 << projection.image_index(i)
    return mask


def corner_member_walk(ring, e: int, ideal, embedding) -> int:
    """Mask of e*I*e inside the corner eRe: both products for each member,
    then its position among the corner's parent indices."""
    mask = 0
    for x in ideal.indices:
        exe = ring.mul_i(ring.mul_i(e, x), e)
        mask |= 1 << embedding.parent_index.index(exe)
    return mask


def lift_mod_nil_walk(ring, ideals, lift, failure):
    """The first failed lift of the lift_mod_nil check, by the set-based loop.

    For each nil ideal (every member nilpotent by plain iteration) and each
    ideal over it, in list order, lift every member x, ascending, with
    x^2 - x in the nil ideal that was not lifted yet modulo that nil ideal.
    Returns (outer ideal, x, str(error)) for the first lift that raises
    `failure`, or None.
    """
    for nil in ideals:
        if any(naive_nil_index(ring, x) is None for x in nil.indices):
            continue
        lifted = set()
        for outer in ideals:
            if outer.mask & nil.mask != nil.mask:
                continue
            for x in outer.indices:
                if x not in lifted and ring.sub_i(ring.mul_i(x, x), x) in nil:
                    try:
                        lift(ring, nil, x)
                    except failure as exc:
                        return outer, x, str(exc)
                    lifted.add(x)
    return None


def all_columns_certificate(ring) -> bool:
    """The previous axiom certificate: True when the tables provably form a
    ring, False when it cannot tell, with every row and column compared.

    1. O(n): x + 0 = x, x + (-x) = 0, 1x = x1 = x and 0x = x0 = 0.
    2. O(n^2): the add table equals its transpose.
    3. A basis longer than (n-1).bit_length() is no group's.
    4. O(n^2 k): for b in B and all x, y: (x+y)+b = x+(y+b), y(x+b) =
       yx + yb and (x+b)y = xy + by, on every row and every column.
    5. O(k^3): (ab)c = a(bc) for a, b, c in B.
    """
    from nilclean.ideals import additive_basis

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
    lines = mul + [list(col) for col in zip(*mul)]
    for b in basis:
        ab = add[b]
        for ax in add:
            if [ab[v] for v in ax] != [ax[v] for v in ab]:
                return False
        for line in lines:
            shift = add[line[b]]
            if [line[v] for v in ab] != [shift[v] for v in line]:
                return False
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in basis
        for b in basis
        for c in basis
    )


def quotient_coset_loop(ring, ideal):
    """Coset representatives (smallest index first) and the index map of
    R/I, one table entry per representative and member; then the quotient
    tables entry by entry from the representatives."""
    n = ring.order
    rep_of = [-1] * n
    reps = []
    for x in range(n):
        if rep_of[x] >= 0:
            continue
        reps.append(x)
        for i in ideal.indices:
            rep_of[ring.add_i(x, i)] = x
    q_index = {rep: qi for qi, rep in enumerate(reps)}
    index_map = tuple(q_index[rep_of[x]] for x in range(n))
    add = [[index_map[ring.add_i(a, b)] for b in reps] for a in reps]
    mul = [[index_map[ring.mul_i(a, b)] for b in reps] for a in reps]
    return tuple(reps), index_map, add, mul
