"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's memoized classifier sets
and shortcut algorithms: nilpotency by plain power iteration, units by full
inverse scans, decompositions by a double loop over all pairs, and ring
operations entry by entry from each constructor's defining formula.
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
