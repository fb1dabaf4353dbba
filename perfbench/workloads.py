"""Seeded input generators and the op runner for the two workloads.

Generators know only the ring-spec grammar and the documented index
encodings (mixed radix with the first coordinate most significant; the
triangular and context-ring layouts in ``construct.py``).
They never ask the library which parameters are valid.

Every workload is a fixed cycle of slots; the seed picks the concrete input
of each slot once, so every seed sees the same mix of rings and request
kinds and only the parameters (elements, generators, properties, invalid
text) and the order of the slots differ.  A run takes the ops in cycle
order and starts the cycle again when it has time left.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

WORKLOADS = ("suite", "query")

IDEAL_PROPERTIES = (
    "clean",
    "nil-clean",
    "strongly-nil-clean",
    "uniquely-nil-clean",
    "uniquely-strongly-nil-clean",
    "nil",
)
DECOMP_KINDS = ("nil-clean", "clean", "strongly-nil-clean", "strongly-clean")
# invalid requests the CLI handles per its contract, and how many of each per cycle
INVALID_KINDS = ("over-cap", "out-of-range", "malformed")
INVALID_PER_KIND = 3
# invalid requests that show a known defect; they are probed, not timed
KNOWN_DEFECT_KINDS = ("deep-nesting", "non-central-corner")


@dataclass(frozen=True)
class Op:
    workload: str
    spec: str = ""
    order: int = 0
    argv: Tuple[str, ...] = ()
    category: str = ""
    expect_exit: Optional[int] = None


@dataclass(frozen=True)
class CliResult:
    code: object
    stdout: str
    stderr: str


# --------------------------------------------------------------------------
# grammar helpers: (text, order, index of one)


@dataclass(frozen=True)
class Ring:
    text: str
    order: int
    one: int
    parts: Tuple["Ring", ...] = field(default=(), compare=False)


def zmod(n: int) -> Ring:
    return Ring(f"Z{n}", n, 1)


def product(*rings: Ring) -> Ring:
    parts = []
    for r in rings:
        parts.extend(r.parts or (r,))
    order, one, stride = 1, 0, 1
    for r in reversed(parts):
        one += r.one * stride
        stride *= r.order
        order *= r.order
    return Ring("x".join(p.text for p in parts), order, one, tuple(parts))


def tri(size: int, base: Ring) -> Ring:
    b, e = base.order, base.one
    if size == 2:  # entries (0,0),(0,1),(1,1)
        return Ring(f"T2({base.text})", b ** 3, e * b * b + e)
    # entries (0,0),(0,1),(0,2),(1,1),(1,2),(2,2)
    return Ring(f"T3({base.text})", b ** 6, e * b ** 5 + e * b * b + e)


def quotient_cyclic(k: int, d: int) -> Ring:
    """Z_{kd} modulo the ideal generated by d, which is Z_d."""
    return Ring(f"Q(Z{k * d};[{d}])", d, 1)


def quotient_product(a: int, c: int) -> Ring:
    """Z_a x Z_2c modulo the ideal generated by (0,c), which is Z_a x Z_c."""
    return Ring(f"Q(Z{a}xZ{2 * c};[{c}])", a * c, c + 1)


def corner(base: Ring, first: bool) -> Ring:
    """Corner of base x Z2 (or Z2 x base) at the unit of the base factor."""
    if first:
        whole = product(base, zmod(2))
        e = base.one * 2
    else:
        whole = product(zmod(2), base)
        e = base.one
    return Ring(f"C({whole.text};{e})", base.order, base.one)


def idealization(n: int, m: int) -> Ring:
    """Id(n,m): pairs (r, v) encoded r*m + v, so one is (1, 0)."""
    return Ring(f"Id({n},{m})", n * m, m)


def morita(a: int, b: int, g: int) -> Ring:
    """MZ(a,b,g): (r, s, m, n) encoded ((r*b + s)*g + m)*g + n."""
    return Ring(f"MZ({a},{b},{g})", a * b * g * g, (b + 1) * g * g)


def query_rings() -> List[Ring]:
    """The rings `query` asks about, orders 54-256, across the grammar.

    Costs of one cold request at seed span 3-560 ms: the first six rings
    are cheap, the next eight cost 20-45 ms, the next seven 60-170 ms and
    the last two 250-400 ms.  The list is the same for every seed, so the
    cost mix, and with it the median request, does not depend on the seed.
    """
    z = zmod
    return [
        z(64), z(128), z(200), idealization(32, 4), morita(4, 4, 2), quotient_cyclic(2, 64),
        product(z(8), z(8)), product(z(4), z(16)), product(z(2), z(4), z(8)),
        product(z(6), z(10)), tri(2, z(4)), tri(3, z(2)), tri(2, product(z(2), z(2))),
        product(tri(2, z(3)), z(2)),
        z(256), product(z(3), z(27)), tri(2, z(5)), idealization(16, 16), morita(8, 8, 2),
        quotient_product(8, 8), corner(z(64), True),
        tri(2, z(6)), product(z(16), z(16)),
    ]


# --------------------------------------------------------------------------
# plans: one list of ops per cycle


class Plan:
    """The cycle of ops a run repeats, drawn from the seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"{workload}:{seed}")
        self.ops: List[Op] = getattr(self, f"_{workload}")()
        self.defect_probes: List[Op] = self._defect_probes() if workload == "query" else []

    # suite: the fixed default family, so the seed does not apply
    def _suite(self):
        return [Op("suite", argv=("theorems", "--format", "json"))]

    # query: one info, one ideal and one decompose request on every ring of
    # query_rings(), plus invalid input, in a seeded order
    def _query(self):
        rng = self._rng

        def info(r):
            return Op("query", spec=r.text, order=r.order, category="info",
                      argv=("info", r.text, "--format", "json"))

        def ideal(r):
            gens = sorted(rng.sample(range(r.order), rng.choice((1, 2))))
            prop = rng.choice(IDEAL_PROPERTIES)
            return Op("query", spec=r.text, order=r.order, category="ideal",
                      argv=("ideal", r.text, "--gens", *map(str, gens),
                            "--property", prop, "--format", "json"))

        def decompose(r):
            x, kind = rng.randrange(r.order), rng.choice(DECOMP_KINDS)
            return Op("query", spec=r.text, order=r.order, category="decompose",
                      argv=("decompose", r.text, str(x), kind, "--format", "json"))

        ops = [make(r) for r in query_rings() for make in (info, ideal, decompose)]
        for category in INVALID_KINDS:
            ops.extend(self._invalid(category) for _ in range(INVALID_PER_KIND))
        rng.shuffle(ops)
        return ops

    def _invalid(self, category: str) -> Op:
        """One request the exit-code contract of cli.py rejects."""
        rng = self._rng
        if category == "over-cap":
            expect = 3
            pick = rng.randrange(3)
            if pick == 0:
                argv = ("info", f"Z{rng.randrange(4097, 20000)}")
            elif pick == 1:
                argv = ("info", f"Z{rng.randrange(70, 200)}xZ{rng.randrange(70, 200)}")
            else:
                n = rng.randrange(65, 400)
                argv = ("info", f"Z{n}", "--order-cap", str(rng.randrange(2, n)))
        elif category == "out-of-range":
            expect = 2
            n = rng.randrange(4, 65)
            kind = rng.choice(DECOMP_KINDS)
            argv = ("decompose", f"Z{n}", str(n + rng.randrange(0, 50)), kind)
        elif category == "malformed":
            expect = 2
            n = rng.randrange(4, 40)
            argv = ("info", rng.choice((
                f"T2(Z{n}", f"Z{n}x", "Zx", f"Q(Z{n};[2)", f"Id({n},{n + 1})",
                f"MZ(2,{2 * n + 1},2)", f"T4(Z{n})", "Z1", f"Q(Z{n};[1])",
                f"Z{n}(Z2)", f"C(Z{n})",
            )))
        elif category == "deep-nesting":
            # depth 9 is the shallowest that shows the defect; 10 stays cheap
            expect = 3
            depth = rng.randrange(9, 11)
            argv = ("info", "T2(" * depth + f"Z{rng.choice((2, 3))}" + ")" * depth)
        elif category == "non-central-corner":
            expect = 2
            if rng.random() < 0.5:
                # E11 in T2(Zq) is idempotent but not central
                q = rng.choice((2, 3))
                argv = ("info", f"C(T2(Z{q});{q * q})")
            else:
                # 2 in Z_n with n odd and > 3 squares to 4, so it is no idempotent
                argv = ("info", f"C(Z{rng.randrange(3, 30) * 2 + 1};2)")
        else:
            raise ValueError(category)
        return Op("query", category=category, argv=argv, expect_exit=expect)

    def _defect_probes(self) -> List[Op]:
        """Requests that break the exit-code contract at seed (see NOTES.md);
        run once per run, untimed, outside the measured ops."""
        return [self._invalid(category) for category in KNOWN_DEFECT_KINDS]


def generate(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, seed)


# --------------------------------------------------------------------------
# op runners; every call goes through an exported name or nilclean.cli.main


def run_cli(cli, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def run_op(nc, op: Op) -> CliResult:
    return run_cli(nc.cli, op.argv)
