"""Reference checks, run outside the timed region after every op.

``suite`` output is compared byte for byte with the golden report.  Each
valid ``query`` request is judged with the brute-force oracles of
``tests/oracles.py``, and every ideal it returns with independent
invariants: it holds zero, is closed under addition, absorbs products from
both sides (both sampled), and its size divides the ring order.  Invalid
requests are judged against the exit-code contract of ``cli.py``.

A valid request that recurs in a later cycle must repeat, byte for byte,
the output its first occurrence was judged correct with.  A check returns
``None`` when the op is correct and a reason otherwise; a mismatch is
counted as a failed op and never stops the run.
"""

from __future__ import annotations

import json
import random
import re

from workloads import CliResult

PAIR_SAMPLE = 48

NIL, CLEAN = "nil-clean", "clean"
# what cli.main writes when a corner idempotent is rejected (construct.corner)
KNOWN_CORNER_ERROR = re.compile(r"error: element \d+ of \S+\n")


class ElementOracle:
    """Brute-force answers for one ring, memoized per element."""

    def __init__(self, oracles, ring):
        self.o = oracles
        self.ring = ring
        self._pairs = {}
        self._nil = {}

    def nil_index(self, x):
        if x not in self._nil:
            self._nil[x] = self.o.naive_nil_index(self.ring, x)
        return self._nil[x]

    def pairs(self, x, kind):
        key = (x, kind)
        if key not in self._pairs:
            self._pairs[key] = self.o.brute_pairs(self.ring, x, kind)
        return self._pairs[key]

    def commuting(self, x, kind):
        mul = self.ring.mul_i
        return [(e, y) for e, y in self.pairs(x, kind) if mul(e, y) == mul(y, e)]

    def holds(self, prop, x) -> bool:
        """Whether element x has the per-member property behind an ideal predicate."""
        if prop == "clean":
            return bool(self.pairs(x, CLEAN))
        if prop == "nil-clean":
            return bool(self.pairs(x, NIL))
        if prop == "strongly-nil-clean":
            return bool(self.commuting(x, NIL))
        if prop == "uniquely-nil-clean":
            return len(self.pairs(x, NIL)) == 1
        if prop == "uniquely-strongly-nil-clean":
            return len(self.commuting(x, NIL)) == 1
        if prop == "nil":
            return self.nil_index(x) is not None
        raise ValueError(prop)


def ideal_invariants(ring, members, rng):
    """Zero, additive closure, two-sided absorption (sampled), size | order."""
    n = ring.order
    if ring.zero_i not in members:
        return "ideal misses zero"
    if n % len(members):
        return f"ideal size {len(members)} does not divide {n}"
    pool = list(members)
    for _ in range(PAIR_SAMPLE):
        x, y, r = rng.choice(pool), rng.choice(pool), rng.randrange(n)
        if ring.add_i(x, y) not in members:
            return f"ideal not closed under addition at {x}+{y}"
        if ring.mul_i(r, x) not in members or ring.mul_i(x, r) not in members:
            return f"ideal does not absorb {r} and {x}"
    return None


def generated_ideal(ring, gens):
    """Least two-sided ideal holding gens, by closing under r*x, x*r and x+y."""
    members = {ring.zero_i, *gens}
    frontier = list(members)
    n = ring.order
    while frontier:
        x = frontier.pop()
        found = [ring.mul_i(r, x) for r in range(n)] + [ring.mul_i(x, r) for r in range(n)]
        found += [ring.add_i(x, y) for y in list(members)]
        for y in found:
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def info_judge(spec, expect):
    def judge(payload):
        for key, value in expect.items():
            if payload.get(key) != value:
                return f"info {spec}: {key} is {payload.get(key)!r}, oracle says {value!r}"
        return None

    return judge


class Checker:
    def __init__(self, oracles, golden: str, seed: int):
        self.oracles = oracles
        self.golden = golden
        self.rng = random.Random(f"checks:{seed}")
        # outputs already judged correct, by request: a request that recurs in
        # a later cycle must repeat them byte for byte
        self._verified = {}

    def check(self, nc, op, output):
        if op.workload == "suite":
            if output.code != 0:
                return f"exit code {output.code}, expected 0"
            if output.stdout != self.golden:
                return "stdout differs from tests/golden/theorems_default.json"
            return None
        return self._query(nc, op, output)

    @staticmethod
    def is_known_defect(op, output) -> bool:
        """Whether a defect probe shows exactly the symptom listed in NOTES.md."""
        if op.category == "deep-nesting":
            text = str(output)
            return (isinstance(output, ValueError) and "Exceeds the limit" in text
                    and "integer string conversion" in text)
        if op.category == "non-central-corner":
            # NotCentralIdempotent falls through to the generic NilCleanError branch
            return (isinstance(output, CliResult) and output.code == 1 and not output.stdout
                    and KNOWN_CORNER_ERROR.fullmatch(output.stderr) is not None)
        return False

    # -- query --------------------------------------------------------------

    def _query(self, nc, op, output):
        if isinstance(output, BaseException):
            return f"{type(output).__name__} escaped cli.main: {output}"
        if op.expect_exit is not None:
            if output.code != op.expect_exit:
                return f"exit code {output.code}, contract says {op.expect_exit}"
            return None
        seen = self._verified.get(op.argv)
        if seen is not None:
            if (output.code, output.stdout) != seen:
                return "output differs from the verified output of the same request"
            return None
        # rebuilt for every new request, so no ring outlives its check and
        # peak_rss_mb stays close to the program's own
        expect_code, expect_payload = self._query_reference(nc, op)
        if output.code != expect_code:
            return f"exit code {output.code}, expected {expect_code}"
        try:
            payload = json.loads(output.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        reason = expect_payload(payload)
        if reason is None:
            self._verified[op.argv] = (output.code, output.stdout)
        return reason

    def _query_reference(self, nc, op):
        """(expected exit code, payload judge) for one valid request."""
        ring = nc.build(op.spec)
        if ring.order != op.order:
            order = ring.order
            return None, lambda payload: f"order {order}, grammar says {op.order}"
        oracle = ElementOracle(self.oracles, ring)
        if op.category == "info":
            return 0, info_judge(op.spec, self._info_reference(ring, oracle))
        if op.category == "ideal":
            return self._ideal_reference(ring, oracle, op.argv)
        return self._decompose_reference(ring, oracle, op.argv)

    def _info_reference(self, ring, oracle):
        o, n, mul = self.oracles, ring.order, ring.mul_i
        unit = [o.naive_is_unit(ring, x) for x in range(n)]
        one = ring.one_i
        expect = {
            "order": n,
            "commutative": all(
                mul(i, j) == mul(j, i) for i in range(n) for j in range(i + 1, n)
            ),
            "units_count": sum(unit),
            "idempotents_count": sum(1 for x in range(n) if mul(x, x) == x),
            "nilpotents_count": sum(1 for x in range(n) if oracle.nil_index(x) is not None),
            "jacobson": [
                x for x in range(n)
                if all(unit[ring.sub_i(one, mul(r, x))] for r in range(n))
            ],
            "nil_clean_ring": all(oracle.holds("nil-clean", x) for x in range(n)),
        }
        if n <= 256:
            expect["idempotents"] = [x for x in range(n) if mul(x, x) == x]
            expect["nilpotents"] = [x for x in range(n) if oracle.nil_index(x) is not None]
        return expect

    def _ideal_reference(self, ring, oracle, argv):
        gens = [int(g) for g in argv[argv.index("--gens") + 1 : argv.index("--property")]]
        prop = argv[argv.index("--property") + 1]
        members = sorted(generated_ideal(ring, gens))
        failing = {x for x in members if not oracle.holds(prop, x)}
        verdict, spec = not failing, ring.spec

        def judge(payload):
            reason = ideal_invariants(ring, frozenset(payload["ideal"]["members"]), self.rng)
            if reason:
                return f"ideal of {spec} by {gens}: {reason}"
            if payload["ideal"]["members"] != members:
                return f"ideal of {spec} by {gens} differs from its closure"
            if payload["verdict"] != verdict:
                return f"{prop} verdict {payload['verdict']}, oracle says {verdict}"
            witness = payload.get("witness", {}).get("element")
            if not verdict and witness not in failing:
                return f"witness {witness} does not violate {prop}"
            return None

        return (0 if verdict else 1), judge

    def _decompose_reference(self, ring, oracle, argv):
        x, kind = int(argv[2]), argv[3]
        base = CLEAN if kind in ("clean", "strongly-clean") else NIL
        pairs = oracle.commuting(x, base) if kind.startswith("strongly") else oracle.pairs(x, base)
        mul = ring.mul_i
        expect = [
            {
                "element": x,
                "idempotent": e,
                "second": y,
                "kind": base,
                "commutes": mul(e, y) == mul(y, e),
                "nil_index": oracle.nil_index(y) if base == NIL else None,
            }
            for e, y in pairs
        ]

        spec = ring.spec

        def judge(payload):
            if payload["decompositions"] != expect:
                return f"{kind} decompositions of {x} in {spec} differ from brute force"
            return None

        return (0 if expect else 1), judge
