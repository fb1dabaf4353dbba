"""Outside-in tracer for the nilclean layers.

The layers are the package's modules.  Tracing changes nothing under
``src/``: :meth:`Tracer.install` replaces every public function of each
layer module with a wrapper, both in its own module and wherever another
``nilclean`` module (or the package namespace) imported it, and
:meth:`Tracer.uninstall` restores the originals.

A wrapper opens a span only when the innermost open span belongs to another
layer, so a cross-module call records a span under its parent while a call
within one module does not.  Each of the registered checks gets a span named
by its check id, so check self time shows separately inside ``theorems``.

Spans are folded into a call tree as they close: one node per distinct path
(op, caller chain, function) holding its call count, total and self time.
With ``count=True`` the tracer also wraps ``FiniteRing.mul_i``, ``add_i``,
``cached`` and ``__init__`` and charges each call, cache fill and table to
the innermost open span.  Counting costs more than spans, so a run times
layers with ``count=False`` and counts with ``count=True`` on the same ops.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("construct", "ring", "classify", "ideals", "decompose", "theorems", "cli")
ROOT = "bench"

# node slots
CALLS, TOTAL, SELF, MUL, ADD, FILLED, CHILDREN, KEY = range(8)
# open-span frame slots
F_NODE, F_START, F_CHILD, F_MUL, F_ADD, F_FILLED = range(6)


def _node(key):
    return [0, 0.0, 0.0, 0, 0, 0, {}, key]


class Tracer:
    def __init__(self, package, count: bool):
        self.package = package
        self.count = count
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.roots = []  # one call tree per op
        self._stack = []
        self._cur = [[None, 0.0, 0.0, 0, 0, 0]]  # sink frame outside ops
        self._patches = []
        self._seen_results = set()
        self.asked = 0  # distinct elements the callers of `decompose` asked about
        self._asked_seen = set()
        self.table_entries = 0
        self.axiom_triples = 0
        self.ideals_found = 0

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name, value):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def install(self) -> None:
        wrapped = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
        namespaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        for namespace in namespaces:
            for name, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, name, hit[1])
                elif isinstance(value, dict) and not name.startswith("__"):
                    # dispatch tables such as the CLI's property table
                    for key, entry in list(value.items()):
                        hit = wrapped.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            self._patch(value, key, hit[1])
        checks = self.package.CHECKS
        for check_id, check in list(checks.items()):
            fn = self._wrap(check.fn, "theorems", check_id, always=True)
            self._patch(checks, check_id, dataclasses.replace(check, fn=fn))
        if self.count:
            self._count_ring_methods()

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._patches.clear()

    def _count_ring_methods(self) -> None:
        ring_cls = self.package.FiniteRing
        cur, stack = self._cur, self._stack
        mul_i, add_i = ring_cls.mul_i, ring_cls.add_i
        cached, init = ring_cls.cached, ring_cls.__init__
        cap = getattr(self.modules["ring"], "MATERIALIZE_CAP", None)

        def counted_mul_i(ring, i, j):
            cur[0][3] += 1  # F_MUL
            return mul_i(ring, i, j)

        def counted_add_i(ring, i, j):
            cur[0][4] += 1  # F_ADD
            return add_i(ring, i, j)

        def counted_cached(ring, key, fill):
            def counted_fill():
                cur[0][F_FILLED] += ring.order
                return fill()

            return cached(ring, key, counted_fill)

        def counted_init(ring, *args, **kwargs):
            init(ring, *args, **kwargs)
            if stack and (cap is None or ring.order <= cap):
                self.table_entries += 2 * ring.order * ring.order + ring.order

        self._patch(ring_cls, "mul_i", counted_mul_i)
        self._patch(ring_cls, "add_i", counted_add_i)
        self._patch(ring_cls, "cached", counted_cached)
        self._patch(ring_cls, "__init__", counted_init)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer, name, always=False):
        stack, cur = self._stack, self._cur
        clock = time.perf_counter
        key = (layer, name)
        on_result = self._result_hooks().get(key)
        count_asked = self.count and layer == "decompose"

        def traced(*args, **kwargs):
            if not stack or (stack[-1][F_NODE][KEY][0] == layer and not always):
                return fn(*args, **kwargs)
            if count_asked:
                self._note_asked(args)
            parent = stack[-1]
            children = parent[F_NODE][CHILDREN]
            node = children.get(key)
            if node is None:
                node = children[key] = _node(key)
            frame = [node, clock(), 0.0, 0, 0, 0]
            stack.append(frame)
            cur[0] = frame
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[F_START]
                stack.pop()
                cur[0] = parent
                parent[F_CHILD] += duration
                node[CALLS] += 1
                node[TOTAL] += duration
                node[SELF] += duration - frame[F_CHILD]
                node[MUL] += frame[F_MUL]
                node[ADD] += frame[F_ADD]
                node[FILLED] += frame[F_FILLED]
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _note_asked(self, args) -> None:
        if not args:
            return
        first, seen = args[0], self._asked_seen
        if isinstance(first, self.package.Ideal):
            seen.update((id(first.ring), x) for x in first.indices)
        elif isinstance(first, self.package.FiniteRing):
            if len(args) > 1:
                seen.add((id(first), getattr(args[1], "index", args[1])))
            else:
                seen.update((id(first), x) for x in range(first.order))

    def _result_hooks(self):
        def axioms(report):
            self.axiom_triples += report.checked

        def ideals(found):
            if id(found) not in self._seen_results:
                self._seen_results.add(id(found))
                self.ideals_found += len(found)

        return {("ring", "verify_axioms"): axioms, ("ideals", "all_ideals"): ideals}

    # -- per-op brackets ----------------------------------------------------

    def begin_op(self) -> None:
        root = _node((ROOT, f"op{len(self.roots)}"))
        self.roots.append(root)
        frame = [root, time.perf_counter(), 0.0, 0, 0, 0]
        self._stack.append(frame)
        self._cur[0] = frame
        self._seen_results.clear()
        self._asked_seen.clear()

    def end_op(self) -> None:
        frame = self._stack.pop()
        self._cur[0] = [None, 0.0, 0.0, 0, 0, 0]
        root = frame[F_NODE]
        duration = time.perf_counter() - frame[F_START]
        root[CALLS] = 1
        root[TOTAL] = duration
        root[SELF] = duration - frame[F_CHILD]
        root[MUL], root[ADD], root[FILLED] = frame[F_MUL], frame[F_ADD], frame[F_FILLED]
        self.asked += len(self._asked_seen)

    # -- summaries ------------------------------------------------------------

    @staticmethod
    def _walk(node):
        todo = [node]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node[CHILDREN].values())

    def by_function(self) -> dict:
        """(layer, name) -> [calls, self_s, mul_i, add_i, filled], summed over ops."""
        out = defaultdict(lambda: [0, 0.0, 0, 0, 0])
        for root in self.roots:
            for node in self._walk(root):
                layer, name = node[KEY]
                acc = out[(layer, "op" if layer == ROOT else name)]
                acc[0] += node[CALLS]
                acc[1] += node[SELF]
                acc[2] += node[MUL]
                acc[3] += node[ADD]
                acc[4] += node[FILLED]
        return out

    def by_layer(self) -> dict:
        """layer -> [calls, self_s, mul_i, add_i, filled]; `bench` is unattributed."""
        out = {layer: [0, 0.0, 0, 0, 0] for layer in LAYERS + (ROOT,)}
        for (layer, _), acc in self.by_function().items():
            for i, value in enumerate(acc):
                out[layer][i] += value
        return out

    def split_under(self, layer: str) -> dict:
        """For each span name of `layer`: its total time and the self time of
        its subtree by layer, summed over ops (where a check's time went)."""
        out = defaultdict(lambda: defaultdict(float))
        for root in self.roots:
            for node in self._walk(root):
                if node[KEY][0] != layer:
                    continue
                acc = out[node[KEY][1]]
                acc["total"] += node[TOTAL]
                for sub in self._walk(node):
                    acc[sub[KEY][0]] += sub[SELF]
        return out

    def write(self, path, label: str) -> None:
        """Append the call trees of every op, one JSON line per op."""

        def tree(node):
            layer, name = node[KEY]
            return {
                "layer": layer, "name": name, "calls": node[CALLS],
                "total_s": node[TOTAL], "self_s": node[SELF],
                "mul_i": node[MUL], "add_i": node[ADD],
                "children": [tree(child) for child in node[CHILDREN].values()],
            }

        with open(path, "a", encoding="utf-8") as out:
            for index, root in enumerate(self.roots):
                out.write(json.dumps({"pass": label, "op": index, "tree": tree(root)}) + "\n")

