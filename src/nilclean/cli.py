"""Command-line front end.

Commands: ``info``, ``ideal``, ``decompose``, ``theorems``, ``import``.
JSON output is the stable machine surface (sorted keys, fixed indentation,
no timestamps), table output is for humans.  Exit codes are a contract:

    0  success / property true
    1  property false (or an errored check)
    2  usage, parse, or malformed-input error
    3  an enumeration or order cap was exceeded
    4  a theorem check reported a counterexample
    5  axiom verification failed on an imported table
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .classify import (
    idempotents,
    jacobson_radical,
    nilpotents,
    units,
)
from .construct import (
    DEFAULT_IDEAL_CAP,
    DEFAULT_ORDER_CAP,
    Caps,
    build,
    make_table_ring,
    parse_ring_spec,
)
from .decompose import decompositions, failing_member, is_nil_clean_ring
from .errors import (
    AxiomFailure,
    BadParameter,
    CapExceeded,
    ExhaustiveTooLarge,
    NilCleanError,
    NotAnIdeal,
    NotCentralIdempotent,
    OrderCapExceeded,
    ParseError,
    UnknownCheck,
)
from .ideals import ideal_generated, non_nilpotent_member
from .ring import EXHAUSTIVE_LIMIT, FiniteRing, is_commutative, verify_axioms
from .theorems import DEFAULT_FAMILY, SuiteConfig, explore_noncommutative, run_all

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_AXIOMS = 5

MEMBER_LIST_LIMIT = 256

IDEAL_PROPERTIES = (
    "clean",
    "nil-clean",
    "strongly-nil-clean",
    "uniquely-nil-clean",
    "uniquely-strongly-nil-clean",
    "nil",
)

DECOMP_KINDS = ("nil-clean", "clean", "strongly-nil-clean", "strongly-clean")


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_kv(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        sys.stdout.write(f"{key.ljust(width)}  {value}\n")


def _ring_info_payload(ring: FiniteRing) -> dict:
    payload = {
        "spec": ring.spec,
        "order": ring.order,
        "commutative": is_commutative(ring),
        "units_count": len(units(ring)),
        "idempotents_count": len(idempotents(ring)),
        "nilpotents_count": len(nilpotents(ring)),
        "jacobson_count": len(jacobson_radical(ring)),
        "nil_clean_ring": is_nil_clean_ring(ring),
    }
    if ring.order <= MEMBER_LIST_LIMIT:
        payload["idempotents"] = sorted(idempotents(ring))
        payload["nilpotents"] = sorted(nilpotents(ring))
        payload["jacobson"] = sorted(jacobson_radical(ring).indices)
    return payload


def _emit_ring_info(ring: FiniteRing, fmt: str) -> None:
    payload = _ring_info_payload(ring)
    if fmt == "json":
        _print_json(payload)
        return
    pairs = [
        ("ring", payload["spec"]),
        ("order", str(payload["order"])),
        ("commutative", str(payload["commutative"]).lower()),
        ("units", str(payload["units_count"])),
        ("idempotents", _set_text(payload, "idempotents", "idempotents_count")),
        ("nilpotents", _set_text(payload, "nilpotents", "nilpotents_count")),
        ("jacobson", _set_text(payload, "jacobson", "jacobson_count")),
        ("nil-clean ring", str(payload["nil_clean_ring"]).lower()),
    ]
    _print_kv(pairs)


def _set_text(payload: dict, key: str, count_key: str) -> str:
    if key in payload:
        return "{" + ",".join(map(str, payload[key])) + "}"
    return f"#{payload[count_key]}"


def cmd_info(args) -> int:
    ring = build(args.spec, Caps(args.order_cap, args.ideal_cap))
    _emit_ring_info(ring, args.format)
    return EXIT_OK


def cmd_ideal(args) -> int:
    caps = Caps(args.order_cap, args.ideal_cap)
    ring = build(args.spec, caps)
    ideal = ideal_generated(ring, args.gens)
    nil = args.property == "nil"
    bad = non_nilpotent_member(ideal) if nil else failing_member(ideal, args.property)
    verdict = bad is None
    payload = {
        "ring": ring.spec,
        "ideal": ideal.to_json(),
        "property": args.property,
        "verdict": verdict,
    }
    if not verdict:
        # the least failing member, with its decompositions for the property
        decs = [] if nil else decompositions(ring, bad, args.property)
        payload["witness"] = {
            "element": bad,
            "label": ring.label(bad),
            "decompositions": [d.to_json() for d in decs],
        }
        if not nil:
            payload["witness"]["count"] = len(decs)
    if args.format == "json":
        _print_json(payload)
    else:
        members = "{" + ",".join(map(str, ideal.indices)) + "}"
        _print_kv(
            [
                ("ring", ring.spec),
                ("ideal", members),
                ("property", args.property),
                ("verdict", str(verdict).lower()),
            ]
        )
        if not verdict:
            wit = payload["witness"]
            sys.stdout.write(
                f"witness element {wit['element']} ({wit['label']}) has "
                f"{len(wit['decompositions'])} matching decomposition(s)\n"
            )
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_decompose(args) -> int:
    caps = Caps(args.order_cap, args.ideal_cap)
    ring = build(args.spec, caps)
    if not 0 <= args.element < ring.order:
        raise BadParameter(
            f"element {args.element} outside ring of order {ring.order}"
        )
    decs = decompositions(ring, args.element, args.kind)
    payload = {
        "ring": ring.spec,
        "element": args.element,
        "label": ring.label(args.element),
        "kind": args.kind,
        "decompositions": [d.to_json() for d in decs],
    }
    if args.format == "json":
        _print_json(payload)
    else:
        sys.stdout.write(
            f"{ring.spec} element {args.element} ({payload['label']}), "
            f"{args.kind}: {len(decs)} decomposition(s)\n"
        )
        for d in decs:
            parts = f"e={d.idempotent.index} ({d.idempotent.label}), second={d.second.index} ({d.second.label})"
            if d.nil_index is not None:
                parts += f", nil index {d.nil_index}"
            sys.stdout.write("  " + parts + "\n")
    return EXIT_OK if decs else EXIT_FALSE


def _report_rows(reports, timings: bool):
    rows = [("id", "verdict", "instances", "hypotheses") + (("millis",) if timings else ())]
    for r in reports:
        row = (r.id, r.verdict, str(r.instances_tested), str(r.hypotheses_met))
        rows.append(row + ((f"{r.millis:.1f}",) if timings else ()))
    return rows


def cmd_theorems(args) -> int:
    caps = Caps(args.order_cap, args.ideal_cap)
    family = tuple(args.family) if args.family else DEFAULT_FAMILY
    config = SuiteConfig(family=family, caps=caps)
    reports = run_all(config, ids=args.ids or None)
    if args.format == "json":
        _print_json(
            {
                "family": list(config.family),
                "reports": [r.to_json(include_millis=args.timings) for r in reports],
            }
        )
    else:
        rows = _report_rows(reports, args.timings)
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            sys.stdout.write(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                + "\n"
            )
        for r in reports:
            if r.witness is not None:
                sys.stdout.write(f"{r.id}: witness {json.dumps(r.witness, sort_keys=True)}\n")
    if args.explore_noncommutative:
        findings = explore_noncommutative(caps=caps)
        disagreements = [f for f in findings if not f["agree"]]
        sys.stdout.write(
            f"noncommutative exploration: {len(findings)} triangular instances, "
            f"{len(disagreements)} disagreement(s) (informational only)\n"
        )
        for f in disagreements:
            sys.stdout.write("  " + json.dumps(f, sort_keys=True) + "\n")
    if any(r.verdict == "counterexample" for r in reports):
        return EXIT_COUNTEREXAMPLE
    if any(r.verdict == "error" for r in reports):
        return EXIT_FALSE
    return EXIT_OK


def table_json(ring: FiniteRing) -> dict:
    """Export a ring's tables in the import file format."""
    n = ring.order
    return {
        "order": n,
        "add": [list(ring.add_row(i)) for i in range(n)],
        "mul": [list(ring.mul_row(i)) for i in range(n)],
        "zero": ring.zero_i,
        "one": ring.one_i,
    }


def cmd_import(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"cannot read table file: {exc}\n")
        return EXIT_USAGE
    try:
        order = int(raw["order"])
        add, mul = raw["add"], raw["mul"]
        zero, one = int(raw["zero"]), int(raw["one"])
    except (KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"malformed table file: {exc}\n")
        return EXIT_USAGE
    if order > EXHAUSTIVE_LIMIT:
        sys.stderr.write(
            f"imported tables are verified exhaustively; order {order} exceeds "
            f"the limit {EXHAUSTIVE_LIMIT}\n"
        )
        return EXIT_CAP
    try:
        ring = make_table_ring(add, mul, zero, one, name=f"table{order}")
    except BadParameter as exc:
        sys.stderr.write(f"malformed table file: {exc}\n")
        return EXIT_USAGE
    if ring.order != order:
        sys.stderr.write("malformed table file: order does not match tables\n")
        return EXIT_USAGE
    report = verify_axioms(ring, mode="exhaustive")
    if not report.ok:
        if args.format == "json":
            _print_json(report.to_json())
        else:
            sys.stdout.write(report.summary() + "\n")
        return EXIT_AXIOMS
    _emit_ring_info(ring, args.format)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    common.add_argument(
        "--order-cap",
        type=_positive_int,
        default=DEFAULT_ORDER_CAP,
        help=f"largest constructible order, at most {DEFAULT_ORDER_CAP}",
    )
    common.add_argument(
        "--ideal-cap",
        type=_positive_int,
        default=DEFAULT_IDEAL_CAP,
        help="most ideals enumerated per ring",
    )

    parser = argparse.ArgumentParser(
        prog="nilclean",
        description="inspect finite rings, their ideals, and their decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[common], help="summarize one ring")
    p_info.add_argument("spec", help="ring spec, e.g. Z6 or T2(Z4)")
    p_info.set_defaults(fn=cmd_info)

    p_ideal = sub.add_parser(
        "ideal", parents=[common], help="test one property of a generated ideal"
    )
    p_ideal.add_argument("spec")
    p_ideal.add_argument(
        "--gens", type=int, nargs="*", default=(), help="generator element indices"
    )
    p_ideal.add_argument("--property", choices=IDEAL_PROPERTIES, required=True)
    p_ideal.set_defaults(fn=cmd_ideal)

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="list decompositions of one element"
    )
    p_dec.add_argument("spec")
    p_dec.add_argument("element", type=int)
    p_dec.add_argument("kind", choices=DECOMP_KINDS)
    p_dec.set_defaults(fn=cmd_decompose)

    p_thm = sub.add_parser(
        "theorems", parents=[common], help="run the registered checks"
    )
    p_thm.add_argument("--ids", nargs="+", default=(), help="subset of check ids")
    p_thm.add_argument(
        "--family", nargs="+", default=(), help="ring specs replacing the default family"
    )
    p_thm.add_argument(
        "--timings",
        action="store_true",
        help="include per-check millis (breaks byte-for-byte reproducibility)",
    )
    p_thm.add_argument(
        "--explore-noncommutative",
        action="store_true",
        help="also probe triangular rings where the commutative splittings are unasserted",
    )
    p_thm.set_defaults(fn=cmd_theorems)

    p_imp = sub.add_parser(
        "import", parents=[common], help="load and verify a Cayley-table JSON file"
    )
    p_imp.add_argument("path")
    p_imp.set_defaults(fn=cmd_import)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except (BadParameter, UnknownCheck, NotAnIdeal, NotCentralIdempotent) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OrderCapExceeded, CapExceeded, ExhaustiveTooLarge) as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except AxiomFailure as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_AXIOMS
    except NilCleanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FALSE


if __name__ == "__main__":
    sys.exit(main())
