"""nilclean benchmark: one workload per process, one thread, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads are ``suite`` and ``query`` (see NOTES.md).  A run first warms
up on two seconds of untimed ops.  With ``--trace 0`` it then repeats the
workload's cycle of ops until ``--seconds`` of timed work are done and
prints the end-to-end metrics, every time scaled to a nominal host speed
(see hostref.py; the unscaled figures are printed too).  With ``--trace 1``
it measures a quarter of that untraced, replays the same ops twice under
the layer tracer (once timing spans, once counting ring operations) and
prints the per-layer metrics.  Every op's output is checked outside the
timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
import hostref  # noqa: E402
from hostref import Samples  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_PROBES = 31
WARMUP_S = 2.0  # untimed ops before the timed phase: first-touch page faults, lazy imports
STARTED = time.perf_counter()
DEADLINE_S = 150.0  # no op starts later than this, so a run ends within 180 s
GOLDEN = "tests/golden/theorems_default.json"


class BenchError(Exception):
    """The checkout lacks something the benchmark needs."""


def load_program():
    """Import nilclean from this checkout's src/, plus the test oracles and golden report."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracles.py"
    golden_path = ROOT / GOLDEN
    for path in (src / "nilclean" / "__init__.py", oracle_path, golden_path):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}")
    sys.path.insert(0, str(src))
    import nilclean
    import nilclean.cli

    if Path(nilclean.__file__).resolve().parent != src / "nilclean":
        raise BenchError(f"imported nilclean from {nilclean.__file__}, not from src/")
    spec = importlib.util.spec_from_file_location("nilclean_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return nilclean, oracles, golden_path.read_text(encoding="utf-8")


def measure_setup(workload: str, seed: int):
    """Medians over fresh interpreters of import plus input generation:
    (scaled to nominal host speed, raw)."""
    env = {k: v for k, v in os.environ.items() if k != "NILCLEAN_THREADS"}
    raw, scaled = [], []
    refs = Samples()
    refs.take()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=60, env=env, cwd=ROOT,
        )
        end = time.perf_counter()
        refs.take()
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        took = float(done.stdout.strip().splitlines()[-1])
        raw.append(took)
        scaled.append(took * refs.scale(start, end))
    return statistics.median(scaled), statistics.median(raw)


class Phase:
    """Latencies and check results of one measured phase."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.refs = Samples()
        self.failures = []  # (op, reason)

    @property
    def attempted(self):
        return len(self.latencies)

    def scaled_latencies(self):
        """Each latency scaled by the host speed around it (hostref.py)."""
        return [lat * self.refs.scale(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]


def run_phase(nc, plan, checker, seconds=None, ops=None, tracer=None, on_op=None):
    """Run the plan's ops in cycle order until the timed work reaches
    `seconds`, or for exactly `ops` ops.  No op starts after the deadline."""
    phase = Phase()
    timed = 0.0
    for op in itertools.cycle(plan.ops):
        if ops is not None and phase.attempted >= ops:
            break
        if seconds is not None and timed >= seconds:
            break
        if time.perf_counter() - STARTED > DEADLINE_S:
            break
        gc.collect()
        if phase.refs.due():
            phase.refs.take()
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            output = workloads.run_op(nc, op)
        except Exception as exc:  # an escaped exception is a failed op
            output = exc
        elapsed = time.perf_counter() - t0
        timed += elapsed
        if tracer is not None:
            tracer.end_op()
        phase.latencies.append(elapsed)
        phase.starts.append(t0)
        if on_op is not None:
            on_op(op, output)
        if isinstance(output, Exception) and op.workload == "suite":
            reason = f"{type(output).__name__}: {output}"
        else:
            try:
                reason = checker.check(nc, op, output)
            except Exception as exc:  # a malformed output the judge choked on
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            phase.failures.append((op, reason))
        del output
    phase.refs.take()
    return phase


def probe_defects(nc, plan, checker):
    """Run each known-defect request once, untimed and outside the counted
    ops, and say whether it still shows its documented symptom.  Returns
    False when one shows neither that symptom nor the contract's exit code."""
    sane = True
    for op in plan.defect_probes:
        try:
            output = workloads.run_op(nc, op)
        except Exception as exc:
            output = exc
        if checker.is_known_defect(op, output):
            state = "still present"
        elif checker.check(nc, op, output) is None:
            state = "fixed"
        else:
            state, sane = "UNEXPECTED", False
        shown = output if isinstance(output, Exception) else f"exit {output.code}"
        print(f"  known defect [{op.category}] {' '.join(op.argv)[:90]} -> "
              f"{str(shown)[:120]}: {state}")
    return sane


# --------------------------------------------------------------------------
# reporting


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def tail_percentile(latencies):
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    n = len(latencies)
    for p in (99.9, 99, 95, 90, 75):
        beyond = n - int(n * p / 100)
        if beyond >= 10 and int(n * p / 100) > n // 2:
            ordered = sorted(latencies)
            return p, ordered[int(n * p / 100) - 1], beyond
    return None


def print_failures(phase):
    for op, reason in phase.failures:
        what = " ".join(op.argv) if op.argv else op.spec
        print(f"  FAILED: [{op.category or op.workload}] {what[:90]} -> {reason[:160]}")


def end_to_end(phase, setup_s):
    """The listed metrics, times scaled to nominal host speed."""
    scaled = phase.scaled_latencies()
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_end_to_end(metrics, phase, raw_setup_s):
    for name, (value, unit) in metrics.items():
        print(f"{name:<18} {value:12.4f} {unit}")
    speed = statistics.median(phase.refs.ref) / hostref.REF_NOMINAL_S
    print(f"unscaled: setup_s {raw_setup_s:.4f} s, ops_per_s "
          f"{phase.attempted / sum(phase.latencies):.4f} 1/s, latency_p50_ms "
          f"{statistics.median(phase.latencies) * 1000.0:.4f} ms; reference loop "
          f"{speed:.3f} x nominal")
    tail = tail_percentile(phase.scaled_latencies())
    if tail is None:
        print(f"{'latency_tail_ms':<18} omitted: {phase.attempted} ops leave fewer than 10 beyond any percentile above p50")
    else:
        p, value, beyond = tail
        print(f"{'latency_tail_ms':<18} {value * 1000.0:12.4f} ms  (p{p:g}, {phase.attempted} samples, {beyond} beyond)")
    ratio = len(phase.failures) / phase.attempted
    print(f"{'fail_ratio':<18} {ratio:12.4f} ratio  ({len(phase.failures)} of {phase.attempted} ops)")


def per_layer(timed, counted, traced, counted_ops, untraced, cli_bytes, check_ids):
    """Per-op means of the per-layer metrics; times from the timed pass,
    counts from the counted pass over the same ops (a prefix of them if the
    deadline cut the counted pass)."""
    ops = traced.attempted
    per_op = lambda value: value / ops  # noqa: E731
    per_counted = lambda value: value / max(counted_ops, 1)  # noqa: E731
    layers, functions = timed.by_layer(), timed.by_function()
    counts = counted.by_layer()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_op(layers[layer][1]), "s")
    for layer in ("construct", "classify", "ideals", "decompose"):
        calls, _, mul, add, _ = counts[layer]
        metrics[f"{layer}.calls"] = (per_counted(calls), "count")
        metrics[f"{layer}.mul_i_calls"] = (per_counted(mul), "count")
        metrics[f"{layer}.add_i_calls"] = (per_counted(add), "count")
    metrics["construct.table_entries"] = (per_counted(counted.table_entries), "count")
    metrics["ring.axiom_triples"] = (per_counted(counted.axiom_triples), "count")
    for name in ("center", "jacobson_radical", "units"):
        metrics[f"classify.{name}.self_s"] = (per_op(functions[("classify", name)][1]), "s")
    found = counted.ideals_found
    metrics["ideals.ideals_found"] = (per_counted(found), "count")
    metrics["ideals.mul_i_per_ideal"] = (counts["ideals"][2] / found if found else 0.0, "ratio")
    for name in ("all_ideals", "ideal_generated"):
        metrics[f"ideals.{name}.self_s"] = (per_op(functions[("ideals", name)][1]), "s")
    filled = counts["decompose"][4]
    metrics["decompose.useful_ratio"] = (counted.asked / filled if filled else 0.0, "ratio")
    for check_id in check_ids:
        metrics[f"theorems.{check_id}.self_s"] = (per_op(functions[("theorems", check_id)][1]), "s")
    metrics["cli.output_bytes"] = (per_op(cli_bytes), "bytes")
    wall = sum(traced.latencies)
    baseline = sum(untraced.latencies[:ops])  # the same ops, unless the deadline cut the replay
    metrics["trace.overhead_s"] = (per_op(wall - baseline), "s")
    metrics["trace.unattributed_s"] = (per_op(layers["bench"][1]), "s")
    return metrics


def print_layer_table(timed, counted, traced, counted_ops, untraced):
    ops, cops = traced.attempted, max(counted_ops, 1)
    wall = sum(traced.latencies)
    layers, counts = timed.by_layer(), counted.by_layer()
    print(f"per-layer self time over {ops} traced ops (traced {wall / ops:.4f} s/op, "
          f"untraced {sum(untraced.latencies[:ops]) / ops:.4f} s/op)")
    print(f"  {'layer':<12}{'self_s/op':>12}{'share':>8}{'spans/op':>11}{'mul_i/op':>13}{'add_i/op':>13}")
    for layer in LAYERS + ("bench",):
        own = layers[layer][1]
        calls, _, mul, add, _ = counts[layer]
        print(f"  {layer:<12}{own / ops:12.5f}{100 * own / wall:7.1f}%"
              f"{calls / cops:11.1f}{mul / cops:13.0f}{add / cops:13.0f}")
    top = sorted(timed.by_function().items(), key=lambda kv: -kv[1][1])[:15]
    print("  top functions by self time:")
    for (layer, name), acc in top:
        print(f"    {layer + '.' + name:<38}{acc[1] / ops:10.5f} s/op{acc[0] / ops:10.1f} spans/op")


def print_check_table(timed, ops, check_ids):
    """Where each check's time went, for runs that reach the checks."""
    split = timed.split_under("theorems")
    rows = sorted(((c, split[c]) for c in check_ids if c in split), key=lambda row: -row[1]["total"])
    if not rows:
        return
    print("  checks by total time, split by the layer of the self time beneath them:")
    for check_id, acc in rows[:10]:
        shares = "  ".join(f"{layer} {100 * acc[layer] / acc['total']:4.1f}%"
                           for layer in LAYERS if acc[layer] >= 0.005 * acc["total"])
        print(f"    {check_id:<16}{acc['total'] / ops:9.4f} s/op  {shares}")


def run_traced(nc, plan, checker, seconds, spans_path):
    """Untraced quarter run, then the same ops timed and counted by tracers."""
    from tracer import Tracer

    untraced = run_phase(nc, plan, checker, seconds=seconds / 4)
    cli_bytes = 0
    timed = Tracer(nc, count=False)

    def on_op(op, output):
        nonlocal cli_bytes
        if isinstance(output, workloads.CliResult):
            cli_bytes += len(output.stdout.encode())

    phases = [untraced]
    for tracer in (timed, Tracer(nc, count=True)):
        tracer.install()
        try:
            phases.append(run_phase(nc, plan, checker, ops=phases[-1].attempted, tracer=tracer,
                                    on_op=on_op if tracer is timed else None))
        finally:
            tracer.uninstall()
    counted = tracer
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.unlink(missing_ok=True)
    timed.write(spans_path, "timed")
    counted.write(spans_path, "counted")
    counted_ops = phases[2].attempted
    print_layer_table(timed, counted, phases[1], counted_ops, untraced)
    check_ids = sorted(r["id"] for r in json.loads(checker.golden)["reports"])
    print_check_table(timed, phases[1].attempted, check_ids)
    metrics = per_layer(timed, counted, phases[1], counted_ops, untraced, cli_bytes, check_ids)
    return metrics, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("NILCLEAN_THREADS", None)
    try:
        nc, oracles, golden = load_program()
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    except (BenchError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    plan = workloads.generate(args.workload, args.seed)
    checker = Checker(oracles, golden, args.seed)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"commit={commit_id()} src_sha256={source_digest()} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")

    warmup = run_phase(nc, plan, checker, seconds=WARMUP_S)
    print_failures(warmup)
    if args.trace == 0:
        phase = run_phase(nc, plan, checker, seconds=args.seconds)
        metrics = end_to_end(phase, setup_s)
        print_end_to_end(metrics, phase, raw_setup_s)
        failures, attempted = phase.failures, phase.attempted
        print_failures(phase)
    else:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, phases = run_traced(nc, plan, checker, args.seconds, spans_path)
        failures = [f for phase in phases for f in phase.failures]
        attempted = sum(phase.attempted for phase in phases)
        for phase in phases:
            print_failures(phase)

    probes_sane = probe_defects(nc, plan, checker)
    failures = warmup.failures + failures
    print(json.dumps({
        "correct": not failures and probes_sane,
        "attempted": warmup.attempted + attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
