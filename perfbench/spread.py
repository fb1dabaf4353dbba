"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads suite query --seeds 1-10 --seconds 30 \
        [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json, and each run's wall time and unscaled figures (the
listed times are scaled to nominal host speed, see hostref.py).  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.strip().splitlines()
    # the run's header line: commit, source digest, Python version, nproc
    header = next(line for line in lines if line.startswith("commit="))
    unscaled = next(line for line in lines if line.startswith("unscaled:"))
    return {"host": dict(field.split("=", 1) for field in header.split()),
            "unscaled": unscaled[len("unscaled:"):].strip(), **json.loads(lines[-1])}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the per-run results and summary as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds)
            wall = time.perf_counter() - start
            runs.append({"seed": seed, "wall_s": wall, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall {wall:.0f} s {values}\n"
                  f"    unscaled: {result['unscaled']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:<8} {name:<16} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:7.4f}  bound {bound}  {flag}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
