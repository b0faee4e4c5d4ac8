"""Stability report: repeated runs of the benchmark, with the spread of
every end-to-end metric against its bound in BENCHMARK.json.

    python3 perfbench/stability.py --workload deep-towers --runs 10 --sets 2

Set ``s`` (counting from 0) runs seeds ``1 + s * runs`` onwards, one run
per seed, each with BENCHMARK.json's ``run_seconds``.  For each metric and
set it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  A spread above the metric's bound
is flagged WIDE; from the second set on, a median that differs from the
first set's by more than the bound, in either direction, is flagged SHIFT,
and so is a share of failed operations that differs from the first set's.
A metric with a flag is unresolved at that bound.  Every run's result line
is appended to ``.perfbench-out/stability-<workload>.jsonl`` as a record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(workload, sets):
    flags = 0
    print(f"{workload}: {len(sets)} set(s) of {', '.join(str(len(s)) for s in sets)} runs")
    print(f"{'metric':16s} {'set':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s} {'shift':>7s}")
    for name, spec in METRICS.items():
        base = None
        for number, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, width = spread(values)
            marks = []
            if width > spec["bound"]:
                marks.append("WIDE")
            shift = ""
            if base is None:
                base = median
            else:
                change = (median - base) / base
                shift = f"{100 * change:+6.1f}%"
                if abs(change) > spec["bound"]:
                    marks.append("SHIFT")
            flags += len(marks)
            print(f"{name:16s} {number:3d} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{100 * width:6.1f}% {100 * spec['bound']:5.0f}% {shift:>7s} "
                  f"{' '.join(marks)}")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
    print(f"failed share per set: {shares}")
    if any(s != shares[0] for s in shares) or len(shares[0]) != 1:
        print("SHIFT: the share of failed operations is not the same in every run")
        flags += 1
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    log = ROOT / ".perfbench-out" / f"stability-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    sets = []
    for number in range(args.sets):
        sets.append([])
        for k in range(args.runs):
            seed = 1 + number * args.runs + k
            row = {"workload": args.workload, "set": number, "seed": seed,
                   **run_once(args.workload, seed)}
            sets[-1].append(row)
            with log.open("a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"set {number} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in row["metrics"].items()),
                file=sys.stderr, flush=True)
    raise SystemExit(1 if report(args.workload, sets) else 0)


if __name__ == "__main__":
    main()
