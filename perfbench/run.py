"""The endofactor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout.  It generates the workload's corpus
from the seed, checks the generator against the pinned digest, and then

* with ``--trace 0`` measures set-up in fresh processes, compute and check
  throughput and latency in one fresh single-threaded process, and one
  ``endofactor compute --trace`` process per document of a fixed sample;
* with ``--trace 1`` runs the same operations under layer wrappers and
  reports calls and self time per wrapped function.

Every output is checked (see README.md).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402

IMPORT_PROBES = 5
# compute_tail_ms is this percentile of compute-operation time: the highest
# that leaves at least ten samples beyond it in a run of the minimum two
# rounds (README.md gives the counts).
TAIL_PERCENTILE = {"batch-mixed": 97, "deep-towers": 89, "large-prime-unitary": 90}
# Check passes in each round of the untraced run, so that checks take about
# half as long as the round's compute pass.
CHECK_PASSES = {"batch-mixed": 1, "deep-towers": 1, "large-prime-unitary": 12}
# The traced run spends this share of --seconds in traced passes.
TRACE_SHARE = 0.5
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def python(*args):
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, args[:2]))} exited with {proc.returncode}:\n"
             f"{proc.stderr}")
    return proc.stdout


def write_corpus(workload, seed, out):
    corpus.check_canary(workload)
    texts = corpus.generate(workload, seed)
    if seed == corpus.DEFAULT_SEED:
        want = corpus.pinned(workload)["sha256"]
        if corpus.digest(texts) != want:
            fail(f"corpus of {workload} differs from the pinned digest {want}")
    docs = out / "corpus"
    docs.mkdir(parents=True)
    paths = [docs / f"{k:04d}.json" for k in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def untraced(workload, seed, seconds, out, paths):
    result_file = out / "measure.json"
    python(HERE / "worker.py", "measure", paths[0].parent, result_file,
           "--seconds", seconds, "--check-passes", CHECK_PASSES[workload])
    res = json.loads(result_file.read_text())
    setups, compute, check, cli = (res[op] for op in ("setup", "compute", "check", "cli"))
    pct = TAIL_PERCENTILE[workload]
    beyond = sum(t > percentile(compute, pct) for t in compute)
    print(f"perfbench: {workload} seed {seed}: {len(paths)} documents, "
          f"{res['rounds']} rounds of {len(compute)} compute, {len(check)} check "
          f"and {len(cli)} CLI operations; {beyond} compute times beyond p{pct}",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "compute_per_s": (len(compute) / sum(compute), "1/s"),
        "compute_p50_ms": (1e3 * statistics.median(compute), "ms"),
        "compute_tail_ms": (1e3 * percentile(compute, pct), "ms"),
        "check_per_s": (len(check) / sum(check), "1/s"),
        "cli_compute_ms": (1e3 * statistics.median(cli), "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    return metrics, len(compute) + len(check) + len(cli), res["faults"]


def traced(workload, seed, seconds, out, paths):
    trace_file = out / "trace.json"
    python(HERE / "worker.py", "trace", paths[0].parent, trace_file,
           "--seconds", seconds * TRACE_SHARE)
    res = json.loads(trace_file.read_text())
    imports = [float(python("-c", "import time; t = time.perf_counter(); "
                                  "import endofactor.cli; "
                                  "print(time.perf_counter() - t)"))
               for _ in range(IMPORT_PROBES)]
    passes = res["passes"]
    faults = res["faults"]
    metrics = {}
    for module, functions in layers.TARGETS.items():
        total = 0.0
        for name in functions:
            key = layers.metric_prefix(module, name)
            calls = [p[key][0] for p in passes]
            if len(set(calls)) != 1:
                faults.append({"phase": "trace-calls", "layer": key, "wrong": True,
                               "reason": f"calls differ between passes: {calls}"})
            self_ms = 1e3 * statistics.median(p[key][1] for p in passes)
            metrics[f"{key}.calls"] = (calls[0], "count")
            metrics[f"{key}.self_ms"] = (self_ms, "ms")
            total += self_ms
        metrics[f"{module.lstrip('_')}.self_ms"] = (total, "ms")
    metrics["cli.import_ms"] = (1e3 * statistics.median(imports), "ms")
    overhead = statistics.median(res["traced_pass_s"]) / res["untraced_pass_s"] - 1
    print(f"perfbench: {workload} seed {seed}: {len(passes)} traced passes; "
          f"untraced pass {res['untraced_pass_s']:.3f} s, traced pass "
          f"{statistics.median(res['traced_pass_s']):.3f} s, "
          f"tracing overhead {100 * overhead:.1f}%", file=sys.stderr)
    return metrics, res["operations"], faults


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "endofactor" / "cli.py").is_file() or \
            not (ROOT / "tests" / "support.py").is_file():
        fail(f"{ROOT} is not an endofactor checkout (src/endofactor, tests/support.py)")
    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    paths = write_corpus(args.workload, args.seed, out)
    run = traced if args.trace else untraced
    metrics, attempted, faults = run(args.workload, args.seed, args.seconds, out, paths)
    for fault in faults:
        print(f"perfbench: FAILED {fault}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(f["wrong"] for f in faults),
        "attempted": attempted,
        "failed": len(faults),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
