"""One workload's in-process phase, run in a fresh interpreter.

    python3 perfbench/worker.py setup CORPUS_DIR
    python3 perfbench/worker.py measure CORPUS_DIR OUT --seconds S --check-passes K
    python3 perfbench/worker.py trace CORPUS_DIR OUT --seconds S

Every mode first times set-up: from just before ``import endofactor`` until
every document of the corpus has been read and parsed once; ``setup`` does
only that and prints the time.  ``measure`` then runs rounds, each of
compute operations (``load_document`` + ``compute_delta`` +
``trace.lines()``) and check operations (``load_document`` +
``verify.run_suite``) over the whole corpus on freshly parsed objects, one
``python -m endofactor.cli compute DOC --trace`` process per document of a
fixed sample, and fresh ``setup`` processes.  ``trace`` runs the same
in-process operations under the layer wrappers of ``layers.py``.  Results
go to OUT as JSON; nothing is timed while it is written.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNITARY = ("unitary", "bc_unitary")
CLI_SAMPLE = 7
SETUP_PROBES = 2


def setup(corpus_dir):
    """Import the package and read and parse every document once; returns
    the documents' paths and texts and the wall time it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from endofactor.document import load_document
    paths = sorted(Path(corpus_dir).glob("*.json"))
    texts = [path.read_text() for path in paths]
    for text in texts:
        load_document(text)
    return paths, texts, time.perf_counter() - start


def compute_op(text):
    from endofactor.document import load_document
    from endofactor.factor import compute_delta
    doc = load_document(text)
    value, trace = compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
    return doc.group.case, value.angle, "\n".join(trace.lines()) + "\n"


def check_op(text):
    from endofactor import verify
    from endofactor.document import load_document
    doc = load_document(text)
    return doc.group.case, verify.run_suite(doc.y, doc.x, doc.group, doc.endoscopic)


def compute_faults(results, first):
    """Property checks on one compute pass; ``results[k]`` is
    (case, angle, output) of document k or the exception it raised, and
    documents 2j and 2j + 1 are a norm-class twin pair.  ``first`` is the
    first pass's results.  Returns {document: (reason, wrong output?)}."""
    faults = {}
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            faults[k] = (f"{type(res).__name__}: {res}", False)
            continue
        case, angle, out = res
        twin = results[k - 1] if k % 2 else None
        if case not in UNITARY and angle not in (Fraction(0), Fraction(1, 2)):
            faults[k] = (f"value at angle {angle} is not +1 or -1", True)
        elif isinstance(twin, tuple) and angle != twin[1]:
            faults[k] = (f"twin angle {angle} differs from {twin[1]}", True)
        elif isinstance(first[k], tuple) and out != first[k][2]:
            faults[k] = ("output differs from the first pass", True)
    return faults


def check_faults(results):
    faults = {}
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            faults[k] = (f"{type(res).__name__}: {res}", False)
            continue
        case, flags = res
        names = {name for name, _ in flags}
        if not all(ok for _, ok in flags):
            faults[k] = ("failed: " + ", ".join(n for n, ok in flags if not ok), True)
        elif case == "twisted_gl_odd" and not (
                "lie-side-reconstruction" in names
                and any(name.startswith("li-identity-1") for name in names)):
            faults[k] = ("odd twisted document without the full identity suite", True)
    return faults


def _faults(phase, number, found):
    return [{"phase": phase, "pass": number, "document": k, "reason": reason,
             "wrong": wrong} for k, (reason, wrong) in sorted(found.items())]


def _timed(op, text, times):
    start = time.perf_counter()
    try:
        result = op(text)
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    times.append(time.perf_counter() - start)
    return result


def fits(spent, rounds, seconds):
    """Whether one more round of the average length ends within ``seconds``."""
    return spent + spent / rounds <= seconds


def cli_sample(paths):
    """A fixed sample of original documents, evenly spaced over the slots."""
    originals = paths[0::2]
    picks = sorted({round(i * len(originals) / CLI_SAMPLE) for i in range(CLI_SAMPLE)})
    return [(2 * i, originals[i]) for i in picks]


def cli_compute(path, times):
    """One ``endofactor compute DOC --trace`` process; returns it finished."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "endofactor.cli", "compute",
         str(path.relative_to(ROOT)), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    times.append(time.perf_counter() - start)
    return proc


def setup_probe(corpus_dir, times):
    """Set-up timed in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "setup", str(corpus_dir)],
                          capture_output=True, text=True, timeout=170, check=True)
    times.append(json.loads(proc.stdout))


def measure(corpus_dir, out, seconds, check_passes):
    """Rounds of one compute pass, ``check_passes`` check passes, one CLI
    process per sample document and SETUP_PROBES fresh set-up processes,
    for as long as another round fits in ``seconds``.  Interleaving spreads
    every metric's samples over the whole run, so a slow spell of a shared
    machine weighs on all alike."""
    paths, texts, own_setup = setup(corpus_dir)
    times = {op: [] for op in ("setup", "compute", "check", "cli")}
    times["setup"].append(own_setup)
    faults = []
    rounds = 0
    spent = 0.0
    while rounds < 2 or fits(spent, rounds, seconds):
        start = time.perf_counter()
        results = [_timed(compute_op, text, times["compute"]) for text in texts]
        if rounds == 0:
            first = results
        faults += _faults("compute", rounds, compute_faults(results, first))
        for k in range(check_passes):
            results = [_timed(check_op, text, times["check"]) for text in texts]
            faults += _faults("check", rounds * check_passes + k, check_faults(results))
        for k, path in cli_sample(paths):
            proc = cli_compute(path, times["cli"])
            if proc.returncode != 0:
                found = (f"exit {proc.returncode}: {proc.stderr.strip()}", False)
            elif not isinstance(first[k], tuple) or proc.stdout != first[k][2]:
                found = ("stdout differs from the in-process trace", True)
            else:
                continue
            faults += _faults("cli", rounds, {k: found})
        for _ in range(SETUP_PROBES):
            setup_probe(corpus_dir, times["setup"])
        spent += time.perf_counter() - start
        rounds += 1
    Path(out).write_text(json.dumps({
        **times,
        "rounds": rounds,
        "faults": faults,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


def trace(corpus_dir, out, seconds):
    _, texts, _ = setup(corpus_dir)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    # One untraced pass first: its outputs are the reference for the traced
    # passes, and its time against theirs is the tracing overhead.
    plain = []
    reference = [_timed(compute_op, text, plain) for text in texts]
    checks = [_timed(check_op, text, plain) for text in texts]
    plain_s = sum(plain)
    faults = (_faults("compute", 0, compute_faults(reference, reference))
              + _faults("check", 0, check_faults(checks)))
    tracer = layers.Tracer()
    tracer.install()
    try:
        passes = []
        traced_s = []
        while not passes or fits(sum(traced_s), len(passes), seconds):
            with tracer.pass_():
                start = time.perf_counter()
                computed = [tracer.span("op.compute", compute_op, text) for text in texts]
                checked = [tracer.span("op.check", check_op, text) for text in texts]
                traced_s.append(time.perf_counter() - start)
            passes.append((computed, checked))
    finally:
        tracer.uninstall()
    for number, (computed, checked) in enumerate(passes):
        for phase, got, want in (("trace-compute", computed, reference),
                                 ("trace-check", checked, checks)):
            found = {k: (f"{type(a).__name__}: {a}", False) if isinstance(a, Exception)
                     else ("traced result differs from the untraced one", True)
                     for k, (a, b) in enumerate(zip(got, want)) if a != b}
            faults += _faults(phase, number, found)
    Path(out).write_text(json.dumps({
        "passes": tracer.passes,
        "spans": tracer.spans,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "faults": faults,
        "operations": len(passes) * 2 * len(texts),
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("corpus_dir")
    ap.add_argument("out", nargs="?")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--check-passes", type=int, default=1)
    args = ap.parse_args()
    if args.mode == "setup":
        print(json.dumps(setup(args.corpus_dir)[2]))
    elif args.mode == "measure":
        measure(args.corpus_dir, args.out, args.seconds, args.check_passes)
    else:
        trace(args.corpus_dir, args.out, args.seconds)


if __name__ == "__main__":
    main()
