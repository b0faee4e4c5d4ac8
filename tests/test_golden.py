"""Golden output: the exact bytes the command line prints for the shipped
sample document, for documents on the degree-4 tower f = e = 2, at the
prime 10007 and with field indices on both sides of the odd twisted case,
and the trace label of each of the nine formula variants."""

import contextlib
import io
import random
from pathlib import Path

import pytest

from endofactor.cli import main
from endofactor.factor import compute_delta

SAMPLE = str(Path(__file__).resolve().parent.parent / "sample-instance.json")
# One minus-side field index on an f = e = 2 tower over Q_3, over the
# ground F (symplectic) and over E (unitary, bc_unitary).
GOLDEN = Path(__file__).resolve().parent / "golden"
QUARTIC = ("quartic-symplectic", "quartic-unitary", "quartic-bc-unitary")
# One minus-side index on the trivial tower over Q_10007, with E unramified
# and characters of unit exponent (p - 1)*t: logarithms in F_(p^2).
LARGE_PRIME = ("large-prime-unitary", "large-prime-bc-unitary")
# The odd twisted case over Q_5 with a split index and a field index on each
# side, so that the full identity suite runs: li-identity-1 and A-is-norm
# pair the minus-side field index with the plus-side one.
TWO_SIDED = ("twisted-odd-two-sided",)

# The rows of the formula table in README.md, by (case, parity of d).
README_FORMULAS = {
    ("symplectic", 0): "-eta*c*P'(y)*P(-1)*y^(1-d/2)",
    ("so_odd", 1): "-2*eta*c*P'(y)*P(-1)*y^((3-d)/2)*(1+y)/(y-1)",
    ("so_even", 0): "2*eta*c*P'(y)*P(-1)*y^(1-d/2)*(1+y)/(y-1)",
    ("twisted_gl_even", 0): "eta*P'(y)*P(-1)*y^(1-d/2)*(1+y)/x",
    ("twisted_gl_odd", 1): "x_D*P'(y)*P(1)*y^((3-d)/2)*(y-1)/x",
    ("unitary", 0): "-eta*c*P_E'(y)*y^(1-d/2)/P_E(-1)",
    ("unitary", 1): "-eta*c*P_E'(y)*y^((1-d)/2)*(1+y)/P_E(-1)",
    ("bc_unitary", 0): "-eta*P_E'(y)*y^(1-d/2)*(1+y)/(x*P_E(-1))",
    ("bc_unitary", 1): "-eta*P_E'(y)*y^((3-d)/2)/(x*P_E(-1))",
}


# What ``endofactor compute sample-instance.json --trace`` prints, line by
# line; CI also compares the installed console script's output with it.
SAMPLE_TRACE = [
    "case: twisted_gl_odd",
    "index i0: C = x_D*P'(y)*P(1)*y^((3-d)/2)*(y-1)/x; C = 3200 in F_pm (checked); "
    "norm test: -1",
    "prefactor chi(eta*x_D*P(1)*P_minus(-1)) at 640: -1",
    "delta = +1 (angle 0)",
]
# What ``endofactor check sample-instance.json`` prints; CI compares the
# installed console script's output with it too.
SAMPLE_CHECK = [
    "cayley-roundtrip[i0]: pass",
    "li-identity-2[i0]: pass",
    "B-C-consistency[i0]: pass",
    "cD-square-class: pass",
    "lie-side-reconstruction: pass",
    "all checks passed",
]


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("args, lines", [
    (["compute", SAMPLE, "--trace"], SAMPLE_TRACE),
    (["validate", SAMPLE], [
        "group: ok",
        "endoscopic: ok",
        "param-endoscopic: ok",
        "param-group: ok",
        "sides: ok",
        "regularity: ok",
        "matching: ok",
        "valid",
    ]),
    (["check", SAMPLE], SAMPLE_CHECK),
], ids=["compute-trace", "validate", "check"])
def test_sample_document_output(args, lines):
    assert run_cli(args) == (0, "".join(line + "\n" for line in lines), "")


GOLDEN_OUTPUTS = pytest.mark.parametrize("command, flag, suffix", [
    ("compute", "--trace", "compute-trace.txt"),
    ("check", "--json", "check.json"),
], ids=["compute-trace", "check-json"])


def assert_golden(name, command, flag, suffix):
    want = (GOLDEN / f"{name}.{suffix}").read_text()
    assert run_cli([command, str(GOLDEN / f"{name}.json"), flag]) == (0, want, "")


@pytest.mark.parametrize("name", QUARTIC)
@GOLDEN_OUTPUTS
def test_quartic_document_output(name, command, flag, suffix):
    assert_golden(name, command, flag, suffix)


@pytest.mark.parametrize("name", LARGE_PRIME)
@GOLDEN_OUTPUTS
def test_large_prime_document_output(name, command, flag, suffix):
    assert_golden(name, command, flag, suffix)


@pytest.mark.parametrize("name", TWO_SIDED)
@GOLDEN_OUTPUTS
def test_two_sided_document_output(name, command, flag, suffix):
    assert_golden(name, command, flag, suffix)


@pytest.mark.parametrize("case, parity", sorted(README_FORMULAS))
def test_trace_label_matches_readme(case, parity):
    from support import make_instance
    inst = make_instance(random.Random(f"{case}/{parity}"), case, p=5,
                         force_d_parity=parity)
    _, trace = compute_delta(*inst.astuple())
    names = [en.name for en in inst.y.field_indices("-")]
    assert names and [name for name, _, _ in trace.indices] == names
    assert trace.label == f"C = {README_FORMULAS[case, parity]}"
    for name, line in zip(names, trace.lines()[1:]):
        assert line.startswith(f"index {name}: {trace.label}; C = ")
