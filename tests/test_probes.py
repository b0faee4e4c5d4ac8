"""Worst cases at the document limits: the regularity probes of
``support.regularity_probe`` through ``validate``, ``compute`` and ``check``.

The probes put up to ``MAX_INDICES`` distinct indices on one tower of
degree ``MAX_TOWER_DEGREE``.  The non-regular one, whose y lie in a
subfield, must be refused within the fuzzer's wall bound at
``MAX_INDICES``.  The regular ones at 16 indices must be computed; with
c = 3^6, some C has integers past the interpreter's 4,300-digit limit on
int-to-str conversion, which plain ``compute`` never formats and ``--trace``
formats with the limit lifted.  Every run ends with an exit code
of 0 to 3 and no traceback; a nonzero exit prints one line on stderr,
except validate's exit 1, which prints its report on stdout.
"""

import contextlib
import io
import json
import math
import sys
import time

import pytest

from endofactor import cli, factor
from endofactor.cli import main
from endofactor.document import MAX_INDICES, dump_document
from support import regularity_probe

# The measured wall time of each command on a 2-vCPU Xeon, about: 0.1 s on
# the non-regular probe at MAX_INDICES; 0.1 to 0.4 s on the regular probe at
# 16 indices with c = 1; 0.2 s for validate and check and 2.1 s for compute
# with c = 3^6.
WALL_SECONDS = {(MAX_INDICES, 1): 5.0, (16, 1): 5.0, (16, 3 ** 6): 10.0}


def run(path, *argv):
    """(exit code, stdout, stderr, seconds) of one command on ``path``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def write_probe(tmp_path, count, regular, c=1):
    inst = regularity_probe(count, regular, c)
    path = tmp_path / f"probe-{count}-{regular}-{c}.json"
    path.write_text(json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)))
    return path


def assert_contract(code, out, err, command):
    assert code in (0, 1, 2, 3), (command, code)
    assert "Traceback" not in out + err, command
    if code == 0 or (code == 1 and command == "validate"):
        assert err == "", command
    else:
        assert len(err.splitlines()) == 1, (command, err)


def test_non_regular_probe_at_max_indices(tmp_path):
    path = write_probe(tmp_path, MAX_INDICES, False)
    for command in ("validate", "compute", "check"):
        code, out, err, seconds = run(path, command)
        assert_contract(code, out, err, command)
        assert code == 1, command
        assert "not suitably regular" in out + err, command
        assert seconds < WALL_SECONDS[MAX_INDICES, 1], (command, seconds)


def test_regular_probe_at_16_indices(tmp_path):
    path = write_probe(tmp_path, 16, True)
    for command in ("validate", "compute", "check"):
        code, out, err, seconds = run(path, command)
        assert_contract(code, out, err, command)
        assert code == 0, command
        assert seconds < WALL_SECONDS[16, 1], (command, seconds)


def test_regular_probe_past_the_digit_limit(tmp_path, monkeypatch):
    """Plain compute prints the total's line alone and exits 0, where
    formatting every index line would raise past the digit limit; the
    engine's trace then prints whole, and the limit is restored."""
    path = write_probe(tmp_path, 16, True, c=3 ** 6)
    for command in ("validate", "check"):
        code, out, err, seconds = run(path, command)
        assert_contract(code, out, err, command)
        assert code == 0, command
        assert seconds < WALL_SECONDS[16, 3 ** 6], (command, seconds)
    traces = []

    def keeping(*args, _original=factor.compute_delta):
        traces.append(_original(*args)[1])
        return traces[-1].total, traces[-1]

    monkeypatch.setattr(cli, "compute_delta", keeping)
    code, out, err, seconds = run(path, "compute")
    assert_contract(code, out, err, "compute")
    assert code == 0 and out.startswith("delta = ") and len(out.splitlines()) == 1
    assert seconds < WALL_SECONDS[16, 3 ** 6], seconds
    [trace] = traces
    digits = max(math.ceil(abs(v).bit_length() * math.log10(2))
                 for _, c, _ in trace.indices for v in (*c.num, c.den))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        assert digits > limit
    lines = trace.lines()
    assert len(lines) == 1 + 16 + 1 and lines[-1] + "\n" == out
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no limit on int-to-str digits")
def test_trace_lines_restore_the_digit_limit():
    from endofactor.localfield import BaseField, trivial_tower
    F = trivial_tower(BaseField("p-adic", 5))
    big = F.element(10 ** 5000 + 1)
    one = factor.UnitCircleValue.one()
    trace = factor.FactorTrace("symplectic", "C = x", [("i", big, 1)],
                               [("chi(x)", big, one)], one)
    limit = sys.get_int_max_str_digits()
    lines = trace.lines()
    assert "1" + "0" * 4999 + "1" in lines[1] and "1" + "0" * 4999 + "1" in lines[2]
    assert sys.get_int_max_str_digits() == limit


def test_ordinary_trace_lines_leave_the_digit_limit_alone(rng, monkeypatch):
    """A trace whose values all print within the limit never sets it."""
    from support import make_instance
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", calls.append, raising=False)
    for case in ("symplectic", "unitary"):
        inst = make_instance(rng, case, p=5)
        assert len(factor.compute_delta(*inst.astuple())[1].lines()) > 2
    assert calls == []
