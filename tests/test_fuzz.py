"""Document fuzzer: mutated copies of the shipped documents through the
three document commands.

The sources are ``sample-instance.json`` and the golden documents.  A
mutation deletes a key or a list item, swaps a value for a boolean, a
float, null, a list, an object or a string, or sets one of the document
limits (``MAX_INDICES``, ``MAX_LITERAL_LENGTH``, ``MAX_LITERAL_EXPONENT``,
``MAX_PRIME``, ``MAX_TOWER_DEGREE``) to its value and to one past it.
``MAX_ORACLE_RING`` bounds the oracle command, which reads no document.

Whatever the document, ``validate``, ``compute`` and ``check`` through
``cli.main`` must end with an exit code of 0 to 3, raise nothing (so print
no traceback), and stay within a wall bound.  A nonzero exit prints exactly
one line on stderr, except validate's exit 1, which prints its report on
stdout and nothing on stderr; exit 0 prints nothing on stderr.
"""

import contextlib
import copy
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endofactor.cli import main
from endofactor.document import MAX_INDICES, MAX_LITERAL_EXPONENT, MAX_LITERAL_LENGTH
from endofactor.localfield import MAX_PRIME, MAX_TOWER_DEGREE

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [ROOT / "sample-instance.json"] + sorted(
    p for p in (ROOT / "tests" / "golden").glob("*.json") if not p.name.endswith(".check.json"))
DOCS = {p.stem: json.loads(p.read_text()) for p in SOURCES}
COMMANDS = ("validate", "compute", "check")
# a run on any document takes milliseconds; the slowest accepted ones (a
# unitary case near MAX_PRIME, a degree-6 tower) well under a second
WALL_SECONDS = 5.0
NOT_LITERALS = ("kind", "name", "side", "tower", "case", "cocycle_class", "angle_pi")
SWAPS = (True, False, 0.5, -1e300, float("nan"), None, [], [1, "2"], {}, {"kind": "x"},
         "", "x", "1/0", "pi^-1")


def run(doc, command, tmp_path):
    """(exit code, stdout, stderr, seconds) of one command on ``doc``."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def assert_contract(doc, tmp_path):
    for command in COMMANDS:
        code, out, err, seconds = run(doc, command, tmp_path)
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in out + err, command
        assert seconds < WALL_SECONDS, (command, seconds)
        if code == 0 or (command == "validate" and code == 1):
            assert err == "", (command, code, err)
            if code:
                assert out.endswith("invalid\n"), (command, out)
        else:
            assert err.endswith("\n") and err.count("\n") == 1, (command, code, err)


def _paths(node, prefix=()):
    """The path of every dict value and list item under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _literal_paths(doc):
    """The path of the first literal in each top-level section."""
    firsts = {}
    for path in _paths(doc):
        if isinstance(_parent(doc, path)[path[-1]], str) and path[-1] not in NOT_LITERALS:
            firsts.setdefault(path[0], path)
    return list(firsts.values())


# -- the limits, each at its value and one past it ---------------------------

def _padded(text, length):
    """``text`` + ' + 0' repeated, its last zero widened: the same value in a
    literal of exactly ``length`` characters."""
    k, r = divmod(length - len(text), 4)
    return text + " + 0" * k + "0" * r


def _limit_mutations(doc, past):
    """(name, document) for each limit, at its value (past = 0) or one past
    it (past = 1)."""
    out = []
    indices = doc["indices"]
    grown = copy.deepcopy(doc)
    grown["indices"] = [copy.deepcopy(indices[k % len(indices)])
                        for k in range(MAX_INDICES + past)]
    out.append(("MAX_INDICES", grown))
    for path in _literal_paths(doc):
        text = _parent(doc, path)[path[-1]]
        long = copy.deepcopy(doc)
        _parent(long, path)[path[-1]] = _padded(text, MAX_LITERAL_LENGTH + past)
        out.append((f"MAX_LITERAL_LENGTH at {path}", long))
        power = copy.deepcopy(doc)
        _parent(power, path)[path[-1]] = f"({text})^{MAX_LITERAL_EXPONENT + past}"
        out.append((f"MAX_LITERAL_EXPONENT at {path}", power))
    # 99991 is the largest prime a base field accepts
    for p in (MAX_PRIME + 1,) if past else (99991, MAX_PRIME):
        prime = copy.deepcopy(doc)
        prime["base"]["p"] = p
        out.append((f"MAX_PRIME {p}", prime))
    for name in doc.get("towers", {}):
        deep = copy.deepcopy(doc)
        deep["towers"][name] = {"f": 1, "eis": [str(-doc["base"]["p"])]
                                + ["0"] * (MAX_TOWER_DEGREE + past - 1) + ["1"]}
        out.append((f"MAX_TOWER_DEGREE at {name}", deep))
        wide = copy.deepcopy(doc)
        wide["towers"][name] = {"f": MAX_TOWER_DEGREE + past, "eis": [str(-doc["base"]["p"]), "1"]}
        out.append((f"MAX_TOWER_DEGREE f at {name}", wide))
    return out


@pytest.mark.parametrize("past", (0, 1), ids=("at", "past"))
@pytest.mark.parametrize("source", sorted(DOCS))
def test_limits(source, past, tmp_path):
    for name, doc in _limit_mutations(DOCS[source], past):
        try:
            assert_contract(doc, tmp_path)
        except AssertionError as exc:
            raise AssertionError(f"{source}, {name}: {exc}") from None


# -- random deletions and type swaps -----------------------------------------

@st.composite
def mutated(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _parent(doc, path)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return doc


@given(mutated())
@settings(max_examples=150, deadline=None)
def test_mutations(tmp_path_factory, doc):
    assert_contract(doc, tmp_path_factory.mktemp("fuzz"))
