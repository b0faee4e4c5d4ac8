"""The engine's pack and C_i on the tower half against the full-degree route.

Over F the engine reads every quantity off the tower halves a_j = (y_j +
tau(y_j))/2 and their half-degree characteristic polynomials R_j
(``factor.CharPolyPack``, ``factor.compute_C``); ``support.FullDegreePack``
and ``support.full_degree_C`` take the P_j of the y_j themselves, the rows
in the algebras K_i and the formula's product with P'(y_i) and the power of
y.  Both must give the same P_j, P_at, side_at, regularity verdicts and C_i,
or the same error, on the benchmark's seed-0 corpora, the golden documents,
the non-regular variants of ``test_regularity`` and the 16-index probes.
"""

import random
from pathlib import Path

import pytest

import support
from endofactor.document import load_document
from endofactor.errors import EndofactorError
from endofactor.factor import build_charpoly_pack, compute_C
from endofactor.params import check_regularity
from support import ALL_CASES, make_instance
from test_document import _perfbench_corpus
from test_regularity import variants

GOLDEN = Path(__file__).resolve().parent / "golden"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EndofactorError as exc:
        return type(exc), str(exc)


def assert_same_as_full_degree(y, x, g):
    """Every quantity of the pack, the verdict and each minus-side C_i agree
    with the full-degree route; returns the verdict."""
    pack, ref = build_charpoly_pack(y, g), support.FullDegreePack(y, g)
    assert pack.P_j == ref.polys
    assert (pack.P_at, pack.side_at) == (ref.P_at, ref.side_at)
    regular = pack.is_regular()
    assert regular is ref.regular() is check_regularity(y, g)
    for en in y.field_indices("-"):
        assert (_outcome(compute_C, en.name, pack, y, x, g)
                == _outcome(support.full_degree_C, en.name, ref, y, x, g)), en.name
    return regular


def test_seed_zero_corpora():
    corpus = _perfbench_corpus()
    for workload in sorted(corpus.WORKLOADS):
        for text in corpus.generate(workload, 0):
            doc = load_document(text)
            assert assert_same_as_full_degree(doc.y, doc.x, doc.group), workload


def test_golden_documents():
    paths = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".check.json"))
    assert paths
    for path in paths:
        doc = load_document(path.read_text())
        assert assert_same_as_full_degree(doc.y, doc.x, doc.group), path.name


def test_regularity_variants():
    rng = random.Random(27)
    verdicts = set()
    for case in ALL_CASES:
        for p in (3, 5, 7):
            inst = make_instance(rng, case, p=p, n_indices=(1, 3))
            for _, param in variants(rng, inst):
                verdicts.add(assert_same_as_full_degree(param, inst.x, inst.g))
    assert verdicts == {True, False}


@pytest.mark.parametrize("c", [1, 3 ** 6])
def test_probes_at_16_indices(c):
    inst = support.regularity_probe(16, True, c)
    assert assert_same_as_full_degree(inst.y, inst.x, inst.g)

