"""Regularity read off the per-index values against the whole-P reference.

``params.is_regular`` decides from the values P_i'(y_i) and P_j(y_i),
j != i, that C_i also reads; ``support.regular_by_whole_P`` runs the
squarefree test on the whole product P.  The sweep draws instances of every
case at p = 3, 5 and 7, and from each makes non-regular variants: a
duplicated y, tau(y) on a second index, y = 1 and y = -1, and a y in a
proper subalgebra (E, in the unitary cases).  The duplicated y is regular
index by index: only its factors P_j(y_i), j != i, tell it apart.
"""

import random
from fractions import Fraction

import pytest

import support
from endofactor.factor import build_charpoly_pack
from endofactor.params import IndexEntry, RegularParam, check_regularity, is_regular
from support import ALL_CASES, make_instance


def _with(param, entries):
    return RegularParam(tuple(entries), param.x_D)


def _subalgebra_value(rng, inst, alg):
    """A norm-one y in F(rt) inside an algebra F_pm(rt), or in E inside a
    tensor algebra F_pm (x) E: t/tau(t) for a t with rational coordinates,
    in the algebra or in E."""
    E = inst.g.E.E if inst.g.info["ground"] == "E" else None
    while True:
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        t = alg.element(a, b) if E is None else alg.element(E.element(a, b))
        if t.is_unit() and t.tau().is_unit():
            return t / t.tau()


def variants(rng, inst):
    """(label, param) for the instance's y and its non-regular variants."""
    y = inst.y
    first = y.entries[0]
    out = [("drawn", y)]
    out.append(("duplicate", _with(y, y.entries + (
        IndexEntry("dup", "+", first.algebra, first.value, None),))))
    out.append(("tau", _with(y, y.entries + (
        IndexEntry("tau", "-", first.algebra, first.value.tau(), None),))))
    for sign in (1, -1):
        out.append((f"y={sign}", _with(y, (
            IndexEntry(first.name, first.side, first.algebra, first.algebra.one() * sign, None),)
            + y.entries[1:])))
    out.append(("subalgebra", _with(y, (
        IndexEntry(first.name, first.side, first.algebra,
                   _subalgebra_value(rng, inst, first.algebra), None),) + y.entries[1:])))
    return out


def _engine_verdict(param, g):
    """The verdict of validation's path: the pack's cached values."""
    pack = build_charpoly_pack(param, g)
    return is_regular(pack.ys, pack.polys, pack.P_at.values(), pack.cache)


def test_per_index_verdict_matches_the_whole_P_reference():
    rng = random.Random(26)
    verdicts = {}
    for case in ALL_CASES:
        for p in (3, 5, 7):
            inst = make_instance(rng, case, p=p, n_indices=(1, 3))
            for label, param in variants(rng, inst):
                want = support.regular_by_whole_P(param, inst.g)
                assert check_regularity(param, inst.g) is want, (case, p, label)
                assert _engine_verdict(param, inst.g) is want, (case, p, label)
                verdicts.setdefault(label, set()).add(want)
            if inst.g.info["twisted"]:
                assert check_regularity(inst.x, inst.g, "group") is support.regular_by_whole_P(
                    inst.x, inst.g, "group") is True
    assert verdicts["drawn"] == {True}
    for label in ("duplicate", "y=1", "y=-1"):
        assert verdicts[label] == {False}, label
    assert False in verdicts["tau"] and False in verdicts["subalgebra"]


def test_each_value_is_evaluated_once(monkeypatch):
    """Regularity evaluates every P_j(y_i) and P_i'(y_i) once, row i on the
    powers of y_i alone; compute_C reads them from the pack and evaluates
    nothing more."""
    from endofactor import _poly
    from endofactor.factor import compute_delta
    calls = []

    def counting(polys, x, zero):
        calls.append((x, len(polys)))
        return peval_many(polys, x, zero)

    peval_many = _poly.peval_many
    monkeypatch.setattr(_poly, "peval_many", counting)
    rng = random.Random(3)
    for case in ALL_CASES:
        inst = make_instance(rng, case, p=5, n_indices=(2, 3))
        calls.clear()
        compute_delta(*inst.astuple())
        k = len(inst.y.entries)
        assert calls == [(en.value, k) for en in inst.y.entries], case


@pytest.mark.parametrize("regular", [True, False], ids=["distinct", "subfield"])
def test_probe_verdicts(regular):
    """The probes at MAX_TOWER_DEGREE: distinct y on one tower are regular;
    y in the subfield without the unramified generator make each P_j a
    square."""
    inst = support.regularity_probe(6, regular)
    assert check_regularity(inst.y, inst.g) is regular
    assert support.regular_by_whole_P(inst.y, inst.g) is regular
