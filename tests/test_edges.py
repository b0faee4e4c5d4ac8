"""Edge instances: empty index sets, real base documents, rescalings."""

import json
import subprocess
import sys
from fractions import Fraction

from endofactor.document import dump_document, load_document
from endofactor.etale import quadratic_field
from endofactor.factor import compute_delta, eval_character
from endofactor.localfield import BaseField, trivial_tower
from endofactor.params import (
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    match_stable_classes,
)
from endofactor.verify import run_suite

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)


class TestEmptyIndexSet:
    def _instance(self, chi):
        nu = F5.element(3)
        g = GroupDescriptor("twisted_gl_odd", 1, Q5, nu=nu, eta=-nu)
        y = RegularParam(())
        x = RegularParam((), F5.element(2))
        e = EndoscopicDatum(1, 0, chi=chi)
        return y, x, g, e

    def test_factor_is_the_prefactor(self):
        y, x, g, e = self._instance(F5.element(2))
        value, trace = compute_delta(y, x, g, e)
        arg = g.eta.as_fraction() * x.x_D.as_fraction()
        assert value.angle == eval_character(e.chi, F5.element(arg)).angle
        assert not trace.indices and trace.prefactors

    def test_check_suite_runs(self):
        y, x, g, e = self._instance(F5.element(1))
        results = run_suite(y, x, g, e)
        assert results and all(ok for _, ok in results)

    def test_document_round_trip(self):
        y, x, g, e = self._instance(F5.element(10))
        doc = load_document(json.dumps(dump_document(g, e, y, x)))
        d1, _ = compute_delta(y, x, g, e)
        d2, _ = compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
        assert d1.angle == d2.angle


class TestRealBaseDocument:
    def test_round_trip(self):
        RRb = BaseField("real")
        FR = trivial_tower(RRb)
        cc = quadratic_field(FR, FR.element(-1))
        yv = cc.element(Fraction(3, 5), Fraction(4, 5))
        g = GroupDescriptor("symplectic", 2, RRb, eta=FR.element(1))
        yp = RegularParam((IndexEntry("i", "-", cc, yv, None),))
        xp = RegularParam((IndexEntry("i", "-", cc, yv, cc.element(0, 2)),))
        e = EndoscopicDatum(2, 0, delta_minus=FR.element(-1))
        d1, _ = compute_delta(yp, xp, g, e)
        doc = load_document(json.dumps(dump_document(g, e, yp, xp)))
        d2, _ = compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
        assert d1.angle == d2.angle


class TestNuConsistentRescaling:
    def test_base_change(self, rng):
        from support import make_instance, random_etale_unit
        inst = make_instance(rng, "bc_unitary", p=5)
        mu = random_etale_unit(rng, inst.g.E.E)
        g = inst.g
        g2 = GroupDescriptor(g.case, g.d, g.base, g.delta, g.E, nu=g.nu * mu, eta=g.eta)
        entries = tuple(
            IndexEntry(en.name, en.side, en.algebra,
                       en.value * en.algebra.element(mu), en.c)
            for en in inst.x.entries)
        x2 = RegularParam(entries, inst.x.x_D)
        assert match_stable_classes(inst.y, x2, g2, inst.e)


class TestUnitaryPrefactors:
    def test_arguments_nonzero_under_regularity(self, rng):
        from endofactor.factor import build_charpoly_pack
        from endofactor import _poly
        from endofactor.params import ground_scalar
        from support import make_instance, whole_charpolys
        for case in ("unitary", "bc_unitary"):
            inst = make_instance(rng, case, p=5)
            pack = build_charpoly_pack(inst.y, inst.g)
            scalar = ground_scalar(inst.g)
            for side, poly in zip("-+", whole_charpolys(inst.y, inst.g)[1:]):
                for t in (0, -1):
                    assert _poly.peval(poly, scalar(t), scalar(0))
                    assert pack.side_at[side, t] == _poly.peval(poly, scalar(t), scalar(0))


def test_console_script(rng, tmp_path):
    from support import make_instance
    inst = make_instance(rng, "so_odd", p=5)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)))
    proc = subprocess.run(
        [sys.executable, "-m", "endofactor.cli", "compute", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("delta = ")
