"""The package surface: lazy public names, what a cold process imports, and
the plain record classes."""

import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import endofactor
from endofactor.document import InstanceDocument
from endofactor.etale import quadratic_field
from endofactor.factor import CharPolyPack, FactorTrace, UnitCircleValue
from endofactor.forms import FormInvariants
from endofactor.localfield import BaseField, trivial_tower
from endofactor.params import (
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
    ValidationReport,
)
from endofactor.verify import LieParam

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BaseField", "CharPolyPack", "EndofactorError", "EndoscopicDatum", "EtaleElement",
    "ExtensionTower", "FactorTrace", "FieldElement", "FormInvariants", "GroupDescriptor",
    "IndexEntry", "InstanceDocument", "LieParam", "QuadraticEtale", "QuadraticSpace",
    "RegularParam", "TameCharacter", "UnitCircleValue", "UnitaryBaseData",
    "brute_force_norm_oracle", "build_charpoly_pack", "cayley", "cayley_inv",
    "charpoly_over", "check_Aij_is_norm", "check_Bi_Ci_consistency",
    "check_cD_square_class", "check_regularity", "compute_C", "compute_delta",
    "document", "dump_document", "errors", "eta_from_nu", "etale",
    "eval_character", "factor", "forms", "hilbert_symbol", "invariants", "is_square",
    "isomorphic", "li_identity_1", "li_identity_2", "load_document", "localfield",
    "make_extension", "make_lie_param", "match_stable_classes", "norm_test", "params",
    "quadratic_field", "special_case_indicator", "split_algebra", "square_class",
    "swapped_delta", "symmetrize_twisted", "tau", "trace_form_gram",
    "trivial_tower", "validate_endoscopic", "validate_group", "validate_param",
    "valuation", "verify",
]


def cold(code):
    """Run ``code`` in a fresh ``python -S`` (no site, so nothing but the
    package and the standard library is imported) from the checkout root;
    returns its standard output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code, *names):
    """Which of ``names`` are in sys.modules after ``code`` ran cold."""
    probe = (f"import sys\n{code}\nimport json\n"
             f"print(json.dumps(sorted(set(sys.modules) & {set(names)!r})))")
    return json.loads(cold(probe).splitlines()[-1])


class TestPublicNames:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 65
        assert endofactor.__all__ == PUBLIC

    def test_each_name_is_its_home_modules_object(self):
        for name in PUBLIC:
            obj = getattr(endofactor, name)
            if isinstance(obj, types.ModuleType):
                assert obj is import_module(f"endofactor.{name}")
            else:
                assert obj is getattr(import_module(obj.__module__), name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            endofactor.no_such_name

    def test_submodule_attribute_on_a_cold_package(self):
        out = cold("import sys, endofactor\n"
                   "print([m for m in sys.modules if m.startswith('endofactor.')])\n"
                   "print(endofactor.localfield.__name__)")
        assert out == "[]\nendofactor.localfield\n"

    def test_star_import_binds_every_public_name(self):
        out = cold("from endofactor import *\n"
                   "import endofactor\n"
                   f"print(all(globals()[n] is getattr(endofactor, n) for n in {PUBLIC!r}))")
        assert out == "True\n"

    def test_readme_quick_example(self):
        readme = (ROOT / "README.md").read_text()
        code = re.search(r"A quick in-process example:\n\n```python\n(.*?)```",
                         readme, re.S).group(1)
        assert code.startswith("from endofactor import *\n")
        assert cold(code) == "+1\n"


class TestColdImports:
    def test_loading_documents(self):
        assert loaded_after(
            "from endofactor.document import load_document",
            "dataclasses", "inspect", "endofactor.factor", "endofactor.forms",
            "endofactor.verify") == []

    def test_compute(self):
        assert loaded_after(
            "import endofactor.cli as cli\n"
            "assert cli.main(['compute', 'sample-instance.json', '--trace']) == 0",
            "dataclasses", "endofactor.forms", "endofactor.verify") == []

    def test_check_loads_verify(self):
        assert loaded_after(
            "import endofactor.cli as cli\n"
            "assert cli.main(['check', 'sample-instance.json']) == 0",
            "dataclasses", "endofactor.verify") == ["endofactor.verify"]


Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)


class TestRecordClasses:
    def test_list_fields_are_not_shared(self):
        a, b = ValidationReport("a"), ValidationReport("b")
        a.add("code", "message")
        assert b.violations == [] and a.violations is not b.violations
        s, t = FactorTrace("so_odd"), FactorTrace("so_odd")
        s.indices.append("x")
        s.prefactors.append("y")
        assert t.indices == [] and t.prefactors == []

    def test_base_field_is_a_read_only_value(self):
        a, b = BaseField("p-adic", 5), BaseField("p-adic", p=5, precision=64)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != BaseField("p-adic", 5, 80) and a != BaseField("p-adic", 7)
        assert BaseField("real") == BaseField("real", 0, 64)
        with pytest.raises(AttributeError):
            a.p = 7
        with pytest.raises(AttributeError):
            del a.precision
        assert (a.kind, a.p, a.precision) == ("p-adic", 5, 64)
        assert a.trivial_tower is a.trivial_tower

    def test_unit_circle_value_is_a_read_only_value(self):
        a, b = UnitCircleValue(Fraction(5, 4)), UnitCircleValue(angle=Fraction(1, 4))
        assert a == b and hash(a) == hash(b) and a.angle == Fraction(1, 4)
        assert a != a.negate()
        with pytest.raises(AttributeError):
            a.angle = Fraction(0)
        with pytest.raises(AttributeError):
            del a.angle

    def test_defaults(self):
        g = GroupDescriptor("symplectic", 2, Q5)
        assert (g.delta, g.E, g.nu, g.eta) == (None,) * 4
        e = EndoscopicDatum(2, 0)
        assert (e.delta_minus, e.delta_plus, e.chi, e.mu_minus, e.mu_plus) == (None,) * 5
        assert e.cocycle_class == "trivial"
        en = IndexEntry("i", "-", None, None)
        assert en.c is None
        y = RegularParam([en])
        assert y.entries == (en,) and y.x_D is None
        assert vars(FormInvariants(3)) == dict(dim=3, det=None, disc=None, hasse=None,
                                               signature=None)
        assert TameCharacter(None, Fraction(7, 3), 2).angle_pi == Fraction(1, 3)

    @pytest.mark.parametrize("cls, fields", [
        (GroupDescriptor, "case d base delta E nu eta"),
        (EndoscopicDatum, "d_minus d_plus delta_minus delta_plus chi mu_minus mu_plus "
                          "cocycle_class"),
        (IndexEntry, "name side algebra value c"),
        (FormInvariants, "dim det disc hasse signature"),
        (InstanceDocument, "base group endoscopic y x"),
        (LieParam, "y x g eta c c_D X P_j Q_j Q_X dQ_X P_y dP_y run"),
        (ValidationReport, "subject violations"),
        (FactorTrace, "case label indices prefactors total pack"),
    ])
    def test_positional_and_keyword_calls_agree(self, cls, fields):
        names = fields.split()
        values = [object() for _ in names]
        by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
        assert vars(by_position) == vars(by_keyword) == dict(zip(names, values))

    def test_pack_and_param_calls(self):
        # over F the pack holds the half-degree R_j of the tower halves a_j,
        # and P_j(t) = (2t)^(n_j) * R_j(t) at t = 1, -1: here y = 9 + 4*rt,
        # rt^2 = 5, and y = 3 + 2*rt, rt^2 = 2, both of norm 1, with R_j = T - 9
        # and T - 3, and P_j = T^2 - 18T + 1 and T^2 - 6T + 1
        k5, k2 = quadratic_field(F5, 5), quadratic_field(F5, 2)
        values = [k5.element(9, 4), k2.element(3, 2)]
        entries = (IndexEntry("i", "+", k5, values[0]), IndexEntry("j", "-", k2, values[1]))
        g = GroupDescriptor("symplectic", 4, Q5)
        pack = CharPolyPack(g, entries, values)
        same = CharPolyPack(g=g, entries=entries, values=values)
        assert vars(pack) == vars(same)
        assert (pack.names, pack.points, pack.degree) == (["i", "j"], [F5.element(9), F5.element(3)], 2)
        assert pack.polys == [[-9, 1], [-3, 1]]
        assert pack.side_at == {("+", 1): -16, ("+", -1): 20, ("-", 1): -4, ("-", -1): 8}
        assert pack.P_at == {1: 64, -1: 160}
        assert pack.P_j == [[1, -18, 1], [1, -6, 1]]
        assert pack.is_regular()
        x_D = F5.element(2)
        assert vars(RegularParam((), x_D)) == vars(RegularParam(entries=[], x_D=x_D))
        assert TameCharacter(None, Fraction(1, 2), 3) == TameCharacter(
            E=None, angle_pi=Fraction(3, 2), unit_exponent=3)
