from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofactor import _poly
from endofactor.errors import IndexMismatch
from endofactor.etale import UnitaryBaseData, quadratic_field
from endofactor.localfield import BaseField, trivial_tower
from endofactor.params import (
    CASES,
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
    case_info,
    charpoly_product,
    check_regularity,
    ground_scalar,
    match_stable_classes,
    side_dimensions,
    stable_class_of,
    validate_endoscopic,
    validate_group,
    validate_param,
)
from support import is_regular_charpoly, is_squarefree
from test_poly_reference import horner

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)


def codes(report):
    return [c for c, _ in report.violations]


class TestValidateGroup:
    def test_symplectic_parity(self):
        g = GroupDescriptor("symplectic", 3, Q5, eta=F5.element(1))
        assert "dim-parity" in codes(validate_group(g))

    def test_so_even_exclusion(self):
        g = GroupDescriptor("so_even", 2, Q5, delta=F5.element(4), eta=F5.element(1))
        assert "disc-excluded" in codes(validate_group(g))
        g2 = GroupDescriptor("so_even", 2, Q5, delta=F5.element(5), eta=F5.element(1))
        assert validate_group(g2).ok

    def test_twisted_odd_valid(self):
        g = GroupDescriptor("twisted_gl_odd", 3, Q5, nu=F5.element(1),
                            eta=F5.element(-1))
        assert validate_group(g).ok

    @pytest.mark.parametrize("base, nu, eta, ok", [
        (Q5, 10, -40, True), (Q5, 10, 40, True),      # -1 is a square in Q_5
        (Q5, 10, -20, False), (Q5, 10, 1, False),
        (BaseField("real"), 2, -3, True), (BaseField("real"), 2, 3, False)])
    def test_twisted_odd_eta_pinning(self, base, nu, eta, ok):
        # eta * (-nu) must be a square in F^x
        F = trivial_tower(base)
        g = GroupDescriptor("twisted_gl_odd", 3, base, nu=F.element(nu), eta=F.element(eta))
        assert codes(validate_group(g)) == ([] if ok else ["eta-pinning"])

    def test_eta_pinning_needs_nu(self):
        g = GroupDescriptor("twisted_gl_odd", 3, Q5, eta=F5.element(1))
        assert codes(validate_group(g)) == ["nu-missing"]

    def test_eta_required(self):
        g = GroupDescriptor("symplectic", 2, Q5)
        assert "eta-missing" in codes(validate_group(g))

    def test_unitary_eta_parity(self):
        ub = UnitaryBaseData(Q5, 2)
        bad = GroupDescriptor("unitary", 2, Q5, E=ub, eta=ub.E.element(1, 0))
        assert "eta-parity" in codes(validate_group(bad))
        good = GroupDescriptor("unitary", 2, Q5, E=ub, eta=ub.E.element(0, 1))
        assert validate_group(good).ok

    def test_unknown_case(self):
        g = GroupDescriptor("elliptic", 2, Q5, eta=F5.element(1))
        assert "case-unknown" in codes(validate_group(g))


class TestCaseTable:
    # per case, as the formulary states them: the parity d must have (None:
    # free), d_minus + d_plus - d, and d minus the sum of the index degrees
    LAWS = {
        "symplectic": (0, 0, 0),
        "so_odd": (1, 1, 1),
        "so_even": (0, 0, 0),
        "twisted_gl_even": (0, 1, 0),
        "twisted_gl_odd": (1, 0, 1),
        "unitary": (None, 0, 0),
        "bc_unitary": (None, 0, 0),
    }

    def test_rows_hold_the_independent_facts(self):
        assert CASES == tuple(self.LAWS)
        for case in CASES:
            assert sorted(case_info(case)) == ["c_sign", "factors", "ground", "line", "twisted"]

    def test_dimension_laws(self):
        for case, (parity, extra, line) in self.LAWS.items():
            for d in range(1, 7):
                g = GroupDescriptor(case, d, Q5)
                wrong = parity is not None and d % 2 != parity
                assert ("dim-parity" in codes(validate_group(g))) == wrong
                rep = validate_endoscopic(g, EndoscopicDatum(0, 0))
                assert f"d_minus + d_plus = 0, expected {d + extra}" in rep.lines()[0]
                rep = validate_param(RegularParam(()), g, "endoscopic")
                want = f"index degrees sum to 0, expected {d - line} for d = {d}"
                assert rep.violations == ([] if d == line else [("dim-bookkeeping", want)])


class TestValidateEndoscopic:
    def test_symplectic_valid(self):
        g = GroupDescriptor("symplectic", 4, Q5, eta=F5.element(1))
        e = EndoscopicDatum(2, 2, delta_minus=F5.element(5))
        assert validate_endoscopic(g, e).ok

    def test_symplectic_ellipticity(self):
        g = GroupDescriptor("symplectic", 4, Q5, eta=F5.element(1))
        e = EndoscopicDatum(2, 2, delta_minus=F5.element(1))
        assert "elliptic-minus" in codes(validate_endoscopic(g, e))

    def test_so_odd_dimension_rule(self):
        g = GroupDescriptor("so_odd", 3, Q5, eta=F5.element(1))
        assert validate_endoscopic(g, EndoscopicDatum(1, 3)).ok
        assert "dim-sum" in codes(validate_endoscopic(g, EndoscopicDatum(1, 2)))

    def test_so_even_disc_product(self):
        g = GroupDescriptor("so_even", 4, Q5, delta=F5.element(5),
                            eta=F5.element(1))
        bad = EndoscopicDatum(4, 0, delta_minus=F5.element(2))
        assert "disc-product" in codes(validate_endoscopic(g, bad))
        good = EndoscopicDatum(4, 0, delta_minus=F5.element(5))
        assert validate_endoscopic(g, good).ok

    def test_twisted_odd_needs_chi(self):
        g = GroupDescriptor("twisted_gl_odd", 3, Q5, nu=F5.element(1),
                            eta=F5.element(-1))
        assert "chi-missing" in codes(validate_endoscopic(g, EndoscopicDatum(1, 2)))

    def test_unitary_restriction(self):
        ub = UnitaryBaseData(Q5, 2)
        g = GroupDescriptor("unitary", 2, Q5, E=ub, eta=ub.E.element(0, 1))
        trivial = TameCharacter(ub, Fraction(0), 0)
        e = EndoscopicDatum(1, 1, mu_minus=trivial, mu_plus=trivial)
        rep = validate_endoscopic(g, e)
        # d_minus = d_plus = 1: both restrictions must be the norm character,
        # and the trivial character is not
        assert "char-restriction-minus" in codes(rep)


class TestTameCharacter:
    def test_multiplicative(self, rng):
        from support import random_etale_unit
        ub = UnitaryBaseData(Q5, 5)
        mu = TameCharacter(ub, Fraction(1, 4), 1)
        for _ in range(8):
            a = random_etale_unit(rng, ub.E)
            b = random_etale_unit(rng, ub.E)
            assert mu.angle(a * b) == (mu.angle(a) + mu.angle(b)) % 1

    def test_unramified_angle(self):
        ub = UnitaryBaseData(Q5, 2)
        mu = TameCharacter(ub, Fraction(1, 4), 0)
        pi_e = ub.E.element(5)
        assert mu.angle(pi_e * pi_e) == Fraction(1, 2)

    @pytest.mark.parametrize("p, delta", [(3, 2), (5, 2), (5, 5), (7, 3), (7, 21)])
    def test_restriction_from_the_probes(self, p, delta):
        """The probes of tests/support.py and the closed form give the same
        verdict as evaluating the angle at p and at the generator of
        F_p^x, for every tame character with angle in (1/4)Z and every k."""
        from support import restricts_by_probes, sgn_probes
        ub = UnitaryBaseData(BaseField("p-adic", p), delta)
        probes = sgn_probes(ub)
        assert all(type(v) is int and type(a) is Fraction and type(s) is int
                   for v, a, s in probes)
        points = (p, ub.F.residue.multiplicative_generator()[0])
        for num in range(4):
            for exp in range(ub.residue_field().q - 1):
                mu = TameCharacter(ub, Fraction(num, 4), exp)
                for k in (0, 1):
                    want = all(mu.angle(t) == Fraction(1, 2) * (ub.sgn(t) ** k == -1)
                               for t in points)
                    assert restricts_by_probes(probes, mu, k) == want
                    assert mu.restricts_to_sgn_power(k) == want

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_closed_form_restriction_against_the_probes(self, p):
        """The closed form of ``restricts_to_sgn_power`` agrees with the
        probe evaluation of tests/support.py on sixteen E over Q_p
        (v_p(delta_E) in 0..3, negative delta_E, delta_E with a
        denominator), for every angle in (1/8)Z, every unit exponent in
        range(q - 1) and k in 0..3; both verdicts occur on each kind of
        E."""
        from support import restricts_by_probes, sgn_probes, unitary_deltas
        base = BaseField("p-adic", p)
        seen = set()
        for delta in unitary_deltas(p):
            ub = UnitaryBaseData(base, delta)
            probes = sgn_probes(ub)
            for num in range(8):
                for exp in range(ub.residue_field().q - 1):
                    mu = TameCharacter(ub, Fraction(num, 8), exp)
                    for k in range(4):
                        want = restricts_by_probes(probes, mu, k)
                        assert mu.restricts_to_sgn_power(k) == want, (delta, mu.angle_pi, exp, k)
                        seen.add((ub.ramified, want))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_restriction_search(self):
        ub = UnitaryBaseData(Q5, 5)
        from support import _mu_character
        import random
        mu = _mu_character(random.Random(0), ub, 1)
        assert mu.restricts_to_sgn_power(1)
        assert not mu.restricts_to_sgn_power(0) or ub.sgn(5) == 1

    @pytest.mark.parametrize("p, delta", [(3, 2), (3, 3), (5, 2), (5, 5), (5, 10),
                                          (7, 3), (7, 21), (11, 2), (11, 11)])
    def test_character_draw_matches_the_scan(self, p, delta):
        """The solved unit exponents are those a scan of every exponent
        finds, in its order, so one rng state draws the same character and
        leaves the same state, for every k parity on ramified and
        unramified E."""
        import random
        from support import _mu_character
        ub = UnitaryBaseData(BaseField("p-adic", p), delta)
        n = ub.residue_field().q - 1
        for k in (0, 1, 2, 3):
            for den in (1, 2, 3, 4):
                candidates = [mu for num in range(den) for exp in range(n)
                              if (mu := TameCharacter(ub, Fraction(num, den), exp))
                              .restricts_to_sgn_power(k)]
                if candidates:
                    break
            for seed in range(8):
                drawn, scanned = random.Random(seed), random.Random(seed)
                assert _mu_character(drawn, ub, k) == scanned.choice(candidates)
                assert drawn.random() == scanned.random()

    def test_unitary_instance_at_a_large_prime(self):
        """Drawing the characters costs no scan of the q - 1 exponents:
        seed 0 draws a ramified E at p = 10007 and seed 1 an unramified
        one, where q - 1 = 10007^2 - 1."""
        import random
        import time
        from support import make_instance
        for seed, ramified in ((0, True), (1, False)):
            start = time.perf_counter()
            inst = make_instance(random.Random(seed), "unitary", p=10007)
            assert time.perf_counter() - start < 10
            assert inst.g.E.ramified == ramified
            assert inst.e.mu_minus.restricts_to_sgn_power(inst.e.d_plus)


def _tiny_param(case="symplectic"):
    k = quadratic_field(F5, F5.element(5))
    t = k.element(2, 1)
    y = t / t.tau()
    c = k.element(0, 1) if case == "symplectic" else k.element(1)
    entry = IndexEntry("i0", "-", k, y, c)
    return k, y, RegularParam((entry,))


class TestValidateParam:
    def test_symplectic_ok(self):
        _, _, p = _tiny_param()
        g = GroupDescriptor("symplectic", 2, Q5, eta=F5.element(1))
        assert validate_param(p, g, "group").ok
        # on the endoscopic side a minus entry belongs to the orthogonal
        # factor, so its optional coefficient must be tau-fixed instead
        k, y, _ = _tiny_param()
        py = RegularParam((IndexEntry("i0", "-", k, y, k.element(3)),))
        assert validate_param(py, g, "endoscopic").ok

    def test_c_sign_enforced(self):
        k, y, _ = _tiny_param()
        p = RegularParam((IndexEntry("i0", "-", k, y, k.element(1)),))
        g = GroupDescriptor("symplectic", 2, Q5, eta=F5.element(1))
        assert "c-sign" in codes(validate_param(p, g, "group"))

    def test_norm_one_enforced(self):
        k, _, _ = _tiny_param()
        p = RegularParam((IndexEntry("i0", "-", k, k.element(2), k.element(0, 1)),))
        g = GroupDescriptor("symplectic", 2, Q5, eta=F5.element(1))
        assert "value-norm-one" in codes(validate_param(p, g, "group"))

    def test_dimension_bookkeeping(self):
        _, _, p = _tiny_param()
        g = GroupDescriptor("symplectic", 4, Q5, eta=F5.element(1))
        assert "dim-bookkeeping" in codes(validate_param(p, g, "group"))

    def test_xd_rules(self):
        k, y, _ = _tiny_param("so")
        entry = IndexEntry("i0", "-", k, y, None)
        p = RegularParam((entry,), F5.element(2))
        g = GroupDescriptor("twisted_gl_odd", 3, Q5, nu=F5.element(1),
                            eta=F5.element(-1))
        assert validate_param(p, g, "group").ok
        p2 = RegularParam((entry,))
        assert "xD-missing" in codes(validate_param(p2, g, "group"))

    def test_one_norm_per_index(self, rng, monkeypatch):
        # the unit test and the norm-one rule read one norm of y_i; an
        # optional c_i adds the norm of its own unit test on a split
        # algebra, and none on a field, where a unit is a nonzero element
        from endofactor.etale import EtaleElement
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5, n_indices=(2, 3))
        norms = []
        original = EtaleElement.norm

        def counting(self):
            norms.append(self)
            return original(self)

        monkeypatch.setattr(EtaleElement, "norm", counting)
        assert validate_param(inst.y, inst.g, "endoscopic").ok
        assert len(norms) == sum(1 + (en.c is not None and not en.algebra.is_field)
                                 for en in inst.y.entries)

    def test_side_dimensions(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_even", p=5)
        dm, dp = side_dimensions(inst.y, inst.g)
        assert (dm, dp) == (inst.e.d_minus, inst.e.d_plus)
        assert dm % 2 == 0 and dp % 2 == 1


class TestCharpolyProduct:
    @given(st.lists(st.lists(st.fractions(max_denominator=10 ** 6), max_size=6), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_integer_product_is_the_fraction_fold(self, polys):
        """Over the base field, the product of the integer numerators over
        one denominator is the fold of pmul on the Fractions, from [1]; the
        empty list gives [1]."""
        g = GroupDescriptor("symplectic", 2, Q5)
        want = [Fraction(1)]
        for q in polys:
            want = _poly.pmul(want, q)
        got = charpoly_product(polys, g)
        assert got == want
        assert all(type(c) is Fraction for c in got)
        if not polys:
            assert got == [1]


class TestRegularity:
    def test_repeated_eigenvalue(self):
        k, y, _ = _tiny_param()
        p = RegularParam((IndexEntry("a", "-", k, y, None),
                          IndexEntry("b", "+", k, y, None)))
        g = GroupDescriptor("symplectic", 4, Q5, eta=F5.element(1))
        assert not check_regularity(p, g, "endoscopic")

    def test_minus_one_rejected(self):
        k = quadratic_field(F5, F5.element(5))
        p = RegularParam((IndexEntry("a", "-", k, k.element(-1), None),))
        g = GroupDescriptor("so_even", 2, Q5, delta=F5.element(5),
                            eta=F5.element(1))
        assert not check_regularity(p, g, "endoscopic")

    def test_generic_accepted(self, rng):
        from support import make_instance
        inst = make_instance(rng, "so_even", p=5)
        assert check_regularity(inst.y, inst.g, "endoscopic")

    def test_twisted_group_side(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        assert check_regularity(inst.x, inst.g, "group")


def _regular_with_adjoined_line(poly, g):
    """Regularity as first written: where a case has an so_odd half, the
    eigenvalue-1 line is adjoined to P before the squarefree test, and P(1)
    is not tested."""
    dline = "so_odd" in g.info["factors"]
    scalar = ground_scalar(g)
    one, zero, minus_one = scalar(1), scalar(0), scalar(-1)
    aug = _poly.pmul(poly, [-one, one]) if dline else poly
    if not is_squarefree(aug):
        return False
    if horner(poly, minus_one, zero) == zero:
        return False
    if not dline and horner(poly, one, zero) == zero:
        return False
    return True


@pytest.mark.parametrize("case", CASES)
def test_regularity_matches_the_adjoined_line_formula(case):
    """P(1) != 0 and P squarefree is the same as P * (T - 1) squarefree, so
    no case needs the adjoined line; checked on products of linear factors
    with roots at 1, at -1, repeated, or none of these, over F and over E."""
    ub = UnitaryBaseData(Q5, 2)
    g = GroupDescriptor(case, 4, Q5, E=ub)
    if case_info(case)["ground"] == "E":
        roots = [ub.E.element(a, b) for a, b in
                 ((1, 0), (-1, 0), (2, 0), (0, 1), (3, Fraction(1, 2)), (2, 0))]
    else:
        roots = [Fraction(a) for a in (1, -1, 2, Fraction(1, 3), -4, 2)]
    one = ground_scalar(g)(1)
    verdicts = set()
    for mask in range(1 << len(roots)):
        poly = [one]
        for k, r in enumerate(roots):
            if mask >> k & 1:
                poly = _poly.pmul(poly, [-r, one])
        verdict = is_regular_charpoly(poly, g)
        assert verdict == _regular_with_adjoined_line(poly, g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


class TestMatching:
    def test_untwisted_exact_equality(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        assert match_stable_classes(inst.y, inst.x, inst.g, inst.e)
        bad = RegularParam(tuple(
            IndexEntry(en.name, en.side, en.algebra, en.value * en.value, en.c)
            for en in inst.x.entries), inst.x.x_D)
        assert not match_stable_classes(inst.y, bad, inst.g, inst.e)

    def test_twisted_norm_insensitive(self, rng):
        from support import make_instance, random_etale_unit
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        assert match_stable_classes(inst.y, inst.x, inst.g, inst.e)
        scaled = []
        for en in inst.x.entries:
            t = random_etale_unit(rng, en.algebra)
            scaled.append(IndexEntry(en.name, en.side, en.algebra,
                                     en.value * t.norm(), en.c))
        x2 = RegularParam(tuple(scaled), inst.x.x_D)
        assert match_stable_classes(inst.y, x2, inst.g, inst.e)

    def test_structure_mismatch(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        renamed = RegularParam(tuple(
            IndexEntry(en.name + "x", en.side, en.algebra, en.value, en.c)
            for en in inst.x.entries))
        with pytest.raises(IndexMismatch):
            match_stable_classes(inst.y, renamed, inst.g, inst.e)


class TestStableClass:
    def test_forgets_c(self, rng):
        from support import make_instance, random_tau_odd_unit
        inst = make_instance(rng, "symplectic", p=5)
        other = RegularParam(tuple(
            IndexEntry(en.name, en.side, en.algebra, en.value,
                       random_tau_odd_unit(rng, en.algebra))
            for en in inst.x.entries))
        assert (stable_class_of(inst.x, inst.g, "group")
                == stable_class_of(other, inst.g, "group"))

    def test_twisted_scaling_insensitive(self, rng):
        from support import make_instance, random_unit
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        scaled = []
        for en in inst.x.entries:
            lam = random_unit(rng, en.algebra.base_pm)
            scaled.append(IndexEntry(en.name, en.side, en.algebra,
                                     en.value * lam, en.c))
        x2 = RegularParam(tuple(scaled), F5.element(7))
        assert (stable_class_of(inst.x, inst.g, "group")
                == stable_class_of(x2, inst.g, "group"))

    def test_distinguishes_values(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        other = RegularParam(tuple(
            IndexEntry(en.name, en.side, en.algebra, en.value * en.value, en.c)
            for en in inst.y.entries))
        assert (stable_class_of(inst.y, inst.g)
                != stable_class_of(other, inst.g))

    def test_matching_implies_induced_class(self, rng):
        # the x-side stable key is determined by y through the matching
        # relation: two matched group sides always share it
        from support import make_instance, random_etale_unit, random_unit
        inst = make_instance(rng, "twisted_gl_even", p=5)
        other_entries = []
        for en in inst.x.entries:
            lam = random_unit(rng, en.algebra.base_pm)
            other_entries.append(IndexEntry(en.name, en.side, en.algebra,
                                            en.value * lam, en.c))
        other = RegularParam(tuple(other_entries), inst.x.x_D)
        assert match_stable_classes(inst.y, other, inst.g, inst.e)
        assert (stable_class_of(inst.x, inst.g, "group")
                == stable_class_of(other, inst.g, "group"))
