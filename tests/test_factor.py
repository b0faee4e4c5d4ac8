from fractions import Fraction

import pytest

from endofactor.errors import DivisionByZero, MatchFailure, UnsupportedCase, ValidationFailure
from endofactor.etale import UnitaryBaseData, quadratic_field, split_algebra
from endofactor.factor import (
    UnitCircleValue,
    build_charpoly_pack,
    compute_C,
    compute_delta,
    eval_character,
    formula_for,
    special_case_indicator,
    swapped_delta,
)
from endofactor.localfield import BaseField, hilbert_symbol, trivial_tower
from endofactor.params import (
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
)

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)

ALL_CASES = ("symplectic", "so_odd", "so_even", "twisted_gl_even",
             "twisted_gl_odd", "unitary", "bc_unitary")


class TestUnitCircleValue:
    def test_algebra(self):
        a = UnitCircleValue(Fraction(1, 4))
        assert (a * a).sign == -1
        assert a.inverse().angle == Fraction(3, 4)
        assert a.negate().angle == Fraction(3, 4)
        assert UnitCircleValue.from_sign(-1).render() == "-1"
        assert a.render() == "exp(2*pi*i*1/4)"

    def test_signs(self):
        assert UnitCircleValue.from_sign(1).sign == 1
        assert UnitCircleValue(Fraction(1, 3)).sign is None


class TestComputeC:
    def test_symplectic_hand_expansion(self, rng):
        from support import random_norm_one
        k = quadratic_field(F5, F5.element(5))
        y = random_norm_one(rng, k)
        c = k.rt()                       # sqrt(5), tau-odd
        eta = F5.element(2)
        g = GroupDescriptor("symplectic", 2, Q5, eta=eta)
        yp = RegularParam((IndexEntry("i", "-", k, y, None),))
        xp = RegularParam((IndexEntry("i", "-", k, y, c),))
        pack = build_charpoly_pack(yp, g)
        _, got = compute_C("i", pack, yp, xp, g)
        t = y.trace()
        hand = (-1) * eta.as_fraction() * c * (y - y.tau()) * (2 + t.as_fraction())
        assert got == hand.as_base()

    def test_tau_fixed_across_cases(self, rng):
        from support import make_instance
        for case in ALL_CASES:
            inst = make_instance(rng, case, p=5)
            pack = build_charpoly_pack(inst.y, inst.g)
            for en in inst.y.field_indices("-"):
                c_fi, c_base = compute_C(en.name, pack, inst.y, inst.x, inst.g)
                assert c_fi == en.algebra.element(c_base)
                assert c_base

    def test_split_index_rejected(self, rng):
        from support import random_norm_one
        s = split_algebra(F5)
        y = random_norm_one(rng, s)
        g = GroupDescriptor("symplectic", 2, Q5, eta=F5.element(1))
        yp = RegularParam((IndexEntry("i", "-", s, y, None),))
        xp = RegularParam((IndexEntry("i", "-", s, y, s.element(0, 1)),))
        with pytest.raises(UnsupportedCase):
            compute_C("i", build_charpoly_pack(yp, g), yp, xp, g)


def _c_by_powers(name, y, x, g):
    """C_i as the formula's product of powers, each negative power inverted
    on its own, with no check that the value is tau-fixed; P'(y) and
    P(point) are read off the whole product P, not the engine's pack."""
    from endofactor import _poly
    from support import whole_charpolys
    yv, xe = y.entry(name).value, x.entry(name)
    row = formula_for(g)
    point, power = row.pole
    plus, minus = row.y_factor
    lead = x.x_D if row.lead == "x_D" else g.eta
    P, _, _ = whole_charpolys(y, g)
    zero = g.E.E.zero() if g.info["ground"] == "E" else Fraction(0)
    if g.info["ground"] == "E":
        lead = yv.algebra.element(lead)
    coef = xe.c if row.coef == "c" else xe.value ** (-1)
    return (row.scalar * lead * coef * _poly.peval(_poly.pderiv(P), yv, yv.algebra.zero())
            * _poly.peval_scalar(P, point, zero) ** power * yv ** ((row.offset - g.d) // 2)
            * (1 + yv) ** plus * (yv - 1) ** minus)


def _with_value(param, name, make):
    """param with the value of the index ``name`` replaced by make(entry)."""
    return RegularParam(tuple(
        IndexEntry(en.name, en.side, en.algebra, make(en) if en.name == name else en.value, en.c)
        for en in param.entries), param.x_D)


class TestOneInversion:
    def test_matches_the_product_of_powers(self, rng):
        """C_i with the negative powers in one denominator, inverted once,
        is the product of the formula's powers taken one by one, for all
        nine formula variants, with negative exponents of y among them."""
        from support import make_instance
        seen = set()
        for case in ALL_CASES:
            for p in (3, 5, 7):
                for parity in (0, 1) if case in ("unitary", "bc_unitary") else (None,):
                    inst = make_instance(rng, case, p=p, force_d_parity=parity)
                    pack = build_charpoly_pack(inst.y, inst.g)
                    row = formula_for(inst.g)
                    seen.add((row.label, (row.offset - inst.g.d) // 2 < 0))
                    for en in inst.y.field_indices("-"):
                        c_fi, _ = compute_C(en.name, pack, inst.y, inst.x, inst.g)
                        assert c_fi == _c_by_powers(en.name, inst.y, inst.x, inst.g)
        assert len({label for label, _ in seen}) == 9
        assert any(negative for _, negative in seen)

    @pytest.mark.parametrize("case, who", [("twisted_gl_even", "x"), ("bc_unitary", "x"),
                                           ("so_odd", "y"), ("so_even", "y")])
    def test_a_non_unit_denominator(self, rng, case, who):
        """x = 0 (the formula's 1/x) or y = 1 (its 1/(y - 1)) raises
        DivisionByZero with the message of the one inversion that fails."""
        from support import make_instance
        inst = make_instance(rng, case, p=5)
        name = inst.y.field_indices("-")[0].name
        pack = build_charpoly_pack(inst.y, inst.g)
        y, x = inst.y, inst.x
        if who == "x":
            x = _with_value(x, name, lambda en: en.algebra.zero())
        else:
            y = _with_value(y, name, lambda en: en.algebra.one())
        with pytest.raises(DivisionByZero) as err:
            compute_C(name, pack, y, x, inst.g)
        assert str(err.value) == f"index {name!r}: element is not a unit in the etale algebra"


class TestComputeDelta:
    def test_all_split_minus_side_gives_one(self, rng):
        from support import random_norm_one, random_tau_odd_unit, random_tau_fixed_unit
        s = split_algebra(F5)
        k = quadratic_field(F5, F5.element(2))
        ys = random_norm_one(rng, s)
        yk = random_norm_one(rng, k)
        g = GroupDescriptor("symplectic", 4, Q5, eta=F5.element(1))
        yp = RegularParam((IndexEntry("a", "-", s, ys, None),
                           IndexEntry("b", "+", k, yk, None)))
        xp = RegularParam((
            IndexEntry("a", "-", s, ys, random_tau_odd_unit(rng, s)),
            IndexEntry("b", "+", k, yk, random_tau_odd_unit(rng, k)),
        ))
        e = EndoscopicDatum(2, 2, delta_minus=F5.element(2))
        value, trace = compute_delta(yp, xp, g, e)
        assert value.sign == 1
        assert not trace.indices

    def test_twisted_odd_pure_prefactor(self, rng):
        from support import make_instance, random_unit, whole_charpolys
        # all indices on the plus side: the chi prefactor is the whole factor
        k = quadratic_field(F5, F5.element(5))
        from support import random_norm_one, solve_matching
        y = random_norm_one(rng, k)
        nu = random_unit(rng, F5)
        sq = random_unit(rng, F5)
        eta = -nu * sq * sq
        x = solve_matching(rng, y, k)
        x_d = random_unit(rng, F5)
        g = GroupDescriptor("twisted_gl_odd", 3, Q5, nu=nu, eta=eta)
        yp = RegularParam((IndexEntry("i", "+", k, y, k.element(0, 1)),))
        xp = RegularParam((IndexEntry("i", "+", k, x, None),), x_d)
        chi = F5.element(2)
        e = EndoscopicDatum(1, 2, chi=chi)
        value, _ = compute_delta(yp, xp, g, e)
        P, _, _ = whole_charpolys(yp, g)
        arg = eta.as_fraction() * x_d.as_fraction() * sum(P)
        want = hilbert_symbol(F5.element(arg), chi)
        assert value.sign == want

    def test_match_failure(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        bad_entries = tuple(
            IndexEntry(en.name, en.side, en.algebra, en.value ** 3, en.c)
            for en in inst.x.entries)
        with pytest.raises(MatchFailure):
            compute_delta(inst.y, RegularParam(bad_entries), inst.g, inst.e)

    def test_validation_failure_surfaces(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        e_bad = EndoscopicDatum(inst.e.d_minus + 2, inst.e.d_plus)
        with pytest.raises(ValidationFailure):
            compute_delta(inst.y, inst.x, inst.g, e_bad)

    def test_norm_class_invariance(self, rng):
        from support import make_instance, random_etale_unit, random_unit
        for case in ALL_CASES:
            inst = make_instance(rng, case, p=5)
            base, _ = compute_delta(*inst.astuple())
            twisted = inst.g.info["twisted"]
            entries = []
            for en in inst.x.entries:
                nrm = random_etale_unit(rng, en.algebra).norm()
                if twisted:
                    entries.append(IndexEntry(en.name, en.side, en.algebra,
                                              en.value * nrm, en.c))
                else:
                    entries.append(IndexEntry(en.name, en.side, en.algebra,
                                              en.value, en.c * nrm))
            x_d = inst.x.x_D
            if x_d is not None:
                s = random_unit(rng, F5)
                x_d = x_d * s * s
            x2 = RegularParam(tuple(entries), x_d)
            again, _ = compute_delta(inst.y, x2, inst.g, inst.e)
            assert again.angle == base.angle, case

    def test_deterministic_traces(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        v1, t1 = compute_delta(*inst.astuple())
        v2, t2 = compute_delta(*inst.astuple())
        assert v1.angle == v2.angle
        assert t1.lines() == t2.lines()

    def test_real_hand_checked(self):
        RRb = BaseField("real")
        FR = trivial_tower(RRb)
        cc = quadratic_field(FR, FR.element(-1))
        y = cc.element(Fraction(3, 5), Fraction(4, 5))
        assert y.norm() == FR.one()
        c0 = Fraction(-2)
        eta = FR.element(3)
        g = GroupDescriptor("symplectic", 2, RRb, eta=eta)
        yp = RegularParam((IndexEntry("i", "-", cc, y, None),))
        xp = RegularParam((IndexEntry("i", "-", cc, y, cc.element(0, c0)),))
        e = EndoscopicDatum(2, 0, delta_minus=FR.element(-1))
        value, _ = compute_delta(yp, xp, g, e)
        # C = eta*c0*(128/25); the factor is the sign of eta*c0
        assert value.sign == (1 if eta.as_fraction() * c0 > 0 else -1)

    def test_one_charpoly_per_index(self, rng, monkeypatch):
        """One characteristic polynomial per index: of y_j over E, and over F
        of the tower half a_j = (y_j + tau(y_j))/2, on its tower."""
        from support import make_instance
        from endofactor import factor
        from endofactor.localfield import IntegerStructure
        calls = []

        def over(x, ground, _original=factor.charpoly_over):
            calls.append(x)
            return _original(x, ground)

        def base(ring, x, _original=IntegerStructure.base_charpoly):
            calls.append(x)
            return _original(ring, x)

        monkeypatch.setattr(factor, "charpoly_over", over)
        monkeypatch.setattr(IntegerStructure, "base_charpoly", base)
        for case in ALL_CASES:
            inst = make_instance(rng, case, p=5, n_indices=(2, 3))
            calls.clear()
            compute_delta(*inst.astuple())
            want = [en.value if inst.g.info["ground"] == "E" else en.value.a
                    for en in inst.y.entries]
            assert [(x.ring, x.num, x.den) for x in calls] == [
                (x.ring, x.num, x.den) for x in want], case

    def test_P_at_one_and_minus_one_once_per_pack(self, rng, monkeypatch):
        """Each P_j is evaluated once at each of 1 and -1, and over E at 0,
        however many minus-side field indices read P(1) and P(-1); the
        prefactors' P_pm(0) and P_pm(-1) are products of the same values."""
        from support import make_instance
        from endofactor import _poly
        calls = []

        def counting(p, t, zero):
            calls.append(t)
            return peval_scalar(p, t, zero)

        peval_scalar = _poly.peval_scalar
        monkeypatch.setattr(_poly, "peval_scalar", counting)
        for case in ALL_CASES:
            inst = make_instance(rng, case, p=5, n_indices=(2, 3))
            assert inst.y.field_indices("-"), case
            calls.clear()
            compute_delta(*inst.astuple())
            points = [-1, 0, 1] if inst.g.info["ground"] == "E" else [-1, 1]
            assert sorted(calls) == sorted(points * len(inst.y.entries)), case


class TestSwap:
    def test_so_odd_theorem(self, rng):
        from support import so_odd_swap_instance
        seen = set()
        for _ in range(6):
            inst = so_odd_swap_instance(rng, 5)
            base, _ = compute_delta(*inst.astuple())
            swapped = swapped_delta(*inst.astuple())
            assert swapped.angle == base.angle
            seen.add(inst.e.cocycle_class)

    def test_flag_negates(self, rng):
        from support import so_odd_swap_instance
        inst = so_odd_swap_instance(rng, 5)
        e = inst.e
        flipped = EndoscopicDatum(
            e.d_minus, e.d_plus, e.delta_minus, e.delta_plus, e.chi, e.mu_minus, e.mu_plus,
            cocycle_class="nontrivial" if e.cocycle_class == "trivial" else "trivial")
        a = swapped_delta(inst.y, inst.x, inst.g, inst.e)
        b = swapped_delta(inst.y, inst.x, inst.g, flipped)
        assert a.angle == b.negate().angle

    def test_empty_field_sets(self, rng):
        from support import random_norm_one, random_tau_fixed_unit
        s = split_algebra(F5)
        y1, y2 = random_norm_one(rng, s), random_norm_one(rng, s)
        g = GroupDescriptor("so_odd", 5, Q5, eta=F5.element(1))
        yp = RegularParam((IndexEntry("a", "-", s, y1, None),
                           IndexEntry("b", "+", s, y2, None)))
        xp = RegularParam((
            IndexEntry("a", "-", s, y1, random_tau_fixed_unit(rng, s)),
            IndexEntry("b", "+", s, y2, random_tau_fixed_unit(rng, s)),
        ))
        e = EndoscopicDatum(3, 3)
        assert compute_delta(yp, xp, g, e)[0].sign == 1
        assert swapped_delta(yp, xp, g, e).sign == 1

    def test_unsupported_cases(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        with pytest.raises(UnsupportedCase):
            swapped_delta(*inst.astuple())

    def test_mechanical_swap_for_so_even(self, rng):
        # the even orthogonal parameters label a pair of classes, so only
        # the mechanics are exercised, not the equality
        from support import make_instance
        inst = make_instance(rng, "so_even", p=5)
        value = swapped_delta(*inst.astuple())
        assert value.angle is not None

    def test_unitary_swap_theorem(self, rng):
        from support import unitary_swap_instance
        parities = set()
        for _ in range(8):
            inst = unitary_swap_instance(rng, rng.choice([3, 5, 7]))
            base, _ = compute_delta(*inst.astuple())
            assert swapped_delta(*inst.astuple()).angle == base.angle
            parities.add(inst.g.d % 2)


class TestIndicator:
    def test_agrees_with_delta(self, rng):
        from support import indicator_instance
        signs = set()
        for _ in range(6):
            inst = indicator_instance(rng, 5)
            value, _ = compute_delta(*inst.astuple())
            ind = special_case_indicator(*inst.astuple())
            assert value.angle == ind.angle
            signs.add(ind.sign)

    def test_preconditions(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        with pytest.raises(UnsupportedCase):
            special_case_indicator(*inst.astuple())


class TestEvalCharacter:
    def test_trivial(self):
        ub = UnitaryBaseData(Q5, 2)
        mu = TameCharacter(ub, Fraction(0), 0)
        assert eval_character(mu, ub.E.element(3, 4)).sign == 1

    def test_square_class(self):
        chi = F5.element(2)
        x = F5.element(5)
        assert eval_character(chi, x).sign == hilbert_symbol(x, chi)

    def test_unramified_quarter_angle(self):
        ub = UnitaryBaseData(Q5, 2)
        mu = TameCharacter(ub, Fraction(1, 4), 0)
        arg = ub.E.element(25)
        assert eval_character(mu, arg).angle == Fraction(1, 2)
