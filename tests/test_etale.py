from fractions import Fraction

import pytest

from endofactor import _poly
from endofactor.errors import NotInFixedField, UnsupportedCase, ZeroValuation
from endofactor.etale import (
    UnitaryBaseData,
    charpoly_over,
    norm_to_ground,
    quadratic_field,
    split_algebra,
    tau,
)
from endofactor.localfield import BaseField, _vp, make_extension, norm_test, trivial_tower

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)
K = quadratic_field(F5, F5.element(5))
S = split_algebra(F5)


def test_field_shape_rejects_squares():
    with pytest.raises(UnsupportedCase):
        quadratic_field(F5, F5.element(4))
    with pytest.raises(ZeroValuation):
        quadratic_field(F5, F5.element(0))


class TestTau:
    def test_field(self):
        x = K.element(3, 2)
        assert tau(x) == K.element(3, -2)

    def test_split_swaps_pair(self):
        y = S.from_pair(3, 7)
        assert tau(y).as_pair() == (F5.element(7), F5.element(3))

    def test_involution(self, rng):
        from support import random_etale_unit
        for alg in (K, S):
            for _ in range(10):
                x = random_etale_unit(rng, alg)
                assert tau(tau(x)) == x


class TestNormTrace:
    def test_field_formula(self):
        x = K.element(3, 2)
        assert (x.norm(), x.trace()) == (F5.element(9 - 5 * 4), F5.element(6))

    def test_split_formula(self):
        y = S.from_pair(3, 7)
        assert (y.norm(), y.trace()) == (F5.element(21), F5.element(10))

    def test_norm_one_constraint(self, rng):
        from support import random_norm_one
        y = random_norm_one(rng, K)
        assert y.norm() == F5.one()

    def test_lands_in_base(self, rng):
        from support import random_etale_unit, random_field_algebra, random_tower
        for _ in range(10):
            alg = random_field_algebra(rng, random_tower(rng, Q5))
            x = random_etale_unit(rng, alg)
            n, t = x.norm(), x.trace()
            # the as_base projection would raise if anything leaked
            assert (x * tau(x)).as_base() == n
            assert (x + tau(x)).as_base() == t


class TestCharpoly:
    def test_quadratic_over_base(self):
        x = K.element(3, 2)
        assert charpoly_over(x, "F") == [Fraction(-11), Fraction(-6), Fraction(1)]

    def test_split_coordinates_are_roots(self):
        alpha = S.from_pair(2, Fraction(1, 2))
        assert charpoly_over(alpha, "F") == [Fraction(1), Fraction(-5, 2), Fraction(1)]

    def test_degree_on_random_tower(self, rng):
        from support import random_etale_unit, random_field_algebra
        tower = make_extension(Q5, 2, [-5, 1])
        alg = random_field_algebra(rng, tower)
        x = random_etale_unit(rng, alg)
        cp = charpoly_over(x, "F")
        assert len(cp) - 1 == 2 * tower.n == 4

    def test_cayley_hamilton(self, rng):
        from support import random_algebra, random_etale_unit, random_tower
        for _ in range(8):
            alg = random_algebra(rng, random_tower(rng, Q5))
            x = random_etale_unit(rng, alg)
            cp = charpoly_over(x, "F")
            assert not _poly.peval(cp, x, alg.zero())

    def test_split_charpoly_factors(self, rng):
        from support import random_etale_unit
        x = random_etale_unit(rng, S)
        a, b = x.as_pair()
        prod = _poly.pmul([-a.as_fraction(), Fraction(1)],
                          [-b.as_fraction(), Fraction(1)])
        assert charpoly_over(x, "F") == prod


class TestSgn:
    def test_split_trivial(self):
        assert norm_test(F5.element(7), S) == 1

    def test_real_sign(self):
        fr = trivial_tower(BaseField("real"))
        cc = quadratic_field(fr, fr.element(-1))
        assert norm_test(fr.element(-2), cc) == -1
        assert norm_test(fr.element(2), cc) == 1

    def test_derived(self):
        assert norm_test(F5.element(2), K) == -1

    def test_norms_positive(self, rng):
        from support import random_etale_unit
        for _ in range(10):
            t = random_etale_unit(rng, K)
            assert norm_test(t.norm(), K) == 1


class TestUnitary:
    def test_split_detection(self):
        ub = UnitaryBaseData(Q5, 2)
        unram = make_extension(Q5, 2, [-5, 1])
        ram = make_extension(Q5, 1, [-5, 0, 1])
        assert not ub.algebra_over(unram).is_field   # 2 becomes a square in F_25
        assert ub.algebra_over(ram).is_field

    def test_charpoly_over_e_conjugate_product(self, rng):
        from support import random_etale_unit
        ub = UnitaryBaseData(Q5, 2)
        alg = ub.algebra_over(make_extension(Q5, 1, [-5, 0, 1]))
        x = random_etale_unit(rng, alg)
        cpe = charpoly_over(x, "E")
        assert len(cpe) - 1 == alg.base_pm.n
        conj = [c.tau() for c in cpe]
        prod = [c.as_base().as_fraction() for c in _poly.pmul(cpe, conj)]
        assert prod == charpoly_over(x, "F")

    def test_charpoly_over_e_needs_tensor(self):
        with pytest.raises(UnsupportedCase):
            charpoly_over(K.element(1, 1), "E")

    def test_rejects_dyadic_and_real(self):
        with pytest.raises(UnsupportedCase):
            UnitaryBaseData(BaseField("p-adic", 2), 5)
        with pytest.raises(UnsupportedCase):
            UnitaryBaseData(BaseField("real"), -1)

    def test_e_valuation_residue(self):
        ub = UnitaryBaseData(Q5, 2)      # unramified
        assert ub.e_valuation(ub.E.element(5)) == 1
        assert ub.e_valuation(ub.E.element(2, 3)) == 0
        ubr = UnitaryBaseData(Q5, 5)     # ramified
        assert ubr.e_valuation(ubr.E.rt()) == 1
        assert ubr.e_valuation(ubr.E.element(5)) == 2
        assert ubr.sgn(2) == -1

    def test_e_valuation_rejects_odd_norm_valuation(self):
        # an element of the ramified K has a norm of odd valuation, which no
        # element of the unramified E can have; an element of another
        # unramified E is refused as well
        ub = UnitaryBaseData(Q5, 2)
        with pytest.raises(ZeroValuation):
            ub.e_valuation(K.rt())
        with pytest.raises(ZeroValuation):
            ub.e_valuation(UnitaryBaseData(Q5, 3).E.element(1, 1))

    def test_e_valuation_matches_the_norm(self, rng):
        """v(x), read off v_p of the coordinates a and b of x, is the norm
        path's: v_p(x * tau(x)) over a ramified E, and half of it, which is
        even, over an unramified one.  Sixteen delta_E at each of p = 3, 5,
        7, with a or b zero and with a and b*sqrt(delta_E) of equal
        valuation among the draws."""
        from support import unitary_deltas

        def coordinate(p):
            if rng.random() < 0.2:
                return Fraction(0)
            r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 60))
            return r * Fraction(p) ** rng.randint(-3, 3)

        seen = set()
        for p in (3, 5, 7):
            for delta_e in unitary_deltas(p):
                ub = UnitaryBaseData(BaseField("p-adic", p), delta_e)
                for _ in range(40):
                    x = ub.E.element(coordinate(p), coordinate(p))
                    if not x:
                        continue
                    v = _vp(x.norm().as_fraction(), p)
                    assert ub.ramified or v % 2 == 0
                    assert ub.e_valuation(x) == (v if ub.ramified else v // 2)
                    seen.add((ub.ramified, not x.a, not x.b))
        assert seen == {(r, za, zb) for r in (True, False)
                        for za, zb in ((False, False), (True, False), (False, True))}


def _tame_coordinates_by_inverse(ub, x):
    """(v, residue) by the definition: the residue of the unit
    x * uniformizer^(-v), with the uniformizer sqrt(delta_E)/p^k over a
    ramified E and p over an unramified one, v(delta_E) = 2k or 2k + 1."""
    p = ub.base.p
    w = _vp(ub.delta_e.as_fraction(), p)
    k = w // 2
    uniformizer = ub.E.element(0, Fraction(1, p ** k)) if w % 2 else ub.E.element(p)
    v = ub.e_valuation(x)
    unit = x * uniformizer ** (-v)
    coords = [unit.a.as_fraction()] if w % 2 else [
        unit.a.as_fraction(), unit.b.as_fraction() * Fraction(p) ** k]
    return v, ub.residue_field().element(
        [c.numerator * pow(c.denominator, -1, p) % p for c in coords])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_tame_coordinates_against_the_inverse(p):
    """Without an inverse, ``tame_coordinates`` gives the (v, residue) of
    the definition for x = (a + b*sqrt(delta_E)) * p^t, t in -3..3, on the
    sixteen E of ``unitary_deltas``, ramified and unramified; a and b carry
    a power of p of their own, so that v(x) takes both parities on every
    ramified E."""
    import random
    from support import rnd_rational, unitary_deltas
    rng = random.Random(p)
    base = BaseField("p-adic", p)
    for delta in unitary_deltas(p):
        ub = UnitaryBaseData(base, delta)
        parities = set()
        for _ in range(120):
            a, b = (rnd_rational(rng, zero_ok=True) * Fraction(p) ** rng.randint(-2, 2)
                    for _ in range(2))
            if not (a or b):
                a = 1
            x = ub.E.element(a, b) * Fraction(p) ** rng.randint(-3, 3)
            v, u = ub.tame_coordinates(x)
            assert (v, u) == _tame_coordinates_by_inverse(ub, x), (delta, x)
            parities.add(v % 2)
        if ub.ramified:
            assert parities == {0, 1}


def test_as_base_guards():
    with pytest.raises(NotInFixedField):
        K.element(1, 2).as_base()


def test_norm_to_ground(rng):
    from support import random_etale_unit
    tower = make_extension(Q5, 1, [-5, 0, 1])
    alg = quadratic_field(tower, tower.element(2))
    x = random_etale_unit(rng, alg)
    cp = charpoly_over(x, "F")
    # the constant term of the charpoly is the norm up to sign
    assert norm_to_ground(x) == cp[0] * (-1) ** (len(cp) - 1)
