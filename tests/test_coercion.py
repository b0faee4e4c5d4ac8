"""One way into each ring: ``element()``.

A tower's ``element`` takes ints, Fractions, its own elements and those of
the base field's trivial tower F (at monomial 0); an etale algebra's takes
the same through its tower, and a tensor algebra F_pm (x) E also takes
elements of E.  The arithmetic coerces its other operand through them, so
a base-field scalar multiplies into any ring the same way as the rational
it stands for.
"""

from fractions import Fraction

import pytest

from endofactor.etale import UnitaryBaseData, quadratic_field, split_algebra
from endofactor.localfield import BaseField, make_extension, trivial_tower

Q3 = BaseField("p-adic", 3)
F3 = trivial_tower(Q3)
Q5 = BaseField("p-adic", 5)
UB = UnitaryBaseData(Q3, 2)     # E = Q_3(sqrt 2), unramified
SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2))
RATIONALS = (Fraction(0), Fraction(1), Fraction(-7, 6), Fraction(9, 4), Fraction(2, 27))


def _rings():
    """(id, ring): the towers SHAPES over Q_3, and over each a quadratic
    field, the split algebra and the tensor algebra with E."""
    out = []
    for f, e in SHAPES:
        tower = make_extension(Q3, f, [-3, 1] if e == 1 else [-3, 0, 1])
        out += [(f"tower{f}{e}", tower),
                (f"field{f}{e}", quadratic_field(tower, tower.unit_nonsquare())),
                (f"split{f}{e}", split_algebra(tower)),
                (f"tensor{f}{e}", UB.algebra_over(tower))]
    return out


RINGS = _rings()
TENSORS = [ring for name, ring in RINGS if name.startswith("tensor")]


def _sample(rng, ring):
    """A random element with every coordinate drawn."""
    num = tuple(rng.randint(-9, 9) for _ in range(ring.n))
    return type(ring.one())(ring, num, 1) * Fraction(1, rng.choice([1, 2, 3, 5]))


@pytest.mark.parametrize("ring", [r for _, r in RINGS], ids=[name for name, _ in RINGS])
class TestBaseFieldScalars:
    @pytest.mark.parametrize("q", RATIONALS)
    def test_element_of_F_is_its_rational(self, ring, q):
        got, want = ring.element(F3.element(q)), ring.element(q)
        assert got == want and (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("q", RATIONALS)
    def test_product_with_F_is_the_product_with_its_rational(self, ring, q, rng):
        z = _sample(rng, ring)
        assert z * F3.element(q) == z * q
        assert z + F3.element(q) == z + q
        assert z - F3.element(q) == z - q
        if q:
            assert z / F3.element(q) == z / q

    def test_tower_over_another_base_is_refused(self, ring):
        other = trivial_tower(Q5).element(2)
        with pytest.raises(ValueError):
            ring.element(other)
        with pytest.raises((ValueError, TypeError)):
            ring.one() * other


@pytest.mark.parametrize("alg", TENSORS, ids=[f"tensor{f}{e}" for f, e in SHAPES])
class TestElementsOfE:
    def test_lands_with_its_coordinates(self, alg, rng):
        for _ in range(4):
            z = _sample(rng, UB.E)
            got = alg.element(z)
            assert (got.a, got.b) == (alg.base_pm.element(z.a), alg.base_pm.element(z.b))

    def test_is_a_ring_map(self, alg, rng):
        z, w = _sample(rng, UB.E), _sample(rng, UB.E)
        assert alg.element(z * w) == alg.element(z) * alg.element(w)
        assert alg.element(UB.E.rt()) == alg.rt()

    def test_multiplies_from_the_right(self, alg, rng):
        t, z = _sample(rng, alg), _sample(rng, UB.E)
        assert t * z == t * alg.element(z)
        assert t + z == t + alg.element(z)

    def test_b_with_an_element_of_E_is_refused(self, alg):
        with pytest.raises(ValueError):
            alg.element(UB.E.one(), 1)


def test_E_of_another_extension_is_refused():
    other = UnitaryBaseData(Q3, 3).E.rt()
    for name, ring in RINGS:
        if not name.startswith("tower"):
            with pytest.raises(ValueError):
                ring.element(other)


class TestMixedOrder:
    """Python calls no reflected method between two operands of one type,
    so the left operand's ring must take the right one."""

    def test_F_times_a_proper_tower_raises_value_error(self):
        tower = make_extension(Q3, 2, [-3, 1])
        u = tower.ugen()
        with pytest.raises(ValueError):
            F3.element(2) * u
        assert u * F3.element(2) == u * 2

    def test_E_times_a_tensor_element_is_undefined(self):
        """E holds no reference to the tensor algebras over it, so E * F_i
        raises TypeError; the engine embeds E's eta into F_i with the
        algebra's ``element`` before it multiplies (factor.compute_C)."""
        alg = TENSORS[-1]
        eta, y = UB.E.element(2, 1), alg.element(1, alg.base_pm.pi())
        with pytest.raises(TypeError):
            eta * y
        assert y * eta == alg.element(eta) * y

    def test_base_field_element_times_an_algebra_element_is_reflected(self):
        alg = TENSORS[0]
        y = alg.element(1, 1)
        assert F3.element(3) * y == y * 3
        assert Fraction(1, 2) * y == y * F3.element(Fraction(1, 2))
