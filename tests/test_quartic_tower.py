"""Stress the general-tower code paths with a degree-4 tower (f = e = 2),
which the bounded acceptance sweeps never touch."""

from fractions import Fraction

import pytest

from endofactor import _poly
from endofactor.errors import UnsupportedCase
from endofactor.etale import charpoly_over, quadratic_field
from endofactor.factor import compute_delta
from endofactor.localfield import (
    MAX_ORACLE_RING,
    BaseField,
    brute_force_norm_oracle,
    hilbert_symbol,
    is_square,
    make_extension,
    norm_test,
    square_class,
    valuation,
)
from endofactor.params import EndoscopicDatum, GroupDescriptor, IndexEntry, RegularParam
from support import square_class_reps

Q5 = BaseField("p-adic", 5)


@pytest.fixture(scope="module")
def quartic():
    # Eisenstein constant term -5u over the unramified quadratic step
    return make_extension(Q5, 2, [[0, -5], [0, 0], [1]])


def test_structure(quartic):
    t = quartic
    assert (t.e, t.f, t.n, t.q) == (2, 2, 4, 25)
    assert valuation(t.pi()) == 1
    assert valuation(t.element(5)) == 2
    assert valuation(t.ugen()) == 0
    # pi^2 = 5u by construction
    assert t.pi() ** 2 == t.element(5) * t.ugen()


def test_valuation_matches_coordinate_minimum(quartic, rng):
    # v is read off the coordinates; the norm to the base, whose valuation
    # is f * v, is the slow reference
    from support import random_nonzero
    for _ in range(25):
        x = random_nonzero(rng, quartic)
        assert valuation(x) == _vp(quartic.norm_to_base(x)) // quartic.f


def _vp(fr):
    fr = Fraction(fr)
    v = 0
    n, d = fr.numerator, fr.denominator
    while n % 5 == 0:
        n //= 5
        v += 1
    while d % 5 == 0:
        d //= 5
        v -= 1
    return v


def test_negative_power_is_inverse_of_power(quartic, rng):
    from support import random_etale_unit, random_nonzero
    k = quadratic_field(quartic, quartic.pi())
    for x in (random_nonzero(rng, quartic), random_etale_unit(rng, k)):
        for n in range(6):
            assert x ** -n == (x ** n).inverse()
            assert x ** -n * x ** n == x ** 0 == 1


def test_arithmetic_properties(quartic, rng):
    from support import random_nonzero
    for _ in range(15):
        x = random_nonzero(rng, quartic)
        y = random_nonzero(rng, quartic)
        assert x * x ** (-1) == quartic.one()
        assert valuation(x * y) == valuation(x) + valuation(y)
        assert is_square(x * x)
        rep = square_class(x)
        assert is_square(x / rep)


def test_hilbert_axioms(quartic):
    reps = square_class_reps(quartic)
    one = quartic.one()
    for a in reps:
        assert hilbert_symbol(a, -a) == 1
        if a != one:
            assert hilbert_symbol(a, one - a) == 1
        for b in reps:
            assert hilbert_symbol(a, b) == hilbert_symbol(b, a)
            for c in reps:
                assert (hilbert_symbol(a * b, c)
                        == hilbert_symbol(a, c) * hilbert_symbol(b, c))


def test_norms_are_hilbert_positive(quartic, rng):
    from support import random_etale_unit
    k = quadratic_field(quartic, quartic.pi())
    for _ in range(6):
        t = random_etale_unit(rng, k)
        assert hilbert_symbol(t.norm(), k.delta) == 1


def test_oracle_rejects_large_towers(quartic):
    """At depth 3 the oracle's O/pi^N, N <= 4, has at most 5^8 elements,
    and its verdicts are the norm test's; at depth 6, O/pi^6 has 5^12 and
    is refused."""
    reps = square_class_reps(quartic)
    for delta in reps[1:]:
        k = quadratic_field(quartic, delta)
        for c in reps:
            assert brute_force_norm_oracle(c, k, 3) == norm_test(c, k)
    k = quadratic_field(quartic, quartic.pi())
    with pytest.raises(UnsupportedCase) as info:
        brute_force_norm_oracle(quartic.element(2), k, 6)
    assert str(info.value) == ("oracle residue ring O/pi^6 has 5^12 elements, "
                               f"more than the limit {MAX_ORACLE_RING}")


def test_degree_eight_charpoly(quartic, rng):
    from support import random_etale_unit
    k = quadratic_field(quartic, quartic.pi())
    x = random_etale_unit(rng, k)
    cp = charpoly_over(x, "F")
    assert len(cp) - 1 == 8
    assert not _poly.peval(cp, x, k.zero())


def test_factor_over_quartic_tower(rng, quartic):
    # a symplectic instance whose single index sits over the quartic tower
    from endofactor import forms
    from endofactor.localfield import trivial_tower
    from support import random_norm_one, random_tau_fixed_unit, random_tau_odd_unit
    k = quadratic_field(quartic, quartic.pi())
    y = random_norm_one(rng, k)
    g = GroupDescriptor("symplectic", 8, Q5, eta=trivial_tower(Q5).element(2))
    yp = RegularParam((IndexEntry("i", "-", k, y, random_tau_fixed_unit(rng, k)),))
    xp = RegularParam((IndexEntry("i", "-", k, y, random_tau_odd_unit(rng, k)),))
    disc = forms.invariants(forms.trace_form_gram(yp, side="-")).disc
    e = EndoscopicDatum(8, 0, delta_minus=disc)
    value, trace = compute_delta(yp, xp, g, e)
    assert value.sign in (1, -1)
    assert len(trace.indices) == 1
