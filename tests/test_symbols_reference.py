"""The symbols read off the coordinates against the unit-part references.

``localfield.unit_residue`` gives v(x) and the residue of x * pi^(-v) with
no product in the tower, and ``is_square``, ``square_class`` and
``hilbert_symbol`` decide on it in the residue field.  The references in
``tests/support.py`` form the unit x * pi^(-v) in the tower and take its
residue; ``support.vp_loop`` is the one-division-at-a-time valuation that
``localfield._vp`` replaces.
"""

import random
from fractions import Fraction

import pytest

import support
from endofactor.localfield import (
    BaseField,
    _vp,
    hilbert_symbol,
    is_square,
    make_extension,
    square_class,
    trivial_tower,
    unit_residue,
)

PRIMES = (3, 5, 7, 11, 13)
# (f, e) of degree at most 6, with f = 3 and e = 3 among them
SHAPES = ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (6, 1), (1, 6))


def _tower(rng, p, f, e):
    """A tower with a random Eisenstein polynomial: eis_0 = p * w0 for a
    unit w0 of the unramified step with a denominator prime to p, so that
    pi^e / p is not 1 modulo pi, and the middle coefficients in p*Z[1/2]."""
    w0 = [Fraction(rng.randint(1, p - 1), rng.choice([1, 2, 4]))]
    w0 += [Fraction(rng.randint(0, p - 1) * rng.choice([1, p])) for _ in range(f - 1)]
    middle = [[Fraction(p * rng.randint(-3, 3), rng.choice([1, 2]))] for _ in range(e - 1)]
    return make_extension(BaseField("p-adic", p), f, [[-p * c for c in w0]] + middle + [1])


def _element(rng, tower):
    """A nonzero element whose coordinates carry powers of p in their
    numerators and their denominators."""
    p = tower.base.p
    while True:
        coords = [Fraction(rng.randint(-20, 20) * p ** rng.choice((0, 0, 1, 2, 5)),
                           rng.randint(1, 9) * p ** rng.choice((0, 0, 1, 3)))
                  if rng.random() < 0.7 else Fraction(0) for _ in range(tower.n)]
        x = tower._from_fractions(coords)
        if x:
            return x


@pytest.mark.parametrize("p", PRIMES)
def test_symbols_agree_with_the_unit_part_references(p):
    rng = random.Random(f"symbols-{p}")
    pairs = 0
    for f, e in SHAPES:
        tower = _tower(rng, p, f, e)
        for _ in range(30):
            a, b = _element(rng, tower), _element(rng, tower)
            v, u = support.unit_split(a)
            assert unit_residue(a) == (v, support.residue(u))
            assert hilbert_symbol(a, b) == support.hilbert_symbol_by_unit(a, b), (f, e, a, b)
            assert is_square(a) == support.is_square_by_unit(a)
            assert square_class(a) == support.square_class_by_unit(a)
            pairs += 1
    assert pairs == 30 * len(SHAPES)


def test_trivial_towers_and_the_rational_paths():
    """Q_p's trivial tower (pi = p), Q_2 and R keep the same symbols."""
    rng = random.Random("trivial")
    for base in [BaseField("p-adic", p) for p in (2,) + PRIMES] + [BaseField("real")]:
        F = trivial_tower(base)
        for _ in range(40):
            a, b = [F.element(Fraction(rng.choice([-1, 1]) * rng.randint(1, 60) * 2 ** rng.randint(0, 3),
                                       rng.randint(1, 60))) for _ in range(2)]
            assert is_square(a) == support.is_square_by_unit(a)
            assert square_class(a) == support.square_class_by_unit(a)
            if base.is_real:
                continue
            if base.p == 2:
                assert hilbert_symbol(a, b) == support.hilbert2(a.as_fraction(), b.as_fraction())
            else:
                assert hilbert_symbol(a, b) == support.hilbert_symbol_by_unit(a, b)


def test_symbols_take_no_inverse(monkeypatch):
    """No tower inversion and no power of pi inside the symbols."""
    from endofactor.localfield import ExtensionTower
    rng = random.Random("no-inverse")
    tower = _tower(rng, 5, 2, 3)
    xs = [_element(rng, tower) for _ in range(20)]

    def refused(*args):
        raise AssertionError("the symbols made a tower inversion")

    monkeypatch.setattr(ExtensionTower, "_invert", refused)
    for a, b in zip(xs, xs[1:]):
        hilbert_symbol(a, b)
        is_square(a)
        square_class(a)


def test_vp_agrees_with_the_loop():
    """Valuations up to 300 on coordinates of up to 40 digits, p up to
    99991, against one division at a time."""
    rng = random.Random("vp")
    for _ in range(5000):
        p = rng.choice((2, 3, 5, 7, 11, 13, 101, 99991))
        num = rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randrange(1, 40)) * p ** rng.randrange(300)
        den = rng.randrange(1, 10 ** rng.randrange(1, 40)) * p ** rng.randrange(300)
        x = Fraction(num, den)
        assert _vp(x, p) == support.vp_loop(x, p)
        assert _vp(num, p) == support.vp_loop(Fraction(num), p)
