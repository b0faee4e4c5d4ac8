"""The tower product against a slow reference.

A tower element is one flat coordinate vector, multiplied through the
tower's structure constants.  The reference below keeps the older layout:
e rows of f u-coordinates, multiplied as polynomials in u and pi, with u^f
reduced by the unramified polynomial and pi^e by the Eisenstein one after
every product.  Both must give the same exact coordinates.
"""

from fractions import Fraction

import pytest

from endofactor.document import parse_tower_literal
from endofactor.localfield import BaseField, _vp, make_extension, trivial_tower, valuation

P = 5
SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 3))


def _eis(f, e):
    """Defining coefficients with u-terms and fractions wherever allowed."""
    if e == 1:
        return [[-P] + [Fraction(P, 3)] * (f - 1), 1]
    const = [-P] + [P] * (f - 1)
    middle = [[Fraction(P, 2)] + [P * k] * (f - 1) for k in range(1, e)]
    return [const] + middle + [1]


def _rows(tower, x):
    f = tower.f
    return [list(x.coords[b * f:(b + 1) * f]) for b in range(tower.e)]


def _ref_u_mul(tower, x, y):
    f = tower.f
    out = [Fraction(0)] * (2 * f - 1)
    for i in range(f):
        for j in range(f):
            out[i + j] += x[i] * y[j]
    for k in range(2 * f - 2, f - 1, -1):
        c, out[k] = out[k], Fraction(0)
        for j in range(f):
            out[k - f + j] -= c * tower.unram_poly[j]
    return out[:f]


def _ref_mul(tower, x, y):
    """The product of two elements given as rows, as rows."""
    e, f = tower.e, tower.f
    out = [[Fraction(0)] * f for _ in range(2 * e - 1)]
    for i in range(e):
        for j in range(e):
            out[i + j] = [a + b for a, b in zip(out[i + j], _ref_u_mul(tower, x[i], y[j]))]
    for k in range(2 * e - 2, e - 1, -1):
        c, out[k] = out[k], [Fraction(0)] * f
        for j in range(e):
            t = _ref_u_mul(tower, c, tower.eis[j])
            out[k - e + j] = [a - b for a, b in zip(out[k - e + j], t)]
    return out[:e]


def _ref_valuation(tower, x):
    return min(tower.e * min(_vp(c, tower.base.p) for c in row if c) + b
               for b, row in enumerate(_rows(tower, x)) if any(row))


def _random_element(rng, tower):
    while True:
        x = tower.from_coords([[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 25]))
                                if rng.random() < 0.8 else 0
                                for _ in range(tower.f)] for _ in range(tower.e)])
        if x:
            return x


def _towers():
    q5 = BaseField("p-adic", P)
    out = [make_extension(q5, f, _eis(f, e)) for f, e in SHAPES]
    return out + [trivial_tower(BaseField("real")), trivial_tower(BaseField("p-adic", 2))]


@pytest.mark.parametrize("tower", _towers(), ids=repr)
def test_flat_product_matches_reference(tower, rng):
    one = _rows(tower, tower.one())
    monomials = [tower.from_coords([[0] * tower.f] * b + [[0] * a + [1]])
                 for b in range(tower.e) for a in range(tower.f)]
    assert [m.coords for m in monomials] == [m.coords for m in tower._basis_elements()]
    for _ in range(12):
        x, y = _random_element(rng, tower), _random_element(rng, tower)
        assert _rows(tower, x * y) == _ref_mul(tower, _rows(tower, x), _rows(tower, y))
        cols = [sum(_ref_mul(tower, _rows(tower, x), _rows(tower, m)), [])
                for m in monomials]
        assert tower.mult_matrix(x) == [list(row) for row in zip(*cols)]
        assert _ref_mul(tower, _rows(tower, x), _rows(tower, x.inverse())) == one
        if not tower.base.is_real:
            assert valuation(x) == _ref_valuation(tower, x)
        assert parse_tower_literal(repr(x), tower) == x
