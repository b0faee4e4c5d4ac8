"""The tower and etale products against slow references.

A tower element is one flat vector of integer numerators over one common
denominator, multiplied through the tower's integer structure constants.
The reference below keeps the older layout: e rows of f Fraction
u-coordinates, multiplied as polynomials in u and pi, with u^f reduced by
the unramified polynomial and pi^e by the Eisenstein one after every
product.  Both must give the same exact coordinates, and every result
must be in normal form.

An element a + b*rt of a quadratic etale algebra is one flat vector too:
the numerators of a, then those of b, multiplied through the algebra's own
structure constants.  Its references are the pair formulas in tower
arithmetic: (a, b)(c, d) = (ac + delta*bd, ad + bc), the inverse
(a, -b) / (a^2 - delta*b^2), and the characteristic polynomials of the
block matrix [[A, delta*B], [B, A]] over F and of the matrix A + B*rt
over E, where A and B are the tower matrices of a and b.

Both tables are also compared with the constructions they replaced: the
tower's walk along each row, one product per entry, and the etale
algebra's dense (2n)^3 array.
"""

import math
from fractions import Fraction

import pytest

from endofactor import _poly
from endofactor.document import parse_etale_literal, parse_tower_literal
from endofactor.etale import UnitaryBaseData, charpoly_over, quadratic_field, split_algebra
from endofactor.errors import ZeroValuation
from endofactor.localfield import (
    BaseField,
    FieldElement,
    _vp,
    make_extension,
    trivial_tower,
    unit_residue,
    valuation,
)
from support import basis_elements, mult_matrix, residue
from test_poly_reference import gauss_det, gauss_solve

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


def _ref_residue(tower, x):
    """The residue of x (valuation >= 0) from its pi^0 row of Fractions."""
    p = tower.base.p
    if valuation(x) > 0:
        return (0,) * tower.f
    return tuple(c.numerator * pow(c.denominator, -1, p) % p for c in _rows(tower, x)[0])


def _assert_normal(x):
    """den > 0, gcd(den, *num) = 1, and zero is ((0,)*n, 1)."""
    n = x.ring.n
    assert len(x.num) == n and all(isinstance(c, int) for c in x.num + (x.den,))
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert (x.num, x.den) == ((0,) * n, 1)


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
    assert [m.coords for m in monomials] == [m.coords for m in basis_elements(tower)]
    for _ in range(12):
        x, y = _random_element(rng, tower), _random_element(rng, tower)
        assert _rows(tower, x * y) == _ref_mul(tower, _rows(tower, x), _rows(tower, y))
        cols = [sum(_ref_mul(tower, _rows(tower, x), _rows(tower, m)), [])
                for m in monomials]
        assert mult_matrix(tower, x) == [list(row) for row in zip(*cols)]
        assert _ref_mul(tower, _rows(tower, x), _rows(tower, x.inverse())) == one
        assert tower.norm_to_base(x) == gauss_det(mult_matrix(tower, x))
        e_1 = [1] + [0] * (tower.n - 1)
        assert list(x.inverse().coords) == gauss_solve(mult_matrix(tower, x), e_1)
        if not tower.base.is_real:
            assert valuation(x) == _ref_valuation(tower, x)
            if valuation(x) >= 0:
                assert residue(x) == _ref_residue(tower, x)
            if valuation(x) == 0 and tower.base.p != 2:
                assert unit_residue(x) == (0, _ref_residue(tower, x))
        assert parse_tower_literal(repr(x), tower) == x


@pytest.mark.parametrize("tower", _towers(), ids=repr)
def test_results_are_in_normal_form(tower, rng):
    for _ in range(12):
        x, y = _random_element(rng, tower), _random_element(rng, tower)
        for z in (x + y, -x, x - y, x - x, x * y, x * 0, x.inverse(), x ** -2,
                  x * Fraction(3, 7) + y * Fraction(5, 2), tower.element(Fraction(-6, 4))):
            _assert_normal(z)
        assert (x - x).num == (0,) * tower.n and (x - x).den == 1


@pytest.mark.parametrize("tower", _towers()[:len(SHAPES)], ids=repr)
def test_equal_elements_have_equal_keys(tower, rng):
    """Elements reached by different paths are == and hash-equal, and so
    are the etale algebras and elements keyed by them."""
    half = tower.element(Fraction(1, 2))
    assert tower.from_coords([[Fraction(2, 4)]]) == half
    assert hash(tower.from_coords([[Fraction(2, 4)]])) == hash(half)
    assert hash(tower.from_coords([["1/2"]])) == hash(half + 0)
    for _ in range(6):
        x = _random_element(rng, tower)
        pairs = ((x * x.inverse(), tower.one()),
                 ((x ** -3).inverse(), x ** 3),
                 ((x + x) * half, x),
                 (x * tower.element(Fraction(4, 6)), x * Fraction(2, 3)))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and (a.num, a.den) == (b.num, b.den)
    delta = tower.unit_nonsquare() * tower.element(4)
    alg = quadratic_field(tower, delta)
    assert alg == quadratic_field(tower, delta * half * half * 4)
    assert hash(alg) == hash(quadratic_field(tower, delta * half * half * 4))
    z = alg.element(x, half)
    w = alg.element(x * x.inverse() * x, tower.from_coords([[Fraction(2, 4)]]))
    assert z == w and hash(z) == hash(w)


def _pow_rings():
    tower = make_extension(BaseField("p-adic", P), 2, _eis(2, 2))
    return [tower, quadratic_field(tower, tower.pi() * Fraction(2, 3))]


@pytest.mark.parametrize("ring", _pow_rings(), ids=["tower", "etale"])
def test_powers_match_repeated_products(ring, rng, monkeypatch):
    """x**k is k products of x, or of 1/x for k < 0, and x**0 is one;
    x**k for k >= 1 takes one squaring per bit below the top set bit and
    one more product per further set bit; 0**-1 has no value."""
    tower = getattr(ring, "base_pm", ring)
    x = _random_element(rng, tower)
    if ring is not tower:
        x = ring.element(x, _random_element(rng, tower))
    assert x ** 0 == ring.one()
    for base, ks in ((x, range(10)), (x.inverse(), range(0, -7, -1))):
        ref = ring.one()
        for k in ks:
            assert x ** k == ref
            _assert_normal(x ** k)
            ref = ref * base
    with pytest.raises(ZeroValuation):
        ring.zero() ** -1
    products = []
    mul = type(x).__mul__

    def counting(self, other):
        products.append(k)
        return mul(self, other)

    monkeypatch.setattr(type(x), "__mul__", counting)
    for k in range(1, 10):
        x ** k
    assert [products.count(k) for k in range(1, 10)] == [0, 1, 2, 2, 3, 3, 4, 3, 4]


def test_kernel_builds_no_fraction(monkeypatch):
    """A product, a sum, a valuation and an inverse on an f = e = 2 tower
    over Q_5 run on integers alone: not one Fraction is constructed."""
    tower = make_extension(BaseField("p-adic", P), 2, _eis(2, 2))
    x = tower.from_coords([[Fraction(3, 25), 7], [Fraction(-4, 9), Fraction(1, 2)]])
    y = tower.from_coords([[2, Fraction(5, 3)], [0, Fraction(-1, 10)]])
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    Fraction(1, 3)
    assert len(built) == 1
    built.clear()
    x * y
    x + y
    valuation(x)
    x.inverse()
    assert built == []


# --- etale algebras -----------------------------------------------------------

def _ref_etale_mul(alg, x, y):
    a, b, c, d = x.a, x.b, y.a, y.b
    return (a * c + alg.delta * (b * d), a * d + b * c)


def _ref_etale_norm(alg, x):
    return x.a * x.a - alg.delta * (x.b * x.b)


def _ref_etale_inverse(alg, x):
    ninv = _ref_etale_norm(alg, x).inverse()
    return (x.a * ninv, -x.b * ninv)


def _ref_charpoly_f(alg, x):
    """The Fraction block matrix [[A, delta*B], [B, A]] and its charpoly."""
    tower = alg.base_pm
    A, DB, B = (mult_matrix(tower, v) for v in (x.a, alg.delta * x.b, x.b))
    mat = [ra + rdb for ra, rdb in zip(A, DB)] + [rb + ra for rb, ra in zip(B, A)]
    return _poly.charpoly(mat, Fraction(1))


def _ref_charpoly_e(alg, x):
    """The matrix A + B*rt with entries in E, and its charpoly."""
    tower, E = alg.base_pm, alg.unitary_base.E
    A, B = mult_matrix(tower, x.a), mult_matrix(tower, x.b)
    n = tower.n
    return _poly.charpoly([[E.element(A[i][j], B[i][j]) for j in range(n)] for i in range(n)],
                          E.one())


def _algebras():
    q5 = BaseField("p-adic", P)
    unramified, ramified = UnitaryBaseData(q5, 2), UnitaryBaseData(q5, 5 * Fraction(3, 4))
    out = [("E-unramified", unramified.E), ("E-ramified", ramified.E)]
    for f, e in SHAPES:
        tower = make_extension(q5, f, _eis(f, e))
        pi = tower.pi()
        out += [(f"{tower!r}-field-unit", quadratic_field(tower, tower.unit_nonsquare() * Fraction(4, 9))),
                (f"{tower!r}-field-pi", quadratic_field(tower, pi * Fraction(2, 3) + pi * pi)),
                (f"{tower!r}-split", split_algebra(tower)),
                (f"{tower!r}-tensor-unramified", unramified.algebra_over(tower)),
                (f"{tower!r}-tensor-ramified", ramified.algebra_over(tower))]
    return out


ALGEBRAS = _algebras()


@pytest.mark.parametrize("alg", [a for _, a in ALGEBRAS], ids=[name for name, _ in ALGEBRAS])
def test_etale_kernel_matches_pair_formulas(alg, rng):
    tower = alg.base_pm
    for _ in range(6):
        x = alg.element(_random_element(rng, tower), _random_element(rng, tower))
        y = alg.element(_random_element(rng, tower), _random_element(rng, tower))
        assert alg.element(x.a, x.b) == x and parse_etale_literal(repr(x), alg) == x
        xy = x * y
        assert (xy.a, xy.b) == _ref_etale_mul(alg, x, y)
        assert ((x + y).a, (x + y).b) == (x.a + y.a, x.b + y.b)
        assert ((-x).a, (-x).b) == (-x.a, -x.b)
        assert x.norm() == _ref_etale_norm(alg, x)
        for z in (xy, x + y, x - x, -x, x.tau(), x * 0, x * Fraction(3, 7)):
            _assert_normal(z)
        if x.norm():
            inv = x.inverse()
            _assert_normal(inv)
            assert (inv.a, inv.b) == _ref_etale_inverse(alg, x)
        assert charpoly_over(x, "F") == _ref_charpoly_f(alg, x)
        if alg.unitary_base is not None:
            assert charpoly_over(x, "E") == _ref_charpoly_e(alg, x)


def test_etale_product_makes_no_tower_product(monkeypatch):
    """One etale product and one sum run on the algebra's own structure
    constants: not one tower product is taken."""
    tower = make_extension(BaseField("p-adic", P), 2, _eis(2, 2))
    alg = quadratic_field(tower, tower.pi() * Fraction(2, 3))
    x = alg.element(tower.from_coords([[Fraction(3, 25), 7], [Fraction(-4, 9), 1]]),
                    tower.from_coords([[2, Fraction(5, 3)], [0, Fraction(-1, 10)]]))
    y = alg.element(tower.from_coords([[1, 2], [3, 4]]), tower.from_coords([[Fraction(1, 2)]]))
    calls = []
    mul = FieldElement.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting)
    tower.one() * tower.one()
    assert len(calls) == 1
    calls.clear()
    x * y
    x + y
    assert calls == []


# ---------------------------------------------------------------------------
# the structure constants against the constructions they replaced
# ---------------------------------------------------------------------------

def _sparse(rows, den):
    """rows[i][j], integer numerator vectors over den, as sparse (k, c)
    pairs over den with the common factor of den and the entries removed."""
    g = math.gcd(den, *(c for row in rows for w in row for c in w))
    return (tuple(tuple(tuple((k, c // g) for k, c in enumerate(w) if c) for w in row)
                  for row in rows), den // g)


def _walked_table(tower):
    """The tower's table by walking each row i from monomial i with the
    steps "times u" and "times pi", one product per entry."""
    f, e, n = tower.f, tower.e, tower.n
    d = math.lcm(*(c.denominator for row in tower.eis for c in row))

    def step(v, shift, wrap, scale):
        out = [0] * n
        for k, c in enumerate(v):
            if c and wrap[k] is None:
                out[k + shift] += c * scale
            elif c:
                out = [o + c * w for o, w in zip(out, wrap[k])]
        return out

    minus_m = [-c for c in tower.unram_poly[:-1]]
    u_wrap = [None if (k + 1) % f else [0] * (k + 1 - f) + minus_m + [0] * (n - 1 - k)
              for k in range(n)]
    pi_wrap = [None] * (n - f) + [[-c.numerator * (d // c.denominator)
                                   for row in tower.eis[:-1] for c in row]]
    while len(pi_wrap) < n:
        pi_wrap.append(step(pi_wrap[-1], 1, u_wrap, 1))
    rows = []
    for i in range(n):
        row, v = [], [int(k == i) for k in range(n)]
        for b in range(e):
            w = v
            for _ in range(f):
                row.append([c * d ** (e - 1 - b) for c in w])
                w = step(w, 1, u_wrap, 1)
            v = step(v, f, pi_wrap, d)
        rows.append(row)
    return _sparse(rows, d ** (e - 1))


def _dense_etale_table(alg):
    """The etale table from dense vectors: m_i*m_j*rt^(c+c') for every pair,
    over D * s, the common factor divided out at the end."""
    tower = alg.base_pm
    n, s = tower.n, alg.delta.den * tower._D
    dm = tower._num_matrix(alg.delta)
    rows = [[[0] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * n):
            c = i // n + j // n
            for k, t in tower._table[i % n][j % n]:
                if c < 2:
                    rows[i][j][c * n + k] += t * s
                else:
                    for l in range(n):
                        rows[i][j][l] += t * dm[l][k]
    return _sparse(rows, tower._D * s)


@pytest.mark.parametrize("tower", _towers() + [make_extension(BaseField("p-adic", P), f, _eis(f, e))
                                               for f, e in ((1, 8), (8, 1), (2, 4), (4, 2))],
                         ids=repr)
def test_tower_table_matches_the_walk(tower):
    """The table read off the (2f - 1)(2e - 1) monomials u^A pi^B is the one
    the row walk builds, denominator included."""
    assert (tower._table, tower._D) == _walked_table(tower)


@pytest.mark.parametrize("alg", [a for _, a in ALGEBRAS], ids=[name for name, _ in ALGEBRAS])
def test_etale_table_matches_the_dense_products(alg):
    """The etale table built from the tower's sparse one, its common factor
    read off s and the rt^2 block, is the dense construction's."""
    assert (alg._table, alg._D) == _dense_etale_table(alg)
