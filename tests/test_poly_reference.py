"""The characteristic polynomial and the squarefree test against slow references.

``_poly.charpoly`` is Berkowitz's division-free algorithm.  It is checked
against two references: Faddeev-LeVerrier (n matrix products, dividing only
by the integers 1..n) and a Hessenberg reduction by similarity over a field.
The Gauss eliminations below are the references for the tower norm, the
tower inverse and the Gram determinant, which all go through ``charpoly``.

``support.is_squarefree``, the whole-P regularity reference of
``params.is_regular``, decides on one path over Z[s], s^2 = D:
E-coefficient polynomials with E's D, Fraction-coefficient ones as pairs
(x, 0) with D = 1.  A certificate modulo a prime near 2^61 comes first,
then remainder sequences divided by their integer content.  Its reference
is the Euclidean gcd of p and p' over Q or E, ``pgcd`` below, and the
certificate is also checked against the remainder sequence alone.

``_poly.peval_many`` evaluates several polynomials on the shared powers of
the point's integer matrix (``_poly.peval`` is one of them), and
``_poly.peval_scalar`` by coefficient sums; the reference for both is
Horner's rule element by element, ``horner`` below.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from endofactor import _poly, factor, verify
from endofactor.etale import UnitaryBaseData, charpoly_over, quadratic_field, split_algebra
from endofactor.localfield import BaseField, make_extension
from endofactor.params import CASES

F = Fraction


def mat_mul(a, b):
    n, m, r = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            t = a[i][0] * b[0][j]
            for k in range(1, r):
                t = t + a[i][k] * b[k][j]
            row.append(t)
        out.append(row)
    return out



def pmonic(p):
    """Divide by the leading coefficient (field coefficients)."""
    if not p:
        raise ValueError("zero polynomial")
    lead = p[-1]
    return [c / lead for c in p]


def pdivmod(p, q):
    """Euclidean division over field coefficients."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    pairs = []
    lead = q[-1]
    while len(rem) >= len(q):
        if not rem[-1]:
            rem.pop()
            continue
        k = len(rem) - len(q)
        c = rem[-1] / lead
        pairs.append((k, c))
        for j in range(len(q)):
            rem[k + j] = rem[k + j] - c * q[j]
        rem.pop()
    if not pairs:
        return [], _poly.trim(rem)
    zero = lead - lead
    out = [zero] * (1 + max(k for k, _ in pairs))
    for k, c in pairs:
        out[k] = out[k] + c
    return _poly.trim(out), _poly.trim(rem)


def pgcd(p, q):
    """Monic gcd over field coefficients."""
    a, b = _poly.trim(list(p)), _poly.trim(list(q))
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    return pmonic(a) if a else a


def horner(p, x, zero):
    """p(x) by Horner's rule, element by element: one product by x and one
    coerced sum per coefficient; ``zero`` fixes the ring when p is empty."""
    acc = zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def gauss_solve(mat, rhs):
    """Solve mat*x = rhs over Fractions; raises ZeroDivisionError if singular."""
    n = len(mat)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def gauss_det(mat):
    """Determinant over Fractions."""
    n = len(mat)
    a = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def hessenberg_charpoly(mat, one):
    """det(T*I - mat), constant term first, for entries in a field.

    Hessenberg reduction by similarity, then the recurrence for the
    characteristic polynomial of a Hessenberg matrix (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    n = len(mat)
    zero = one - one
    h = [list(row) for row in mat]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = one / h[m][m - 1]
        pivot_row = h[m]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            # row i -= u * row m, then column m += u * column i
            u = h[i][m - 1] * inv
            row = h[i]
            row[m - 1] = zero
            for j in range(m, n):
                if pivot_row[j]:
                    row[j] = row[j] - u * pivot_row[j]
            for r in h:
                if r[i]:
                    r[m] = r[m] + u * r[i]
    polys = [[one]]
    for m in range(1, n + 1):
        prev = polys[-1]
        diag = h[m - 1][m - 1]
        cur = [zero] + prev
        for k in range(m):
            cur[k] = cur[k] - diag * prev[k]
        sub = one
        for i in range(m - 1, 0, -1):
            sub = sub * h[i][i - 1]
            if not sub:
                break
            c = sub * h[i - 1][m - 1]
            if c:
                for k, v in enumerate(polys[i - 1]):
                    cur[k] = cur[k] - c * v
        polys.append(cur)
    return polys[n]


def _mat_trace(a):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def _faddeev_leverrier(mat, one):
    """det(T*I - mat), constant term first, over any Q-algebra."""
    n = len(mat)
    if n == 0:
        return [one]
    zero = one - one
    coeffs = [None] * (n + 1)
    coeffs[n] = one
    m = [[zero] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = one
    for k in range(1, n + 1):
        m = mat_mul(mat, m)
        c = _mat_trace(m) * Fraction(-1, k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


def _assert_matches(mat, one, charpoly=_poly.charpoly):
    """charpoly(mat, one) equals both references; integer matrices are
    reduced by Hessenberg over Q."""
    out = charpoly(mat, one)
    assert out == _faddeev_leverrier(mat, one)
    assert out == hessenberg_charpoly(mat, Fraction(one) if isinstance(one, int) else one)
    return out


@pytest.fixture
def checked_charpoly(monkeypatch):
    """Route every ``_poly.charpoly`` call through the references; return
    the list of matrices seen."""
    seen = []
    fast = _poly.charpoly

    def both(mat, one):
        seen.append(mat)
        return _assert_matches(mat, one, fast)

    monkeypatch.setattr(_poly, "charpoly", both)
    return seen


def _random_fraction(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 6))


def test_random_fraction_matrices(rng):
    for n in range(1, 9):
        for _ in range(4):
            mat = [[_random_fraction(rng) if rng.random() < 0.7 else F(0)
                    for _ in range(n)] for _ in range(n)]
            _assert_matches(mat, F(1))


def _perm(n, sigma):
    return [[F(int(sigma[i] == j)) for j in range(n)] for i in range(n)]


def _degenerate_matrices(rng):
    r = lambda: _random_fraction(rng)  # noqa: E731
    yield []
    for n in (1, 2, 3, 5, 8):
        yield [[F(0)] * n for _ in range(n)]
        yield [[r() if j >= i else F(0) for j in range(n)] for i in range(n)]
        yield [[r() if j <= i else F(0) for j in range(n)] for i in range(n)]
        yield [[r() if j > i else F(0) for j in range(n)] for i in range(n)]
        yield [[r() if j < i else F(0) for j in range(n)] for i in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        yield _perm(n, sigma)
        yield _perm(n, sigma[1:] + sigma[:1])
        # the first half of the columns is zero below the diagonal: no pivot
        yield [[F(0) if i > j and j < n // 2 else r() for j in range(n)] for i in range(n)]
        # a pivot below the sub-diagonal: column j is nonzero only at row n - 1
        yield [[F(0) if i > j and i != n - 1 else r() for j in range(n)] for i in range(n)]
    for sizes in ((2, 3), (1, 1, 1), (3, 1, 4), (4, 4)):
        n = sum(sizes)
        mat = [[F(0)] * n for _ in range(n)]
        start = 0
        for size in sizes:
            for i in range(start, start + size):
                for j in range(start, start + size):
                    mat[i][j] = r()
            start += size
        yield mat
        sigma = list(range(n))
        rng.shuffle(sigma)
        # the same blocks with rows and columns permuted alike
        yield [[mat[sigma[i]][sigma[j]] for j in range(n)] for i in range(n)]
    # nilpotent, conjugated away from triangular form
    n = 6
    strict = [[r() if j > i else F(0) for j in range(n)] for i in range(n)]
    unipotent = [[F(1) if i == j else (r() if j > i else F(0)) for j in range(n)]
                 for i in range(n)]
    lower = [[F(1) if i == j else (r() if j < i else F(0)) for j in range(n)]
             for i in range(n)]
    conj = mat_mul(mat_mul(lower, unipotent), strict)
    inv_cols = [gauss_solve(mat_mul(lower, unipotent),
                            [F(int(i == j)) for i in range(n)]) for j in range(n)]
    inv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
    yield mat_mul(conj, inv)


def test_degenerate_shapes(rng):
    count = 0
    for mat in _degenerate_matrices(rng):
        _assert_matches(mat, F(1))
        count += 1
    assert count == 55


@pytest.mark.parametrize("delta_e", [3, 2], ids=["ramified", "unramified"])
def test_e_valued_matrices(rng, checked_charpoly, delta_e):
    base = BaseField("p-adic", 3)
    ub = UnitaryBaseData(base, delta_e)
    E = ub.E
    xs = []
    for f, e in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
        tower = make_extension(base, f, [-3, 1] if e == 1 else [-3, 0, 1])
        alg = ub.algebra_over(tower)
        xs += [alg.element(support.random_unit(rng, tower), support.random_unit(rng, tower))
               for _ in range(3)]
    # drawing the elements takes tower norms and inverses, checked above
    checked_charpoly.clear()
    for x in xs:
        charpoly_over(x, "E")
    assert [len(m) for m in checked_charpoly] == [1] * 3 + [2] * 6 + [4] * 3 + [3] * 3
    for n in range(1, 6):
        mat = [[E.element(_random_fraction(rng), _random_fraction(rng))
                if rng.random() < 0.6 else E.zero() for _ in range(n)] for _ in range(n)]
        _assert_matches(mat, E.one())


def test_degree_eight_matrices_of_quartic_tower(rng, checked_charpoly):
    tower = make_extension(BaseField("p-adic", 5), 2, [[0, -5], [0, 0], [1]])
    xs = []
    for delta in tower.square_class_reps()[1:]:
        alg = quadratic_field(tower, delta)
        xs += [support.random_etale_unit(rng, alg) for _ in range(4)]
    # drawing the elements takes tower norms and inverses, checked above
    checked_charpoly.clear()
    for x in xs:
        charpoly_over(x, "F")
    assert [len(m) for m in checked_charpoly] == [8] * 12


# --- squarefree ---

def _reference_squarefree(p):
    return _poly.degree(pgcd(p, _poly.pderiv(p))) <= 0


def _random_poly(rng, deg):
    lead = F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    return [_random_fraction(rng) for _ in range(deg)] + [lead]


def _product(factors, one=F(1)):
    out = [one]
    for fac in factors:
        out = _poly.pmul(out, fac)
    return out


def _assert_squarefree_matches(p, expected=None):
    verdict = support.is_squarefree(p)
    assert verdict == _reference_squarefree(p)
    if expected is not None:
        assert verdict == expected


def test_squarefree_random_products(rng):
    for _ in range(40):
        factors = [_random_poly(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        _assert_squarefree_matches(_product(factors))
        repeated = rng.choice(factors)
        _assert_squarefree_matches(_product(factors + [repeated]), False)


def test_squarefree_scaling_and_content(rng):
    for _ in range(20):
        p = _product([_random_poly(rng, rng.randint(1, 3)) for _ in range(3)])
        for scale in (F(6, 35), F(-12), F(1, 1024), F(-7, 3)):
            _assert_squarefree_matches([c * scale for c in p], support.is_squarefree(p))
        # integer coefficients sharing a content
        ints = [F(30 * rng.randint(-5, 5)) for _ in range(4)] + [F(30)]
        _assert_squarefree_matches(ints)
        _assert_squarefree_matches(_poly.pmul(ints, ints), False)


def test_squarefree_small_degrees_and_zero_roots(rng):
    T = [F(0), F(1)]
    _assert_squarefree_matches([], True)
    _assert_squarefree_matches([F(7, 3)], True)
    _assert_squarefree_matches([F(-1, 2), F(3, 4)], True)
    _assert_squarefree_matches(T, True)
    _assert_squarefree_matches(_poly.pmul(T, T), False)
    for _ in range(10):
        q = _random_poly(rng, rng.randint(1, 4))
        _assert_squarefree_matches(_poly.pmul(T, q))
        _assert_squarefree_matches(_poly.pmul(_poly.pmul(T, T), q), False)


def test_squarefree_degree_24_instance(monkeypatch):
    orig = support.random_tower
    monkeypatch.setattr(support, "random_tower",
                        lambda rng, base, shapes=None: orig(rng, base, ((3, 2),)))
    inst = support.make_instance(random.Random(1), "symplectic", p=3, n_indices=(2, 2))
    P, _, _ = support.whole_charpolys(inst.y, inst.g)
    assert _poly.degree(P) == 24
    _assert_squarefree_matches(P, True)
    first = charpoly_over(inst.y.entries[0].value, "F")
    assert not support.is_squarefree(_poly.pmul(P, first))


def test_squarefree_e_coefficients():
    E = UnitaryBaseData(BaseField("p-adic", 3), 2).E
    lin = [E.element(1, 1), E.one()]
    other = [E.element(F(1, 2), -1), E.one()]
    assert support.is_squarefree(_poly.pmul(lin, other))
    assert not support.is_squarefree(_poly.pmul(_poly.pmul(lin, other), lin))


@pytest.mark.parametrize("delta_e", [2, F(-7, 4)])
def test_squarefree_rational_and_embedded_in_e_agree(delta_e):
    """A rational P and the same P with its coefficients in E run the one
    path over Z[s], with D = 1 and with E's D: both get one verdict."""
    E = UnitaryBaseData(BaseField("p-adic", 3), delta_e).E
    lin, quad = [F(-1, 2), F(3)], [F(5), F(-2, 3), F(1, 7)]
    for P, want in ((_poly.pmul(lin, quad), True), (_poly.pmul(_poly.pmul(lin, quad), lin), False)):
        embedded = [E.element(c) for c in P]
        assert support.is_squarefree(P) is support.is_squarefree(embedded) is want
        assert _sequence_verdict(P) is _sequence_verdict(embedded) is want


def _random_e_poly(rng, E, deg):
    lead = E.element(F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)), rng.choice([0, F(1, 2), -1]))
    return [E.element(_random_fraction(rng), _random_fraction(rng)) for _ in range(deg)] + [lead]


@pytest.mark.parametrize("delta_e", [2, 3, F(-7, 4), F(15, 4), F(2, 9)])
def test_squarefree_over_e_against_the_euclidean_gcd(rng, delta_e):
    """The remainder sequence over Z[sqrt(D)] gives the verdict of Euclid
    over E, deltas with a denominator and conjugate roots included."""
    E = UnitaryBaseData(BaseField("p-adic", 3), delta_e).E
    T = [E.zero(), E.one()]
    _assert_squarefree_matches([E.element(F(2, 3), 1)], True)
    _assert_squarefree_matches(T, True)
    _assert_squarefree_matches(_poly.pmul(T, T), False)
    rt = E.rt()
    # (T - rt)(T + rt) = T^2 - delta: squarefree over E
    _assert_squarefree_matches(_poly.pmul([-rt, E.one()], [rt, E.one()]), True)
    for _ in range(8):
        factors = [_random_e_poly(rng, E, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        p = _product(factors, E.one())
        _assert_squarefree_matches(p)
        lin = _random_e_poly(rng, E, 1)
        _assert_squarefree_matches(_product(factors + [lin, lin], E.one()), False)
        _assert_squarefree_matches([c * E.element(F(-6, 35), F(1, 7)) for c in p],
                                   support.is_squarefree(p))


# --- the modular certificate against the remainder sequence ---

def _certified(p):
    """(is_squarefree(p), [(l, outcome)] of the certificates it tried)."""
    seen = []
    real = support._coprime_to_derivative_mod

    def spy(a, ell):
        seen.append((ell, real(a, ell)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(support, "_coprime_to_derivative_mod", spy)
        return support.is_squarefree(p), seen


def _sequence_verdict(p):
    """is_squarefree(p) with every certificate refused: the remainder
    sequence alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(support, "_coprime_to_derivative_mod", lambda a, ell: False)
        return support.is_squarefree(p)


def _assert_certificate_sound(p):
    """The verdict is the sequence's, the certificate only ever says True
    and a False verdict comes from the sequence.  Returns the attempts."""
    verdict, seen = _certified(p)
    assert verdict == _sequence_verdict(p) == _reference_squarefree(p)
    assert len(seen) <= 1
    if not verdict:
        assert [ok for _, ok in seen] in ([], [False])
    return seen


def _is_prime(n):
    """Miller-Rabin with the first 13 prime bases, exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_primes():
    assert support._PRIMES[0] == 2 ** 61 - 1
    assert list(support._PRIMES) == sorted(support._PRIMES, reverse=True)
    assert all(ell % 4 == 3 and _is_prime(ell) for ell in support._PRIMES)


@pytest.mark.parametrize("case", CASES)
def test_certificate_agrees_with_the_sequence_on_instances(case):
    """Every P, P_minus and P_plus of a few draws is certified squarefree,
    over Q in the five F cases and over E in the two unitary ones; with a
    factor forced to repeat, the certificate falls through and the
    sequence says False."""
    rng = random.Random(7)
    certified = 0
    for p in (3, 5, 7):
        inst = support.make_instance(rng, case, p=p)
        polys = support.whole_charpolys(inst.y, inst.g)
        for poly in polys:
            seen = _assert_certificate_sound(poly)
            certified += [ok for _, ok in seen] == [True]
        first = charpoly_over(inst.y.entries[0].value, inst.g.info["ground"])
        _assert_certificate_sound(_poly.pmul(polys[0], first))
        assert not support.is_squarefree(_poly.pmul(polys[0], first))
    assert certified == 9


def test_certificate_falls_through_when_ell_divides_the_lead():
    ell = support._PRIMES[0]
    T = [F(0), F(1)]
    # ell*T^2 + T + 1: squarefree, but of degree 1 mod ell
    assert _certified([F(1), F(1), F(ell)]) == (True, [(ell, False)])
    # (ell*T + 1)^2 is primitive with lead ell^2
    square = _poly.pmul([F(1), F(ell)], [F(1), F(ell)])
    assert _certified(square) == (False, [(ell, False)])
    assert _certified(_poly.pmul(square, T)) == (False, [(ell, False)])


def test_certificate_falls_through_on_a_discriminant_divisible_by_ell():
    """T^2 - l is squarefree, but T^2 mod l is not: the sequence decides."""
    ell = support._PRIMES[0]
    assert _certified([F(-ell), F(0), F(1)]) == (True, [(ell, False)])
    assert _certified([F(-ell, 3), F(0), F(1, 3)]) == (True, [(ell, False)])


def test_certificate_empty_and_constant_polynomials():
    ell = support._PRIMES[0]
    assert _certified([]) == (True, [(ell, False)])
    assert _certified([F(7, 3)]) == (True, [(ell, True)])
    assert _certified([F(0), F(5)]) == (True, [(ell, True)])
    E = UnitaryBaseData(BaseField("p-adic", 3), 2).E
    verdict, seen = _certified([E.element(F(2, 3), 1)])
    assert verdict and all(ok for _, ok in seen)


def _delta_nonsquare_mod(count):
    """The least integer D > 1, a non-square in Q_3, that is a non-square
    mod the first ``count`` listed primes and, when count < len(_PRIMES),
    a square mod the next one."""
    primes = support._PRIMES
    for D in range(2, 10 ** 6):
        if D % 3 != 2 and D % 9 not in (3, 6):
            continue
        legendre = [pow(D, (ell - 1) // 2, ell) for ell in primes]
        if all(v == ell - 1 for v, ell in zip(legendre[:count], primes)) and (
                count == len(primes) or legendre[count] == 1):
            return D
    raise AssertionError("no such D below 10^6")


@pytest.mark.parametrize("count", [2, len(support._PRIMES)])
def test_certificate_over_e_where_nd_is_a_non_square_mod_the_first_primes(rng, count):
    """delta = D with D a non-square mod the first ``count`` primes: the
    certificate runs mod the next prime, or not at all when there is none,
    and the verdicts stay the sequence's."""
    D = _delta_nonsquare_mod(count)
    E = UnitaryBaseData(BaseField("p-adic", 3), D).E
    rt = E.rt()
    p = _poly.pmul([-rt, E.one()], [rt + 1, E.one()])
    want = [(support._PRIMES[count], True)] if count < len(support._PRIMES) else []
    assert _certified(p) == (True, want)
    for _ in range(6):
        q = _product([_random_e_poly(rng, E, rng.randint(1, 3)) for _ in range(2)], E.one())
        seen = _assert_certificate_sound(q)
        assert [ell for ell, _ in seen] == [ell for ell, _ in want]
        lin = _random_e_poly(rng, E, 1)
        assert _certified(_product([q, lin, lin], E.one()))[0] is False


# --- evaluation against Horner's rule ---

_Q3 = BaseField("p-adic", 3)
_UNITARY = (UnitaryBaseData(_Q3, 2), UnitaryBaseData(_Q3, 3))


def _evaluation_rings():
    """(ring, sources of element coefficients): towers (1,1), (2,1), (1,2)
    and (2,2) over Q_3, and over each a quadratic field, the split algebra
    and the tensor algebras with an unramified and a ramified E."""
    out = []
    for f, e in ((1, 1), (2, 1), (1, 2), (2, 2)):
        tower = make_extension(_Q3, f, [-3, 1] if e == 1 else [-3, 0, 1])
        out.append((tower, (tower,)))
        for alg in (quadratic_field(tower, tower.unit_nonsquare()), split_algebra(tower)):
            out.append((alg, (tower, alg)))
        for ub in _UNITARY:
            alg = ub.algebra_over(tower)
            out.append((alg, (ub.E, alg)))
    return out


EVAL_RINGS = _evaluation_rings()
_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


def _elements(ring):
    """Elements of a tower or of a quadratic algebra over one."""
    tower = getattr(ring, "base_pm", ring)
    parts = st.lists(_RATIONALS, min_size=tower.n, max_size=tower.n).map(tower._from_fractions)
    return parts if ring is tower else st.builds(ring.element, parts, parts)


def _same(got, want):
    return type(got) is type(want) and got == want and (
        not hasattr(want, "num") or (got.num, got.den) == (want.num, want.den))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_peval_matches_horner(data):
    """Int, Fraction, tower, algebra and E coefficients; the empty and the
    constant polynomials."""
    ring, sources = data.draw(st.sampled_from(EVAL_RINGS))
    x = data.draw(_elements(ring))
    coefficient = st.one_of(st.integers(-30, 30), _RATIONALS, *map(_elements, sources))
    p = data.draw(st.lists(coefficient, max_size=7))
    assert _same(_poly.peval(p, x, ring.zero()), horner(p, x, ring.zero()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_peval_many_matches_horner(data):
    """Several polynomials at one point share its powers: each value is
    Horner's, whatever the degrees and coefficient kinds in the list."""
    ring, sources = data.draw(st.sampled_from(EVAL_RINGS))
    x = data.draw(_elements(ring))
    coefficient = st.one_of(st.integers(-30, 30), _RATIONALS, *map(_elements, sources))
    polys = data.draw(st.lists(st.lists(coefficient, max_size=7), max_size=4))
    got = _poly.peval_many(polys, x, ring.zero())
    assert len(got) == len(polys)
    for value, p in zip(got, polys):
        assert _same(value, horner(p, x, ring.zero()))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_peval_scalar_matches_horner(data):
    """Fraction and E coefficients at 0, 1 and -1."""
    E = data.draw(st.sampled_from([None] + [ub.E for ub in _UNITARY]))
    coefficient = _RATIONALS if E is None else _elements(E)
    zero = F(0) if E is None else E.zero()
    p = data.draw(st.lists(coefficient, max_size=7))
    for t in (0, 1, -1):
        assert _same(_poly.peval_scalar(p, t, zero), horner(p, zero + t, zero))
    with pytest.raises(ValueError):
        _poly.peval_scalar(p, 2, zero)


@pytest.mark.parametrize("case", CASES)
def test_every_evaluation_of_compute_and_check_matches_horner(case, monkeypatch):
    """Each evaluation that compute_delta and run_suite make, at an element
    or at a scalar, on draws of every case."""
    fast, fast_scalar = _poly.peval_many, _poly.peval_scalar
    at_elements, at_scalars = [], []

    def checked(polys, x, zero):
        out = fast(polys, x, zero)
        for value, p in zip(out, polys):
            assert _same(value, horner(p, x, zero))
        at_elements.append(x)
        return out

    def checked_scalar(p, t, zero):
        out = fast_scalar(p, t, zero)
        assert _same(out, horner(p, zero + t, zero))
        at_scalars.append(t)
        return out

    monkeypatch.setattr(_poly, "peval_many", checked)
    monkeypatch.setattr(_poly, "peval_scalar", checked_scalar)
    rng = random.Random(11)
    for p in (3, 5, 7):
        inst = support.make_instance(rng, case, p=p)
        factor.compute_delta(*inst.astuple())
        assert all(ok for _, ok in verify.run_suite(*inst.astuple()))
    assert at_elements and at_scalars
