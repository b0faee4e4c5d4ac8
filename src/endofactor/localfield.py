"""Exact arithmetic in p-adic fields, their finite extensions, and R.

A tower is an unramified step (canonical degree-f lift of the residue
field) followed by an Eisenstein step of degree e.  Elements carry exact
rational coordinates on the monomial basis u^a * pi^b, i.e. they live in
the number field Q(u, pi) and are read through its distinguished place
above p.  The coordinates are integer numerators over one common
denominator, multiplied through integer structure constants; ``coords``
is a derived view of them as Fractions.  Every valuation, residue,
square-class and Hilbert-symbol decision is therefore exact; nothing is
ever rounded.

The precision attribute of BaseField is kept as part of the public
contract (and validated), but with exact coordinates no operation can run
out of precision.

Supported bases: Q_p for any odd prime p (arbitrary towers with e*f >= 1),
Q_2 itself (trivial tower only; proper dyadic extensions are rejected),
and R (trivial tower only).
"""

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property

from . import _poly
from .errors import (
    DepthTooSmall,
    DyadicRamifiedUnsupported,
    NotEisenstein,
    UnsupportedCase,
    ZeroValuation,
)

_Q0 = Fraction(0)
_Q1 = Fraction(1)


# The largest p a base field accepts.  A unitary compute takes four
# logarithms in E's residue field F_(p^2), each in a subgroup of order
# dividing p + 1 or p - 1 (about 2*sqrt(p) multiplications), and finds
# its generator by factoring p^2 - 1: at p = 99991 it runs in 0.10-0.14 s
# with an 18 MB peak, interpreter start-up included (2-vCPU Xeon).
MAX_PRIME = 10 ** 5
# The most elements of the oracle's O/pi^N; its squares take a byte each.
MAX_ORACLE_RING = 10 ** 7
# The oracle walks a row of O/pi^N (all of Z/p^N) in pieces of at most this
# many elements, so its lists of ints stay small next to the squares.
ORACLE_PIECE = 4096
# The largest tower degree e*f a document may declare.  A one-index
# symplectic compute_delta at p = 3 and 7 takes 4-18 ms at degree 6 and
# 14-134 ms at degree 8 (2-vCPU Xeon).
MAX_TOWER_DEGREE = 6


def _prime_factors(n):
    """The distinct prime factors of n, ascending, by trial division."""
    out, k = [], 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    return out + [n] if n > 1 else out


def _vp(x, p):
    """p-adic valuation of a nonzero int or Fraction; ``_vp_int`` runs only
    on what p divides."""
    if not x:
        raise ZeroValuation("valuation of zero")
    n, d = x.numerator, x.denominator
    return (n % p == 0 and _vp_int(n, p)) - (d % p == 0 and _vp_int(d, p))


def _vp_int(n, p):
    """v_p of a nonzero int: one division at a time for the first 4
    factors, then by p^(2^k), k = 0, 1, ..., while they divide, and back
    down through the same powers: about 2 log2(v) divisions for v."""
    v = 0
    while v < 4 and not n % p:
        n //= p
        v += 1
    if v < 4:
        return v
    powers = [p]
    while not n % powers[-1]:
        n //= powers[-1]
        v += 1 << len(powers) - 1
        powers.append(powers[-1] ** 2)
    for k in range(len(powers) - 2, -1, -1):
        if not n % powers[k]:
            n //= powers[k]
            v += 1 << k
    return v


def _row_valuation(row, p):
    """min v_p over the nonzero entries of a u-row; None for a zero row."""
    vals = [_vp(c, p) for c in row if c]
    return min(vals) if vals else None


def _reduce_mod(x, m):
    """A p-integral Fraction reduced mod m, as an int in [0, m); raises
    ZeroValuation when the denominator is not invertible mod m."""
    x = Fraction(x)
    try:
        return x.numerator * pow(x.denominator, -1, m) % m
    except ValueError:
        raise ZeroValuation(f"{x} is not integral modulo {m}") from None


class BaseField:
    """The ground local field: Q_p (kind 'p-adic') or R (kind 'real').

    Read-only, and equal and hashed by (kind, p, precision)."""

    def __init__(self, kind, p=0, precision=64):
        if kind not in ("p-adic", "real"):
            raise ValueError(f"unknown base field kind {kind!r}")
        if kind == "p-adic":
            if p > MAX_PRIME:
                raise ValueError(f"p = {p} exceeds the largest supported prime {MAX_PRIME}")
            if _prime_factors(p) != [p]:
                raise ValueError(f"p = {p} is not prime")
        if precision < 8:
            raise ValueError("precision must be at least 8")
        vars(self).update(kind=kind, p=p, precision=precision)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return self.kind, self.p, self.precision

    def __eq__(self, other):
        if not isinstance(other, BaseField):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def is_real(self):
        return self.kind == "real"

    @cached_property
    def trivial_tower(self):
        """The field itself, as a tower, built once."""
        return make_extension(self, 1, [-1 if self.is_real else -self.p, 1])

    def __repr__(self):
        return "R" if self.is_real else f"Q_{self.p}"


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------

def _fp_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly.rem_mod(out, mod, p)


def _fp_powmod(a, n, mod, p):
    result = [1]
    base = _poly.trim(a)
    while n:
        if n & 1:
            result = _fp_mulmod(result, base, mod, p)
        n >>= 1
        base = _fp_mulmod(base, base, mod, p)
    return result


def _fp_irreducible(poly, p):
    """Rabin test for a monic polynomial over F_p."""
    f = len(poly) - 1
    x = [0, 1]
    if _fp_powmod(x, p ** f, poly, p) != x:
        return False
    for ell in _prime_factors(f):
        probe = _fp_powmod(x, p ** (f // ell), poly, p)
        probe = [a - b for a, b in itertools.zip_longest(probe, x, fillvalue=0)]
        if len(_poly.gcd_mod(probe, poly, p)) > 1:
            return False
    return True


def canonical_unramified_poly(p, f):
    """The first monic irreducible x^f + ... + a_1 x + a_0 over F_p in the
    lexicographic order of (a_0, ..., a_(f-1)).  For f >= 2 the scan starts
    at constant term 1: the candidates with constant term 0 are divisible
    by x.  For p odd and f = 2 a candidate is irreducible exactly when
    a_1^2 - 4 a_0 is a non-square mod p (Euler's criterion); otherwise it
    runs the Rabin test."""
    if f == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (f - 1)):
        poly = list(tail) + [1]
        if (pow(tail[1] ** 2 - 4 * tail[0], p // 2, p) == p - 1 if f == 2 and p > 2
                else _fp_irreducible(poly, p)):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class ResidueField:
    """F_q = F_p[x]/(modulus).  An element is the plain tuple of its f
    coefficients in [0, p), constant first; ``one`` is (1, 0, ..., 0).

    For f = 1 and f = 2 (F_p, and E's residue field or the canonical F_p^2)
    products and powers are closed formulas on ints; f >= 3 goes through the
    list-polynomial ``_fp_mulmod`` and ``_fp_powmod``, which reduce modulo
    the modulus with ``_poly.rem_mod``."""

    def __init__(self, p, f, modulus):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = tuple(c % p for c in modulus)
        self.one = (1,) + (0,) * (f - 1)

    def element(self, coeffs):
        c = [x % self.p for x in coeffs]
        return tuple(c[: self.f] + [0] * (self.f - len(c)))

    def _mul(self, a, b):
        p = self.p
        if self.f == 1:
            return (a[0] * b[0] % p,)
        if self.f == 2:
            # x^2 = -m1*x - m0 for the modulus x^2 + m1*x + m0
            m0, m1 = self.modulus[0], self.modulus[1]
            t = a[1] * b[1]
            return ((a[0] * b[0] - m0 * t) % p, (a[0] * b[1] + a[1] * b[0] - m1 * t) % p)
        out = _fp_mulmod(list(a), list(b), list(self.modulus), p)
        return tuple(out + [0] * (self.f - len(out)))

    def _pow(self, a, n):
        if n < 0:
            a = self._pow(a, self.q - 2)  # inverse
            n = -n
        p = self.p
        if self.f == 1:
            return (pow(a[0], n, p),)
        if self.f == 2:
            # square-and-multiply with the product formula of ``_mul``
            m0, m1 = self.modulus[0], self.modulus[1]
            r0, r1 = 1, 0
            b0, b1 = a
            while n:
                if n & 1:
                    t = r1 * b1
                    r0, r1 = (r0 * b0 - m0 * t) % p, (r0 * b1 + r1 * b0 - m1 * t) % p
                n >>= 1
                if n:
                    t = b1 * b1
                    b0, b1 = (b0 * b0 - m0 * t) % p, (2 * b0 * b1 - m1 * t) % p
            return (r0, r1)
        out = _fp_powmod(list(a), n, list(self.modulus), p)
        return tuple(out + [0] * (self.f - len(out)))

    def decode(self, n):
        """The element whose coefficients are the base-p digits of n."""
        return tuple(n // self.p ** i % self.p for i in range(self.f))

    def is_square(self, elem):
        if not any(elem):
            raise ZeroValuation("squareness of zero in the residue field")
        if self.p == 2:
            return True  # every element of a finite field of char 2
        return self._pow(elem, (self.q - 1) // 2) == self.one

    def multiplicative_generator(self):
        """Smallest-encoded generator of the cyclic group F_q^x.  For f >= 2
        the scan starts at encoding p: the encodings below it are the
        constants, which lie in F_p^x and cannot generate."""
        order = self.q - 1
        cofactors = [order // ell for ell in _prime_factors(order)]
        for n in range(1 if self.f == 1 else self.p, self.q):
            g = self.decode(n)
            if all(self._pow(g, k) != self.one for k in cofactors):
                return g
        raise RuntimeError("no generator found")  # unreachable

    def dlog(self, elem, r=None, g=None):
        """The index of elem against g, a generator of F_q^x (the canonical
        one by default), modulo r, a divisor of q - 1 (q - 1 by default).

        With s = (q - 1)/r, the index mod r is the index of elem^s against
        h = g^s in the cyclic group of order r, found there by baby-step
        giant-step (Shanks 1971): it is i*m + j where elem^s * h^(-i*m) =
        h^j, m = ceil(sqrt(r)) and i, j < m.  At most 2m multiplications
        after three powers."""
        if not any(elem):
            raise ZeroValuation("discrete log of zero")
        r = self.q - 1 if r is None else r
        s, rest = divmod(self.q - 1, r)
        if rest:
            raise ValueError(f"{r} does not divide q - 1 = {self.q - 1}")
        g = self.multiplicative_generator() if g is None else g
        h = self._pow(g, s)
        m = math.isqrt(r - 1) + 1
        baby = {}
        acc = self.one
        for j in range(m):
            baby[acc] = j
            acc = self._mul(acc, h)
        giant = self._pow(h, -m % r)
        acc = self._pow(elem, s)
        for i in range(m):
            j = baby.get(acc)
            if j is not None:
                return i * m + j
            acc = self._mul(acc, giant)
        raise RuntimeError("no logarithm found")  # unreachable

    def first_nonsquare(self):
        for n in range(1, self.q):
            e = self.decode(n)
            if not self.is_square(e):
                return e
        raise UnsupportedCase("every unit is a square (q even?)")

    def __eq__(self, other):
        return (
            isinstance(other, ResidueField)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        return f"F_{self.q}"


# ---------------------------------------------------------------------------
# towers and their elements
# ---------------------------------------------------------------------------

class IntegerStructure:
    """A ring with a basis of n monomials over the base field, multiplied
    through integer structure constants: ``_table[i][j]`` is the product of
    monomials i and j, as the sparse pairs (k, c) of its nonzero numerators
    over the one denominator ``_D``.  Its elements are FlatElements.  A
    subclass builds ``n``, ``_table``, ``_D`` and ``_fingerprint`` once,
    none of which ever change, and supplies ``element`` and ``_invert``.
    """

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def _num_matrix(self, x):
        """The integer matrix of y -> x*y on the flat basis, over x.den * D."""
        m = [[0] * self.n for _ in range(self.n)]
        for xi, row in zip(x.num, self._table):
            if not xi:
                continue
            for j, prod in enumerate(row):
                for k, s in prod:
                    m[k][j] += xi * s
        return m

    def base_charpoly(self, x):
        """The characteristic polynomial of y -> x*y over the base field,
        constant term first, as Fractions.  The matrix of x is N / s with N
        an integer matrix and s = x.den * D, so it is s^(-n) * chi_N(s*T)."""
        s = x.den * self._D
        n = self.n
        return [Fraction(c, s ** (n - k)) for k, c in enumerate(_poly.charpoly(self._num_matrix(x), 1))]

    def __eq__(self, other):
        return isinstance(other, IntegerStructure) and self._fingerprint == other._fingerprint

    def __hash__(self):
        return hash(self._fingerprint)


class ExtensionTower(IntegerStructure):
    """A finite extension of the base field, as unramified + Eisenstein step.

    Use :func:`make_extension`; the constructor assumes validated input.
    An element has n = e*f coordinates on the monomial basis u^a * pi^b,
    at index k = b*f + a, kept as integer numerators over one common
    denominator.  The structure constants are integers over one common
    denominator D, built once at construction from the defining data; none
    of these ever change.  The only mutable state is the brute-force
    oracle's memo of residue rings, which the factor engine never touches.
    """

    def __init__(self, base, f, eis_uvecs, unram_poly):
        self.base = base
        self.f = f
        self.e = len(eis_uvecs) - 1
        self.n = self.e * self.f
        self.unram_poly = unram_poly              # tuple of f+1 ints
        self.eis = eis_uvecs                      # tuple of e+1 u-vectors
        self._table, self._D = self._structure_constants()
        self.q = None if base.is_real else base.p ** f
        self.residue = None if base.is_real else ResidueField(base.p, f, unram_poly)
        self._fingerprint = (
            base.kind,
            base.p,
            f,
            tuple(unram_poly),
            tuple(tuple(v) for v in eis_uvecs),
        )
        self._oracle_rings = {}

    def _structure_constants(self):
        """(table, D): table[i][j] is the product of basis monomials i and j,
        as the sparse pairs (k, c) of its nonzero numerators over D.

        The product of u^a pi^b and u^a' pi^b' is u^A pi^B, A = a + a' and
        B = b + b', so the (2f - 1)(2e - 1) monomials u^A pi^B are reduced
        once, in integers: pi^B from pi^(e-1) by the step "times pi", then
        u^A pi^B by the step "times u".  The Eisenstein coefficients are
        numerators over their common denominator d, so pi^B is over
        d^(B-e+1), and every u^A pi^B over d^(e-1), which is D before the
        common factor of the whole table is divided out.
        """
        f, e, n = self.f, self.e, self.n
        d = math.lcm(*(c.denominator for row in self.eis for c in row))

        def step(v, shift, wrap, scale):
            """v times u (shift 1, scale 1) or pi (shift f, scale d); wrap[k]
            is the image of monomial k when k + shift leaves the basis, with
            the denominator raised by scale, else None."""
            out = [0] * n
            for k, c in enumerate(v):
                if c and wrap[k] is None:
                    out[k + shift] += c * scale
                elif c:
                    out = [o + c * w for o, w in zip(out, wrap[k])]
            return out

        # u^f = -(m_0 + m_1 u + ... + m_(f-1) u^(f-1)) in every pi-row
        minus_m = [-c for c in self.unram_poly[:-1]]
        u_wrap = [None if (k + 1) % f else [0] * (k + 1 - f) + minus_m + [0] * (n - 1 - k)
                  for k in range(n)]
        # u^a pi^e = -u^a (eis_0 + eis_1 pi + ... + eis_(e-1) pi^(e-1)), over d
        pi_wrap = [None] * (n - f) + [[-c.numerator * (d // c.denominator)
                                       for row in self.eis[:-1] for c in row]]
        while len(pi_wrap) < n:
            pi_wrap.append(step(pi_wrap[-1], 1, u_wrap, 1))
        # rows[A][B] is u^A pi^B over d^(e-1): rows[0] the pi^B, where the
        # division by d is exact, and each next row u times the one before
        rows = [[[d ** (e - 1) * (k == B * f) for k in range(n)] for B in range(e)]]
        for _ in range(e - 1):
            rows[0].append([c // d for c in step(rows[0][-1], f, pi_wrap, d)])
        for _ in range(2 * f - 2):
            rows.append([step(v, 1, u_wrap, 1) for v in rows[-1]])
        g = math.gcd(d ** (e - 1), *(c for row in rows for v in row for c in v))
        prods = [[tuple((k, c // g) for k, c in enumerate(v) if c) for v in row] for row in rows]
        return (tuple(tuple(prods[i % f + j % f][i // f + j // f] for j in range(n))
                      for i in range(n)), d ** (e - 1) // g)

    @cached_property
    def _pi_e_by_p(self):
        """The residue of the unit pi^e / p = -eis_0 / p, for ``unit_residue``."""
        p = self.base.p
        return self.residue.element([_reduce_mod(-c / p, p) for c in self.eis[0]])

    # -- construction of elements ------------------------------------------

    def element(self, x):
        """Coerce an int, a Fraction, an element of this tower, or one of
        the base field's trivial tower, which lands at monomial 0: the one
        way into the tower.  An element of any other tower raises
        ValueError."""
        if isinstance(x, FieldElement):
            t = x.tower
            if t is self or t._fingerprint == self._fingerprint:
                return FieldElement(self, x.num, x.den)
            if not t.is_trivial or t.base != self.base:
                raise ValueError("element belongs to a different tower")
            return FieldElement(self, x.num + (0,) * (self.n - 1), x.den)
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return FieldElement(self, (x.numerator,) + (0,) * (self.n - 1), x.denominator)

    def _from_fractions(self, coords):
        """The element with these n coordinates (ints or Fractions).  Over
        the lcm of their reduced denominators the numerators have no
        common factor with it, so the result is in normal form."""
        den = math.lcm(*(c.denominator for c in coords))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def from_coords(self, rows):
        """rows[b][a] = coefficient of u^a pi^b (shorter rows are padded)."""
        coords = []
        for b in range(self.e):
            row = rows[b] if b < len(rows) else []
            row = [Fraction(c) for c in row]
            if len(row) > self.f:
                raise ValueError("u-degree exceeds unramified degree")
            coords += row + [0] * (self.f - len(row))
        if len(rows) > self.e and any(any(Fraction(c) for c in r) for r in rows[self.e:]):
            raise ValueError("pi-degree exceeds ramification degree")
        return self._from_fractions(coords)

    def pi(self):
        """The uniformizer: the class of the Eisenstein variable."""
        if self.base.is_real:
            raise UnsupportedCase("no uniformizer over a real base")
        if self.e == 1:
            return self._from_fractions([-c for c in self.eis[0]])
        return FieldElement(self, tuple(int(k == self.f) for k in range(self.n)), 1)

    def ugen(self):
        """The lift of the residue-field generator (needs f >= 2)."""
        if self.f < 2:
            raise ValueError("tower has no unramified generator (f = 1)")
        return self.from_coords([[0, 1]])

    # -- ring plumbing -------------------------------------------------------

    def norm_to_base(self, x):
        """Norm down to the base field, as an exact Fraction: (-1)^n times
        the constant term of the characteristic polynomial of x."""
        c0 = self.base_charpoly(x)[0]
        return -c0 if self.n % 2 else c0

    def _invert(self, x):
        """1/x on integers alone, by Cayley-Hamilton.  With N / s the matrix
        of x and N^n + c_(n-1)*N^(n-1) + ... + c_0 = 0, the vector of 1/x is
        -(s / c_0) * (N^(n-1) + c_(n-1)*N^(n-2) + ... + c_1) e_1, where e_1
        is the vector of 1; the sum is evaluated by Horner's rule."""
        if not x:
            raise ZeroValuation("inverse of zero")
        n = self.n
        if n == 1:
            a = x.num[0]
            return FieldElement(self, (x.den if a > 0 else -x.den,), abs(a))
        m = self._num_matrix(x)
        cp = _poly.charpoly(m, 1)
        v = [1] + [0] * (n - 1)
        for c in cp[n - 1:0:-1]:
            v = [sum(map(operator.mul, row, v)) for row in m]
            v[0] += c
        c0 = cp[0]
        s = x.den * self._D if c0 < 0 else -x.den * self._D
        return _normal(FieldElement, self, [c * s for c in v], abs(c0))

    # -- canonical data ------------------------------------------------------

    def unit_nonsquare(self):
        """Canonical lift of the first non-square of the residue field."""
        if self.base.is_real:
            raise UnsupportedCase("no unit non-square over R")
        if self.base.p == 2:
            return self.element(5)
        return self.from_coords([list(self.residue.first_nonsquare())])

    @property
    def is_trivial(self):
        return self.n == 1

    def __repr__(self):
        if self.n == 1:
            return repr(self.base)
        return f"{self.base}[f={self.f},e={self.e}]"


def _normal(cls, ring, num, den):
    """The element num / den (den > 0) of ring, of class cls, in normal
    form: gcd(den, *num) = 1."""
    g = math.gcd(den, *num)
    if g != 1:
        return cls(ring, tuple(c // g for c in num), den // g)
    return cls(ring, tuple(num), den)


class FlatElement:
    """An element of an IntegerStructure: a tower (FieldElement) or a
    quadratic etale algebra over one (EtaleElement).

    ``num`` holds the n integer numerators of its coordinates on the ring's
    monomial basis over the one positive denominator ``den``, in normal
    form: gcd(den, *num) = 1, and zero is ((0,)*n, 1).  Equal elements
    therefore have equal (num, den).  Both element types are added,
    multiplied, compared and hashed by the code below; a subclass supplies
    ``_co``, the coercion of the other operand (None when it does not
    apply).
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den):
        self.ring = ring
        self.num = num
        self.den = den

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return _normal(type(self), self.ring, [x + y for x, y in zip(self.num, o.num)], a)
        g = math.gcd(a, b)
        ma, mb = b // g, a // g
        return _normal(type(self), self.ring,
                       [x * ma + y * mb for x, y in zip(self.num, o.num)], a * ma)

    def __neg__(self):
        return type(self)(self.ring, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        t = self.ring
        out = [0] * t.n
        for xi, row in zip(self.num, t._table):
            if not xi:
                continue
            for yj, prod in zip(o.num, row):
                if yj:
                    c = xi * yj
                    for k, s in prod:
                        out[k] += c * s
        return _normal(type(self), t, out, self.den * o.den * t._D)

    def inverse(self):
        return self.ring._invert(self)

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        return hash((self.ring._fingerprint, self.num, self.den))

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** -n).inverse()
        if not n:
            return self.ring.one()
        # left to right from the top set bit: x^5 is ((x^2)^2)*x, 3 products
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result


class FieldElement(FlatElement):
    """An element of a tower, with exact rational coordinates: n = e*f
    numerators, index k = b*f + a for the monomial u^a pi^b.  ``coords``
    is a read-only view of the coordinates as Fractions.
    """

    __slots__ = ()

    tower = FlatElement.ring        # the slot ``ring`` under this name
    # bound here as well as inherited: perfbench/layers.py times
    # FieldElement.__mul__ in this class's own namespace, apart from the
    # etale products
    __mul__ = FlatElement.__mul__

    @property
    def coords(self):
        d = self.den
        return tuple(Fraction(c, d) for c in self.num)

    def _co(self, other):
        """The other operand in this tower, through ``tower.element``: an
        int, a Fraction, or an element of the base field's trivial tower;
        ValueError for an element of any other tower."""
        if isinstance(other, FieldElement) and (
                other.tower is self.tower or other.tower._fingerprint == self.tower._fingerprint):
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.tower.element(other)
        return None

    def is_unit(self):
        """x != 0: a tower is a field."""
        return bool(self)

    # -- p-adic structure ------------------------------------------------------

    def as_fraction(self):
        """The rational value; only for elements of a trivial tower."""
        if self.tower.n != 1:
            raise ValueError("element of a proper extension is not rational")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            b, a = divmod(k, self.tower.f)
            bits = []
            if c != 1 or k == 0:
                bits.append(str(c))
            if a == 1:
                bits.append("u")
            elif a > 1:
                bits.append(f"u^{a}")
            if b == 1:
                bits.append("pi")
            elif b > 1:
                bits.append(f"pi^{b}")
            terms.append("*".join(bits))
        if not terms:
            return "0"
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_extension(base, f, eis):
    """Build a tower over ``base`` from an unramified degree and an
    Eisenstein polynomial.

    ``eis`` is a list of coefficients, constant first, each an int, a
    Fraction, or a list of Fractions on the u-power basis of the
    unramified step.  It must be monic; for degree >= 2 it must be
    Eisenstein over the unramified step, for degree 1 its root is taken
    as the uniformizer and must have valuation 1.
    """
    if base.is_real and (f != 1 or len(eis) != 2):
        raise UnsupportedCase("only the trivial tower is supported over R")
    if f < 1:
        raise ValueError("unramified degree must be >= 1")
    e = len(eis) - 1
    # before the degree check, so f >= 2 over Q_2 fails alike for any eis
    if base.p == 2 and max(e, 1) * f > 1:
        raise DyadicRamifiedUnsupported(
            "extensions with residue characteristic 2 are not supported"
        )
    if e < 1:
        raise NotEisenstein("defining polynomial must have degree >= 1")
    eis_uvecs = tuple(_norm_uvec(c, f) for c in eis)
    if eis_uvecs[-1] != tuple([_Q1] + [_Q0] * (f - 1)):
        raise NotEisenstein("defining polynomial must be monic")
    if base.is_real:
        return ExtensionTower(base, 1, eis_uvecs, (0, 1))
    p = base.p
    if _row_valuation(eis_uvecs[0], p) != 1:
        raise NotEisenstein("degree-1 step needs a valuation-1 root" if e == 1
                            else "constant term must be a unit times p")
    for k in range(1, e):
        vk = _row_valuation(eis_uvecs[k], p)
        if vk is not None and vk < 1:
            raise NotEisenstein(f"coefficient {k} must have positive valuation")
    return ExtensionTower(base, f, eis_uvecs, canonical_unramified_poly(p, f))


def _norm_uvec(c, f):
    if isinstance(c, (list, tuple)):
        row = [Fraction(x) for x in c]
        if len(row) > f:
            raise ValueError("u-degree exceeds unramified degree")
        return tuple(row + [_Q0] * (f - len(row)))
    return tuple([Fraction(c)] + [_Q0] * (f - 1))


def trivial_tower(base):
    """The base field itself, as a tower: the one ``base`` builds once."""
    return base.trivial_tower


def valuation(a):
    """Normalized valuation with v(pi) = 1, read off the coordinates: the
    minimum over the nonzero coordinates x_k of e * v_p(x_k) + k // f,
    where v_p(x_k) = v_p(num_k) - v_p(den).

    Exact: the u^a are an integral basis of the unramified step (its
    polynomial is a monic lift of an irreducible one), the pi^b are one of
    the Eisenstein step, and the terms are distinct mod e.
    """
    t = a.tower
    if t.base.is_real:
        raise UnsupportedCase("no valuation over R")
    if not a:
        raise ZeroValuation("valuation of zero")
    p, e, f = t.base.p, t.e, t.f
    vd = _vp_int(a.den, p)
    return min(e * (_vp_int(c, p) - vd) + k // f for k, c in enumerate(a.num) if c)


def unit_residue(a):
    """(v, r) for a nonzero p-adic a: v = v(a), and r the residue of the
    unit a * pi^(-v), read off the coordinates with no tower product (over
    Q_2, the trivial tower only, r is a / 2^v modulo 8).  With b0 = v mod e
    and m = v // e, a * pi^(-v) is (sum_a x_(a,b0)/p^m * u^a) * (p/pi^e)^m
    modulo pi, and pi^e / p is -eis_0 / p modulo pi: for e = 1 too."""
    t, v = a.tower, valuation(a)
    p, f = t.base.p, t.f
    if p == 2:
        return v, _reduce_mod(a.as_fraction() / Fraction(2) ** v, 8)
    b0, m = v % t.e, v // t.e
    s = _vp_int(a.den, p)
    # the row's numerators are divisible by p^(m + s), as v_p(x_(a,b0)) >= m
    scale, dinv = p ** (m + s), pow(a.den // p ** s, -1, p)
    res = t.residue
    r = res.element([c // scale * dinv for c in a.num[b0 * f:(b0 + 1) * f]])
    if m and t._pi_e_by_p != res.one:
        r = res._mul(r, res._pow(t._pi_e_by_p, -m))
    return v, r


def is_square(a):
    """Squareness in the completion (exact)."""
    t = a.tower
    if not a:
        raise ZeroValuation("squareness of zero")
    if t.base.is_real:
        return a.as_fraction() > 0
    v, r = unit_residue(a)
    return not v % 2 and (r == 1 if t.base.p == 2 else t.residue.is_square(r))


def square_class(a):
    """Canonical representative r with a/r a square."""
    t = a.tower
    if not a:
        raise ZeroValuation("square class of zero")
    if t.base.is_real:
        return t.element(1) if a.as_fraction() > 0 else t.element(-1)
    v, r = unit_residue(a)
    if t.base.p == 2:
        return t.element(r) * t.pi() ** (v % 2)
    unit_rep = t.one() if t.residue.is_square(r) else t.unit_nonsquare()
    return unit_rep * t.pi() ** (v % 2)


def hilbert_symbol(a, b):
    """(a, b) = +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution.  Over
    an odd p, the quadratic character of the residue of (-1)^(alpha*beta) *
    ua^beta / ub^alpha, alpha and beta the valuations and ua and ub the
    units: the characters of -1, of ua for odd beta and of ub for odd alpha."""
    t = a.tower
    if not isinstance(b, FieldElement) or b.tower._fingerprint != t._fingerprint:
        b = t.element(b)
    if not a or not b:
        raise ZeroValuation("Hilbert symbol needs nonzero arguments")
    if t.base.is_real:
        return -1 if (a.as_fraction() < 0 and b.as_fraction() < 0) else 1
    alpha, ra = unit_residue(a)
    beta, rb = unit_residue(b)
    if t.base.p == 2:
        # the trivial tower of Q_2 only: ra and rb are the units modulo 8
        exp = (ra - 1) * (rb - 1) // 4 + alpha * (rb * rb - 1) // 8 + beta * (ra * ra - 1) // 8
        return -1 if exp % 2 else 1
    res = t.residue
    sign = -1 if alpha * beta % 2 and res.q % 4 == 3 else 1
    if beta % 2 and not res.is_square(ra):
        sign = -sign
    if alpha % 2 and not res.is_square(rb):
        sign = -sign
    return sign


def norm_test(c, ext):
    """+1 iff c is a norm from the quadratic etale algebra ``ext``.

    ``ext`` only needs ``is_field``, ``delta`` and ``base_pm`` attributes, so
    this stays free of an import cycle with the etale module.
    """
    if not c:
        raise ZeroValuation("norm test of zero")
    if not ext.is_field:
        return 1
    return hilbert_symbol(c, ext.delta)


# ---------------------------------------------------------------------------
# the brute-force oracle
# ---------------------------------------------------------------------------

class _ResidueRing:
    """O/pi^N of a p-adic tower, on plain integers.

    The valuation is the minimum over the flat coordinates x_k, k = b*f + a,
    of e*v_p(x_k) + b, so O/pi^N is the product of the Z/p^ceil((N - b)/e),
    p^(f*N) elements in all.  Elements are int tuples, encoded in mixed
    radix with coordinate 0 the fastest; the encoding indexes a bytearray of
    squares, so the oracle scan is a linear pass with O(1) membership.
    Monomial 0 is 1, so an element is a row r (coordinate 0 zero) plus an
    integer a, and the squares and the scan walk each row along a.
    """

    def __init__(self, tower, N):
        p, f = tower.base.p, tower.f
        # |O/pi^N| = p^(f*N); since p >= 2, a long exponent is over the limit
        if f * N >= MAX_ORACLE_RING.bit_length() or p ** (f * N) > MAX_ORACLE_RING:
            raise UnsupportedCase(f"oracle residue ring O/pi^{N} has {p}^{f * N} elements, "
                                  f"more than the limit {MAX_ORACLE_RING}")
        self.tower = tower
        self.mods = tuple(p ** -((k // f - N) // tower.e) for k in range(tower.n))
        self.weights = tuple(itertools.accumulate(self.mods[:-1], operator.mul, initial=1))
        self.size = p ** (f * N)
        self._squares = None

    def reduce(self, x):
        """A tower element of valuation >= 0 (so its den is prime to p), reduced."""
        if x.den % self.tower.base.p == 0:
            raise ZeroValuation(f"{x} is not integral")
        inv = pow(x.den, -1, self.mods[0])      # the largest modulus; the others divide it
        return tuple(c * inv % m for c, m in zip(x.num, self.mods))

    def matrix(self, x):
        """The rows of the matrix of y -> x*y, x of valuation >= 0: the tower's
        own table over x.den * D, with D prime to p since make_extension only
        accepts p-integral Eisenstein coefficients."""
        inv = pow(x.den * self.tower._D, -1, self.mods[0])
        return [[c * inv % m for c in row] for row, m in zip(self.tower._num_matrix(x), self.mods)]

    def rows(self):
        """The elements with coordinate 0 zero, in the order of their
        encodings, which step by mods[0]."""
        for rest in itertools.product(*map(range, reversed(self.mods[1:]))):
            yield (0,) + rest[::-1]

    def pieces(self, a_range):
        """a_range in consecutive ranges of at most ORACLE_PIECE values."""
        return (a_range[i:i + ORACLE_PIECE] for i in range(0, len(a_range), ORACLE_PIECE))

    def along(self, col0, v, s, alist):
        """The encodings of v + a*s for a in alist, coordinate 0 being given
        already reduced as the list col0."""
        for b, t, m, w in zip(v[1:], s[1:], self.mods[1:], self.weights[1:]):
            col0 = list(map(operator.add, col0, [(b + a * t) % m * w for a in alist]))
        return col0

    def squares(self):
        if self._squares is None:
            flags = bytearray(self.size)
            m0 = self.mods[0]
            half = range(m0 // 2 + 1)       # r + a and -r - a have one square
            for r in self.rows():
                # (r + a)^2 = r^2 + 2a*r + a^2, and r has coordinate 0 zero
                r2 = self.reduce(FieldElement(self.tower, r, 1) ** 2)
                for part in self.pieces(half):
                    col0 = [(r2[0] + a * a) % m0 for a in part]
                    for k in self.along(col0, r2, [2 * c for c in r], part):
                        flags[k] = 1
            self._squares = flags
        return self._squares


def brute_force_norm_oracle(c, ext, depth):
    """Independent norm test: exhaustive search for c = a^2 - delta*b^2
    modulo pi^(v(c) + depth).

    Sound because a solution at that depth differs from c by a 1-unit deep
    enough to be a square; complete because representatives reduced to
    valuation 0 or 1 admit integral solutions when they are norms.
    """
    tower = ext.base_pm
    if tower.base.is_real:
        raise UnsupportedCase("oracle is p-adic only")
    if not ext.is_field:
        return 1
    pi = tower.pi()
    vc = valuation(c)
    c_n = c * pi ** (-2 * (vc // 2))
    vd = valuation(ext.delta)
    delta_n = ext.delta * pi ** (-2 * (vd // 2))
    bound = valuation(tower.element(4)) + valuation(delta_n)
    if depth <= bound:
        raise DepthTooSmall(f"depth must exceed v(4*delta) = {bound}")
    N = valuation(c_n) + depth
    ring = tower._oracle_rings.get(N)
    if ring is None:
        ring = _ResidueRing(tower, N)
        tower._oracle_rings[N] = ring
    squares = ring.squares()
    cbar = ring.reduce(c_n)
    dmat = ring.matrix(delta_n)
    dbar = [row[0] for row in dmat]         # delta times monomial 0, which is 1
    m0 = ring.mods[0]
    # c + delta*s over the squares s = r + a of each row r (their flags, so
    # no square is stored): the target c + delta*r moves by delta along a
    for start, r in zip(range(0, ring.size, m0), ring.rows()):
        t = [sum(map(operator.mul, row, r), x) for x, row in zip(cbar, dmat)]
        for part in ring.pieces(range(m0)):
            alist = list(itertools.compress(part, squares[start + part.start:start + part.stop]))
            col0 = [(t[0] + a * dbar[0]) % m0 for a in alist]
            if any(map(squares.__getitem__, ring.along(col0, t, dbar, alist))):
                return 1
    return -1
