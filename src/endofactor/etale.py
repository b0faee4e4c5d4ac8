"""Quadratic etale algebras over a tower, with involution tau, norms,
traces, and characteristic polynomials over the ground field.

An algebra is presented as F_pm[rt]/(rt^2 - delta), with a + b*rt for a,
b in the tower F_pm, and tau is b -> -b.  It is a field iff delta is a
non-square.  When delta is a square with a known root s (split algebras
are built with delta = 1, s = 1), the element corresponds to the
coordinate pair (a + b*s, a - b*s) of F_pm (+) F_pm and tau is the
coordinate swap.

The algebra is an IntegerStructure of its own, on the 2n monomials
u^a * pi^b * rt^c: it builds integer structure constants once, from the
tower's and the integer matrix of delta, and an element is 2n integer
numerators over one denominator, the n of a then the n of b.  It is
added, multiplied, compared and hashed by the tower kernel's code; a and
b are views.

The unitary construction tensors F_pm with a quadratic extension E of the
base field.  The tensor algebra reuses E's rt symbol (delta is the image
of delta_E), so E embeds coordinate-wise.  The characteristic polynomial
of an element over the base field is that of its integer 2n x 2n matrix,
rescaled once; over E it is that of the n x n matrix with entries in E
that the two left blocks of the same integer matrix give.  Both go
through the one division-free routine ``_poly.charpoly``.  No compositum
and no p-adic square root is ever needed: whether the tensor splits is
decided by an exact square test.
"""

import math
from fractions import Fraction
from functools import cached_property

from . import _poly
from . import localfield
from .errors import (
    NotInFixedField,
    UnsupportedCase,
    ZeroValuation,
)
from .localfield import (
    FieldElement,
    FlatElement,
    IntegerStructure,
    ResidueField,
    is_square,
    trivial_tower,
    _normal,
    _reduce_mod,
    _vp,
)


class QuadraticEtale(IntegerStructure):
    """F_pm[rt]/(rt^2 - delta); a quadratic field or the split algebra."""

    def __init__(self, base_pm, delta, *, split_root=None, unitary_base=None):
        if not isinstance(delta, FieldElement):
            delta = base_pm.element(delta)
        if not delta:
            raise ZeroValuation("delta must be nonzero")
        self.base_pm = base_pm
        self.delta = delta
        self.split_root = split_root
        self.unitary_base = unitary_base
        self.is_field = not is_square(delta)
        self._fingerprint = ("etale", base_pm._fingerprint, delta.num, delta.den,
                             None if unitary_base is None else unitary_base.fingerprint)
        self.n, self._table, self._D = 2 * base_pm.n, *self._structure_constants()

    def _structure_constants(self):
        """(table, D) on the monomials m_k * rt^c at index c*n + k, m_k those
        of the tower.  m_i*m_j*rt^(c+c') is the tower product over D moved
        to the rt^(c+c') half, or for c = c' = 1 that product times delta:
        over D * s, s = delta.den * D, the integer matrix of delta times the
        product's numerators.  The tower's table has no common factor with
        its D, so the common factor of the whole table and D * s is that of
        s and the products times delta."""
        tower = self.base_pm
        n, s = tower.n, self.delta.den * tower._D
        dm = tower._num_matrix(self.delta)
        sq = [[[sum(t * dm[l][k] for k, t in prod) for l in range(n)] for prod in row]
              for row in tower._table]
        g = math.gcd(s, *(c for row in sq for w in row for c in w))
        low = [[tuple((k, t * s // g) for k, t in prod) for prod in row] for row in tower._table]
        high = [[tuple((n + k, t) for k, t in prod) for prod in row] for row in low]
        top = [[tuple((l, c // g) for l, c in enumerate(w) if c) for w in row] for row in sq]
        return (tuple(tuple(a + b) for a, b in zip(low, high))
                + tuple(tuple(a + b) for a, b in zip(high, top)), tower._D * s // g)

    # -- element construction -----------------------------------------------

    def element(self, a, b=0):
        """a + b*rt: the one way into the algebra.  a and b are coerced by
        the tower's ``element``, so each may be an int, a Fraction, or an
        element of F_pm or of the base field F.  A tensor algebra F_pm (x) E
        also takes an element a of E, which lands as a.a + a.b*rt (E's rt
        is the algebra's).  Over the lcm of their denominators the
        numerators have no common factor with it, so the result is in
        normal form."""
        if isinstance(a, EtaleElement):
            ub = self.unitary_base
            if ub is None or a.algebra._fingerprint != ub.E._fingerprint or b:
                raise ValueError("element belongs to a different algebra")
            a, b = a.a, a.b
        a, b = self.base_pm.element(a), self.base_pm.element(b)
        den = math.lcm(a.den, b.den)
        ma, mb = den // a.den, den // b.den
        return EtaleElement(self, tuple(c * ma for c in a.num) + tuple(c * mb for c in b.num), den)

    def rt(self):
        """The square root of delta."""
        return self.element(0, 1)

    def from_pair(self, first, second):
        """Element with the given split coordinates (needs a known root)."""
        if self.split_root is None:
            raise UnsupportedCase("no explicit square root of delta is known")
        first = self.base_pm.element(first)
        second = self.base_pm.element(second)
        half = Fraction(1, 2)
        return self.element((first + second) * half,
                            (first - second) * half / self.split_root)

    def _invert(self, x):
        """tau(x) / N(x), N(x) inverted in the tower."""
        n = x.norm()
        if not n:
            raise ZeroValuation("element is not a unit in the etale algebra")
        return x.tau() * n.inverse()

    def __repr__(self):
        shape = "field" if self.is_field else "split"
        return f"Etale({self.base_pm!r}, delta={self.delta!r}, {shape})"


def quadratic_field(base_pm, delta):
    """The quadratic field extension F_pm(sqrt(delta)); delta non-square."""
    alg = QuadraticEtale(base_pm, delta)
    if not alg.is_field:
        raise UnsupportedCase("delta is a square; use split_algebra instead")
    return alg


def split_algebra(base_pm):
    """F_pm (+) F_pm, presented with delta = 1 and the evident root."""
    return QuadraticEtale(base_pm, base_pm.one(), split_root=base_pm.one())


class EtaleElement(FlatElement):
    """a + b*rt in a quadratic etale algebra: the n numerators of a, then
    the n of b, over one denominator.  ``a`` and ``b`` are views."""

    __slots__ = ()

    algebra = FlatElement.ring      # the slot ``ring`` under this name

    def _co(self, other):
        """The other operand in this algebra, through ``algebra.element``:
        an int, a Fraction, an element of F_pm or of F, and in a tensor
        algebra one of E; None for anything else, so the operation returns
        NotImplemented."""
        alg = self.algebra
        if isinstance(other, EtaleElement) and other.algebra._fingerprint == alg._fingerprint:
            return other
        if isinstance(other, (int, Fraction, FlatElement)):
            try:
                return alg.element(other)
            except ValueError:
                return None
        return None

    # -- views over the tower ---------------------------------------------------

    @property
    def a(self):
        tower = self.algebra.base_pm
        return _normal(FieldElement, tower, self.num[:tower.n], self.den)

    @property
    def b(self):
        tower = self.algebra.base_pm
        return _normal(FieldElement, tower, self.num[tower.n:], self.den)

    def tau(self):
        """The nontrivial automorphism over F_pm."""
        n = self.algebra.base_pm.n
        return EtaleElement(self.algebra, self.num[:n] + tuple(-c for c in self.num[n:]), self.den)

    def norm(self):
        """x * tau(x), an element of F_pm."""
        return (self * self.tau()).a

    def trace(self):
        """x + tau(x), an element of F_pm."""
        return self.a + self.a

    def is_unit(self):
        """x != 0 in a field, where delta is a non-square; N(x) != 0 in a
        split algebra."""
        return bool(self) if self.algebra.is_field else bool(self.norm())

    def as_base(self):
        """The F_pm-value of a tau-fixed element; exact zero test on b."""
        if any(self.num[self.algebra.base_pm.n:]):
            raise NotInFixedField("rt-coordinate is nonzero")
        return self.a

    def as_pair(self):
        """Split coordinates (needs the algebra's explicit root)."""
        s = self.algebra.split_root
        if s is None:
            raise UnsupportedCase("no explicit square root of delta is known")
        a, b = self.a, self.b
        return (a + b * s, a - b * s)

    def __repr__(self):
        if not self:
            return "0"
        a, b = self.a, self.b
        parts = []
        if a:
            parts.append(repr(a))
        if b:
            if b == self.algebra.base_pm.one():
                parts.append("s")
            else:
                parts.append(" + ".join(f"{t}*s" for t in repr(b).split(" + ")))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def tau(x):
    return x.tau()


def charpoly_over(x, ground="F"):
    """Characteristic polynomial of multiplication by x.

    ground "F": over the base field, degree 2*[F_pm:F], Fraction
    coefficients (constant first), from the charpoly of the algebra's
    integer matrix of x rescaled once.  ground "E": over the unitary
    quadratic extension, degree n = [F_pm:F], coefficients are elements of
    E.  That integer matrix is N / s; the E-linear map x is A + B*rt on the
    tower basis, and the two left blocks of N are s*A above s*B, so the
    charpoly of the E-matrix N_A + N_B*rt is taken and rescaled by s^(k-n).
    """
    alg = x.algebra
    if ground == "F":
        return alg.base_charpoly(x)
    if ground == "E":
        ub = alg.unitary_base
        if ub is None:
            raise UnsupportedCase("charpoly over E needs a unitary tensor algebra")
        n = alg.base_pm.n
        E = ub.E
        N = alg._num_matrix(x)
        mat = [[E.element(N[i][j], N[n + i][j]) for j in range(n)] for i in range(n)]
        s = x.den * alg._D
        return [_normal(EtaleElement, E, c.num, c.den * s ** (n - k))
                for k, c in enumerate(_poly.charpoly(mat, E.one()))]
    raise ValueError(f"unknown ground {ground!r}")


def norm_to_ground(x):
    """Norm from the etale algebra all the way down to the base field."""
    return x.algebra.base_pm.norm_to_base(x.norm())


# ---------------------------------------------------------------------------
# the unitary quadratic extension E and its tame structure
# ---------------------------------------------------------------------------

class UnitaryBaseData:
    """A quadratic field extension E of the base, plus the derived tensor
    algebras F_pm (x) E with their split/field determination."""

    def __init__(self, base, delta_e):
        if base.is_real:
            raise UnsupportedCase("unitary cases over R are not supported")
        if base.p == 2:
            raise UnsupportedCase("unitary cases over a dyadic base are not supported")
        self.base = base
        self.F = trivial_tower(base)
        delta_e = self.F.element(delta_e)
        self.E = quadratic_field(self.F, delta_e)
        self.fingerprint = ("E", base.p, delta_e.num, delta_e.den)

    @property
    def delta_e(self):
        return self.E.delta

    def algebra_over(self, tower):
        """F_pm (x) E; a field iff delta_E stays a non-square in F_pm."""
        if tower.base != self.base:
            raise ValueError("tower lives over a different base field")
        return QuadraticEtale(tower, tower.element(self.delta_e), unitary_base=self)

    # -- tame structure of E (uniformizer, residue field, valuation) -----------

    @cached_property
    def _data(self):
        """(ramified, k, residue field), with v(delta_E) = 2k or 2k + 1.  The
        uniformizer is sqrt(delta_E) / p^k over a ramified E, whose residue
        field is F_p, and p over an unramified one, whose residue field is
        F_p[x] modulo x^2 - (delta_E / p^(2k) mod p)."""
        p = self.base.p
        d = self.delta_e.as_fraction()
        v = _vp(d, p)
        k = v // 2
        if v % 2:
            return True, k, self.F.residue
        dbar = _reduce_mod(d / Fraction(p) ** (2 * k), p)
        return False, k, ResidueField(p, 2, ((-dbar) % p, 0, 1))

    @property
    def ramified(self):
        return self._data[0]

    def residue_field(self):
        return self._data[2]

    @cached_property
    def residue_generator(self):
        """The canonical generator of the residue group F_q^x, found once."""
        return self.residue_field().multiplicative_generator()

    def e_valuation(self, x):
        """Normalized valuation on E (v(uniformizer) = 1) of x = a +
        b*sqrt(delta_E), read off v_p of the rational a and b, with a zero
        coordinate skipped.  With v_p(delta_E) = 2k or 2k + 1 it is
        min(v_p(a), v_p(b) + k) over an unramified E, where the residues of
        a/p^m and b*sqrt(delta_E)/p^m cannot cancel, delta_E / p^(2k) being
        a non-square unit; and min(2v_p(a), 2v_p(b) + 2k + 1) over a
        ramified one, where the two have different parities.  An element of
        another algebra has no valuation on E."""
        if x.algebra._fingerprint != self.E._fingerprint:
            raise ZeroValuation("element is not in E")
        if not x:
            raise ZeroValuation("valuation of zero")
        ramified, k, _ = self._data
        p, m = self.base.p, 1 + ramified
        a, b = x.a.as_fraction(), x.b.as_fraction()
        vals = [m * _vp(a, p)] if a else []
        return min(vals + [m * (_vp(b, p) + k) + ramified] if b else vals)

    def tame_coordinates(self, x):
        """(v, u) for x in E^x: v = v(x), and u in F_q^x is the residue of
        the unit x * uniformizer^(-v) = a + b*sqrt(delta_E), made without an
        inverse in E.  Over an unramified E the unit is x times the rational
        p^(-v).  Over a ramified one, with h = v mod 2, uniformizer^(-v) is
        uniformizer^h * (delta_E / p^(2k))^(-(v + h)/2): one rational scale,
        then for odd v one product by sqrt(delta_E) / p^k, which takes
        a + b*sqrt(delta_E) to a unit of rational part b * delta_E / p^k.  A
        character reads the logarithm of u against ``residue_generator``
        only modulo the order it needs, so the logarithm is left to it."""
        ramified, k, res = self._data
        v = self.e_valuation(x)
        p = self.base.p
        a, b = x.a.as_fraction(), x.b.as_fraction()
        if ramified:
            d = self.delta_e.as_fraction()
            h = v % 2
            scale = (d / Fraction(p) ** (2 * k)) ** -((v + h) // 2)
            coords = [(b * d / p ** k if h else a) * scale]
        else:
            scale = Fraction(p) ** -v
            coords = [a * scale, b * scale * p ** k]
        return v, res.element([_reduce_mod(c, p) for c in coords])

    def sgn(self, x):
        """The norm character sgn_{E/F} on F^x."""
        return localfield.hilbert_symbol(self.F.element(x), self.E.delta)

    def __eq__(self, other):
        return isinstance(other, UnitaryBaseData) and self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        return f"E = {self.base}(sqrt({self.delta_e!r}))"
