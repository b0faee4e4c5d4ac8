"""Quadratic etale algebras over a tower, with involution tau, norms,
traces, and characteristic polynomials over the ground field.

An algebra is presented as F_pm[rt]/(rt^2 - delta): elements are written
a + b*rt with a, b in the tower F_pm, and tau is b -> -b.  It is a field
iff delta is a non-square.  When delta is a square with a known root s
(split algebras are built with delta = 1, s = 1), the element corresponds
to the coordinate pair (a + b*s, a - b*s) of F_pm (+) F_pm and tau is the
coordinate swap.

The unitary construction tensors F_pm with a quadratic extension E of the
base field.  The tensor algebra reuses E's rt symbol (delta is the image
of delta_E), so E embeds coordinate-wise and the characteristic polynomial
of an element over E is the charpoly of an explicit m x m matrix with
entries in E.  Over the base field it is the charpoly of an integer
2m x 2m block matrix built from the tower kernel's numerators; both go
through the one division-free routine ``_poly.charpoly``.  No compositum
and no p-adic square root is ever needed: whether the tensor splits is
decided by an exact square test.
"""

from __future__ import annotations

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
    ResidueField,
    RingOps,
    is_square,
    trivial_tower,
    _reduce_mod,
    _vp,
)


class QuadraticEtale:
    """F_pm[rt]/(rt^2 - delta); a quadratic field or the split algebra."""

    def __init__(self, base_pm, delta, *, split_root=None, unitary_base=None,
                 _checked=False):
        if not isinstance(delta, FieldElement):
            delta = base_pm.element(delta)
        if not delta:
            raise ZeroValuation("delta must be nonzero")
        self.base_pm = base_pm
        self.delta = delta
        self.split_root = split_root
        self.unitary_base = unitary_base
        self.is_field = not is_square(delta)
        if _checked and not self.is_field:
            raise UnsupportedCase("delta is a square; use split_algebra instead")
        self._fingerprint = ("etale", base_pm._fingerprint, delta.num, delta.den,
                             None if unitary_base is None else unitary_base.fingerprint)

    # -- element construction -----------------------------------------------

    def element(self, a, b=0):
        return EtaleElement(self, self.base_pm.element(a), self.base_pm.element(b))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

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

    def embed_ground(self, x):
        """Embed a base-field scalar (Fraction or trivial-tower element)."""
        if isinstance(x, FieldElement):
            x = x.as_fraction()
        return self.element(self.base_pm.element(Fraction(x)))

    def __eq__(self, other):
        return isinstance(other, QuadraticEtale) and self._fingerprint == other._fingerprint

    def __hash__(self):
        return hash(self._fingerprint)

    def __repr__(self):
        shape = "field" if self.is_field else "split"
        return f"Etale({self.base_pm!r}, delta={self.delta!r}, {shape})"


def quadratic_field(base_pm, delta):
    """The quadratic field extension F_pm(sqrt(delta)); delta non-square."""
    return QuadraticEtale(base_pm, delta, _checked=True)


def split_algebra(base_pm):
    """F_pm (+) F_pm, presented with delta = 1 and the evident root."""
    return QuadraticEtale(base_pm, base_pm.one(), split_root=base_pm.one())


class EtaleElement(RingOps):
    """a + b*rt in a quadratic etale algebra."""

    __slots__ = ("algebra", "a", "b")

    def __init__(self, algebra, a, b):
        self.algebra = algebra
        self.a = a
        self.b = b

    # -- coercion -------------------------------------------------------------

    def _co(self, other):
        alg = self.algebra
        if isinstance(other, EtaleElement):
            if other.algebra._fingerprint == alg._fingerprint:
                return other
            ub = alg.unitary_base
            if ub is not None and other.algebra._fingerprint == ub.E._fingerprint:
                return ub.embed(other, alg)
            return None
        if isinstance(other, (int, Fraction)):
            return alg.element(other)
        if isinstance(other, FieldElement):
            if other.tower._fingerprint == alg.base_pm._fingerprint:
                return alg.element(other)
            if other.tower.is_trivial and other.tower.base == alg.base_pm.base:
                return alg.embed_ground(other)
            return None
        return None

    # -- ring operations --------------------------------------------------------

    def _one(self):
        return self.algebra.one()

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return EtaleElement(self.algebra, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return EtaleElement(self.algebra, -self.a, -self.b)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        d = self.algebra.delta
        return EtaleElement(
            self.algebra,
            self.a * o.a + d * (self.b * o.b),
            self.a * o.b + self.b * o.a,
        )

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroValuation("element is not a unit in the etale algebra")
        ninv = n.inverse()
        return EtaleElement(self.algebra, self.a * ninv, -self.b * ninv)

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        a, b = self.a, self.b
        return hash((self.algebra._fingerprint, a.num, a.den, b.num, b.den))

    # -- structure ----------------------------------------------------------------

    def tau(self):
        """The nontrivial automorphism over F_pm."""
        return EtaleElement(self.algebra, self.a, -self.b)

    def norm(self):
        """x * tau(x), an element of F_pm."""
        return self.a * self.a - self.algebra.delta * (self.b * self.b)

    def trace(self):
        """x + tau(x), an element of F_pm."""
        return self.a + self.a

    def is_unit(self):
        return bool(self.norm())

    def as_base(self):
        """The F_pm-value of a tau-fixed element; exact zero test on b."""
        if self.b:
            raise NotInFixedField("rt-coordinate is nonzero")
        return self.a

    def as_pair(self):
        """Split coordinates (needs the algebra's explicit root)."""
        s = self.algebra.split_root
        if s is None:
            raise UnsupportedCase("no explicit square root of delta is known")
        return (self.a + self.b * s, self.a - self.b * s)

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        if self.a:
            parts.append(repr(self.a))
        if self.b:
            if self.b == self.algebra.base_pm.one():
                parts.append("s")
            else:
                parts.append(" + ".join(f"{t}*s" for t in repr(self.b).split(" + ")))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def tau(x):
    return x.tau()


def charpoly_over(x, ground="F"):
    """Characteristic polynomial of multiplication by x.

    ground "F": over the base field, degree 2*[F_pm:F], Fraction
    coefficients (constant first), from the charpoly of an integer matrix
    rescaled once.  ground "E": over the unitary quadratic extension,
    degree [F_pm:F], coefficients are elements of E, from the charpoly of
    the matrix of x with entries in E.
    """
    alg = x.algebra
    tower = alg.base_pm
    if ground == "F":
        n = tower.n
        if n == 1:
            return [x.norm().as_fraction(), -x.trace().as_fraction(), Fraction(1)]
        # The matrix of x is [[A, DB], [B, A]], the blocks being the
        # matrices of a, delta*b and b.  Each is an integer matrix over
        # s = v.den * D; scaled by the lcm L of the three s it is the
        # integer matrix M, and chi_(M/L)(T) = L^(-2n) * chi_M(L*T).
        parts = (x.a, alg.delta * x.b, x.b)
        L = math.lcm(*(v.den for v in parts)) * tower._D
        A, DB, B = ([[c * (L // (v.den * tower._D)) for c in row] for row in tower._num_matrix(v)]
                    for v in parts)
        mat = [ra + rdb for ra, rdb in zip(A, DB)] + [rb + ra for rb, ra in zip(B, A)]
        return [Fraction(c, L ** (2 * n - k)) for k, c in enumerate(_poly.charpoly(mat, 1))]
    if ground == "E":
        ub = alg.unitary_base
        if ub is None:
            raise UnsupportedCase("charpoly over E needs a unitary tensor algebra")
        n = tower.n
        E = ub.E
        A = tower.mult_matrix(x.a)
        B = tower.mult_matrix(x.b)
        mat = [
            [E.element(A[i][j], B[i][j]) for j in range(n)]
            for i in range(n)
        ]
        return _poly.charpoly(mat, E.one())
    raise ValueError(f"unknown ground {ground!r}")


def norm_to_ground(x):
    """Norm from the etale algebra all the way down to the base field."""
    return x.algebra.base_pm.norm_to_base(x.norm())


def trace_to_ground(x):
    """Trace from the etale algebra down to the base field."""
    return x.algebra.base_pm.trace_to_base(x.trace())


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
        delta_im = tower.element(self.delta_e.as_fraction())
        return QuadraticEtale(tower, delta_im, unitary_base=self)

    def embed(self, e, algebra):
        """Embed an element of E into a derived tensor algebra."""
        tower = algebra.base_pm
        return EtaleElement(
            algebra,
            tower.element(e.a.as_fraction()),
            tower.element(e.b.as_fraction()),
        )

    # -- tame structure of E (uniformizer, residue field, valuation) -----------

    @cached_property
    def _data(self):
        """(ramified, k, uniformizer, residue field), with v(delta_E) = 2k
        or 2k + 1: the residue field is F_p over a ramified E, and F_p[x]
        modulo x^2 - (delta_E / p^(2k) mod p) over an unramified one."""
        p = self.base.p
        d = self.delta_e.as_fraction()
        v = _vp(d, p)
        k = v // 2
        if v % 2:
            return True, k, self.E.element(0, Fraction(1) / Fraction(p) ** k), self.F.residue
        dbar = _reduce_mod(d / Fraction(p) ** (2 * k), p)
        return False, k, self.E.embed_ground(p), ResidueField(p, 2, ((-dbar) % p, 0, 1))

    @property
    def ramified(self):
        return self._data[0]

    def residue_field(self):
        return self._data[3]

    @cached_property
    def residue_generator(self):
        """The canonical generator of the residue group F_q^x, found once."""
        return self.residue_field().multiplicative_generator()

    def e_valuation(self, x):
        """Normalized valuation on E (v(uniformizer) = 1)."""
        if not x:
            raise ZeroValuation("valuation of zero")
        nrm = x.norm().as_fraction()
        v = _vp(nrm, self.base.p)
        if self.ramified:
            return v
        if v % 2:
            raise ZeroValuation(f"norm valuation {v} is odd over the unramified E")
        return v // 2

    def tame_coordinates(self, x):
        """(v, u) for x in E^x: v = v(x), and u in F_q^x is the residue of
        the unit x * uniformizer^(-v) = a + b*sqrt(delta_E).  A character
        reads the logarithm of u against ``residue_generator`` only modulo
        the order it needs, so the logarithm is left to it."""
        ramified, k, uniformizer, res = self._data
        v = self.e_valuation(x)
        unit = x * uniformizer ** (-v)
        p = self.base.p
        coords = [unit.a.as_fraction()]
        if not ramified:
            coords.append(unit.b.as_fraction() * Fraction(p) ** k)
        return v, res.element([_reduce_mod(c, p) for c in coords])

    @cached_property
    def sgn_probes(self):
        """(v, m / (q - 1), sgn) at p and at the canonical generator of
        F_p^x, which generate F^x modulo its 1-units; m is the logarithm of
        the residue against ``residue_generator``, taken in F_p^x, where
        both residues lie.  Plain ints and Fractions: the cache holds no
        element, so no reference to E."""
        res = self.residue_field()
        out = []
        for t in (self.base.p, self.F.residue.multiplicative_generator().rep[0]):
            v, u = self.tame_coordinates(self.E.embed_ground(t))
            m = res.prime_field_log(u, self.residue_generator)
            out.append((v, Fraction(m, res.q - 1), self.sgn(t)))
        return tuple(out)

    def sgn(self, x):
        """The norm character sgn_{E/F} on F^x."""
        if isinstance(x, FieldElement):
            x = x.as_fraction()
        return localfield.hilbert_symbol(self.F.element(x), self.E.delta)

    def __eq__(self, other):
        return isinstance(other, UnitaryBaseData) and self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        return f"E = {self.base}(sqrt({self.delta_e!r}))"
