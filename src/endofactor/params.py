"""Group descriptors, endoscopic data, and regular class parameters.

Seven group cases are supported: symplectic, odd/even special orthogonal,
the twisted linear group in even/odd dimension, unitary, and the twisted
group obtained from a unitary group by base change.  Validation is
report-style: every rule violation is collected with a stable code instead
of raising, so front ends can print complete diagnoses.
"""

import math
from fractions import Fraction

from . import _poly
from .errors import IndexMismatch, UnsupportedCase
from .etale import EtaleElement, charpoly_over
from .localfield import FieldElement, is_square, trivial_tower

# The independent facts of each case; every dimension and parity rule
# follows from them:
#   factors: the two endoscopic halves (minus, plus)
#   twisted: the group side carries free x_i (and x_D in the odd case)
#   ground: "F" or "E", the ground field of the characteristic polynomials
#   c_sign: tau(c) = c_sign * c for the group-side form coefficients (untwisted)
#   line: 1 when one dimension lies outside the indices, else 0
# Over F, d has the parity of line (over E it is free); the index degrees
# sum to d - line; d_minus + d_plus = d - line + the number of so_odd
# halves.  Regularity asks the same of P in every case: squarefree, with
# P(1) and P(-1) nonzero (see is_regular).
_INFO = {
    "symplectic":      dict(factors=("so_even", "symplectic"), twisted=False,
                            ground="F", c_sign=-1, line=0),
    "so_odd":          dict(factors=("so_odd", "so_odd"), twisted=False,
                            ground="F", c_sign=1, line=1),
    "so_even":         dict(factors=("so_even", "so_even"), twisted=False,
                            ground="F", c_sign=1, line=0),
    "twisted_gl_even": dict(factors=("so_even", "so_odd"), twisted=True,
                            ground="F", c_sign=None, line=0),
    "twisted_gl_odd":  dict(factors=("so_odd", "symplectic"), twisted=True,
                            ground="F", c_sign=None, line=1),
    "unitary":         dict(factors=("unitary", "unitary"), twisted=False,
                            ground="E", c_sign=1, line=0),
    "bc_unitary":      dict(factors=("unitary", "unitary"), twisted=True,
                            ground="E", c_sign=None, line=0),
}
CASES = tuple(_INFO)


def case_info(case):
    try:
        return _INFO[case]
    except KeyError:
        raise UnsupportedCase(f"unknown group case {case!r}") from None


class ValidationReport:
    """Outcome of a validation pass; empty violations means valid."""

    def __init__(self, subject, violations=None):
        self.subject = subject
        self.violations = [] if violations is None else violations

    def add(self, code, message):
        self.violations.append((code, message))

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        if self.ok:
            return [f"{self.subject}: ok"]
        return [f"{self.subject}: {code}: {msg}" for code, msg in self.violations]

    def __repr__(self):
        return "\n".join(self.lines())


class GroupDescriptor:
    """The ambient (twisted) group, by its discrete invariants.

    delta: normalized discriminant class (even special orthogonal only).
    E: the quadratic extension data (unitary cases).
    nu: the twisting scalar in F^x (twisted linear) or E^x (base change).
    eta: the pinning invariant, a class in F^x / squares, or in E^x modulo
    norms for the unitary cases (in F^x for odd d, tau-odd for even d).
    """

    def __init__(self, case, d, base, delta=None, E=None, nu=None, eta=None):
        self.case = case
        self.d = d
        self.base = base        # BaseField
        self.delta = delta      # FieldElement
        self.E = E              # UnitaryBaseData
        self.nu = nu            # FieldElement or EtaleElement of E
        self.eta = eta

    @property
    def info(self):
        return case_info(self.case)

    @property
    def F(self):
        return trivial_tower(self.base)


class TameCharacter:
    """A character of E^x trivial on the 1-units.

    Determined by a rational angle on the canonical uniformizer and an
    exponent e against the canonical generator of the residue group F_q^x;
    values are exact angles in Q/Z.  The unit angle e*m/(q - 1) mod 1 of a
    residue with logarithm m depends only on m modulo r = (q - 1)/gcd(e,
    q - 1), so a value costs a logarithm in the subgroup of order r: about
    2*sqrt(p + 1) multiplications for e divisible by p - 1 over an
    unramified E.  The restriction to F^x is read off the angle and e alone,
    with no value taken.  Characters are equal when E, the angle and the
    exponent are.
    """

    def __init__(self, E, angle_pi, unit_exponent):
        self.E = E              # UnitaryBaseData
        self.angle_pi = Fraction(angle_pi) % 1
        self.unit_exponent = unit_exponent

    def __eq__(self, other):
        if not isinstance(other, TameCharacter):
            return NotImplemented
        return ((self.E, self.angle_pi, self.unit_exponent)
                == (other.E, other.angle_pi, other.unit_exponent))

    def angle(self, x):
        """The exact angle of the character value at x in E^x: v*angle_pi +
        e*m/(q - 1) mod 1 at valuation v, where m is the logarithm of the
        residue, taken modulo r."""
        if isinstance(x, (int, Fraction, FieldElement)):
            x = self.E.E.element(x)
        v, u = self.E.tame_coordinates(x)
        rf = self.E.residue_field()
        n = rf.q - 1
        m = rf.dlog(u, n // math.gcd(self.unit_exponent, n), self.E.residue_generator)
        return (v * self.angle_pi + self.unit_exponent * Fraction(m, n)) % 1

    def restricts_to_sgn_power(self, k):
        """Exact check of the restriction to F^x against sgn_{E/F}^k, in
        closed form on p, v = v_p(delta_E), e and a = angle_pi, with eps = k
        mod 2.  Over an unramified E (v even) the character restricts iff e
        = 0 mod p - 1 and a = eps/2; over a ramified one (v odd) iff e =
        eps*(p - 1)/2 mod p - 1 and 2a = eps*[p = 3 mod 4]/2 mod 1.

        F^x modulo its 1-units is generated by p and by g, a generator of
        F_p^x.  The residue of g generates F_p^x, the subgroup of index (q -
        1)/(p - 1) of F_q^x, so the angle at g is e*j/(p - 1) with j prime
        to p - 1, and sgn(g) = (-1)^v.  Over an unramified E, p is the
        uniformizer, with unit part 1, and sgn(p) = -1.  Over a ramified
        one, p = uniformizer^2 / u with uniformizer^2 = p*u, so sgn(p) =
        (-u/p), and the angle at p is 2a plus e/(p - 1) times the logarithm
        of 1/u: eps/2 times [u is a non-square], a Legendre symbol that
        differs from (-u/p) by (-1/p)."""
        p, eps = self.E.base.p, k % 2
        if not self.E.ramified:
            return self.unit_exponent % (p - 1) == 0 and self.angle_pi == Fraction(eps, 2)
        return (self.unit_exponent % (p - 1) == eps * (p - 1) // 2
                and (2 * self.angle_pi - Fraction(eps * (p % 4 == 3), 2)) % 1 == 0)


class EndoscopicDatum:
    """The determining invariants of an elliptic endoscopic datum.

    chi is a quadratic character of F^x encoded by a square class a, acting
    through the Hilbert symbol x -> (x, a).  cocycle_class records the
    inner-torsor choice, and only drives the sign behavior of the swapped
    factor.
    """

    def __init__(self, d_minus, d_plus, delta_minus=None, delta_plus=None, chi=None,
                 mu_minus=None, mu_plus=None, cocycle_class="trivial"):
        self.d_minus = d_minus
        self.d_plus = d_plus
        self.delta_minus = delta_minus      # FieldElement
        self.delta_plus = delta_plus        # FieldElement
        self.chi = chi                      # FieldElement
        self.mu_minus = mu_minus            # TameCharacter
        self.mu_plus = mu_plus              # TameCharacter
        self.cocycle_class = cocycle_class


class IndexEntry:
    """One index: the tower F_pm sits inside the algebra; ``value`` is y_i
    on the endoscopic side and x_i on the group side; ``c`` is the optional
    form coefficient."""

    def __init__(self, name, side, algebra, value, c=None):
        self.name = name
        self.side = side
        self.algebra = algebra
        self.value = value      # EtaleElement
        self.c = c              # EtaleElement


class RegularParam:
    """A class-parameter pack: indexed data plus the optional x_D line."""

    def __init__(self, entries, x_D=None):
        self.entries = tuple(entries)
        self.x_D = x_D          # FieldElement

    def entry(self, name):
        for en in self.entries:
            if en.name == name:
                return en
        raise IndexMismatch(f"no index named {name!r}")

    def field_indices(self, side=None):
        return [en for en in self.entries
                if en.algebra.is_field and (side is None or en.side == side)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_group(g):
    """Check the structural invariants of a group descriptor."""
    rep = ValidationReport("group")
    try:
        info = case_info(g.case)
    except UnsupportedCase as exc:
        rep.add("case-unknown", str(exc))
        return rep
    if g.d < 1:
        rep.add("dim-positive", f"d = {g.d} must be >= 1")
        return rep
    if info["ground"] == "F" and g.d % 2 != info["line"]:
        want = ("even", "odd")[info["line"]]
        rep.add("dim-parity", f"case {g.case} needs d {want}, got d = {g.d}")
    if g.case == "so_even":
        if g.delta is None:
            rep.add("disc-missing", "even special orthogonal case needs delta")
        elif g.d == 2 and is_square(g.delta):
            rep.add("disc-excluded", "the case (d, delta) = (2, 1) is excluded")
    elif g.delta is not None:
        rep.add("disc-extraneous", "delta is only meaningful for so_even")
    if info["ground"] == "E":
        if g.E is None:
            rep.add("ext-missing", "unitary cases need the quadratic extension E")
    elif g.E is not None:
        rep.add("ext-extraneous", "E is only meaningful for unitary cases")
    _validate_nu(g, info, rep)
    _validate_eta(g, info, rep)
    return rep


def _validate_nu(g, info, rep):
    if not info["twisted"]:
        if g.nu is not None:
            rep.add("nu-extraneous", "nu is only meaningful for twisted cases")
    elif info["ground"] == "F":
        if not isinstance(g.nu, FieldElement) or not g.nu:
            rep.add("nu-missing", "twisted linear cases need nu in F^x")
    elif not isinstance(g.nu, EtaleElement) or not g.nu:
        rep.add("nu-missing", "base-change case needs nu in E^x")


def _validate_eta(g, info, rep):
    if g.eta is None:
        rep.add("eta-missing", "eta is a required input")
        return
    if info["ground"] == "E":
        if not isinstance(g.eta, EtaleElement) or not g.eta:
            rep.add("eta-type", "eta must be a nonzero element of E")
            return
        if not info["twisted"]:
            if g.d % 2 == 1 and g.eta.b:
                rep.add("eta-parity", "odd d needs eta in F^x")
            if g.d % 2 == 0 and g.eta.a:
                rep.add("eta-parity", "even d needs tau(eta) = -eta")
    else:
        if not isinstance(g.eta, FieldElement) or not g.eta:
            rep.add("eta-type", "eta must be a nonzero element of F")
        elif (g.case == "twisted_gl_odd" and isinstance(g.nu, FieldElement) and g.nu
              and not is_square(-(g.eta * g.nu))):
            rep.add("eta-pinning", "odd twisted case needs eta in the square class of -nu")


def validate_endoscopic(g, e):
    """Check an endoscopic datum against its group."""
    rep = ValidationReport("endoscopic")
    info = g.info
    fm, fp = info["factors"]
    want = g.d - info["line"] + info["factors"].count("so_odd")
    if e.d_minus < 0 or e.d_plus < 0:
        rep.add("dim-negative", "factor dimensions must be >= 0")
        return rep
    if e.d_minus + e.d_plus != want:
        rep.add("dim-sum",
                f"d_minus + d_plus = {e.d_minus + e.d_plus}, expected {want}")
    for tag, fac, dim, disc in (
        ("minus", fm, e.d_minus, e.delta_minus),
        ("plus", fp, e.d_plus, e.delta_plus),
    ):
        if fac in ("so_even", "symplectic") and dim % 2:
            rep.add(f"dim-parity-{tag}", f"{fac} factor needs even dimension")
        if fac == "so_odd" and dim % 2 == 0:
            rep.add(f"dim-parity-{tag}", f"{fac} factor needs odd dimension")
        if fac == "so_even":
            if disc is None and dim > 0:
                rep.add(f"disc-missing-{tag}", f"{fac} factor needs a discriminant")
            elif disc is not None and dim == 2 and is_square(disc):
                rep.add(f"elliptic-{tag}",
                        "excluded: orthogonal factor with (dim, disc) = (2, 1)")
        elif disc is not None:
            rep.add(f"disc-extraneous-{tag}", f"{fac} factor carries no discriminant")
    if g.case == "so_even" and g.delta is not None:
        # a dimension-0 factor has discriminant 1 by convention
        dm = e.delta_minus if e.delta_minus is not None else (
            g.F.element(1) if e.d_minus == 0 else None)
        dp = e.delta_plus if e.delta_plus is not None else (
            g.F.element(1) if e.d_plus == 0 else None)
        if dm is not None and dp is not None and not is_square(dm * dp * g.delta):
            rep.add("disc-product",
                    "discriminants must satisfy delta_minus * delta_plus = delta")
    if g.case == "twisted_gl_odd":
        if not isinstance(e.chi, FieldElement) or not e.chi:
            rep.add("chi-missing", "odd twisted case needs chi as a square class")
    elif e.chi is not None:
        rep.add("chi-extraneous", "chi is only meaningful for the odd twisted case")
    if info["ground"] == "E":
        for tag, mu, k in (("minus", e.mu_minus, e.d_plus + info["twisted"]),
                           ("plus", e.mu_plus, e.d_minus)):
            if mu is None:
                rep.add(f"char-missing-{tag}", "unitary cases need both characters")
            elif mu.E is not g.E and mu.E != g.E:
                rep.add(f"char-ext-{tag}", "character lives on a different E")
            elif not mu.restricts_to_sgn_power(k):
                rep.add(f"char-restriction-{tag}",
                        f"restriction to F^x must equal the norm character to the power {k}")
    elif e.mu_minus is not None or e.mu_plus is not None:
        rep.add("char-extraneous", "characters are only meaningful for unitary cases")
    if e.cocycle_class not in ("trivial", "nontrivial"):
        rep.add("cocycle-flag", "cocycle_class must be 'trivial' or 'nontrivial'")
    return rep


def validate_param(param, g, role):
    """Check a parameter pack (role 'endoscopic' for y, 'group' for x)."""
    rep = ValidationReport(f"param-{role}")
    info = g.info
    if role not in ("endoscopic", "group"):
        raise ValueError("role must be 'endoscopic' or 'group'")
    names = set()
    dim = 0
    for en in param.entries:
        where = f"index {en.name!r}"
        if en.name in names:
            rep.add("index-duplicate", f"{where} appears twice")
        names.add(en.name)
        if en.side not in ("-", "+"):
            rep.add("side-invalid", f"{where}: side must be '-' or '+'")
        alg = en.algebra
        if alg.base_pm.base != g.base:
            rep.add("base-mismatch", f"{where}: tower over a different base field")
            continue
        if info["ground"] == "E":
            if g.E is None or alg.unitary_base is None or alg.unitary_base != g.E:
                rep.add("ext-mismatch",
                        f"{where}: algebra is not the tensor with the group's E")
                continue
            dim += alg.base_pm.n
        else:
            if alg.unitary_base is not None:
                rep.add("ext-extraneous", f"{where}: tensor algebra outside unitary case")
            dim += 2 * alg.base_pm.n
        norm = en.value.norm()
        if not norm:
            rep.add("value-unit", f"{where}: value must be invertible")
            continue
        needs_norm_one = role == "endoscopic" or not info["twisted"]
        if needs_norm_one and norm != alg.base_pm.one():
            rep.add("value-norm-one", f"{where}: value must have norm 1")
        _validate_c(en, g, role, rep, where)
    if role == "group" and g.case == "twisted_gl_odd":
        if param.x_D is None or not param.x_D:
            rep.add("xD-missing", "odd twisted case needs x_D in F^x")
        elif not param.x_D.tower.is_trivial:
            rep.add("xD-field", "x_D must lie in the base field")
    elif param.x_D is not None:
        rep.add("xD-extraneous", "x_D only belongs to the odd twisted group side")
    want = g.d - info["line"]
    if dim != want:
        rep.add("dim-bookkeeping",
                f"index degrees sum to {dim}, expected {want} for d = {g.d}")
    return rep


def _validate_c(en, g, role, rep, where):
    info = g.info
    if role == "group":
        if info["twisted"]:
            if en.c is not None:
                rep.add("c-extraneous", f"{where}: twisted group side carries no c")
            return
        if en.c is None:
            rep.add("c-missing", f"{where}: form coefficient c is required")
            return
        sign = info["c_sign"]
    else:
        if en.c is None:
            return
        fac = info["factors"][0 if en.side == "-" else 1]
        sign = -1 if fac == "symplectic" else 1
    if not en.c.is_unit():
        rep.add("c-unit", f"{where}: c must be invertible")
        return
    want = en.c if sign == 1 else -en.c
    if en.c.tau() != want:
        kind = "tau-fixed" if sign == 1 else "tau-antifixed"
        rep.add("c-sign", f"{where}: c must be {kind}")


def side_dimensions(param, g):
    """(d_minus, d_plus) implied by the pack, per the factor types."""
    info = g.info
    dims = {"-": 0, "+": 0}
    for en in param.entries:
        n = en.algebra.base_pm.n
        dims[en.side] += n if info["ground"] == "E" else 2 * n
    out = []
    for s, fac in zip("-+", info["factors"]):
        out.append(dims[s] + (1 if fac == "so_odd" else 0))
    return tuple(out)


# ---------------------------------------------------------------------------
# regularity, matching, stable classes
# ---------------------------------------------------------------------------

def _twist(g, algebra):
    """nu/tau(nu) * (-1)^(d+1) in an index algebra of a twisted case: the
    matching relation reads x_i/tau(x_i) = y_i * _twist(g, F_i)."""
    nu = algebra.one() * g.nu
    return nu / nu.tau() * (-1) ** (g.d + 1)


def _norm_one_values(param, g, role):
    """The eigenvalue data y_i (deriving them through the matching relation
    for a twisted group side)."""
    if role == "group" and g.info["twisted"]:
        return [en.value / en.value.tau() / _twist(g, en.algebra) for en in param.entries]
    return [en.value for en in param.entries]


def ground_scalar(g):
    """The case's ground ring for characteristic polynomials, as the map
    from base-field scalars into it: Fraction, or E's ``element`` in the
    unitary cases."""
    return g.E.E.element if g.info["ground"] == "E" else Fraction


def charpoly_product(polys, g):
    """Product of the polynomials ``polys`` over the case ground: the base
    field, or E in the unitary cases.  Over the base field the integer
    numerators of each over their lcm are multiplied, and the Fractions are
    made once, over the product of the lcms."""
    if g.info["ground"] == "E":
        poly = [g.E.E.one()]
        for q in polys:
            poly = _poly.pmul(poly, q)
        return poly
    num, den = [1], 1
    for q in polys:
        d = math.lcm(*(c.denominator for c in q))
        q = [c.numerator * (d // c.denominator) for c in q]
        # a product by 1 is q itself
        num, den = _poly.trim(q) if num == [1] else _poly.pmul(num, q), den * d
    return [Fraction(c, den) for c in num]


def charpoly_at(polys, t, scalar):
    """The product of the polys at t = 0, 1 or -1, in the ground ring of
    ``scalar`` (``ground_scalar``); 1 for no polys."""
    zero = scalar(0)
    return math.prod((_poly.peval_scalar(q, t, zero) for q in polys), start=scalar(1))


def index_values(values, polys, i, cache):
    """Row i: P_j(y_i) for j != i, and P_i'(y_i) at j = i, in the algebra of
    y_i = values[i], where P_j = polys[j]; all on one set of powers of y_i
    (``_poly.peval_many``), and kept in ``cache`` by i, so each row is
    evaluated once.  By Cayley-Hamilton P_i(y_i) = 0, so the row holds the
    factors of P'(y_i) = P_i'(y_i) * prod_(j != i) P_j(y_i)."""
    if i not in cache:
        y = values[i]
        cache[i] = _poly.peval_many([_poly.pderiv(q) if j == i else q for j, q in enumerate(polys)],
                                    y, y.algebra.zero())
    return cache[i]


def is_regular(values, polys, ends, cache):
    """The conservative sufficient condition on P = prod P_j, the product of
    the characteristic polynomials P_j of the y_i over the case ground: P is
    squarefree, and the formulary's denominators P(1) and P(-1), given as
    ``ends``, are nonzero.  Where a case has an eigenvalue-1 line, P(1) != 0
    is what keeps P * (T - 1) squarefree.

    Squarefreeness is read off the rows of ``index_values``.  The algebra
    of y_i is etale of the degree of P_i over the ground, so the roots of
    P_i are the images of y_i, and P'(y_i) is a unit iff P' vanishes at no
    root of P_i.  Every root of P is a root of some P_i, so P is squarefree
    iff every P'(y_i) is a unit, that is iff every factor P_i'(y_i) and
    P_j(y_i), j != i, is one."""
    return all(ends) and all(v.is_unit() for i in range(len(values))
                             for v in index_values(values, polys, i, cache))


def check_regularity(param, g, role="endoscopic"):
    """Regularity of a parameter pack: is_regular on the characteristic
    polynomials of its eigenvalue data."""
    values = _norm_one_values(param, g, role)
    polys = [charpoly_over(v, g.info["ground"]) for v in values]
    ends = [charpoly_at(polys, t, ground_scalar(g)) for t in (1, -1)]
    return is_regular(values, polys, ends, {})


def _structure_key(en):
    return (en.side, en.algebra._fingerprint)


def match_stable_classes(y, x, g, e=None):
    """Exact test of the stable-conjugacy correspondence between the
    endoscopic parameters y and the group-side parameters x."""
    if len(y.entries) != len(x.entries):
        raise IndexMismatch("different numbers of indices")
    info = g.info
    for ye, xe in zip(y.entries, x.entries):
        if ye.name != xe.name or _structure_key(ye) != _structure_key(xe):
            raise IndexMismatch(f"index {ye.name!r} differs between the packs")
        if not info["twisted"]:
            if xe.value != ye.value:
                return False
            continue
        if xe.value / xe.value.tau() != ye.value * _twist(g, xe.algebra):
            return False
    return True


def stable_class_of(param, g, role="endoscopic"):
    """Canonical key of the stable class: forgets the c_i; in the twisted
    cases reduces x_i modulo F_pm^x (keyed by x_i / tau(x_i)) and drops
    x_D."""
    info = g.info
    twisted_group = role == "group" and info["twisted"]
    items = []
    for en in param.entries:
        if twisted_group:
            r = en.value / en.value.tau()
        else:
            r = en.value
        vkey = (r.a.num, r.a.den, r.b.num, r.b.den)
        items.append((en.side, en.algebra._fingerprint, vkey))
    return (g.case, tuple(sorted(items)))
