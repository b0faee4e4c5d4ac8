"""The transfer-factor engine.

Builds the characteristic polynomials attached to the endoscopic
parameters, evaluates the per-index quantities C_i for field indices on
the minus side, runs the norm character on each, applies the case's
character prefactors, and multiplies everything into an exact value on the
unit circle.  The trace keeps every intermediate as a value, and prints
them so a run can be audited line by line.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DivisionByZero,
    MatchFailure,
    UnsupportedCase,
    ValidationFailure,
    ZeroValuation,
)
from .etale import charpoly_over
from .localfield import FieldElement, hilbert_symbol, norm_test
from .params import (
    CASES,
    EndoscopicDatum,
    IndexEntry,
    RegularParam,
    TameCharacter,
    charpoly_at,
    ground_scalar,
    index_values,
    is_regular,
    match_stable_classes,
    side_dimensions,
    validate_endoscopic,
    validate_group,
    validate_param,
)


class UnitCircleValue:
    """An exact point e^(2*pi*i*angle) with a rational angle mod 1.

    Read-only, and equal and hashed by its angle."""

    def __init__(self, angle):
        vars(self)["angle"] = Fraction(angle) % 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, UnitCircleValue):
            return NotImplemented
        return self.angle == other.angle

    def __hash__(self):
        return hash(self.angle)

    @classmethod
    def one(cls):
        return cls(Fraction(0))

    @classmethod
    def from_sign(cls, s):
        if s == 1:
            return cls(Fraction(0))
        if s == -1:
            return cls(Fraction(1, 2))
        raise ValueError(f"not a sign: {s!r}")

    def __mul__(self, other):
        return UnitCircleValue(self.angle + other.angle)

    def inverse(self):
        return UnitCircleValue(-self.angle)

    def negate(self):
        return UnitCircleValue(self.angle + Fraction(1, 2))

    @property
    def sign(self):
        """+1 or -1 when the value is real, else None."""
        if self.angle == 0:
            return 1
        if self.angle == Fraction(1, 2):
            return -1
        return None

    def render(self):
        if self.angle == 0:
            return "+1"
        if self.angle == Fraction(1, 2):
            return "-1"
        return f"exp(2*pi*i*{self.angle})"

    def __repr__(self):
        return self.render()


class CharPolyPack:
    """The per-index characteristic polynomials P_j of y over the case's
    ground, by entry, and the values of P = prod P_j that the formulary
    reads, each evaluated once.

    Coefficients are Fractions for ground "F" and elements of E for ground
    "E", constant term first; ``scalar`` maps a base-field scalar into the
    ground ring (``params.ground_scalar``).  ``side_at`` holds P_-(t) and
    P_+(t), the products over each side, at t = 1 and -1, and over E also
    at 0, for the unitary prefactors; ``P_at`` holds P(1) and P(-1):
    regularity, the formulary's poles and the prefactors all read them
    there.  ``names``, ``ys`` and ``polys`` hold the names, the y_i and
    the P_j by entry, and ``cache`` the rows of values P_j(y_i) and
    P_i'(y_i) by entry position i (``params.index_values``): regularity
    reads them all, and ``derivative_at`` multiplies a row into P'(y_i).
    """

    def __init__(self, ground, scalar, entries, polys):
        self.ground = ground
        self.names = [en.name for en in entries]
        self.ys = [en.value for en in entries]
        self.polys = list(polys)
        self.side_at = {(side, t): charpoly_at([q for en, q in zip(entries, self.polys)
                                                if en.side == side], t, scalar)
                        for side in "-+" for t in ((0, 1, -1) if ground == "E" else (1, -1))}
        self.P_at = {t: self.side_at["-", t] * self.side_at["+", t] for t in (1, -1)}
        self.cache = {}

    def derivative_at(self, name):
        """P'(y_i), the product of row i, for the first entry i named
        ``name``."""
        row = index_values(self.ys, self.polys, self.names.index(name), self.cache)
        return math.prod(row[1:], start=row[0])


def build_charpoly_pack(y, g):
    """The pack of y: each per-index characteristic polynomial computed
    once, by entry, so it stays exact for an unvalidated y that repeats a
    name."""
    ground = g.info["ground"]
    return CharPolyPack(ground, ground_scalar(g), y.entries,
                        [charpoly_over(en.value, ground) for en in y.entries])


class Formula(namedtuple("Formula", "label scalar lead coef pole offset y_factor")):
    """One row of the formulary.  For a field index i on the minus side,

        C = scalar * lead * coef * P'(y) * P(point)^power
            * y^((offset - d)/2) * (1+y)^plus * (y-1)^minus

    evaluated in F_i at y = y_i.  ``lead`` is eta (an element of E in the
    unitary cases, where P is P_E) or x_D; ``coef`` is the form coefficient
    c or 1/x; ``pole`` is (point, power) and ``y_factor`` is (plus, minus).
    """

    __slots__ = ()


FORMULAS = {
    ("symplectic", 0): Formula("C = -eta*c*P'(y)*P(-1)*y^(1-d/2)",
                               -1, "eta", "c", (-1, 1), 2, (0, 0)),
    ("so_odd", 1): Formula("C = -2*eta*c*P'(y)*P(-1)*y^((3-d)/2)*(1+y)/(y-1)",
                           -2, "eta", "c", (-1, 1), 3, (1, -1)),
    ("so_even", 0): Formula("C = 2*eta*c*P'(y)*P(-1)*y^(1-d/2)*(1+y)/(y-1)",
                            2, "eta", "c", (-1, 1), 2, (1, -1)),
    ("twisted_gl_even", 0): Formula("C = eta*P'(y)*P(-1)*y^(1-d/2)*(1+y)/x",
                                    1, "eta", "1/x", (-1, 1), 2, (1, 0)),
    ("twisted_gl_odd", 1): Formula("C = x_D*P'(y)*P(1)*y^((3-d)/2)*(y-1)/x",
                                   1, "x_D", "1/x", (1, 1), 3, (0, 1)),
    ("unitary", 0): Formula("C = -eta*c*P_E'(y)*y^(1-d/2)/P_E(-1)",
                            -1, "eta", "c", (-1, -1), 2, (0, 0)),
    ("unitary", 1): Formula("C = -eta*c*P_E'(y)*y^((1-d)/2)*(1+y)/P_E(-1)",
                            -1, "eta", "c", (-1, -1), 1, (1, 0)),
    ("bc_unitary", 0): Formula("C = -eta*P_E'(y)*y^(1-d/2)*(1+y)/(x*P_E(-1))",
                               -1, "eta", "1/x", (-1, -1), 2, (1, 0)),
    ("bc_unitary", 1): Formula("C = -eta*P_E'(y)*y^((3-d)/2)/(x*P_E(-1))",
                               -1, "eta", "1/x", (-1, -1), 3, (0, 0)),
}


def formula_for(g):
    """The formulary row of g: keyed by the parity of d over E, and by the
    case's fixed parity (its line) over F."""
    info = g.info
    return FORMULAS[g.case, g.d % 2 if info["ground"] == "E" else info["line"]]


def compute_C(name, pack, y, x, g):
    """The per-index quantity C_i, certified to lie in F_pm^x.

    Returns (value in F_i, value as an element of F_pm); raises
    NotInFixedField when the tau-fixedness assertion fails and
    DivisionByZero when a denominator that regularity should protect
    vanishes.
    """
    ye = y.entry(name)
    xe = x.entry(name)
    if not ye.algebra.is_field:
        raise UnsupportedCase(f"index {name!r} is split; C is only defined for field indices")
    yv = ye.value
    row = formula_for(g)
    if (row.offset - g.d) % 2:
        raise UnsupportedCase("half-integral exponent: case/parity mismatch")
    point, power = row.pole
    plus, minus = row.y_factor
    try:
        lead = x.x_D if row.lead == "x_D" else g.eta
        if pack.ground == "E":
            # eta lies in E, and E * F_i is not defined (both are etale
            # algebras, so Python calls no reflected product): embed it first
            lead = yv.algebra.element(lead)
        # one inversion, of the negative powers' product; P(point) comes last,
        # as over E it lies in E, not in F_i
        c, den = row.scalar * lead * pack.derivative_at(name), None
        for value, k in ((xe.c, 1) if row.coef == "c" else (xe.value, -1),
                         (yv, (row.offset - g.d) // 2), (1 + yv, plus), (yv - 1, minus),
                         (pack.P_at[point], power)):
            if k > 0:
                c = c * value ** k
            elif k < 0:
                den = value ** -k if den is None else den * value ** -k
        if den is not None:
            c = c * den.inverse()
    except ZeroValuation as exc:
        raise DivisionByZero(f"index {name!r}: {exc}") from None
    if not c:
        raise DivisionByZero(f"index {name!r}: C vanished (non-regular input)")
    base_value = c.as_base()   # raises NotInFixedField when the assertion fails
    return c, base_value


class FactorTrace:
    """What compute_delta did, as values: the formula label, one
    (name, C in F_pm, norm verdict) record per minus-side field index, one
    (text, argument, value) record per prefactor, the total, and the
    characteristic-polynomial pack it read.  ``lines()`` prints all but the
    pack, deterministically, ending with ``total_line()``; an engine-refused
    instance has a trace with no records, no total and an unvalidated pack
    (see verify.run_suite)."""

    def __init__(self, case, label=None, indices=None, prefactors=None, total=None, pack=None):
        self.case = case
        self.label = label
        self.indices = [] if indices is None else indices
        self.prefactors = [] if prefactors is None else prefactors
        self.total = total
        self.pack = pack

    def lines(self):
        """The trace as text.  A C or a prefactor argument may have integers
        past the interpreter's limit on the digits of an int-to-str
        conversion.  Only then, the interpreter-wide limit is lifted while
        these exact values print, and restored after: a call on such a trace
        is not thread-safe."""
        try:
            out = self._record_lines()
        except ValueError:
            if not hasattr(sys, "set_int_max_str_digits"):
                raise
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                out = self._record_lines()
            finally:
                sys.set_int_max_str_digits(limit)
        return out + [self.total_line()]

    def _record_lines(self):
        return ([f"case: {self.case}"]
                + [f"index {name}: {self.label}; C = {c!r} in F_pm (checked); "
                   f"norm test: {'+1' if verdict == 1 else '-1'}"
                   for name, c, verdict in self.indices]
                + [f"prefactor {text} at {arg}: {value.render()}"
                   for text, arg, value in self.prefactors])

    def total_line(self):
        return f"delta = {self.total.render()} (angle {self.total.angle})"

    def __repr__(self):
        return "\n".join(self.lines())


def _failure(rep):
    return None if rep.ok else ValidationFailure("; ".join(rep.lines()))


def validation_steps(y, x, g, e):
    """The validation order shared by validate_package and the validate
    command, one step at a time.

    Yields (lines, failure): the report lines of a step, and the exception
    validate_package raises for it, or None when the step passes.  The four
    structural reports come first; the sequence ends after the group report
    when the case is unknown, and after all four if one failed.  Then the
    side dimensions, and regularity, judged on the characteristic-polynomial
    pack of y; the stable classes are matched only when the parameters are
    regular.  Returns the pack.
    """
    group = validate_group(g)
    yield group.lines(), _failure(group)
    if g.case not in CASES:
        return None
    reports = (validate_endoscopic(g, e),
               validate_param(y, g, "endoscopic"), validate_param(x, g, "group"))
    for rep in reports:
        yield rep.lines(), _failure(rep)
    if not (group.ok and all(rep.ok for rep in reports)):
        return None
    dims = side_dimensions(y, g)
    if dims == (e.d_minus, e.d_plus):
        yield ["sides: ok"], None
    else:
        yield ([f"sides: dim-mismatch: parameters give {dims}, "
                f"datum says ({e.d_minus}, {e.d_plus})"],
               ValidationFailure(f"sides have dimensions {dims}, "
                                 f"datum says ({e.d_minus}, {e.d_plus})"))
    pack = build_charpoly_pack(y, g)
    if not is_regular(pack.ys, pack.polys, pack.P_at.values(), pack.cache):
        yield (["regularity: not suitably regular"],
               ValidationFailure("parameters are not suitably regular"))
        return pack
    yield ["regularity: ok"], None
    if match_stable_classes(y, x, g, e):
        yield ["matching: ok"], None
    else:
        yield (["matching: stable classes do not correspond"], MatchFailure(
            "stable classes do not correspond: x_i/tau(x_i) must equal "
            "(-1)^(d+1) * y_i * nu/tau(nu) (x_i = y_i in the untwisted cases)"))
    return pack


def validate_package(y, x, g, e):
    """Run the validation steps in order and raise the first failure;
    return the characteristic-polynomial pack of y."""
    steps = validation_steps(y, x, g, e)
    while True:
        try:
            _, failure = next(steps)
        except StopIteration as done:
            return done.value
        if failure is not None:
            raise failure


def compute_delta(y, x, g, e):
    """The exact transfer factor of a matched pair (the Delta_IV term is
    omitted throughout).  Returns (value, trace)."""
    pack = validate_package(y, x, g, e)
    trace = FactorTrace(case=g.case, label=formula_for(g).label, pack=pack)
    total = UnitCircleValue.one()
    for en in y.entries:
        if en.side != "-" or not en.algebra.is_field:
            continue
        _, c_base = compute_C(en.name, pack, y, x, g)
        verdict = norm_test(c_base, en.algebra)
        total = total * UnitCircleValue.from_sign(verdict)
        trace.indices.append((en.name, c_base, verdict))
    trace.prefactors = _prefactors(pack, x, g, e)
    for _, _, value in trace.prefactors:
        total = total * value
    trace.total = total
    return total, trace


def _prefactors(pack, x, g, e):
    """The case's (text, argument, value) prefactor records."""
    if g.case == "twisted_gl_odd":
        arg = g.eta * x.x_D * pack.P_at[1] * pack.side_at["-", -1]
        return [("chi(eta*x_D*P(1)*P_minus(-1))", arg, eval_character(e.chi, arg))]
    if pack.ground == "E":
        records = []
        for text, side, mu in (("mu_minus(P_minus(0)/P_minus(-1))", "-", e.mu_minus),
                               ("mu_plus(P_plus(0)/P_plus(-1))", "+", e.mu_plus)):
            arg = pack.side_at[side, 0] * pack.side_at[side, -1].inverse()
            records.append((text, arg, eval_character(mu, arg)))
        return records
    return []


def eval_character(chi, arg):
    """Exact character value: a tame character of E^x, or a quadratic
    character of F^x encoded by a square class acting through the Hilbert
    symbol."""
    if isinstance(chi, TameCharacter):
        return UnitCircleValue(chi.angle(arg))
    if isinstance(chi, FieldElement):
        if not arg:
            raise ZeroValuation("character of zero")
        return UnitCircleValue.from_sign(hilbert_symbol(arg, chi))
    raise UnsupportedCase(f"cannot evaluate a character of type {type(chi).__name__}")


def swapped_delta(y, x, g, e):
    """The factor with the roles of the two endoscopic halves exchanged.

    Defined for the swap-symmetric cases (equal halves, untwisted).  Equals
    compute_delta when the inner-torsor cocycle is trivial; the nontrivial
    class negates the value (non-archimedean base)."""
    fm, fp = g.info["factors"]
    if fm != fp or g.info["twisted"]:
        raise UnsupportedCase(f"swap undefined for case {g.case!r}")
    e_swapped = EndoscopicDatum(
        d_minus=e.d_plus,
        d_plus=e.d_minus,
        delta_minus=e.delta_plus,
        delta_plus=e.delta_minus,
        chi=e.chi,
        mu_minus=e.mu_plus,
        mu_plus=e.mu_minus,
        cocycle_class=e.cocycle_class,
    )
    value, _ = compute_delta(_flip_sides(y), _flip_sides(x), g, e_swapped)
    if e.cocycle_class == "nontrivial":
        if g.base.is_real:
            raise UnsupportedCase("nontrivial cocycle swap over R is not defined")
        value = value.negate()
    return value


def _flip_sides(param):
    flipped = [
        IndexEntry(en.name, "+" if en.side == "-" else "-", en.algebra, en.value, en.c)
        for en in param.entries
    ]
    return RegularParam(tuple(flipped), param.x_D)


def special_case_indicator(y, x, g, e):
    """Two-code-path value for the even twisted case with d_minus = d,
    d_plus = 1: +1 iff the symmetrized twisted form is isometric to the
    endoscopic space (whose coefficients must be present on the minus-side
    entries of y).  The caller asserts the pinning convention
    eta = -eta_minus."""
    if g.case != "twisted_gl_even":
        raise UnsupportedCase("indicator defined for the even twisted case")
    if g.base.is_real:
        raise UnsupportedCase("indicator defined for non-archimedean bases")
    if e.d_minus != g.d or e.d_plus != 1:
        raise UnsupportedCase("indicator needs d_minus = d and d_plus = 1")
    if any(en.side != "-" for en in y.entries):
        raise ValidationFailure("d_plus = 1 forces an empty plus side")
    if any(en.c is None for en in y.entries):
        raise ValidationFailure("endoscopic-side form coefficients are required")
    from . import forms
    q_twisted = forms.symmetrize_twisted(x)
    q_minus = forms.trace_form_gram(y, side="-")
    return UnitCircleValue.from_sign(1 if forms.isomorphic(q_twisted, q_minus) else -1)
