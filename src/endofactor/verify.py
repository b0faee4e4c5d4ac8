"""Independent identity chain for the odd twisted linear group.

This lane re-derives the factor's ingredients on the Lie-algebra side
(Cayley transforms X_i, characteristic polynomials Q of X) and checks the
exact identities that reconcile the two descriptions against one run of
the factor engine, whose trace supplies P(1), P(-1), the per-index P_j,
each C_i's norm verdict and the total: the polynomial identities linking
P-values at y with Q-values at X, the norm-triviality of the cross-index
quantities A_{i,j}, the square class of the distinguished-line coefficient
c_D, and the consistency of the per-index B_i, derived here, with the
engine's C_i.  Only norm-class (convention-free) consequences are checked;
the auxiliary characters themselves are never evaluated.

The auxiliary coefficients are generated here, not accepted from users:
any tau-fixed c_i works for the identities (default 1), and c_D comes from
determinant bookkeeping of the index trace forms.
"""

import math
from fractions import Fraction

from . import _poly, factor, forms
from .errors import (
    ArithmeticFailure,
    EndofactorError,
    NotInFixedField,
    PoleAtMinusOne,
    PoleAtOne,
    UnsupportedCase,
)
from .etale import charpoly_over, norm_to_ground
from .localfield import is_square, norm_test
from .params import charpoly_product


def cayley(y):
    """X = (y - 1)(1 + y)^(-1); tau(X) = -X when y has norm 1."""
    one = y.algebra.one()
    den = one + y
    if not den.is_unit():
        raise PoleAtMinusOne("1 + y is not invertible")
    return (y - one) * den.inverse()


def cayley_inv(x):
    """y = (1 + X)(1 - X)^(-1); norm(y) = 1 when tau(X) = -X."""
    one = x.algebra.one()
    den = one - x
    if not den.is_unit():
        raise PoleAtOne("1 - X is not invertible")
    return (one + x) * den.inverse()


class LieParam:
    """The Lie-side data for an odd twisted instance.

    X maps index names to Cayley transforms, Q_j / P_j to the per-index
    characteristic polynomials of X_j / y_j over the base field; Q_X is
    the characteristic polynomial of X on the whole space (a zero
    eigenvalue for the distinguished line, then the index blocks).  P_y is
    (T - 1) * P, P the product of the P_j, on the whole space, and dP_y its
    derivative.  ``run`` is the factor engine's trace of y: P_j holds its
    pack's polys by name, and its C_i verdicts and total are what the
    cross-checks compare against.
    """

    def __init__(self, y, x, g, eta, c, c_D, X, P_j, Q_j, Q_X, dQ_X, P_y, dP_y, run):
        self.y = y
        self.x = x
        self.g = g
        self.eta = eta          # base-field element, -nu
        self.c = c              # name -> tau-fixed auxiliary in F_pm^x
        self.c_D = c_D          # base-field element from determinant bookkeeping
        self.X = X
        self.P_j = P_j
        self.Q_j = Q_j
        self.Q_X = Q_X
        self.dQ_X = dQ_X
        self.P_y = P_y
        self.dP_y = dP_y
        self.run = run          # factor.FactorTrace


def eta_from_nu(nu):
    """The pinning invariant of the odd twisted form: -nu."""
    return -nu


def make_lie_param(y, x, g, run, c=None):
    """Assemble the Lie-side data for a validated odd twisted instance.

    ``run`` is the factor engine's trace of y (from compute_delta); P_j is
    read from its pack's ``polys``, and only X, Q_j, Q_X, c_D and P_y,
    (T - 1) times the product of the P_j, are computed here, each once.
    ``c`` optionally maps index names to tau-fixed auxiliaries in F_pm^x
    (default: 1 everywhere).  c_D is derived as -nu times the product of
    the index trace-form determinants, so the square-class check against
    eta * P(1) * P(-1) runs on two independent code paths.
    """
    if g.case != "twisted_gl_odd":
        raise UnsupportedCase("the identity chain is for the odd twisted case")
    F = g.F
    eta = F.element(eta_from_nu(g.nu))
    cvals = {}
    X = {}
    Q_j = {}
    det_prod = Fraction(1)
    for en in y.entries:
        tower = en.algebra.base_pm
        cv = tower.element(1) if c is None or en.name not in c else tower.element(c[en.name])
        cvals[en.name] = cv
        xi = cayley(en.value)
        if xi.tau() != -xi:
            raise NotInFixedField(f"index {en.name!r}: the Cayley transform of y "
                                  "is not tau-odd (y is not of norm 1)")
        X[en.name] = xi
        Q_j[en.name] = charpoly_over(xi, "F")
        # L * gram is an integer matrix of the even size 2*[F_pm:F], so
        # det(gram) = c_0 / L^size with c_0 the constant term of its charpoly
        gram = forms.gram_block(en.algebra, en.algebra.element(cv))
        L = math.lcm(*(c.denominator for row in gram for c in row))
        scaled = [[c.numerator * (L // c.denominator) for c in row] for row in gram]
        det_prod *= Fraction(_poly.charpoly(scaled, 1)[0], L ** len(gram))
    Q_X = _poly.pmul([Fraction(0), Fraction(1)], charpoly_product(Q_j.values(), g))
    c_D = F.element(-g.nu * det_prod)
    P_y = _poly.pmul(charpoly_product(run.pack.polys, g), [Fraction(-1), Fraction(1)])
    return LieParam(y=y, x=x, g=g, eta=eta, c=cvals, c_D=c_D, X=X,
                    P_j=dict(zip(run.pack.names, run.pack.polys)), Q_j=Q_j, Q_X=Q_X,
                    dQ_X=_poly.pderiv(Q_X), P_y=P_y, dP_y=_poly.pderiv(P_y), run=run)


def _field_names(data, side):
    return [en.name for en in data.y.field_indices(side)]


def delta_I_lie(data, eta=None):
    """Product over minus-side field indices of the norm character at
    eta * c_i * Q_X'(X_i); insensitive to X -> lambda^2 X."""
    eta = data.eta if eta is None else eta
    total = factor.UnitCircleValue.one()
    for name in _field_names(data, "-"):
        en = data.y.entry(name)
        qx = _poly.peval(data.dQ_X, data.X[name], en.algebra.zero())
        arg = qx.as_base() * data.c[name] * eta
        total = total * factor.UnitCircleValue.from_sign(norm_test(arg, en.algebra))
    return total


def li_identity_1(data, i, j):
    """P_j(y_i) = (1 - X_i)^(-deg) * P_j(-1) * Q_j(X_i), exactly in F_i."""
    en = data.y.entry(i)
    alg = en.algebra
    yv = en.value
    xi = data.X[i]
    pj = data.P_j[j]
    qj = data.Q_j[j]
    nj = _poly.degree(pj)
    lhs = _poly.peval(pj, yv, alg.zero())
    pj_m1 = _poly.peval_scalar(pj, -1, Fraction(0))
    rhs = (alg.one() - xi) ** (-nj) * pj_m1 * _poly.peval(qj, xi, alg.zero())
    return lhs == rhs


def li_identity_2(data, i):
    """2 (1 - X_i)^(d-2) P_y'(y_i) = -P_y(-1) * Q_X'(X_i) with
    P_y = (T - 1) * P, exactly in F_i."""
    en = data.y.entry(i)
    alg = en.algebra
    yv = en.value
    xi = data.X[i]
    d = data.g.d
    lhs = 2 * (alg.one() - xi) ** (d - 2) * _poly.peval(data.dP_y, yv, alg.zero())
    p_y_m1 = _poly.peval_scalar(data.P_y, -1, Fraction(0))
    rhs = -1 * p_y_m1 * _poly.peval(data.dQ_X, xi, alg.zero())
    return lhs == rhs


def check_Aij_is_norm(data, i, j):
    """A_{i,j} is tau-fixed and a norm from F_i."""
    en_i = data.y.entry(i)
    en_j = data.y.entry(j)
    alg = en_i.algebra
    x_i = data.x.entry(i).value
    x_j = data.x.entry(j).value
    nj = _poly.degree(data.P_j[j])
    c_i = alg.element(data.c[i])
    c_j = en_j.algebra.element(data.c[j])
    lead = (c_i ** (-1) * x_i.tau()) ** nj
    nrm = norm_to_ground(c_j * x_j.tau().inverse())
    p_at = _poly.peval(data.P_j[j], en_i.value, alg.zero())
    q_at = _poly.peval(data.Q_j[j], data.X[i], alg.zero())
    a_ij = lead * nrm * p_at * q_at.inverse()
    base = a_ij.as_base()   # NotInFixedField when the assertion fails
    return norm_test(base, alg) == 1


def check_cD_square_class(data):
    """c_D and eta * P(1) * P(-1) agree modulo squares; the two sides come
    from determinant bookkeeping and charpoly evaluation respectively."""
    p1 = data.run.pack.P_at[1]
    pm1 = data.run.pack.P_at[-1]
    probe = data.c_D * data.eta * p1 * pm1
    return is_square(probe)


def _b_base(data, i):
    """B_i = (1/2) * eta * Q_X'(X_i) * (y_i + 1) * tau(x_i), in F_pm."""
    en = data.y.entry(i)
    qx = _poly.peval(data.dQ_X, data.X[i], en.algebra.zero())
    b_i = Fraction(1, 2) * data.eta * qx * (en.value + 1) * data.x.entry(i).value.tau()
    return b_i.as_base()   # NotInFixedField when the assertion fails


def check_Bi_Ci_consistency(data, i):
    """sgn(C_i) = sgn(B_i) * sgn(c_D * x_D) with
    B_i = (1/2) * eta * Q_X'(X_i) * (y_i + 1) * tau(x_i), and sgn(C_i) the
    engine's verdict, read from its run (False when the run has none).

    The correction class c_D * x_D is evaluated through the defining class
    eta * P(1) * P(-1) * x_D, so the identity holds for every Cayley-linked
    instance regardless of how the bookkeeping c_D was produced."""
    alg = data.y.entry(i).algebra
    b_base = _b_base(data, i)
    verdicts = [verdict for name, _, verdict in data.run.indices if name == i]
    p1 = data.run.pack.P_at[1]
    pm1 = data.run.pack.P_at[-1]
    correction = alg.base_pm.element(data.eta * p1 * pm1 * data.x.x_D)
    rhs = norm_test(b_base, alg) * norm_test(correction, alg)
    return verdicts == [rhs]


def reconstruct_delta(data, chi):
    """Reassemble the factor from the Lie-side pieces: the product of the
    B_i norm characters, the per-index distinguished-line characters at
    c_D * x_D, and the chi prefactor.  Must equal the run's total exactly."""
    total = factor.UnitCircleValue.one()
    for name in _field_names(data, "-"):
        alg = data.y.entry(name).algebra
        total = total * factor.UnitCircleValue.from_sign(norm_test(_b_base(data, name), alg))
        correction = alg.base_pm.element(data.c_D * data.x.x_D)
        total = total * factor.UnitCircleValue.from_sign(norm_test(correction, alg))
    p1 = data.run.pack.P_at[1]
    pm_m1 = data.run.pack.side_at["-", -1]
    arg = data.eta * data.x.x_D * p1 * pm_m1
    return total * factor.eval_character(chi, arg)


def run_suite(y, x, g, e):
    """The cmd-check battery: (name, ok) pairs, full for the odd twisted
    case and reduced (Cayley round trips only) otherwise.

    The full suite runs compute_delta once, first; the Lie side reads its
    trace: the validated pack, each C_i's verdict and the total.  When the
    engine refuses the instance, the trace holds the unvalidated pack and
    no records, so B-C-consistency and the reconstruction fail.  The
    reduced suite runs no validation, so the check command validates every
    document before it prints anything, and an odd twisted one twice."""
    results = []
    for en in y.entries:
        try:
            ok = cayley_inv(cayley(en.value)) == en.value
        except (PoleAtMinusOne, PoleAtOne):
            ok = False
        results.append((f"cayley-roundtrip[{en.name}]", ok))
    if g.case != "twisted_gl_odd":
        results.append(("notice: reduced suite (identities are for the odd twisted case)", True))
        return results
    try:
        _, run = factor.compute_delta(y, x, g, e)
    except EndofactorError:
        run = None
    try:
        if run is None:
            run = factor.FactorTrace(g.case, pack=factor.build_charpoly_pack(y, g))
        data = make_lie_param(y, x, g, run)
    except EndofactorError:
        results.append(("lie-data", False))
        return results
    minus = _field_names(data, "-")
    plus = _field_names(data, "+")
    for i in minus:
        for j in plus:
            results.append((f"li-identity-1[{i},{j}]", li_identity_1(data, i, j)))
            try:
                results.append((f"A-is-norm[{i},{j}]", check_Aij_is_norm(data, i, j)))
            except ArithmeticFailure:
                results.append((f"A-is-norm[{i},{j}]", False))
        results.append((f"li-identity-2[{i}]", li_identity_2(data, i)))
        try:
            results.append((f"B-C-consistency[{i}]", check_Bi_Ci_consistency(data, i)))
        except EndofactorError:
            results.append((f"B-C-consistency[{i}]", False))
    results.append(("cD-square-class", check_cD_square_class(data)))
    try:
        recon_ok = run.total is not None and reconstruct_delta(data, e.chi) == run.total
    except EndofactorError:
        recon_ok = False
    results.append(("lie-side-reconstruction", recon_ok))
    return results
