"""Random-instance generators shared by the test suite, and the slow
references that fast paths of the package are checked against.

Everything is driven by an explicit random.Random so failures reproduce.
Generated instances are always structurally valid and suitably regular;
generation retries until the regularity gate passes.
"""

from fractions import Fraction
from math import gcd, lcm
import math
import operator
import random

from endofactor import _poly, factor, forms, localfield
from endofactor._poly import degree, gcd_mod, pderiv
from endofactor.errors import DivisionByZero, NonSymmetric, UnsupportedCase, ZeroValuation
from endofactor.etale import (
    UnitaryBaseData,
    charpoly_over,
    quadratic_field,
    split_algebra,
)
from endofactor.factor import formula_for
from endofactor.localfield import (
    MAX_TOWER_DEGREE,
    BaseField,
    ResidueField,
    hilbert_symbol,
    is_square,
    make_extension,
    norm_test,
    trivial_tower,
    valuation,
)
from endofactor.params import (
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
    check_regularity,
    side_dimensions,
    validate_endoscopic,
    validate_group,
    validate_param,
)

UNTWISTED = ("symplectic", "so_odd", "so_even", "unitary")
ALL_CASES = ("symplectic", "so_odd", "so_even", "twisted_gl_even",
             "twisted_gl_odd", "unitary", "bc_unitary")


def rnd_rational(rng, zero_ok=False):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3]))
        if v or zero_ok:
            return v


def random_unit(rng, tower):
    """A random valuation-0 element of the tower."""
    while True:
        rows = [[rnd_rational(rng, zero_ok=True) for _ in range(tower.f)]
                for _ in range(tower.e)]
        x = tower.from_coords(rows)
        if x and valuation(x) == 0:
            return x


def random_nonzero(rng, tower):
    x = random_unit(rng, tower)
    k = rng.choice([-1, 0, 0, 0, 1])
    return x * tower.pi() ** k if k else x


def random_tower(rng, base, shapes=((1, 1), (2, 1), (1, 2))):
    """A tower over Q_p with (f, e) drawn from ``shapes``."""
    f, e = rng.choice(shapes)
    if e == 1:
        return make_extension(base, f, [-base.p, 1])
    unit = rng.choice([1, _nonresidue(base.p)])
    a1 = rng.choice([0, 0, base.p])
    return make_extension(base, f, [-base.p * unit, a1, 1])


def _nonresidue(p):
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    return 1


def square_class_reps(tower):
    """The canonical representatives of F^x / F^x2 for the tower's field F."""
    if tower.base.is_real:
        return [tower.element(1), tower.element(-1)]
    if tower.base.p == 2:
        return [tower.element(k) for k in (1, 3, 5, 7, 2, 6, 10, 14)]
    u = tower.unit_nonsquare()
    pi = tower.pi()
    return [tower.one(), u, pi, u * pi]


def random_field_algebra(rng, tower):
    """A quadratic field extension of the tower."""
    reps = square_class_reps(tower)
    delta = rng.choice(reps[1:])
    sq = random_unit(rng, tower)
    return quadratic_field(tower, delta * sq * sq)


def random_algebra(rng, tower, split_ratio=0.35):
    if rng.random() < split_ratio:
        return split_algebra(tower)
    return random_field_algebra(rng, tower)


def random_etale_unit(rng, algebra):
    while True:
        x = algebra.element(
            _tower_sample(rng, algebra.base_pm),
            _tower_sample(rng, algebra.base_pm),
        )
        if x.is_unit():
            return x


def _tower_sample(rng, tower):
    rows = [[rnd_rational(rng, zero_ok=True) for _ in range(tower.f)]
            for _ in range(tower.e)]
    return tower.from_coords(rows)


def random_norm_one(rng, algebra):
    """y with y * tau(y) = 1, via t / tau(t)."""
    while True:
        t = random_etale_unit(rng, algebra)
        if t.tau().is_unit():
            y = t / t.tau()
            if (y - 1).is_unit() and (y + 1).is_unit():
                return y


def random_tau_fixed_unit(rng, algebra):
    return algebra.element(random_unit(rng, algebra.base_pm))


def random_tau_odd_unit(rng, algebra):
    return algebra.element(0, random_unit(rng, algebra.base_pm))


def random_norm(rng, algebra):
    """A nonzero norm from the algebra, for invariance tests."""
    t = random_etale_unit(rng, algebra)
    return t.norm()


def solve_matching(rng, z, algebra):
    """x with x / tau(x) = z, for norm-one z != -1: x = lambda * (1 + z)."""
    lam = random_unit(rng, algebra.base_pm)
    x = (algebra.one() + z) * lam
    assert x.is_unit()
    return x


# ---------------------------------------------------------------------------
# per-case instance generation
# ---------------------------------------------------------------------------

def prime_field_log(rf, elem, g):
    """``rf.dlog(elem, g=g)`` for elem in F_p^x, the subgroup of order
    p - 1, which h = g^s generates for s = (q - 1)/(p - 1): s times the
    index of elem against h in F_p, about 2*sqrt(p) multiplications."""
    if any(elem[1:]):
        raise ValueError(f"{elem} does not lie in F_{rf.p}")
    s = (rf.q - 1) // (rf.p - 1)
    fp = ResidueField(rf.p, 1, (0, 1))
    return s * fp.dlog(elem[:1], g=rf._pow(g, s)[:1])


def sgn_probes(E):
    """(v, m / (q - 1), sgn) at p and at the canonical generator of F_p^x,
    which generate F^x modulo its 1-units; m is the logarithm of the
    residue against ``E.residue_generator``, taken in F_p^x, where both
    residues lie.  The slow reference of the closed form in
    ``TameCharacter.restricts_to_sgn_power``."""
    res = E.residue_field()
    out = []
    for t in (E.base.p, E.F.residue.multiplicative_generator()[0]):
        v, u = E.tame_coordinates(E.E.element(t))
        m = prime_field_log(res, u, E.residue_generator)
        out.append((v, Fraction(m, res.q - 1), sgn(E, t)))
    return tuple(out)


def restricts_by_probes(probes, mu, k):
    """Whether mu restricts to sgn^k on F^x, read at the ``sgn_probes`` of
    its E: the angle at each probe must be 1/2 where sgn^k is -1 and 0
    elsewhere."""
    for v, unit_angle, sgn in probes:
        want = Fraction(1, 2) if sgn ** (k % 2) == -1 else Fraction(0)
        if (v * mu.angle_pi + mu.unit_exponent * unit_angle) % 1 != want:
            return False
    return True


def unitary_deltas(p):
    """Sixteen delta_E over Q_p, p odd: sign * c * p^v / den for v in 0..3,
    sign +-1 and den 1 or 2, with c = 1 for odd v (ramified E) and for even
    v (unramified E) the least c > 0 that makes sign * c / den a
    non-residue mod p."""
    out = []
    for v in range(4):
        for sign in (1, -1):
            for den in (1, 2):
                c = 1
                while v % 2 == 0 and pow(sign * c * pow(den, -1, p), (p - 1) // 2, p) != p - 1:
                    c += 1
                out.append(Fraction(sign * c * p ** v, den))
    return out


def _unit_exponents(probes, n, angle_pi, k):
    """(first, step): the unit exponents e in range(n), n = q - 1, for
    which the character of angle ``angle_pi`` and exponent e restricts to
    sgn^k are those congruent to first mod step; None when there are none.

    Each sgn probe (v, m/(q - 1), sgn) of ``sgn_probes`` asks for
    v*angle_pi + e*m/(q - 1) = want mod 1, the linear congruence
    e*m = (want - v*angle_pi)*(q - 1) mod q - 1; the two are solved and
    joined by the Chinese remainder theorem."""
    first, step = 0, 1
    for v, unit_angle, sgn in probes:
        want = Fraction(1, 2) if sgn ** (k % 2) == -1 else Fraction(0)
        target = (want - v * angle_pi) % 1 * n
        m = int(unit_angle * n)
        g = math.gcd(m, n)
        if target.denominator != 1 or target.numerator % g:
            return None
        mod = n // g
        x = target.numerator // g * pow(m // g, -1, mod) % mod
        # e = first mod step and e = x mod mod
        h = math.gcd(step, mod)
        if (x - first) % h:
            return None
        t = (x - first) // h * pow(step // h, -1, mod // h) % (mod // h)
        first, step = first + step * t, step * mod // h
    return first, step


def _mu_character(rng, E, k):
    """A tame character of E^x whose restriction to F^x is sgn^k.

    Drawn uniformly from the list a scan would make: for the first den in
    1, 2, 3, 4 that has any, every angle num/den (num < den) on the
    uniformizer with every fitting unit exponent in range(q - 1), in the
    order (num, exponent).  The exponents are solved for, not scanned, and
    the draw is one ``rng.choice`` of an index into that list, as a choice
    from the list itself would make."""
    n = E.residue_field().q - 1
    probes = sgn_probes(E)
    for den in (1, 2, 3, 4):
        classes = [(num, sol) for num in range(den)
                   if (sol := _unit_exponents(probes, n, Fraction(num, den), k)) is not None]
        total = sum(n // step for _, (_, step) in classes)
        if total:
            break
    i = rng.choice(range(total))
    for num, (first, step) in classes:
        if i < n // step:
            return TameCharacter(E, Fraction(num, den), first + i * step)
        i -= n // step


def _disc_of_side(param, side):
    entries = [en for en in param.entries if en.side == side]
    if not entries:
        return None
    space = forms.trace_form_gram(param, side=side)
    return forms.invariants(space).disc


class Instance:
    """A matched package (g, e, y, x) plus the generating rng state."""

    def __init__(self, g, e, y, x):
        self.g = g
        self.e = e
        self.y = y
        self.x = x

    def astuple(self):
        return (self.y, self.x, self.g, self.e)


def make_instance(rng, case, p=5, n_indices=None, need_minus_field=True,
                  split_ratio=0.35, force_d_parity=None):
    """A random valid, regular, matched instance of the given case."""
    for _ in range(400):
        inst = _try_instance(rng, case, p, n_indices, need_minus_field,
                             split_ratio, force_d_parity)
        if inst is not None:
            return inst
    raise RuntimeError(f"could not generate an instance for {case}")


def _try_instance(rng, case, p, n_indices, need_minus_field, split_ratio,
                  force_d_parity):
    base = BaseField("p-adic", p)
    F = trivial_tower(base)
    unitary = case in ("unitary", "bc_unitary")
    twisted = case in ("twisted_gl_even", "twisted_gl_odd", "bc_unitary")
    ub = None
    if unitary:
        delta_e = rng.choice([_nonresidue(p), p, p * _nonresidue(p)])
        ub = UnitaryBaseData(base, delta_e)

    count = rng.randint(*(n_indices or (1, 3)))
    entries = []
    for k in range(count):
        tower = random_tower(rng, base)
        if unitary:
            alg = ub.algebra_over(tower)
        else:
            alg = random_algebra(rng, tower, split_ratio)
        side = rng.choice("-+")
        entries.append((f"i{k}", side, alg))
    if need_minus_field:
        if unitary:
            if not any(s == "-" and a.is_field for _, s, a in entries):
                tower = trivial_tower(base)   # delta_E stays a non-square here
                entries.append((f"i{count}", "-", ub.algebra_over(tower)))
        else:
            if not any(s == "-" and a.is_field for _, s, a in entries):
                tower = random_tower(rng, base)
                entries.append((f"i{count}", "-", random_field_algebra(rng, tower)))

    dim = sum((a.base_pm.n if unitary else 2 * a.base_pm.n) for _, s, a in entries)
    d = dim + (1 if case in ("so_odd", "twisted_gl_odd") else 0)
    if case in ("symplectic", "so_even", "twisted_gl_even") and d % 2:
        return None
    if force_d_parity is not None and d % 2 != force_d_parity:
        return None

    # endoscopic-side values and coefficients
    y_entries = []
    for name, side, alg in entries:
        yv = random_norm_one(rng, alg)
        fac = {"symplectic": ("so_even", "symplectic"),
               "so_odd": ("so_odd", "so_odd"),
               "so_even": ("so_even", "so_even"),
               "twisted_gl_even": ("so_even", "so_odd"),
               "twisted_gl_odd": ("so_odd", "symplectic"),
               "unitary": ("unitary", "unitary"),
               "bc_unitary": ("unitary", "unitary")}[case][0 if side == "-" else 1]
        if fac == "symplectic":
            ch = random_tau_odd_unit(rng, alg)
        else:
            ch = random_tau_fixed_unit(rng, alg)
        y_entries.append(IndexEntry(name, side, alg, yv, ch))

    # group-side values
    nu = eta = None
    x_D = None
    if case in ("twisted_gl_even", "twisted_gl_odd"):
        nu = random_nonzero(rng, F)
        sq = random_unit(rng, F)
        eta = (nu if case == "twisted_gl_even" else -nu) * sq * sq
        if case == "twisted_gl_odd":
            x_D = random_nonzero(rng, F)
    elif case == "bc_unitary":
        nu = random_etale_unit(rng, ub.E)
        # the pinning ties eta to nu: eta = (-1)^d * nu modulo norms from E
        t = random_etale_unit(rng, ub.E)
        eta = nu * ((-1) ** d) * t.norm().as_fraction()
    elif case == "unitary":
        if d % 2:
            eta = ub.E.element(random_unit(rng, F))
        else:
            eta = ub.E.element(0, random_unit(rng, F))
    else:
        eta = random_nonzero(rng, F)

    x_entries = []
    for en in y_entries:
        if not twisted:
            x_entries.append(IndexEntry(en.name, en.side, en.algebra, en.value,
                                        _new_c(rng, case, en)))
            continue
        sign = (-1) ** (d + 1)
        if case == "bc_unitary":
            nu_i = en.algebra.element(nu)
            z = en.value * nu_i / nu_i.tau() * sign
        else:
            z = en.value * sign
        if not (z + 1).is_unit():
            return None
        x_entries.append(IndexEntry(en.name, en.side, en.algebra,
                                    solve_matching(rng, z, en.algebra), None))

    y = RegularParam(tuple(y_entries))
    x = RegularParam(tuple(x_entries), x_D)

    delta = None
    if case == "so_even":
        delta = forms.invariants(forms.trace_form_gram(x)).disc
        if d == 2 and is_square(delta):
            return None

    g = GroupDescriptor(case=case, d=d, base=base, delta=delta,
                        E=ub, nu=nu, eta=eta)
    if not check_regularity(y, g):
        return None

    dm, dp = side_dimensions(y, g)
    e = _make_datum(rng, g, y, dm, dp)
    if e is None:
        return None

    assert validate_group(g).ok, validate_group(g)
    assert validate_param(y, g, "endoscopic").ok, validate_param(y, g, "endoscopic")
    assert validate_param(x, g, "group").ok, validate_param(x, g, "group")
    assert validate_endoscopic(g, e).ok, validate_endoscopic(g, e)
    return Instance(g, e, y, x)


def _new_c(rng, case, en):
    if case == "symplectic":
        return random_tau_odd_unit(rng, en.algebra)
    return random_tau_fixed_unit(rng, en.algebra)


# ---------------------------------------------------------------------------
# geometric generators for the swap / indicator theorems
# ---------------------------------------------------------------------------

def diag_space(F, entries):
    d = len(entries)
    return forms.QuadraticSpace(
        F, [[entries[i] if i == j else F.element(0) for j in range(d)] for i in range(d)]
    )


def split_odd_reference(F, d, det_rep):
    """The split odd space H^((d-1)/2) perp <a> with determinant det_rep."""
    m = (d - 1) // 2
    diag = []
    for _ in range(m):
        diag += [F.element(1), F.element(-1)]
    diag.append(det_rep * F.element((-1) ** m))
    return diag_space(F, diag)


def qs_even_model(F, d, c, delta_rep):
    """The quasi-split even space H^((d-2)/2) perp <c, -c*delta>."""
    diag = []
    for _ in range((d - 2) // 2):
        diag += [F.element(1), F.element(-1)]
    diag += [c, -c * delta_rep]
    return diag_space(F, diag)


def eta_minus_even(F, d, c):
    """Pinning invariant of qs_even_model(F, d, c, .): (-1)^(d/2-1) * 2c."""
    return F.element(2 * (-1) ** (d // 2 - 1)) * c


def so_odd_swap_instance(rng, p):
    """An so_odd instance with geometrically consistent eta and cocycle flag:
    eta is the determinant class of the assembled space, and the cocycle is
    trivial exactly when the space is split-Witt."""
    inst = make_instance(rng, "so_odd", p=p)
    g, e, y, x = inst.g, inst.e, inst.y, inst.x
    F = g.F
    w = random_nonzero(rng, F)
    blocks = [forms.gram_block(en.algebra, en.c) for en in x.entries]
    dim = sum(len(b) for b in blocks) + 1
    gram = [[F.element(0)] * dim for _ in range(dim)]
    gram[0][0] = w
    off = 1
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                gram[off + i][off + j] = F.element(b[i][j])
        off += len(b)
    q = forms.QuadraticSpace(F, gram)
    inv = forms.invariants(q)
    trivial = forms.isomorphic(q, split_odd_reference(F, g.d, inv.det))
    g = GroupDescriptor(g.case, g.d, g.base, g.delta, g.E, g.nu, eta=inv.det)
    e = EndoscopicDatum(e.d_minus, e.d_plus, e.delta_minus, e.delta_plus, e.chi,
                        e.mu_minus, e.mu_plus,
                        cocycle_class="trivial" if trivial else "nontrivial")
    return Instance(g, e, y, x)


def indicator_instance(rng, p):
    """A matched twisted-even instance with d_minus = d, d_plus = 1 and the
    pinning convention eta = -eta_minus built in; both the index structure
    and the coefficients are resampled until the endoscopic space is
    quasi-split."""
    base = BaseField("p-adic", p)
    F = trivial_tower(base)
    for _ in range(80):
        while True:
            cnt = rng.randint(1, 2)
            algebras = [(f"i{i}",
                         random_algebra(rng, random_tower(rng, base), split_ratio=0.3))
                        for i in range(cnt)]
            if any(a.is_field for _, a in algebras):
                break
        d = sum(2 * a.base_pm.n for _, a in algebras)
        for _ in range(40):
            y_entries = [IndexEntry(n, "-", a, random_norm_one(rng, a),
                                    random_tau_fixed_unit(rng, a))
                         for n, a in algebras]
            y = RegularParam(tuple(y_entries))
            q_minus = forms.trace_form_gram(y)
            inv = forms.invariants(q_minus)
            if d == 2 and is_square(inv.disc):
                continue
            hits = [c for c in square_class_reps(F)
                    if forms.isomorphic(q_minus, qs_even_model(F, d, c, inv.disc))]
            if not hits:
                continue
            c = rng.choice(hits)
            eta = -eta_minus_even(F, d, c)
            x_entries = []
            ok = True
            for en in y_entries:
                z = -en.value
                if not (z + 1).is_unit():
                    ok = False
                    break
                x_entries.append(IndexEntry(en.name, en.side, en.algebra,
                                            solve_matching(rng, z, en.algebra), None))
            if not ok:
                continue
            x = RegularParam(tuple(x_entries))
            g = GroupDescriptor(case="twisted_gl_even", d=d, base=base, nu=eta, eta=eta)
            if not check_regularity(y, g):
                continue
            e = EndoscopicDatum(d_minus=d, d_plus=1, delta_minus=inv.disc)
            return Instance(g, e, y, x)
    raise RuntimeError("could not generate an indicator instance")


def hermitian_gram_det(inst):
    """Determinant over E of the hermitian Gram of the group-side form
    (a tau-fixed element, i.e. a class of F^x modulo norms from E)."""
    E = inst.g.E
    det = E.E.one()
    for en in inst.x.entries:
        tower = en.algebra.base_pm
        n = tower.n
        basis = [en.algebra.element(w) for w in basis_elements(tower)]

        def tr_e(z):
            A = mult_matrix(tower, z.a)
            B = mult_matrix(tower, z.b)
            tra = sum((A[i][i] for i in range(n)), Fraction(0))
            trb = sum((B[i][i] for i in range(n)), Fraction(0))
            return E.E.element(tra, trb)

        rows = [[tr_e(w1.tau() * w2 * en.c) for w2 in basis] for w1 in basis]
        cp = _poly.charpoly(rows, E.E.one())
        det = det * cp[0] * ((-1) ** n)
    return det


def unitary_swap_instance(rng, p):
    """A unitary instance with geometrically consistent eta and cocycle:
    for odd d the chosen quasi-split space has determinant class eta; for
    even d the quasi-split space is unique (determinant (-1)^(d/2) modulo
    norms) and eta is a free tau-odd class."""
    from endofactor.localfield import hilbert_symbol
    inst = make_instance(rng, "unitary", p=p)
    g = inst.g
    F = g.F
    D = hermitian_gram_det(inst).as_base()
    if g.d % 2 == 1:
        t = rng.choice(square_class_reps(F)[:4])
        trivial = hilbert_symbol(D * t, g.E.delta_e) == 1
        eta = g.E.E.element(t)
    else:
        want = F.element((-1) ** (g.d // 2))
        trivial = hilbert_symbol(D * want, g.E.delta_e) == 1
        eta = g.E.E.element(0, random_unit(rng, F))
    g2 = GroupDescriptor(g.case, g.d, g.base, g.delta, g.E, g.nu, eta=eta)
    e = inst.e
    e2 = EndoscopicDatum(e.d_minus, e.d_plus, e.delta_minus, e.delta_plus, e.chi,
                         e.mu_minus, e.mu_plus,
                         cocycle_class="trivial" if trivial else "nontrivial")
    return Instance(g2, e2, inst.y, inst.x)


def regularity_probe(count, regular, c=1):
    """A symplectic instance at p = 3 with ``count`` minus-side indices, all
    on one tower of degree MAX_TOWER_DEGREE with Eisenstein polynomial
    x^e - 3, and in the one field K = F_pm(sqrt(pi)).  Index a = 1..count has
    y_a = t/tau(t) with t = (a + c*pi) + sqrt(pi), and x_a = y_a with the
    form coefficient sqrt(pi).  With (f, e) = (1, MAX_TOWER_DEGREE) the y_a
    are distinct and the instance is regular.  With (f, e) = (2,
    MAX_TOWER_DEGREE/2) each y_a lies in the subfield without the
    unramified generator, so each P_j is a square and the instance is not
    regular.  The regularity gate is not applied."""
    base = BaseField("p-adic", 3)
    F = trivial_tower(base)
    f, e = (1, MAX_TOWER_DEGREE) if regular else (2, MAX_TOWER_DEGREE // 2)
    tower = make_extension(base, f, [-3] + [0] * (e - 1) + [1])
    alg = quadratic_field(tower, tower.pi())
    s = alg.rt()
    y_entries, x_entries = [], []
    for a in range(1, count + 1):
        t = alg.element(tower.element(a) + c * tower.pi()) + s
        y = t / t.tau()
        y_entries.append(IndexEntry(f"i{a}", "-", alg, y, None))
        x_entries.append(IndexEntry(f"i{a}", "-", alg, y, s))
    d = 2 * tower.n * count
    g = GroupDescriptor("symplectic", d, base, eta=F.element(1))
    datum = EndoscopicDatum(d_minus=d, d_plus=0, delta_minus=F.element(1))
    return Instance(g, datum, RegularParam(tuple(y_entries)), RegularParam(tuple(x_entries)))


def _make_datum(rng, g, y, dm, dp):
    fm, fp = g.info["factors"]
    delta_minus = delta_plus = chi = mu_minus = mu_plus = None
    if fm == "so_even":
        delta_minus = _disc_of_side(y, "-") if dm else None
        if dm == 2 and delta_minus is not None and is_square(delta_minus):
            return None
    if fp == "so_even":
        delta_plus = _disc_of_side(y, "+") if dp else None
        if dp == 2 and delta_plus is not None and is_square(delta_plus):
            return None
    if g.case == "twisted_gl_odd":
        chi = rng.choice(square_class_reps(g.F))
    if g.case == "unitary":
        mu_minus = _mu_character(rng, g.E, dp)
        mu_plus = _mu_character(rng, g.E, dm)
    elif g.case == "bc_unitary":
        mu_minus = _mu_character(rng, g.E, dp + 1)
        mu_plus = _mu_character(rng, g.E, dm)
    return EndoscopicDatum(
        d_minus=dm, d_plus=dp,
        delta_minus=delta_minus, delta_plus=delta_plus,
        chi=chi, mu_minus=mu_minus, mu_plus=mu_plus,
        cocycle_class="trivial",
    )


# ---------------------------------------------------------------------------
# the whole-P regularity test: the reference of factor.CharPolyPack.is_regular
# ---------------------------------------------------------------------------

# Primes l = 3 (mod 4) from 2^61 - 1 down, in a fixed order.  The squarefree
# certificate works mod the first in which D is a nonzero square, where
# D^((l+1)/4) is a root of it: over Q, D = 1 and that is the first.
_PRIMES = tuple(2 ** 61 - k for k in (1, 45, 229, 465, 829, 985, 1153, 1281))


def is_squarefree(p):
    """No repeated factor: gcd(p, p') has degree <= 0.

    One path over Z[s], s^2 = D, on integer pairs (x, y) = x + y*s.  For
    coefficients in a quadratic field E = F(rt), rt^2 = delta = n/d, s is
    d*rt and D = n*d; a coefficient (x + y*rt)/c is scaled by the lcm L of
    the c and by d to the pair (x*d*L/c, y*L/c).  A rational coefficient
    x/c is the pair (x*L/c, 0) with D = 1.  The pairs are then divided by
    the gcd of all their entries.

    The certificate: for the first listed prime l in which D is a nonzero
    square (over Q, l = 2^61 - 1), s -> r = D^((l+1)/4) is a ring map
    Z[s] -> F_l.  When l does not divide the top pair's image and the
    image a is coprime to a' over F_l, the resultant is nonzero, so p is
    squarefree.  Otherwise the primitive pseudo-remainder sequence of
    (p, p') over Z[s] decides, and gives every False: it differs from the
    Euclidean one over E (or Q) by nonzero factors at each step, so its
    last nonzero term has the degree of the gcd.  delta is a non-square,
    so x + y*s is zero only when x = y = 0.
    """
    if all(isinstance(c, (int, Fraction)) for c in p):
        D, terms = 1, [(c.numerator, 0, c.denominator) for c in p]
    else:
        delta = p[0].algebra.delta
        d, D = delta.den, delta.num[0] * delta.den
        terms = [(c.num[0] * d, c.num[1], c.den) for c in p]
    den = lcm(*(c for _, _, c in terms))
    a = _primitive_pairs([(x * (den // c), y * (den // c)) for x, y, c in terms])
    ell = next((ell for ell in _PRIMES if pow(D, (ell - 1) // 2, ell) == 1), None)
    if ell is not None:
        r = pow(D, (ell + 1) // 4, ell)
        if _coprime_to_derivative_mod([(x + y * r) % ell for x, y in a], ell):
            return True
    b = _primitive_pairs([(k * x, k * y) for k, (x, y) in enumerate(a)][1:])
    while b:
        a, b = b, _primitive_pairs(_pair_prem(a, b, D))
    return degree(a) <= 0


def _coprime_to_derivative_mod(a, ell):
    """True when the coefficients a, reduced mod the prime ell, have a
    nonzero top one and a is coprime to a' over F_ell.  With a the image
    of an integer polynomial of the same degree below ell, that certifies
    the integer one squarefree; False decides nothing."""
    return bool(a) and a[-1] % ell != 0 and len(gcd_mod(a, pderiv(a), ell)) == 1


def _primitive_pairs(coeffs):
    """Integer pairs divided by the gcd of all their entries."""
    content = gcd(*(v for pair in coeffs for v in pair))
    return [(x // content, y // content) for x, y in coeffs] if content > 1 else coeffs


def _pair_prem(a, b, D):
    """The remainder of k*a by b for some nonzero k in Z[s], s^2 = D, on
    integer pairs (x, y) = x + y*s (b nonzero)."""
    rem = list(a)
    l0, l1 = b[-1]
    while len(rem) >= len(b):
        c0, c1 = rem[-1]
        g = gcd(l0, l1, c0, c1)
        s0, s1, c0, c1 = l0 // g, l1 // g, c0 // g, c1 // g
        k = len(rem) - len(b)
        # rem * (s0 + s1*s) - (c0 + c1*s) * T^k * b; the top term cancels
        rem = [(x * s0 + D * y * s1, x * s1 + y * s0) for x, y in rem[:-1]]
        for j, (x, y) in enumerate(b[:-1]):
            u, v = rem[k + j]
            rem[k + j] = (u - c0 * x - D * c1 * y, v - c0 * y - c1 * x)
        while rem and rem[-1] == (0, 0):
            rem.pop()
    return rem


def ground_scalar(g):
    """The case's ground ring for characteristic polynomials, as the map
    from base-field scalars into it: Fraction, or E's ``element`` in the
    unitary cases."""
    return g.E.E.element if g.info["ground"] == "E" else Fraction


def charpoly_product(polys, g):
    """Product of the polynomials ``polys`` over the case ground: a fold of
    pmul from 1, the reference of ``verify.charpoly_product`` over F."""
    poly = [ground_scalar(g)(1)]
    for q in polys:
        poly = _poly.pmul(poly, q)
    return poly


def charpoly_ends(poly, zero):
    """{1: P(1), -1: P(-1)}, in the ring of ``zero``."""
    return {t: _poly.peval_scalar(poly, t, zero) for t in (1, -1)}


def is_regular_charpoly(poly, g, ends=None):
    """The conservative sufficient condition on the product P of the
    characteristic polynomials: P is squarefree, and the formulary's
    denominators at T = 1, -1 stay away from zero.  Where a case has an
    eigenvalue-1 line, P(1) != 0 is what keeps P * (T - 1) squarefree.
    ``ends`` is charpoly_ends of P, when the caller has evaluated it."""
    zero = ground_scalar(g)(0)
    if not is_squarefree(poly):
        return False
    return all(v != zero for v in (ends or charpoly_ends(poly, zero)).values())


def whole_charpolys(y, g):
    """(P, P_minus, P_plus): the products of the characteristic polynomials
    of the y_i over the case ground, on the whole space and on each side."""
    ground = g.info["ground"]
    polys = [(en.side, charpoly_over(en.value, ground)) for en in y.entries]
    P_minus, P_plus = (charpoly_product([q for side, q in polys if side == s], g) for s in "-+")
    return charpoly_product((P_minus, P_plus), g), P_minus, P_plus


def norm_one_values(param, g, role="endoscopic"):
    """The eigenvalue data y_i of a parameter pack: on a twisted group side
    derived through the matching relation x_i/tau(x_i) = y_i * nu/tau(nu) *
    (-1)^(d+1)."""
    if role == "group" and g.info["twisted"]:
        out = []
        for en in param.entries:
            nu = en.algebra.one() * g.nu
            out.append(en.value / en.value.tau() / (nu / nu.tau() * (-1) ** (g.d + 1)))
        return out
    return [en.value for en in param.entries]


def regular_by_whole_P(param, g, role="endoscopic"):
    """Regularity of a parameter pack by is_regular_charpoly on the whole
    product P of the characteristic polynomials of its eigenvalue data."""
    polys = [charpoly_over(v, g.info["ground"]) for v in norm_one_values(param, g, role)]
    return is_regular_charpoly(charpoly_product(polys, g), g)


# ---------------------------------------------------------------------------
# the full-degree route: the reference of the engine's tower-half pack
# ---------------------------------------------------------------------------

class FullDegreePack:
    """The characteristic-polynomial pack of y on the full-degree route, over
    either ground: P_j = charpoly_over(y_j), of degree 2n_j over F, the
    rows P_j(y_i), j != i, and P_i'(y_i) in the algebra K_i of y_i, each by
    its own ``_poly.peval``, and side_at and P_at from the P_j.
    ``factor.CharPolyPack`` reads the same quantities off the tower halves
    a_j over F."""

    def __init__(self, y, g):
        ground = g.info["ground"]
        zero, one = ground_scalar(g)(0), ground_scalar(g)(1)
        self.ground = ground
        self.names = [en.name for en in y.entries]
        self.ys = [en.value for en in y.entries]
        self.polys = [charpoly_over(v, ground) for v in self.ys]
        self.side_at = {(side, t): math.prod((_poly.peval_scalar(q, t, zero)
                                              for en, q in zip(y.entries, self.polys)
                                              if en.side == side), start=one)
                        for side in "-+" for t in ((0, 1, -1) if ground == "E" else (1, -1))}
        self.P_at = {t: self.side_at["-", t] * self.side_at["+", t] for t in (1, -1)}
        self.rows = [[_poly.peval(_poly.pderiv(q) if j == i else q, z, z.algebra.zero())
                      for j, q in enumerate(self.polys)] for i, z in enumerate(self.ys)]

    def regular(self):
        return all(self.P_at.values()) and all(v.is_unit() for row in self.rows for v in row)

    def derivative_at(self, name):
        """P'(y_i), the product of row i in K_i."""
        row = self.rows[self.names.index(name)]
        return math.prod(row[1:], start=row[0])


def full_degree_C(name, pack, y, x, g):
    """C_i on the full-degree route, for a FullDegreePack: the formula's
    product in K_i with P'(y_i) and the power of y, the negative powers
    inverted once, then the tau-fixed check.  Returns (value in K_i, value
    in F_pm), and raises as ``factor.compute_C`` does."""
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
            lead = yv.algebra.element(lead)
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
    return c, c.as_base()


# ---------------------------------------------------------------------------
# names that only the tests read
# ---------------------------------------------------------------------------

def from_pair(alg, first, second):
    """The element of a split algebra (delta = 1) with split coordinates
    (first, second): a + b*rt with a + b = first and a - b = second."""
    first, second = alg.base_pm.element(first), alg.base_pm.element(second)
    half = Fraction(1, 2)
    return alg.element((first + second) * half, (first - second) * half)


def as_pair(x):
    """The split coordinates (a + b, a - b) of x = a + b*rt in a split
    algebra."""
    return (x.a + x.b, x.a - x.b)


def basis_elements(ring):
    """The flat monomial basis of a tower or etale algebra, as elements."""
    cls = type(ring.one())
    return [cls(ring, tuple(int(i == k) for i in range(ring.n)), 1) for k in range(ring.n)]


def mult_matrix(ring, x):
    """Matrix of y -> x*y on the flat basis of the ring, over Q."""
    d = x.den * ring._D
    return [[Fraction(c, d) for c in row] for row in ring._num_matrix(x)]


def encode(ring, x):
    """The mixed-radix encoding of a reduced element of a brute-force
    oracle's residue ring (``localfield._ResidueRing``)."""
    return sum(map(operator.mul, x, ring.weights))


def sgn(E, x):
    """The norm character sgn_{E/F} on F^x, for a ``UnitaryBaseData`` E."""
    return hilbert_symbol(E.F.element(x), E.E.delta)


def stable_class_of(param, g, role="endoscopic"):
    """Canonical key of the stable class: forgets the c_i; in the twisted
    cases reduces x_i modulo F_pm^x (keyed by x_i / tau(x_i)) and drops
    x_D."""
    twisted_group = role == "group" and g.info["twisted"]
    items = []
    for en in param.entries:
        r = en.value / en.value.tau() if twisted_group else en.value
        items.append((en.side, en.algebra._fingerprint, (r.a.num, r.a.den, r.b.num, r.b.den)))
    return (g.case, tuple(sorted(items)))


def delta_I_lie(data, eta=None):
    """Product over minus-side field indices of the norm character at
    eta * c_i * Q_X'(X_i), for a ``verify.LieParam``; insensitive to
    X -> lambda^2 X."""
    eta = data.eta if eta is None else eta
    total = factor.UnitCircleValue.one()
    for en in data.y.field_indices("-"):
        qx = _poly.peval(data.dQ_X, data.X[en.name], en.algebra.zero())
        arg = qx.as_base() * data.c[en.name] * eta
        total = total * factor.UnitCircleValue.from_sign(norm_test(arg, en.algebra))
    return total


# ---------------------------------------------------------------------------
# the unit parts and the product-based Gram block: the references of
# localfield's residue reads (_vp, unit_residue and the symbols on it) and
# of forms.gram_block
# ---------------------------------------------------------------------------

def vp_loop(x, p):
    """p-adic valuation of a nonzero int or Fraction, one division at a
    time: the reference of ``localfield._vp``."""
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue(x):
    """Image of a tower element of valuation >= 0 in the residue field, as
    its coefficient tuple: a unit's coordinates are p-integral, so its den
    is prime to p."""
    t = x.tower
    v = valuation(x) if x else 1
    if v < 0:
        raise ZeroValuation("residue of a non-integral element")
    if v > 0:
        return (0,) * t.f
    p = t.base.p
    inv = pow(x.den, -1, p)
    return tuple(c * inv % p for c in x.num[:t.f])


def unit_split(x):
    """(v, x * pi^(-v)) with v = v(x), by a power of pi in the tower."""
    v = valuation(x)
    return v, (x * x.tower.pi() ** (-v) if v else x)


def is_square_by_unit(a):
    """Squareness through the unit part formed in the tower."""
    t = a.tower
    if t.base.is_real:
        return a.as_fraction() > 0
    v, u = unit_split(a)
    if v % 2:
        return False
    if t.base.p == 2:
        return localfield._reduce_mod(u.as_fraction(), 8) == 1
    return t.residue.is_square(residue(u))


def square_class_by_unit(a):
    """The canonical square-class representative, through the unit part."""
    t = a.tower
    if t.base.is_real:
        return t.element(1) if a.as_fraction() > 0 else t.element(-1)
    v, u = unit_split(a)
    if t.base.p == 2:
        return t.element(localfield._reduce_mod(u.as_fraction(), 8)) * t.pi() ** (v % 2)
    unit_rep = t.one() if t.residue.is_square(residue(u)) else t.unit_nonsquare()
    return unit_rep * t.pi() ** (v % 2)


def hilbert_symbol_by_unit(a, b):
    """The tame Hilbert symbol over an odd p: squareness of the residue of
    (-1)^(alpha*beta) * ua^beta * ub^(-alpha), the units formed in the
    tower."""
    t = a.tower
    b = t.element(b)
    alpha, ua = unit_split(a)
    beta, ub = unit_split(b)
    arg = t.element((-1) ** (alpha * beta)) * ua ** beta * ub ** (-alpha)
    return 1 if t.residue.is_square(residue(arg)) else -1


def trace_to_base(ring, x):
    """The trace of y -> x*y over the base field, as an exact Fraction."""
    tr = 0
    for xi, row in zip(x.num, ring._table):
        if xi:
            tr += xi * sum(s for j, prod in enumerate(row) for k, s in prod if k == j)
    return Fraction(tr, x.den * ring._D)


def hilbert2(a, b):
    """The Hilbert symbol of two nonzero rationals over Q_2, from their
    2-adic valuations and their odd parts modulo 8."""
    va, vb = vp_loop(a, 2), vp_loop(b, 2)
    u8 = localfield._reduce_mod(a / Fraction(2) ** va, 8)
    w8 = localfield._reduce_mod(b / Fraction(2) ** vb, 8)
    eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
    om_u, om_w = (u8 ** 2 - 1) // 8 % 2, (w8 ** 2 - 1) // 8 % 2
    return -1 if (eps_u * eps_w + va * om_w + vb * om_u) % 2 else 1


def gram_block_by_products(algebra, coeff):
    """Gram of (v, w) -> trace(tau(v) * w * coeff) on the monomial basis,
    one product and one trace per entry."""
    if coeff.tau() != coeff:
        raise NonSymmetric("form coefficient is not tau-fixed")
    basis = basis_elements(algebra)
    return [[trace_to_base(algebra, w1.tau() * w2 * coeff) for w2 in basis] for w1 in basis]
