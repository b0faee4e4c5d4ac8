"""Unit tests for the dense-polynomial and residue-field plumbing."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofactor import _poly, localfield
from endofactor.etale import UnitaryBaseData
from endofactor.errors import ZeroValuation
from endofactor.localfield import (
    BaseField,
    ResidueField,
    canonical_unramified_poly,
    make_extension,
    trivial_tower,
)
from endofactor.params import TameCharacter
from support import is_squarefree, prime_field_log
from test_poly_reference import gauss_det, gauss_solve, pdivmod, pgcd

F = Fraction


def fpoly(*cs):
    return [F(c) for c in cs]


def _padd(p, q):
    n = max(len(p), len(q))
    p, q = p + [F(0)] * (n - len(p)), q + [F(0)] * (n - len(q))
    return _poly.trim([a + b for a, b in zip(p, q)])


class TestPolyOps:
    def test_divmod(self):
        q, r = pdivmod(fpoly(-1, 0, 1), fpoly(-1, 1))     # (T^2-1)/(T-1)
        assert q == fpoly(1, 1) and r == []
        q, r = pdivmod(fpoly(1, 0, 1), fpoly(-1, 1))
        assert q == fpoly(1, 1) and r == fpoly(2)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        a = _poly.trim([F(c) for c in a])
        b = _poly.trim([F(c) for c in b])
        if not b:
            return
        q, r = pdivmod(a, b)
        assert _padd(_poly.pmul(q, b), r) == a
        assert _poly.degree(r) < _poly.degree(b)

    def test_gcd(self):
        a = _poly.pmul(fpoly(-1, 1), fpoly(-2, 1))
        b = _poly.pmul(fpoly(-1, 1), fpoly(-3, 1))
        assert pgcd(a, b) == fpoly(-1, 1)

    def test_squarefree(self):
        assert is_squarefree(fpoly(-2, 1))
        assert is_squarefree(_poly.pmul(fpoly(-1, 1), fpoly(-2, 1)))
        assert not is_squarefree(_poly.pmul(fpoly(-1, 1), fpoly(-1, 1)))

    def test_derivative_and_eval(self):
        p = fpoly(1, -3, 0, 2)      # 1 - 3T + 2T^3
        assert _poly.pderiv(p) == fpoly(-3, 0, 6)
        two = trivial_tower(BaseField("p-adic", 5)).element(2)
        assert _poly.peval(p, two, two - two) == 1 - 6 + 16
        assert [_poly.peval_scalar(p, t, F(0)) for t in (0, 1, -1)] == [1, 0, 2]


class TestMatrixOps:
    def test_charpoly_known(self):
        m = [[F(2), F(1)], [F(0), F(3)]]
        assert _poly.charpoly(m, F(1)) == fpoly(6, -5, 1)

    def test_charpoly_matches_det_and_trace(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            m = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            cp = _poly.charpoly(m, F(1))
            assert cp[-1] == 1
            assert cp[0] == gauss_det(m) * F((-1) ** n)
            assert cp[n - 1] == -sum(m[i][i] for i in range(n))

    def test_gauss_solve(self):
        m = [[F(2), F(1)], [F(1), F(3)]]
        x = gauss_solve(m, [F(5), F(10)])
        assert [2 * x[0] + x[1], x[0] + 3 * x[1]] == [F(5), F(10)]
        with pytest.raises(ZeroDivisionError):
            gauss_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(1)])


def _divides_mod(d, poly, p):
    """Whether the monic d divides poly over F_p, by schoolbook division."""
    r = list(poly)
    while len(r) >= len(d):
        c = r[-1]
        for j in range(len(d)):
            r[len(r) - len(d) + j] = (r[len(r) - len(d) + j] - c * d[j]) % p
        r.pop()
    return not any(c % p for c in r)


MOD_PRIMES = [2, 3, 5, 7, 2 ** 61 - 1]


class TestModularEuclid:
    """``_poly.rem_mod`` and ``_poly.gcd_mod``, the one division over F_l
    behind the squarefree certificate and the residue fields."""

    @pytest.mark.parametrize("p", MOD_PRIMES)
    @given(st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=8),
           st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_remainder(self, p, a, b):
        """r = a mod b has degree below b's, and a - r is a multiple of b."""
        b_mod = _poly.trim([c % p for c in b])
        if not b_mod:
            return
        r = _poly.rem_mod(a, b, p)
        assert r == _poly.trim(r) and all(0 <= c < p for c in r)
        assert _poly.degree(r) < _poly.degree(b_mod)
        diff = [x - y for x, y in itertools.zip_longest(a, r, fillvalue=0)]
        assert _poly.rem_mod(diff, b, p) == []

    @pytest.mark.parametrize("p", MOD_PRIMES)
    def test_untrimmed_empty_and_constant(self, p):
        # 1 + 2T + 0*T^2 + p*T^3 is 1 + 2T mod p; mod T + 1 it is 1 - 2
        assert _poly.rem_mod([1, 2, 0, p], [1, 1], p) == [p - 1]
        # a divisor with a top coefficient 0 mod p is trimmed first
        assert _poly.rem_mod([1, 2, 0, p], [1, 1, p, 0], p) == [p - 1]
        assert _poly.rem_mod([], [1, 1], p) == []
        assert _poly.rem_mod([0, 0, 0], [1, 1], p) == []
        assert _poly.rem_mod([3, 4, 5, 6], [p + 1], p) == []
        assert _poly.rem_mod([4], [1, 1], p) == _poly.trim([4 % p])
        assert _poly.gcd_mod([], [], p) == []
        assert _poly.gcd_mod([0, p], [1, 0, p], p) == [1]
        assert _poly.gcd_mod([1, 1, 0], [], p) == [1, 1]
        assert len(_poly.gcd_mod([1, 1], [p + 1], p)) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gcd_degree_matches_enumeration(self, p):
        """For degree <= 4, deg gcd_mod(a, b) is the largest degree of a
        monic common divisor found by trial division, and the gcd divides
        both."""
        rng = random.Random(p)
        monic = [list(t) + [1] for k in range(5) for t in itertools.product(range(p), repeat=k)]
        for _ in range(40):
            # a common factor makes gcds of positive degree common
            common = [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [1]
            a = _poly.pmul(common, [rng.randrange(p) for _ in range(rng.randint(0, 5 - len(common)))])
            b = _poly.pmul(common, [rng.randrange(p) for _ in range(rng.randint(0, 5 - len(common)))])
            a, b = _poly.trim([c % p for c in a]), _poly.trim([c % p for c in b])
            if not a and not b:
                continue
            g = _poly.gcd_mod(a, b, p)
            want = max(len(d) - 1 for d in monic
                       if _divides_mod(d, a, p) and _divides_mod(d, b, p))
            assert _poly.degree(g) == want
            assert _poly.rem_mod(a, g, p) == _poly.rem_mod(b, g, p) == []


SMALL_PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


def _residue_fields(p):
    fields = [ResidueField(p, 1, (0, 1)), ResidueField(p, 2, canonical_unramified_poly(p, 2))]
    if p > 2:
        dbar = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        fields.append(ResidueField(p, 2, (-dbar % p, 0, 1)))
    return fields


def _order(rf, e):
    acc, k = e, 1
    while acc != rf.one:
        acc, k = rf._mul(acc, e), k + 1
    return k


def _count_field_products(monkeypatch):
    """A list that receives the number of multiplications of every F_q
    product and power: one per ``_mul``, and per ``_pow`` the squarings and
    products that square-and-multiply spends on the exponent (an inverse is
    the power q - 2, counted as such)."""
    calls = []
    mul, power = ResidueField._mul, ResidueField._pow

    def counted_mul(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    def counted_pow(self, a, n):
        calls.append(abs(n).bit_length() + bin(abs(n)).count("1"))
        return power(self, a, n)

    monkeypatch.setattr(ResidueField, "_mul", counted_mul)
    monkeypatch.setattr(ResidueField, "_pow", counted_pow)
    return calls


class TestResidueFields:
    def test_canonical_polys_irreducible(self):
        for p in (3, 5, 7, 13):
            for f in (2, 3):
                poly = canonical_unramified_poly(p, f)
                rf = ResidueField(p, f, poly)
                # the generator search only terminates on a genuine field
                g = rf.multiplicative_generator()
                seen = set()
                acc = rf.one
                for _ in range(rf.q - 1):
                    seen.add(acc)
                    acc = rf._mul(acc, g)
                assert len(seen) == rf.q - 1

    def test_canonical_poly_matches_full_scan(self):
        """The search skips the constant term 0; a scan of every monic
        polynomial, in the same order, with irreducibility by trial division
        by every monic polynomial of degree at most f/2, finds the same one."""
        for p in (2, 3, 5, 7, 11):
            for f in (1, 2, 3, 4):
                divisors = [list(t) + [1] for k in range(1, f // 2 + 1)
                            for t in itertools.product(range(p), repeat=k)]
                want = next(tuple(t) + (1,) for t in itertools.product(range(p), repeat=f)
                            if not any(_divides_mod(d, list(t) + [1], p) for d in divisors))
                assert canonical_unramified_poly(p, f) == want

    def test_quadratic_closed_form_matches_the_rabin_scan(self):
        """For p odd and f = 2 the canonical polynomial is read off the
        discriminant; the Rabin test over the same candidates, in the same
        order, finds the same one, at every odd prime below 2000 and at
        10007."""
        primes = [p for p in range(3, 2000, 2) if localfield._prime_factors(p) == [p]]
        for p in primes + [10007]:
            want = next((a0, a1, 1) for a0 in range(1, p) for a1 in range(p)
                        if localfield._fp_irreducible([a0, a1, 1], p))
            assert canonical_unramified_poly(p, 2) == want

    def test_square_counting(self):
        rf = ResidueField(5, 2, canonical_unramified_poly(5, 2))
        squares = sum(1 for e in map(rf.decode, range(rf.q)) if any(e) and rf.is_square(e))
        assert squares == (rf.q - 1) // 2

    def test_dlog(self):
        rf = ResidueField(7, 1, (0, 1))
        g = rf.multiplicative_generator()
        for k in range(6):
            assert rf.dlog(rf._pow(g, k)) == k
        with pytest.raises(ZeroValuation):
            rf.dlog(rf.element([0]))

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_dlog_against_a_table_of_powers(self, p):
        """Every unit of every residue field at p: F_p, F_(p^2) on the
        canonical modulus, and E's F_p[x]/(x^2 - dbar) for the first
        non-square dbar."""
        for rf in _residue_fields(p):
            g = rf.multiplicative_generator()
            acc = rf.one
            for k in range(rf.q - 1):
                assert rf.dlog(acc) == k
                acc = rf._mul(acc, g)
            assert acc == rf.one

    def test_dlog_against_sympy(self):
        ntheory = pytest.importorskip("sympy.ntheory")
        for p in ntheory.primerange(3, 50):
            rf = trivial_tower(BaseField("p-adic", p)).residue
            g = rf.multiplicative_generator()[0]
            for a in range(1, p):
                assert rf.dlog(rf.element([a])) == ntheory.discrete_log(p, a, g)
        rf = trivial_tower(BaseField("p-adic", 10007)).residue
        g = rf.multiplicative_generator()[0]
        for a in (2, 3, 5000, 10006):
            assert rf.dlog(rf.element([a])) == ntheory.discrete_log(10007, a, g)

    @pytest.mark.parametrize("p", [p for p in SMALL_PRIMES if p < 30])
    def test_degree_two_generator_against_a_full_scan(self, p):
        """The scan from encoding p picks what a scan from 1 by element
        orders picks: the constants below p never generate."""
        for rf in _residue_fields(p)[1:]:
            want = next(e for e in map(rf.decode, range(rf.q))
                        if any(e) and _order(rf, e) == rf.q - 1)
            assert rf.multiplicative_generator() == want

    @pytest.mark.parametrize("p", SMALL_PRIMES + [101, 151, 199, 10007, 99991])
    def test_closed_forms_against_the_list_polynomials(self, p, rng):
        """The f = 1 and f = 2 products and powers (the canonical modulus
        and x^2 - dbar) agree with the list-polynomial ``_fp_mulmod`` and
        ``_fp_powmod`` that f >= 3 uses; an inverse is the power q - 2."""
        for rf in _residue_fields(p):
            mod, f = list(rf.modulus), rf.f

            def generic(poly):
                return tuple(poly + [0] * (f - len(poly)))

            elems = [rf.element([rng.randrange(p) for _ in range(f)]) for _ in range(60)]
            for a, b in zip(elems, elems[1:] + [rf.one, (0,) * f]):
                assert rf._mul(a, b) == generic(localfield._fp_mulmod(list(a), list(b), mod, p))
                for n in (0, 1, 2, p, rf.q - 2, rf.q - 1, rng.randrange(3 * rf.q)):
                    assert rf._pow(a, n) == generic(localfield._fp_powmod(list(a), n, mod, p))
                inv = localfield._fp_powmod(list(a), rf.q - 2, mod, p)
                n = rng.randrange(1, rf.q)
                assert rf._pow(a, -n) == generic(localfield._fp_powmod(inv, n, mod, p))

    def test_dlog_costs_two_square_roots_of_q(self, monkeypatch):
        """About 2*ceil(sqrt(q)) multiplications in F_q at p = 10007, where a
        table of powers would take q - 1 = 100140048."""
        rf = UnitaryBaseData(BaseField("p-adic", 10007), 5).residue_field()
        assert rf.q == 10007 ** 2
        budget = 2 * (math.isqrt(rf.q) + 1) + rf.q.bit_length()
        calls = []
        mul = ResidueField._mul

        def counted(self, a, b):
            calls.append(1)
            if len(calls) > budget:
                raise AssertionError(f"more than {budget} multiplications")
            return mul(self, a, b)

        monkeypatch.setattr(ResidueField, "_mul", counted)
        x = rf.element([1234, 5678])
        k = rf.dlog(x)
        assert rf._pow(rf.multiplicative_generator(), k) == x
        assert 0 < len(calls) <= budget

    @pytest.mark.parametrize("p", [p for p in SMALL_PRIMES if p < 30])
    def test_subgroup_dlog_against_the_full_one(self, p):
        """For every unit x and every divisor r of q - 1, the index of x
        modulo r, against the canonical generator and against another one."""
        for rf in _residue_fields(p):
            n = rf.q - 1
            divisors = [r for r in range(1, n + 1) if n % r == 0]
            g = rf.multiplicative_generator()
            for x in map(rf.decode, range(1, rf.q)):
                full = rf.dlog(x, g=g)
                assert all(rf.dlog(x, r, g) == full % r for r in divisors)
            other = rf._pow(g, next(k for k in range(n, 0, -1) if math.gcd(k, n) == 1))
            x = rf.element([1, 1])
            m = rf.dlog(x, g=other)
            assert rf._pow(other, m) == x and m < n
            assert [rf.dlog(x, r) for r in divisors] == [rf.dlog(x) % r for r in divisors]
            if n > 2:
                with pytest.raises(ValueError):
                    rf.dlog(x, n - 1)

    @pytest.mark.parametrize("p", [p for p in SMALL_PRIMES if p < 30])
    def test_prime_field_log_against_the_full_one(self, p):
        """The log of a unit of F_p taken in the subgroup F_p^x of F_q^x is
        its full log; an element outside F_p is refused."""
        for rf in _residue_fields(p):
            g = rf.multiplicative_generator()
            for c in range(1, p):
                x = rf.element([c])
                assert prime_field_log(rf, x, g) == rf.dlog(x)
            if rf.f == 2:
                with pytest.raises(ValueError):
                    prime_field_log(rf, rf.element([0, 1]), g)

    def test_tame_character_costs_two_square_roots_of_p(self, monkeypatch):
        """At p = 10007 over the unramified E, a character of unit exponent
        (p - 1)*t reads a value's logarithm in a subgroup of order dividing
        p + 1: about 2*sqrt(p) multiplications in F_q, plus O(log q) for the
        powers and the generator search, where one logarithm in all of F_q^x
        takes about 2p.  The restriction to F^x is read off the angle and
        the exponent in closed form, with no product in the residue field.
        Counted over every multiplication, those inside powers included."""
        p = 10007
        ub = UnitaryBaseData(BaseField("p-adic", p), 5)
        assert not ub.ramified
        mu = TameCharacter(ub, Fraction(1, 2), (p - 1) * 1234)
        log_q = (p * p).bit_length()
        calls = _count_field_products(monkeypatch)
        assert mu.restricts_to_sgn_power(1)
        assert not calls
        x = ub.E.element(1234, 5678)
        angle = mu.angle(x)
        assert 0 < sum(calls) <= 2 * (math.isqrt(p + 1) + 1) + 6 * log_q
        monkeypatch.undo()
        v, u = ub.tame_coordinates(x)
        m = ub.residue_field().dlog(u)
        assert angle == (v * mu.angle_pi + Fraction(mu.unit_exponent * m, p * p - 1)) % 1

    def test_no_state_after_construction(self):
        """Residue fields and towers keep no memo of logarithms or inverses."""
        tower = make_extension(BaseField("p-adic", 5), 2, [-5, 0, 1])
        rf = tower.residue
        before = dict(vars(rf)), dict(vars(tower))
        x = tower.from_coords([[2, 1], [1]])
        assert x * x.inverse() == tower.one()
        rf.dlog(x.residue())
        assert (dict(vars(rf)), dict(vars(tower))) == before

    def test_prime_field_generator_is_the_smallest_primitive_root(self):
        ntheory = pytest.importorskip("sympy.ntheory")
        for p in ntheory.primerange(3, 500):
            residue = trivial_tower(BaseField("p-adic", p)).residue
            assert residue.multiplicative_generator()[0] == ntheory.primitive_root(p)


def test_package_has_no_assert():
    """Invariants raise typed errors, which ``python -O`` keeps."""
    src = Path(__file__).resolve().parent.parent / "src" / "endofactor"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_tensor_with_wrong_extension_rejected(rng):
    from endofactor.params import (
        GroupDescriptor,
        IndexEntry,
        RegularParam,
        validate_param,
    )
    from support import random_norm_one, random_tau_fixed_unit
    base = BaseField("p-adic", 5)
    ub1 = UnitaryBaseData(base, 2)
    ub2 = UnitaryBaseData(base, 5)
    alg = ub2.algebra_over(trivial_tower(base))
    y = random_norm_one(rng, alg)
    p = RegularParam((IndexEntry("i", "-", alg, y, random_tau_fixed_unit(rng, alg)),))
    g = GroupDescriptor("unitary", 1, base, E=ub1, eta=ub1.E.element(1))
    rep = validate_param(p, g, "endoscopic")
    assert any(code == "ext-mismatch" for code, _ in rep.violations)


def test_layer_timing_wrappers_install_on_their_targets():
    """perfbench/layers.py wraps every function and method it names where
    it is defined: a renamed or merely inherited target fails here.  The
    wrapped compute gives the same value, and uninstall restores it."""
    import importlib.util
    from endofactor import factor
    from endofactor.document import load_document
    from endofactor.localfield import ExtensionTower, FieldElement

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  root / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    doc = load_document((root / "sample-instance.json").read_text())
    want, _ = factor.compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
    originals = (FieldElement.__dict__["__mul__"], ExtensionTower.__dict__["norm_to_base"])
    tracer = layers.Tracer()
    try:
        tracer.install()
        with tracer.pass_():
            got, _ = factor.compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
    finally:
        tracer.uninstall()
    assert (got.angle, got.render()) == (want.angle, want.render())
    assert tracer.passes[0]["factor.compute_delta"][0] == 1
    assert (FieldElement.__dict__["__mul__"], ExtensionTower.__dict__["norm_to_base"]) == originals
