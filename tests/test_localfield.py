import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofactor.errors import (
    DepthTooSmall,
    DyadicRamifiedUnsupported,
    NotEisenstein,
    UnsupportedCase,
    ZeroValuation,
)
from endofactor.localfield import (
    MAX_ORACLE_RING,
    MAX_PRIME,
    ORACLE_PIECE,
    BaseField,
    FieldElement,
    _ResidueRing,
    _reduce_mod,
    brute_force_norm_oracle,
    hilbert_symbol,
    is_square,
    make_extension,
    norm_test,
    square_class,
    trivial_tower,
    valuation,
)
from endofactor.etale import quadratic_field, split_algebra
from support import encode, square_class_reps

Q5 = BaseField("p-adic", 5)
Q2 = BaseField("p-adic", 2)
Q3 = BaseField("p-adic", 3)
RR = BaseField("real")
F5 = trivial_tower(Q5)


def test_base_field_validation():
    with pytest.raises(ValueError):
        BaseField("p-adic", 6)
    with pytest.raises(ValueError):
        BaseField("p-adic", 5, precision=4)
    with pytest.raises(ValueError):
        BaseField("complex")


def test_prime_bound():
    """The largest prime under MAX_PRIME is accepted, and the check comes
    before the trial division, so a huge p is refused at once."""
    assert MAX_PRIME == 10 ** 5
    assert BaseField("p-adic", 99991).p == 99991
    for p in (100003, 1000000000000000003):
        with pytest.raises(ValueError, match="exceeds the largest supported prime"):
            BaseField("p-adic", p)


class TestMakeExtension:
    def test_trivial(self):
        t = make_extension(Q5, 1, [-5, 1])
        assert (t.e, t.f, t.n) == (1, 1, 1)
        assert t.pi() == t.element(5)

    def test_unramified_quadratic(self):
        t = make_extension(Q5, 2, [-5, 1])
        assert t.q == 25
        assert valuation(t.element(5)) == 1

    def test_ramified_quadratic(self):
        t = make_extension(Q5, 1, [-5, 0, 1])
        assert t.e == 2
        assert valuation(t.pi()) == 1
        assert valuation(t.element(5)) == 2

    def test_not_eisenstein(self):
        with pytest.raises(NotEisenstein):
            make_extension(Q5, 1, [-1, 0, 1])       # unit constant term
        with pytest.raises(NotEisenstein):
            make_extension(Q5, 1, [-25, 0, 1])      # valuation 2 constant
        with pytest.raises(NotEisenstein):
            make_extension(Q5, 1, [-5, 2, 1])       # unit middle coefficient
        with pytest.raises(NotEisenstein):
            make_extension(Q5, 1, [-5, 0, 2])       # not monic

    def test_dyadic_rejection(self):
        with pytest.raises(DyadicRamifiedUnsupported):
            make_extension(Q2, 1, [-2, 0, 1])
        with pytest.raises(DyadicRamifiedUnsupported):
            make_extension(Q2, 2, [-2, 1])
        with pytest.raises(DyadicRamifiedUnsupported):
            make_extension(Q2, 2, [1])              # f = 2 fails before the degree
        assert make_extension(Q2, 1, [-2, 1]).n == 1

    def test_real_trivial_only(self):
        t = trivial_tower(RR)
        assert t.n == 1
        with pytest.raises(UnsupportedCase):
            make_extension(RR, 1, [-1, 0, 1])


class TestValuation:
    def test_examples(self):
        assert valuation(F5.element(25)) == 2
        assert valuation(F5.element(Fraction(1, 5))) == -1
        ram = make_extension(Q5, 1, [-5, 0, 1])
        assert valuation(ram.pi()) == 1
        assert valuation(ram.element(5)) == 2

    def test_zero(self):
        with pytest.raises(ZeroValuation):
            valuation(F5.element(0))

    @given(st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=60, deadline=None)
    def test_additive(self, a, b):
        if a == 0 or b == 0:
            return
        x, y = F5.element(a), F5.element(b)
        assert valuation(x * y) == valuation(x) + valuation(y)
        if x + y:
            assert valuation(x + y) >= min(valuation(x), valuation(y))

    def test_additive_in_tower(self, rng):
        from support import random_nonzero, random_tower
        for _ in range(20):
            t = random_tower(rng, Q5)
            x, y = random_nonzero(rng, t), random_nonzero(rng, t)
            assert valuation(x * y) == valuation(x) + valuation(y)
            if x + y:
                assert valuation(x + y) >= min(valuation(x), valuation(y))


class TestSquareClass:
    def test_examples(self):
        assert square_class(F5.element(9)) == F5.one()
        assert square_class(F5.element(5)) == F5.element(5)
        # 2 is a non-residue mod 5: {x^2 mod 5} = {0, 1, 4}
        assert {pow(x, 2, 5) for x in range(5)} == {0, 1, 4}
        assert square_class(F5.element(2)) == F5.element(2)

    @given(st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_squares_are_squares(self, a):
        assert is_square(F5.element(a * a))
        assert is_square(F5.element(-a * a)) is False or is_square(F5.element(-1))

    def test_rep_divides(self, rng):
        from support import random_nonzero, random_tower
        for _ in range(20):
            t = random_tower(rng, Q5)
            x = random_nonzero(rng, t)
            rep = square_class(x)
            assert is_square(x / rep)

    def test_q2_classes(self):
        f2 = trivial_tower(Q2)
        reps = {repr(square_class(f2.element(k))) for k in
                [1, 3, 5, 7, 2, 6, 10, 14]}
        assert len(reps) == 8
        assert is_square(f2.element(17))       # 1 mod 8
        assert not is_square(f2.element(5))

    def test_real(self):
        fr = trivial_tower(RR)
        assert square_class(fr.element(Fraction(9, 2))) == fr.element(1)
        assert square_class(fr.element(-3)) == fr.element(-1)


class TestHilbert:
    def test_examples(self):
        assert hilbert_symbol(F5.element(1), F5.element(7)) == 1
        a = F5.element(Fraction(3, 5))
        assert hilbert_symbol(a, -a) == 1
        assert hilbert_symbol(F5.element(2), F5.element(5)) == -1

    def test_one_minus_a(self):
        for k in [2, 3, 5, 10, -5, Fraction(1, 5)]:
            a = F5.element(k)
            if a == F5.one():
                continue
            assert hilbert_symbol(a, F5.one() - a) == 1

    def test_axioms_exhaustive_over_reps(self):
        towers = [F5, make_extension(Q5, 2, [-5, 1]),
                  make_extension(Q5, 1, [-5, 0, 1]), trivial_tower(Q2),
                  trivial_tower(RR)]
        for t in towers:
            reps = square_class_reps(t)
            for a in reps:
                for b in reps:
                    assert hilbert_symbol(a, b) == hilbert_symbol(b, a)
                    for c in reps:
                        assert (hilbert_symbol(a * b, c)
                                == hilbert_symbol(a, c) * hilbert_symbol(b, c))

    def test_real_rule(self):
        fr = trivial_tower(RR)
        assert hilbert_symbol(fr.element(-2), fr.element(-3)) == -1
        assert hilbert_symbol(fr.element(-2), fr.element(3)) == 1

    def test_q2(self):
        f2 = trivial_tower(Q2)
        assert hilbert_symbol(f2.element(-1), f2.element(-1)) == -1
        assert hilbert_symbol(f2.element(2), f2.element(5)) == -1
        assert hilbert_symbol(f2.element(2), f2.element(7)) == 1


class TestNormTest:
    def test_split_always_one(self, rng):
        from support import random_nonzero
        s = split_algebra(F5)
        for _ in range(5):
            assert norm_test(random_nonzero(rng, F5), s) == 1

    def test_norms_are_norms(self, rng):
        from support import random_etale_unit
        k = quadratic_field(F5, F5.element(5))
        for _ in range(10):
            t = random_etale_unit(rng, k)
            assert norm_test(t.norm(), k) == 1

    def test_derived_example(self):
        k = quadratic_field(F5, F5.element(5))
        assert norm_test(F5.element(2), k) == -1


def _every_elements(ring):
    """Every element of the ring, as int tuples."""
    return itertools.product(*map(range, ring.mods))


def _every_square(ring):
    """The flags of the squares of every element, squared in the tower."""
    flags = bytearray(ring.size)
    for x in _every_elements(ring):
        b = FieldElement(ring.tower, x, 1)
        flags[encode(ring, ring.reduce(b * b))] = 1
    return flags


def _every_element_oracle(c, ext, depth):
    """The brute-force oracle's search over every b of O/pi^N, testing
    c + delta*b*b in the tower's own arithmetic, where the oracle itself
    scans the squares along the rows of the ring."""
    tower = ext.base_pm
    pi = tower.pi()
    c_n = c * pi ** (-2 * (valuation(c) // 2))
    delta_n = ext.delta * pi ** (-2 * (valuation(ext.delta) // 2))
    ring = _ResidueRing(tower, valuation(c_n) + depth)
    squares = ring.squares()
    return 1 if any(squares[encode(ring, ring.reduce(c_n + delta_n * b * b))]
                    for b in (FieldElement(tower, x, 1) for x in _every_elements(ring))) else -1


class TestOracle:
    def test_examples(self):
        k = quadratic_field(F5, F5.element(5))
        assert brute_force_norm_oracle(F5.element(1), k, 2) == 1
        assert brute_force_norm_oracle(F5.element(-5), k, 2) == 1
        assert brute_force_norm_oracle(F5.element(2), k, 2) == -1

    def test_depth_too_small(self):
        k = quadratic_field(F5, F5.element(5))
        with pytest.raises(DepthTooSmall):
            brute_force_norm_oracle(F5.element(2), k, 1)

    def test_ring_bound(self):
        """Criterion 1 builds O/pi^3 over Q_13 with f = 2, of 13^6 elements;
        a ring over the limit is refused before anything is allocated."""
        tower = make_extension(BaseField("p-adic", 13), 2, [-13, 1])
        assert _ResidueRing(tower, 3).size == 13 ** 6 <= MAX_ORACLE_RING
        with pytest.raises(UnsupportedCase, match=r"has 13\^8 elements"):
            _ResidueRing(tower, 4)
        k = quadratic_field(F5, F5.element(5))
        with pytest.raises(UnsupportedCase, match=r"has 5\^1000000000 elements"):
            brute_force_norm_oracle(F5.element(2), k, 10 ** 9)

    @pytest.mark.parametrize("p, f, eis, depths", [
        (2, 1, [-1, 1], 2), (3, 1, [-1, 1], 2), (7, 1, [-1, 1], 2), (3, 2, [-1, 1], 2),
        (3, 1, [-1, 0, 1], 2), (7, 1, [-1, 0, 1], 2), (3, 3, [-1, 1], 1),
        (3, 1, [-1, 0, 0, 1], 2), (3, 2, [-1, 0, 1], 2),
    ], ids=["z-2", "z-3", "z-7", "u-3", "pi-3", "pi-7", "f3-3", "e3-3", "f2e2-3"])
    def test_squares_scan_against_every_element(self, p, f, eis, depths):
        """The squares of O/pi^N, built along the rows of half the ring, are
        those of every element.  The oracle scans c + delta*s over them; the
        scan of c + delta*b*b over every b gives the same verdict, for every
        pair of square classes at the smallest depths (one for f = 3, whose
        O/pi^4 has 3^12 elements)."""
        tower = make_extension(BaseField("p-adic", p), f, [c * p if k == 0 else c
                                                          for k, c in enumerate(eis)])
        ring = _ResidueRing(tower, 3)
        assert sorted(encode(ring, x) for x in _every_elements(ring)) == list(range(ring.size))
        assert ring.squares() == _every_square(ring)
        reps = square_class_reps(tower)
        for delta in reps[1:]:
            ext = quadratic_field(tower, delta)
            for c in reps:
                least = valuation(tower.element(4)) + valuation(delta) % 2 + 1
                for depth in range(least, least + depths):
                    assert (brute_force_norm_oracle(c, ext, depth)
                            == _every_element_oracle(c, ext, depth) == norm_test(c, ext))

    def test_matches_formula_on_ramified_tower(self):
        t = make_extension(BaseField("p-adic", 3), 1, [-3, 0, 1])
        reps = square_class_reps(t)
        for d in reps[1:]:
            k = quadratic_field(t, d)
            for c in reps:
                depth = (valuation(d) % 2) + 1
                assert brute_force_norm_oracle(c, k, depth) == norm_test(c, k)

    def test_rows_longer_than_a_piece(self):
        """Over Q_3 at N = 9 and 10 a row is the whole ring, 3^9 or 3^10
        elements, walked in pieces of ORACLE_PIECE."""
        tower = make_extension(Q3, 1, [-3, 1])
        ring = _ResidueRing(tower, 9)
        assert ring.mods == (3 ** 9,) and ring.mods[0] > 4 * ORACLE_PIECE
        assert ring.squares() == _every_square(ring)
        reps = square_class_reps(tower)
        for delta in reps[1:]:
            ext = quadratic_field(tower, delta)
            for c in reps:
                assert brute_force_norm_oracle(c, ext, 9) == norm_test(c, ext)

    def test_agrees_with_norm_test_on_towers_of_degree_3_to_6(self):
        """Every square-class pair at the least depth, on seven towers whose
        rings have at most 3^9 elements; the last one's table is over D = 6,
        prime to p."""
        t0 = time.perf_counter()
        checked = 0
        for p, f, eis in [(3, 3, [-3, 1]), (3, 1, [-3, 0, 0, 1]), (3, 2, [[0, -3], 0, 1]),
                          (3, 1, [-3, 0, 0, 0, 1]), (3, 3, [-3, 0, 1]),
                          (3, 1, [-3, 0, 0, 0, 0, 0, 1]),
                          (5, 1, [Fraction(-5, 3), Fraction(5, 2), 0, 1])]:
            tower = make_extension(BaseField("p-adic", p), f, eis)
            reps = square_class_reps(tower)
            for delta in reps[1:]:
                ext = quadratic_field(tower, delta)
                for c in reps:
                    depth = valuation(delta) % 2 + 1
                    assert brute_force_norm_oracle(c, ext, depth) == norm_test(c, ext)
                    checked += 1
            assert max(r.size for r in tower._oracle_rings.values()) <= 3 ** 9
        assert checked == 84
        assert time.perf_counter() - t0 < 10


def test_reduce_mod_needs_an_integral_value():
    assert _reduce_mod(Fraction(3, 7), 5) == 4
    assert _reduce_mod(Fraction(-1, 3), 8) == 5
    assert _reduce_mod(0, 5) == 0
    with pytest.raises(ZeroValuation):
        _reduce_mod(Fraction(1, 5), 5)
    with pytest.raises(ZeroValuation):
        _reduce_mod(Fraction(3, 2), 8)
