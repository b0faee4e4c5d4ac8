from fractions import Fraction

import pytest

from endofactor.errors import Degenerate, NonSymmetric
from endofactor.etale import quadratic_field, split_algebra
from endofactor.forms import (
    QuadraticSpace,
    gram_block,
    invariants,
    isomorphic,
    symmetrize_twisted,
    trace_form_gram,
)
from endofactor.localfield import (
    BaseField,
    hilbert_symbol,
    is_square,
    make_extension,
    square_class,
    trivial_tower,
)
from endofactor.params import IndexEntry, RegularParam
from support import from_pair
from test_poly_reference import gauss_det

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)
RR = trivial_tower(BaseField("real"))


def diag(field, entries):
    d = len(entries)
    return QuadraticSpace(
        field, [[entries[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )


class TestQuadraticSpace:
    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            QuadraticSpace(F5, [[1, 2], [3, 1]])

    def test_rejects_singular(self):
        with pytest.raises(Degenerate):
            QuadraticSpace(F5, [[1, 1], [1, 1]])

    def test_dimension_zero(self):
        sp = QuadraticSpace(F5, [])
        inv = invariants(sp)
        assert inv.dim == 0 and inv.disc == F5.one() and inv.hasse == 1


class TestInvariants:
    def test_examples(self):
        inv = invariants(diag(F5, [1, 1]))
        assert (inv.det, inv.hasse) == (F5.one(), 1)
        assert invariants(diag(F5, [1, -1])).disc == F5.one()
        assert invariants(diag(F5, [5, 5])).hasse == 1
        assert invariants(diag(F5, [5, 5])).hasse == hilbert_symbol(
            F5.element(5), F5.element(5))

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            d = rng.randint(1, 4)
            entries = [rng.choice([1, 2, 5, 10, -1, -2]) for _ in range(d)]
            sp = diag(F5, entries)
            base = invariants(sp)
            # random invertible change of basis
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            for i in range(d):
                m[i][i] += 7
            g = [[sum(m[k][i] * sp.gram[k][l].as_fraction() * m[l][j]
                      for k in range(d) for l in range(d))
                  for j in range(d)] for i in range(d)]
            if gauss_det([[x for x in row] for row in g]) == 0:
                continue
            other = invariants(QuadraticSpace(F5, g))
            assert base.same_class(other)
            assert base.det == other.det and base.hasse == other.hasse

    def test_real_signature(self):
        inv = invariants(diag(RR, [2, -3, 5]))
        assert inv.signature == (2, 1)


class TestIsomorphic:
    def test_reflexive(self):
        sp = diag(F5, [1, 2, 5])
        assert isomorphic(sp, sp)

    def test_real_counterexample(self):
        assert not isomorphic(diag(RR, [1, 1]), diag(RR, [1, -1]))

    def test_invariant_comparison(self):
        u, pi = F5.element(2), F5.element(5)
        a = diag(F5, [1, -5 * 2])
        b = diag(F5, [2, -2 * 5 * 2])
        same = (invariants(a).det == invariants(b).det
                and invariants(a).hasse == invariants(b).hasse)
        assert isomorphic(a, b) == same

    def test_hyperbolic_stability(self, rng):
        for _ in range(8):
            entries_a = [rng.choice([1, 2, 5, 10, -1]) for _ in range(2)]
            entries_b = [rng.choice([1, 2, 5, 10, -1]) for _ in range(2)]
            a, b = diag(F5, entries_a), diag(F5, entries_b)
            a2, b2 = diag(F5, entries_a + [1, -1]), diag(F5, entries_b + [1, -1])
            assert isomorphic(a, b) == isomorphic(a2, b2)


class TestTraceFormGram:
    def test_distinguished_line_only(self):
        p = RegularParam((), F5.element(1))
        sp = trace_form_gram(p)
        assert sp.dim == 1 and sp.gram[0][0] == F5.one()

    def test_split_index_is_hyperbolic(self):
        s = split_algebra(F5)
        p = RegularParam((IndexEntry("i", "-", s, from_pair(s, 1, 1)),))
        inv = invariants(trace_form_gram(p))
        assert inv.dim == 2 and inv.disc == F5.one()

    def test_determinant_identity(self, rng):
        from support import random_field_algebra, random_tau_fixed_unit, random_tower
        for _ in range(12):
            tower = random_tower(rng, Q5)
            alg = random_field_algebra(rng, tower)
            c = random_tau_fixed_unit(rng, alg)
            det = gauss_det(gram_block(alg, c))
            want = tower.norm_to_base(-alg.delta)
            assert is_square(F5.element(det * want))

    def test_non_symmetric_coefficient(self):
        k = quadratic_field(F5, F5.element(5))
        p = RegularParam((IndexEntry("i", "-", k, k.element(1, 2), k.element(0, 1)),))
        with pytest.raises(NonSymmetric):
            trace_form_gram(p)


class TestSymmetrize:
    def test_single_split_index(self):
        s = split_algebra(F5)
        p = RegularParam((IndexEntry("i", "-", s, from_pair(s, 1, 1)),))
        sp = symmetrize_twisted(p)
        # x is already tau-fixed, so the Gram is twice the trace form
        q = trace_form_gram(p)
        assert sp.dim == 2
        assert all(sp.gram[i][j] == 2 * q.gram[i][j] for i in range(2) for j in range(2))

    def test_tau_fixed_doubles(self, rng):
        from support import random_field_algebra, random_tau_fixed_unit, random_tower
        alg = random_field_algebra(rng, random_tower(rng, Q5))
        x = random_tau_fixed_unit(rng, alg)
        p = RegularParam((IndexEntry("i", "-", alg, x, x),))
        sym = symmetrize_twisted(p)
        q = trace_form_gram(p)
        n = sym.dim
        assert all(sym.gram[i][j] == 2 * q.gram[i][j] for i in range(n) for j in range(n))

    def test_degenerate(self):
        k = quadratic_field(F5, F5.element(5))
        p = RegularParam((IndexEntry("i", "-", k, k.element(0, 3)),))  # tau-odd x
        with pytest.raises(Degenerate):
            symmetrize_twisted(p)

    def test_disc_matches_endoscopic_space(self, rng):
        # matching ties the symmetrization's discriminant to the endoscopic one
        from support import indicator_instance
        inst = indicator_instance(rng, 5)
        q_xt = symmetrize_twisted(inst.x)
        q_minus = trace_form_gram(inst.y)
        assert invariants(q_xt).disc == invariants(q_minus).disc


def test_gram_block_agrees_with_the_products():
    """The Gram block read off the structure constants equals the one made
    by a product and a trace per entry, on every index algebra of the
    benchmark's seed-1 corpora, with the coefficients 1, x + tau(x), c and
    N(x); and both refuse each x and c that is not tau-fixed."""
    from support import gram_block_by_products
    from endofactor.document import load_document
    from test_document import _perfbench_corpus
    corpus = _perfbench_corpus()
    blocks = refused = 0
    for workload in ("batch-mixed", "deep-towers", "large-prime-unitary"):
        for text in corpus.generate(workload, 1):
            doc = load_document(text)
            for en in doc.y.entries + doc.x.entries:
                alg, x = en.algebra, en.value
                for c in (alg.one(), x + x.tau(), en.c, alg.element(x.norm()), x):
                    if not c:
                        continue
                    if c.tau() == c:
                        assert gram_block(alg, c) == gram_block_by_products(alg, c)
                        blocks += 1
                        continue
                    for build in (gram_block, gram_block_by_products):
                        with pytest.raises(NonSymmetric):
                            build(alg, c)
                    refused += 1
    assert blocks > 3000 and refused > 1000
