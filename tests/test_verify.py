from fractions import Fraction

import pytest

from endofactor.errors import (
    ArithmeticFailure,
    MatchFailure,
    NotInFixedField,
    PoleAtMinusOne,
    PoleAtOne,
    ValidationFailure,
)
from endofactor.etale import charpoly_over, quadratic_field
from endofactor.factor import CharPolyPack, FactorTrace, build_charpoly_pack, compute_delta
from endofactor.forms import gram_block
from endofactor.localfield import BaseField, trivial_tower
from endofactor.params import IndexEntry, RegularParam
from endofactor.verify import (
    cayley,
    cayley_inv,
    check_Aij_is_norm,
    check_Bi_Ci_consistency,
    check_cD_square_class,
    eta_from_nu,
    li_identity_1,
    li_identity_2,
    make_lie_param,
    reconstruct_delta,
    run_suite,
)
from support import delta_I_lie, square_class_reps
from test_poly_reference import gauss_det

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)
K = quadratic_field(F5, F5.element(5))


def _mixed_instance(rng, p=5, tries=60):
    """A twisted-odd instance with at least one field index on each side."""
    from support import make_instance
    for _ in range(tries):
        inst = make_instance(rng, "twisted_gl_odd", p=p, n_indices=(2, 3))
        if inst.y.field_indices("-") and inst.y.field_indices("+"):
            return inst
    raise RuntimeError("no mixed instance")


def _count_calls(monkeypatch, *names):
    """Count the calls of each named function, wrapped wherever an
    endofactor module binds it, or of each (class, name) method; returns
    name -> count, filled as they run."""
    import sys
    counts = {}
    for name in names:
        if isinstance(name, tuple):
            cls, name = name
            owners = [cls]
        else:
            owners = [m for key, m in sorted(sys.modules.items())
                      if key.startswith("endofactor.") and hasattr(m, name)]
        original = getattr(owners[0], name)
        counts[name] = 0

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        for owner in owners:
            if getattr(owner, name) is original:
                monkeypatch.setattr(owner, name, counting)
    return counts


def test_lie_param_needs_norm_one_values(rng):
    # doubling a field-index y_i makes its norm 4, so X_i is not tau-odd
    inst = _mixed_instance(rng)
    entries = tuple(IndexEntry(en.name, en.side, en.algebra, 2 * en.value, en.c)
                    if en is inst.y.field_indices("-")[0] else en
                    for en in inst.y.entries)
    y = RegularParam(entries, inst.y.x_D)
    with pytest.raises(NotInFixedField):
        make_lie_param(y, inst.x, inst.g,
                       FactorTrace(inst.g.case, pack=build_charpoly_pack(y, inst.g)))
    # the engine runs first in the suite, and its validation refuses y
    with pytest.raises(ValidationFailure):
        run_suite(y, inst.x, inst.g, inst.e)


class TestCayley:
    def test_fixed_points(self):
        assert cayley(K.one()) == K.zero()
        assert cayley_inv(K.zero()) == K.one()

    def test_poles(self):
        with pytest.raises(PoleAtMinusOne):
            cayley(K.element(-1))
        with pytest.raises(PoleAtOne):
            cayley_inv(K.one())

    def test_roundtrip(self, rng):
        from support import random_norm_one
        for _ in range(10):
            y = random_norm_one(rng, K)
            x = cayley(y)
            assert x.tau() == -x
            assert cayley_inv(x) == y

    def test_inverse_produces_norm_one(self, rng):
        from support import random_unit
        x = K.element(0, random_unit(rng, F5))     # tau-odd
        y = cayley_inv(x)
        assert y.norm() == F5.one()


def test_eta_from_nu():
    assert eta_from_nu(F5.element(1)) == F5.element(-1)
    assert eta_from_nu(F5.element(-1)) == F5.element(1)


class TestLiIdentities:
    def test_li1_exact(self, rng):
        inst = _mixed_instance(rng)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        i = inst.y.field_indices("-")[0].name
        j = inst.y.field_indices("+")[0].name
        assert li_identity_1(data, i, j)

    def test_li1_rigid(self, rng):
        inst = _mixed_instance(rng)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        i = inst.y.field_indices("-")[0].name
        j = inst.y.field_indices("+")[0].name
        data.X[i] = data.X[i] * 2          # break the Cayley link
        assert not li_identity_1(data, i, j)

    def test_li2_exact(self, rng):
        from support import make_instance
        for _ in range(3):
            inst = make_instance(rng, "twisted_gl_odd", p=5)
            data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
            for en in inst.y.field_indices("-"):
                assert li_identity_2(data, en.name)

    def test_li2_rigid(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        name = inst.y.field_indices("-")[0].name
        data.X[name] = data.X[name] * 2
        assert not li_identity_2(data, name)


class TestAij:
    def test_random_instances(self, rng):
        inst = _mixed_instance(rng)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        for i in [en.name for en in inst.y.field_indices("-")]:
            for j in [en.name for en in inst.y.field_indices("+")]:
                assert check_Aij_is_norm(data, i, j)

    def test_cj_scaling_by_nonnorm(self, rng):
        # A changes by a norm when c_j moves, so the verdict is stable
        inst = _mixed_instance(rng)
        j = inst.y.field_indices("+")[0].name
        jalg = inst.y.entry(j).algebra
        reps = square_class_reps(jalg.base_pm)
        _, run = compute_delta(*inst.astuple())
        for r in reps:
            data = make_lie_param(inst.y, inst.x, inst.g, run, c={j: r})
            for i in [en.name for en in inst.y.field_indices("-")]:
                assert check_Aij_is_norm(data, i, j)


class TestCd:
    def test_empty_index_set(self):
        from endofactor.params import EndoscopicDatum, GroupDescriptor
        nu = F5.element(3)
        g = GroupDescriptor("twisted_gl_odd", 1, Q5, nu=nu, eta=-nu)
        y = RegularParam(())
        x = RegularParam((), F5.element(7))
        e = EndoscopicDatum(1, 0, chi=F5.element(1))
        data = make_lie_param(y, x, g, compute_delta(y, x, g, e)[1])
        # with I empty the P products are 1 and c_D = -nu = eta
        assert data.c_D == -nu
        assert check_cD_square_class(data)

    def test_two_path_bookkeeping(self, rng):
        from support import make_instance
        for _ in range(5):
            inst = make_instance(rng, "twisted_gl_odd", p=5)
            data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
            assert check_cD_square_class(data)
            # the Gram determinants against the Gauss reference
            want = -inst.g.nu.as_fraction()
            for en in inst.y.entries:
                want *= gauss_det(gram_block(en.algebra, en.algebra.element(1)))
            assert data.c_D.as_fraction() == want

    def test_nonsquare_perturbation_fails(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        data.c_D = data.c_D * F5.element(2)       # non-square unit
        assert not check_cD_square_class(data)


class TestBiCi:
    def test_consistency(self, rng):
        from support import make_instance
        for _ in range(4):
            inst = make_instance(rng, "twisted_gl_odd", p=3)
            data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
            for en in inst.y.field_indices("-"):
                assert check_Bi_Ci_consistency(data, en.name)

    def test_holds_with_perturbed_cD(self, rng):
        # the three-term identity never uses the determinant bookkeeping
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        data.c_D = F5.element(7)
        for en in inst.y.field_indices("-"):
            assert check_Bi_Ci_consistency(data, en.name)


class TestDeltaILie:
    def test_lambda_square_scaling(self, rng):
        from support import make_instance, random_unit
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
        base = delta_I_lie(data)
        lam = random_unit(rng, F5).as_fraction()
        for name in data.X:
            data.X[name] = data.X[name] * (lam * lam)
        import endofactor._poly as _poly
        prod = [Fraction(1)]
        for en in inst.y.entries:
            from endofactor.etale import charpoly_over
            prod = _poly.pmul(prod, charpoly_over(data.X[en.name], "F"))
        data.Q_X = _poly.pmul([Fraction(0), Fraction(1)], prod)
        data.dQ_X = _poly.pderiv(data.Q_X)
        assert delta_I_lie(data).angle == base.angle

    def test_empty_minus(self, rng):
        from support import make_instance
        for _ in range(6):
            inst = make_instance(rng, "twisted_gl_odd", p=5,
                                 need_minus_field=False)
            if inst.y.field_indices("-"):
                continue
            data = make_lie_param(inst.y, inst.x, inst.g, compute_delta(*inst.astuple())[1])
            assert delta_I_lie(data).sign == 1
            return


class TestSuite:
    def test_full_suite_passes(self, rng):
        inst = _mixed_instance(rng)
        results = run_suite(*inst.astuple())
        assert results and all(ok for _, ok in results)
        names = [n for n, _ in results]
        assert any(n.startswith("li-identity-1") for n in names)
        assert any(n.startswith("A-is-norm") for n in names)
        assert "cD-square-class" in names
        assert "lie-side-reconstruction" in names

    def test_engine_runs_once(self, rng, monkeypatch):
        # compute_delta validates, builds the one pack and computes each C_i
        # once; the Lie side adds only the Q_j (charpoly_over) to the
        # engine's P_j, which the one pack expands once, as a cached
        # property, and reads the C_i verdicts from the engine's run
        inst = _mixed_instance(rng)
        counts = _count_calls(monkeypatch, "validate_package", "build_charpoly_pack",
                              "charpoly_over", "compute_C")
        results = run_suite(*inst.astuple())
        assert all(ok for _, ok in results)
        assert counts == {
            "validate_package": 1, "build_charpoly_pack": 1,
            "charpoly_over": len(inst.y.entries),
            "compute_C": len(inst.y.field_indices("-"))}

    def test_lie_side_reads_the_validated_pack(self, rng, monkeypatch):
        from endofactor import factor, verify
        returned = {}
        for module, name in ((factor, "validate_package"), (verify, "make_lie_param")):
            def keeping(*args, _original=getattr(module, name), _name=name):
                returned.setdefault(_name, []).append(_original(*args))
                return returned[_name][-1]
            monkeypatch.setattr(module, name, keeping)
        inst = _mixed_instance(rng)
        assert all(ok for _, ok in run_suite(*inst.astuple()))
        [pack], [data] = returned["validate_package"], returned["make_lie_param"]
        assert data.run.pack is pack
        assert list(data.P_j) == pack.names
        assert all(q is pack.P_j[i] for i, q in enumerate(data.P_j.values()))
        assert pack.P_j == [charpoly_over(en.value, "F") for en in inst.y.entries]

    def test_check_command_counts(self, monkeypatch):
        # the command leaves an odd twisted document's validation to the
        # engine run of the suite, so it is validated once
        from pathlib import Path

        from endofactor.cli import main
        counts = _count_calls(monkeypatch, "build_charpoly_pack", "charpoly_over", "compute_C",
                              (CharPolyPack, "is_regular"))
        sample = Path(__file__).resolve().parent.parent / "sample-instance.json"
        assert main(["check", str(sample)]) == 0
        assert counts == {
            "build_charpoly_pack": 1, "charpoly_over": 1, "compute_C": 1, "is_regular": 1}

    def test_suite_counts(self, monkeypatch):
        # on a document with three indices, one a minus-side field index
        # and one a plus-side field index: the round trips take the X_i of
        # the Lie data, each polynomial is evaluated once at each point,
        # B_i is formed once, and the symbols take no inverse
        import sys
        from collections import Counter
        from pathlib import Path

        from endofactor import _poly, verify
        from endofactor.document import load_document
        from endofactor.localfield import ExtensionTower
        path = Path(__file__).resolve().parent / "golden" / "twisted-odd-two-sided.json"
        doc = load_document(path.read_text())
        assert [(en.side, en.algebra.is_field) for en in doc.y.entries] == [
            ("-", False), ("+", True), ("-", True)]
        counts = _count_calls(monkeypatch, "cayley", "_b_base")
        evaluations, inside, inversions = Counter(), [], Counter()
        peval, invert = _poly.peval, ExtensionTower._invert

        def counted_peval(poly, x, zero):
            evaluations[id(poly), x] += 1
            return peval(poly, x, zero)

        def counted_invert(tower, x):
            inversions["all"] += 1
            inversions["in symbols"] += bool(inside)
            return invert(tower, x)

        for name in ("hilbert_symbol", "is_square", "square_class"):
            original = getattr(sys.modules["endofactor.localfield"], name)

            def entered(*args, _original=original):
                inside.append(1)
                try:
                    return _original(*args)
                finally:
                    inside.pop()

            for key, module in sorted(sys.modules.items()):
                if key.startswith("endofactor.") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, entered)
        monkeypatch.setattr(_poly, "peval", counted_peval)
        monkeypatch.setattr(ExtensionTower, "_invert", counted_invert)
        results = verify.run_suite(doc.y, doc.x, doc.group, doc.endoscopic)
        assert results and all(ok for _, ok in results)
        assert counts == {"cayley": 3, "_b_base": 1}
        assert len(evaluations) == 4 and set(evaluations.values()) == {1}
        assert inversions == {"all": 8, "in symbols": 0}

    def test_engine_refusal_fails_the_C_comparison(self, rng, monkeypatch):
        # a plus-side x_j replaced by tau(x_j), off its matching class: the
        # engine refuses the instance before any C_i, and the suite raises
        # its error; a run with no C_i records gives B_i nothing to match
        inst = _mixed_instance(rng)
        j = inst.y.field_indices("+")[0].name
        bad_x = RegularParam(tuple(
            IndexEntry(en.name, en.side, en.algebra,
                       en.value.tau() if en.name == j else en.value, en.c)
            for en in inst.x.entries), inst.x.x_D)
        counts = _count_calls(monkeypatch, "compute_C")
        with pytest.raises(MatchFailure):
            run_suite(inst.y, bad_x, inst.g, inst.e)
        assert counts == {"compute_C": 0}
        data = make_lie_param(inst.y, bad_x, inst.g,
                              FactorTrace(inst.g.case, pack=build_charpoly_pack(inst.y, inst.g)))
        minus = [en.name for en in inst.y.field_indices("-")]
        assert minus and not any(check_Bi_Ci_consistency(data, i) for i in minus)

    def test_non_regular_instance_is_flagged(self, rng):
        # a plus-side copy of a minus-side field index makes Q_j(X_i) = 0;
        # A_{i,j} inverts it, which the suite would flag as a failed
        # A-is-norm, but the suite's engine run refuses the instance first
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5, n_indices=(1, 1))
        en = inst.y.field_indices("-")[0]
        xe = inst.x.entry(en.name)
        y = RegularParam(inst.y.entries + (
            IndexEntry("copy", "+", en.algebra, en.value, en.c),), inst.y.x_D)
        x = RegularParam(inst.x.entries + (
            IndexEntry("copy", "+", xe.algebra, xe.value, xe.c),), inst.x.x_D)
        with pytest.raises(ValidationFailure):
            run_suite(y, x, inst.g, inst.e)
        data = make_lie_param(y, x, inst.g,
                              FactorTrace(inst.g.case, pack=build_charpoly_pack(y, inst.g)))
        with pytest.raises(ArithmeticFailure):
            check_Aij_is_norm(data, en.name, "copy")

    def test_corruption_is_caught(self, rng):
        # corrupting y_j breaks the correspondence with x; the identities on
        # the re-derived Cayley data still hold, so it is the suite's engine
        # run that refuses the instance
        inst = _mixed_instance(rng)
        j = inst.y.field_indices("+")[0].name
        bad_entries = tuple(
            IndexEntry(en.name, en.side, en.algebra,
                       en.value ** 3 if en.name == j else en.value, en.c)
            for en in inst.y.entries)
        bad_y = RegularParam(bad_entries)
        with pytest.raises(MatchFailure):
            run_suite(bad_y, inst.x, inst.g, inst.e)
        data = make_lie_param(bad_y, inst.x, inst.g,
                              FactorTrace(inst.g.case, pack=build_charpoly_pack(bad_y, inst.g)))
        for i in [en.name for en in inst.y.field_indices("-")]:
            assert all(li_identity_1(data, i, en.name) for en in inst.y.field_indices("+"))
            assert li_identity_2(data, i)

    def test_reduced_suite(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        results = run_suite(*inst.astuple())
        assert all(ok for _, ok in results)
        assert any("reduced suite" in name for name, _ in results)

    def test_reconstruction_matches(self, rng):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        delta, run = compute_delta(*inst.astuple())
        data = make_lie_param(inst.y, inst.x, inst.g, run)
        assert reconstruct_delta(data, inst.e.chi).angle == delta.angle
