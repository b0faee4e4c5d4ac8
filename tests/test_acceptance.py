"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact; "tolerance" everywhere is equality of Fractions (for
unit-circle values, equality of angles in Q/Z).  Time budgets are asserted
where the criteria state them.
"""

import json
import random
import time
from fractions import Fraction

from endofactor import forms
from endofactor.document import dump_document
from endofactor.errors import EndofactorError
from endofactor.etale import quadratic_field
from endofactor.factor import (
    build_charpoly_pack,
    compute_C,
    compute_delta,
    special_case_indicator,
    swapped_delta,
)
from endofactor.localfield import (
    BaseField,
    brute_force_norm_oracle,
    hilbert_symbol,
    is_square,
    make_extension,
    norm_test,
    square_class,
    trivial_tower,
    valuation,
)
from endofactor.params import EndoscopicDatum, GroupDescriptor, IndexEntry, RegularParam

from support import (
    indicator_instance,
    make_instance,
    random_etale_unit,
    random_norm_one,
    random_tau_fixed_unit,
    random_tau_odd_unit,
    random_unit,
    so_odd_swap_instance,
    solve_matching,
    square_class_reps,
    _nonresidue,
)
from test_poly_reference import gauss_det

NINE_CASES = (
    ("symplectic", None),
    ("so_odd", None),
    ("so_even", None),
    ("twisted_gl_even", None),
    ("twisted_gl_odd", None),
    ("unitary", 0),
    ("unitary", 1),
    ("bc_unitary", 0),
    ("bc_unitary", 1),
)


def report(number, text, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {text}: {status}{(' (' + extra + ')') if extra else ''}")
    assert ok, f"criterion {number} failed"


def _sweep_towers(p):
    base = BaseField("p-adic", p)
    u = _nonresidue(p)
    return [
        trivial_tower(base),
        make_extension(base, 2, [-p, 1]),
        make_extension(base, 1, [-p, 0, 1]),
        make_extension(base, 1, [-p * u, 0, 1]),
    ]


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    towers = [t for p in (3, 5, 7, 13) for t in _sweep_towers(p)]
    towers.append(trivial_tower(BaseField("p-adic", 2)))
    for tower in towers:
        reps = square_class_reps(tower)
        for delta in reps:
            if is_square(delta):
                continue
            ext = quadratic_field(tower, delta)
            depth = valuation(tower.element(4)) + (valuation(delta) % 2) + 1
            for c in reps:
                got = brute_force_norm_oracle(c, ext, depth)
                want = norm_test(c, ext)
                checked += 1
                if got != want:
                    ok = False
    elapsed = time.time() - t0
    report(1, "norm test agrees with the brute-force oracle on every "
              "square-class pair", ok and elapsed < 60,
           f"{checked} pairs, {elapsed:.1f}s")


def test_criterion_2_hilbert_axioms():
    ok = True
    towers = [t for p in (3, 5, 7, 13) for t in _sweep_towers(p)]
    towers.append(trivial_tower(BaseField("p-adic", 2)))
    towers.append(trivial_tower(BaseField("real")))
    checked = 0
    for tower in towers:
        reps = square_class_reps(tower)
        one = tower.one()
        for a in reps:
            ok = ok and hilbert_symbol(a, -a) == 1
            if a != one and (one - a):
                ok = ok and hilbert_symbol(a, one - a) == 1
            for b in reps:
                ok = ok and hilbert_symbol(a, b) == hilbert_symbol(b, a)
                for c in reps:
                    ok = ok and (hilbert_symbol(a * b, c)
                                 == hilbert_symbol(a, c) * hilbert_symbol(b, c))
                    checked += 1
    report(2, "Hilbert symbol axioms (symmetry, bimultiplicativity, "
              "(a,-a), (a,1-a)) exhaustively over representatives", ok,
           f"{checked} triples")


def test_criterion_3_c_well_defined():
    rng = random.Random(101)
    ok = True
    per_case = []
    for case, parity in NINE_CASES:
        count = 0
        while count < 100:
            inst = make_instance(rng, case, p=rng.choice([3, 5, 7]),
                                 n_indices=(1, 2), force_d_parity=parity)
            pack = build_charpoly_pack(inst.y, inst.g)
            names = [en.name for en in inst.y.field_indices("-")]
            if not names:
                continue
            for name in names:
                try:
                    c_fi, c_base = compute_C(name, pack, inst.y, inst.x, inst.g)
                    # tau-fixedness is certified by as_base inside compute_C;
                    # re-assert both halves of the contract explicitly
                    if c_fi.tau() != c_fi or not c_base:
                        ok = False
                except EndofactorError:
                    ok = False
            count += 1
        per_case.append(f"{case}{'' if parity is None else '/d%2=' + str(parity)}")
    report(3, "C_i lies in F_pm^x exactly (tau-fixed, nonzero) on 100 "
              "instances for each of the nine formulas", ok,
           f"{len(per_case)} formula cases")


def test_criterion_4_norm_class_invariance():
    rng = random.Random(202)
    ok = True
    for case, parity in NINE_CASES:
        twisted = case in ("twisted_gl_even", "twisted_gl_odd", "bc_unitary")
        for _ in range(50):
            inst = make_instance(rng, case, p=rng.choice([3, 5]),
                                 n_indices=(1, 2), force_d_parity=parity)
            base_value, _ = compute_delta(*inst.astuple())
            entries = []
            for en in inst.x.entries:
                nrm = random_etale_unit(rng, en.algebra).norm()
                if twisted:
                    entries.append(IndexEntry(en.name, en.side, en.algebra,
                                              en.value * nrm, en.c))
                else:
                    entries.append(IndexEntry(en.name, en.side, en.algebra,
                                              en.value, en.c * nrm))
            x_d = inst.x.x_D
            if x_d is not None:
                s = random_unit(rng, inst.g.F)
                x_d = x_d * s * s
            x2 = RegularParam(tuple(entries), x_d)
            again, _ = compute_delta(inst.y, x2, inst.g, inst.e)
            if again.angle != base_value.angle:
                ok = False
    report(4, "replacing c_i (or x_i) by a norm multiple and x_D by a "
              "square multiple leaves the factor exactly unchanged "
              "(50 instances per formula case)", ok)


def test_criterion_5_identity_suite():
    from endofactor.verify import run_suite
    rng = random.Random(303)
    t0 = time.time()
    ok = True
    count = 0
    with_cross_terms = 0
    while count < 100:
        inst = make_instance(rng, "twisted_gl_odd", p=rng.choice([3, 5]),
                             n_indices=(1, 3))
        results = run_suite(*inst.astuple())
        if not all(flag for _, flag in results):
            ok = False
        if any(name.startswith("li-identity-1") for name, _ in results):
            with_cross_terms += 1
        count += 1
    elapsed = time.time() - t0
    report(5, "exact identity suite (Cayley round trips, both polynomial "
              "identities, A-norm, c_D square class, B/C consistency) on "
              "100 odd twisted instances", ok and elapsed < 120,
           f"{with_cross_terms} with cross-index identities, {elapsed:.1f}s")


def test_criterion_6_trace_form_determinant():
    from support import random_field_algebra, random_tower
    rng = random.Random(404)
    ok = True
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        base = BaseField("p-adic", p)
        F = trivial_tower(base)
        tower = random_tower(rng, base)
        alg = random_field_algebra(rng, tower)
        c = random_tau_fixed_unit(rng, alg)
        det = gauss_det(forms.gram_block(alg, c))
        want = tower.norm_to_base(-alg.delta)
        if not is_square(F.element(det * want)):
            ok = False
    report(6, "trace-form Gram determinant equals Norm(-delta) modulo "
              "squares on randomized field indices", ok, "100 samples")


def test_criterion_7_indicator_cross_check():
    rng = random.Random(505)
    ok = True
    outcomes = {1: 0, -1: 0}
    for _ in range(50):
        inst = indicator_instance(rng, rng.choice([3, 5, 7]))
        value, _ = compute_delta(*inst.astuple())
        ind = special_case_indicator(*inst.astuple())
        outcomes[ind.sign] += 1
        if value.angle != ind.angle:
            ok = False
    report(7, "even twisted factor equals the quadratic-space isomorphism "
              "indicator on 50 matched instances (two code paths)", ok,
           f"isomorphic {outcomes[1]}, non-isomorphic {outcomes[-1]}")


def test_criterion_8_swap_behavior():
    rng = random.Random(606)
    ok = True
    mix = {"trivial": 0, "nontrivial": 0}
    for _ in range(50):
        inst = so_odd_swap_instance(rng, rng.choice([3, 5, 7]))
        base_value, _ = compute_delta(*inst.astuple())
        swapped = swapped_delta(*inst.astuple())
        mix[inst.e.cocycle_class] += 1
        if swapped.angle != base_value.angle:
            ok = False
        e = inst.e
        flipped = EndoscopicDatum(
            e.d_minus, e.d_plus, e.delta_minus, e.delta_plus, e.chi, e.mu_minus, e.mu_plus,
            cocycle_class="nontrivial" if e.cocycle_class == "trivial" else "trivial")
        other = swapped_delta(inst.y, inst.x, inst.g, flipped)
        if other.angle != base_value.negate().angle:
            ok = False
    report(8, "swapped factor equals the factor for a trivial cocycle and "
              "its negative for a nontrivial one (odd orthogonal case)",
           ok, f"cocycle mix {mix}")


def test_criterion_9_trivial_suite():
    rng = random.Random(707)
    ok = True
    # (a) empty minus field set with trivial prefactors
    Q5 = BaseField("p-adic", 5)
    F5 = trivial_tower(Q5)
    k = quadratic_field(F5, F5.element(5))
    y = random_norm_one(rng, k)
    nu = random_unit(rng, F5)
    g = GroupDescriptor("twisted_gl_odd", 3, Q5, nu=nu, eta=-nu)
    yp = RegularParam((IndexEntry("i", "+", k, y, k.element(0, 1)),))
    xp = RegularParam((IndexEntry("i", "+", k, solve_matching(rng, y, k), None),),
                      random_unit(rng, F5))
    e = EndoscopicDatum(1, 2, chi=F5.element(1))    # trivial character
    value, trace = compute_delta(yp, xp, g, e)
    ok = ok and value.sign == 1 and not trace.indices
    # (b) all-split minus side in the plain product cases
    for case in ("symplectic", "so_odd", "so_even", "twisted_gl_even"):
        for _ in range(3):
            inst = make_instance(rng, case, p=5, need_minus_field=False,
                                 split_ratio=1.0)
            if inst.y.field_indices("-"):
                continue
            value, _ = compute_delta(*inst.astuple())
            ok = ok and value.sign == 1
    # (c) real base: the norm character is the sign
    RRb = BaseField("real")
    FR = trivial_tower(RRb)
    cc = quadratic_field(FR, FR.element(-1))
    ok = ok and norm_test(FR.element(-2), cc) == -1
    ok = ok and norm_test(FR.element(2), cc) == 1
    yv = cc.element(Fraction(3, 5), Fraction(4, 5))
    gr = GroupDescriptor("symplectic", 2, RRb, eta=FR.element(1))
    ypr = RegularParam((IndexEntry("i", "-", cc, yv, None),))
    xpr = RegularParam((IndexEntry("i", "-", cc, yv, cc.element(0, 2)),))
    er = EndoscopicDatum(2, 0, delta_minus=FR.element(-1))
    vr, _ = compute_delta(ypr, xpr, gr, er)
    # C = eta * 2 * (128/25) > 0, so the factor is +1
    ok = ok and vr.sign == 1
    xpr2 = RegularParam((IndexEntry("i", "-", cc, yv, cc.element(0, -2)),))
    vr2, _ = compute_delta(ypr, xpr2, gr, er)
    ok = ok and vr2.sign == -1
    report(9, "trivial cases: empty minus field set gives +1, all-split "
              "minus side gives +1, real-base norm character is the sign",
           ok)


def test_criterion_10_determinism(tmp_path):
    import contextlib
    import io
    from endofactor.cli import main
    rng = random.Random(808)
    inst = make_instance(rng, "twisted_gl_odd", p=5)
    path = tmp_path / "det.json"
    path.write_text(json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)))
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["compute", str(path), "--trace"])
        outputs.append((code, buf.getvalue().encode()))
    ok = outputs[0] == outputs[1] and outputs[0][0] == 0
    report(10, "repeated compute runs produce byte-identical output "
               "including the trace", ok, f"{len(outputs[0][1])} bytes")
