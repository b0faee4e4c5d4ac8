import io
import json
import contextlib
import time
from fractions import Fraction
from pathlib import Path

import pytest

from endofactor.cli import main
from endofactor.document import MAX_INDICES, MAX_LITERAL_LENGTH, dump_document
from endofactor.localfield import MAX_ORACLE_RING, MAX_PRIME, MAX_TOWER_DEGREE

SAMPLE = Path(__file__).resolve().parent.parent / "sample-instance.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture
def two_sided(tmp_path):
    """The path of a copy of the two-sided odd twisted golden, changed in
    place by ``mutate(doc)``."""
    def two_sided(mutate):
        doc = json.loads((GOLDEN / "twisted-odd-two-sided.json").read_text())
        mutate(doc)
        out = tmp_path / "two-sided.json"
        out.write_text(json.dumps(doc))
        return str(out)
    return two_sided


@pytest.fixture
def doc_path(rng, tmp_path):
    from support import make_instance
    inst = make_instance(rng, "twisted_gl_odd", p=5)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)))
    return str(path)


class TestValidate:
    def test_valid_exit_zero(self, doc_path):
        code, out = run_cli(["validate", doc_path])
        assert code == 0
        assert "valid" in out and "matching: ok" in out

    def test_ellipticity_violation_exits_one(self, rng, tmp_path):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        doc["endoscopic"]["d_minus"] = 2
        doc["endoscopic"]["d_plus"] = inst.g.d - 2
        doc["endoscopic"]["delta_minus"] = "4"     # a square: excluded
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)])
        assert code == 1
        assert "excluded: orthogonal factor with (dim, disc) = (2, 1)" in out

    def test_parse_error_exits_three(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli(["validate", str(path)])
        assert code == 3

    def test_missing_file_exits_three(self):
        code, _ = run_cli(["validate", "/nonexistent/x.json"])
        assert code == 3

    def test_towers_not_an_object_exits_three(self, tmp_path, capsys):
        doc = json.loads(SAMPLE.read_text())
        doc["towers"] = ["K0"]
        path = tmp_path / "towers.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["compute", str(path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "parse error: $.towers: field 'towers' has the wrong type\n")

    def test_over_large_prime_exits_three(self, tmp_path, capsys):
        doc = json.loads(SAMPLE.read_text())
        doc["base"]["p"] = 1000000000000000003
        path = tmp_path / "big_p.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "parse error: $.base: p = 1000000000000000003 exceeds the largest "
            f"supported prime {MAX_PRIME}\n")


    @pytest.mark.parametrize("f, eis, degree", [(8, ["-5", "1"], 8),
                                                (1, ["-5"] + ["0"] * 6 + ["1"], 7),
                                                (20, ["1"], 20)])
    def test_over_large_tower_exits_three(self, tmp_path, capsys, f, eis, degree):
        """The degree bound is checked before any tower is built, so an
        oversized tower costs no search for its unramified polynomial."""
        doc = json.loads(SAMPLE.read_text())
        doc["towers"]["K0"] = {"f": f, "eis": eis}
        path = tmp_path / "big_tower.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out = run_cli(["validate", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"parse error: $.towers.K0: tower degree {degree} exceeds the limit "
            f"{MAX_TOWER_DEGREE}\n")

    @pytest.mark.parametrize("base, eis, reason", [
        ({"kind": "real"}, ["-1", "1"], "only the trivial tower is supported over R"),
        ({"kind": "p-adic", "p": 2}, ["-2", "1"],
         "extensions with residue characteristic 2 are not supported")],
        ids=["real", "dyadic"])
    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_unramified_tower_over_unsupported_base_exits_three(self, tmp_path, capsys,
                                                                 base, eis, reason, command):
        """f >= 2 over R or Q_2 is a bad tower, also while the unramified
        helper for its eis literals is built."""
        doc = json.loads(SAMPLE.read_text())
        doc["base"] = base
        doc["towers"]["K0"] = {"f": 2, "eis": eis}
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == f"parse error: $.towers.K0: bad tower: {reason}\n"

    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_dyadic_unramified_tower_without_eisenstein_degree_exits_three(
            self, tmp_path, capsys, command):
        """Read without a helper tower, a one-coefficient eis over Q_2 with
        f = 2 still reports the dyadic base, not the degree."""
        doc = json.loads(SAMPLE.read_text())
        doc["base"] = {"kind": "p-adic", "p": 2}
        doc["towers"]["K0"] = {"f": 2, "eis": ["1"]}
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "parse error: $.towers.K0: bad tower: extensions with residue "
            "characteristic 2 are not supported\n")

    @pytest.mark.parametrize("literal, message", [
        ("٣", "unexpected character '٣' at column 1"),
        ("3²", "unexpected character '²' at column 2"),
        ("0" * MAX_LITERAL_LENGTH + "3",
         f"literal of {MAX_LITERAL_LENGTH + 1} characters exceeds the limit {MAX_LITERAL_LENGTH}")],
        ids=["arabic-indic-digit", "superscript", "too-long"])
    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_bad_literal_exits_three(self, tmp_path, capsys, command, literal, message):
        doc = json.loads(SAMPLE.read_text())
        doc["indices"][0]["y"] = literal
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == f"parse error: $.indices[0].y: {message}\n"

    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_too_many_indices_exits_three(self, tmp_path, capsys, command):
        doc = json.loads(SAMPLE.read_text())
        doc["indices"] = doc["indices"] * (MAX_INDICES + 1)
        path = tmp_path / "indices.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"parse error: $.indices: {MAX_INDICES + 1} indices exceed the limit {MAX_INDICES}\n")

    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_integer_past_the_digit_limit_exits_three(self, tmp_path, capsys, command):
        doc = json.loads(SAMPLE.read_text())
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc).replace('"p": 5', '"p": 5' + "0" * 5000))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "parse error: $: invalid JSON: an integer has too many digits\n")

    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_deeply_nested_json_exits_three(self, tmp_path, capsys, command):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000)
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == "parse error: $: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("kind", ["p-adic", "real"])
    @pytest.mark.parametrize("precision", ["x", 64.5])
    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_precision_of_the_wrong_type_exits_three(self, tmp_path, capsys,
                                                     command, precision, kind):
        doc = json.loads(SAMPLE.read_text())
        doc["base"] = dict(doc["base"], kind=kind, precision=precision)
        path = tmp_path / "precision.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "parse error: $.base: field 'precision' has the wrong type\n")

    @pytest.mark.parametrize("keys, where", [
        (("base", "p"), "$.base"),
        (("base", "precision"), "$.base"),
        (("towers", "K0", "f"), "$.towers.K0"),
        (("group", "d"), "$.group"),
        (("endoscopic", "d_minus"), "$.endoscopic"),
        (("endoscopic", "d_plus"), "$.endoscopic"),
        (("endoscopic", "mu_plus", "unit_exponent"), "$.endoscopic.mu_plus"),
    ], ids=lambda v: v[-1] if isinstance(v, tuple) else None)
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_boolean_integer_field_exits_three(self, tmp_path, capsys, command, value,
                                               keys, where):
        """JSON true and false are no integers, although Python's bool is a
        subclass of int: in place of an integer they are the wrong type."""
        doc = json.loads((GOLDEN / "large-prime-unitary.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli([command, str(path)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"parse error: {where}: field '{keys[-1]}' has the wrong type\n")

    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_null_precision_is_the_default(self, tmp_path, command):
        doc = json.loads(SAMPLE.read_text())
        outputs = []
        for precision in (64, None):
            doc["base"]["precision"] = precision
            path = tmp_path / "precision.json"
            path.write_text(json.dumps(doc))
            outputs.append(run_cli([command, str(path)]))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize("command", ["validate", "compute", "check", "oracle"])
    def test_precision_override_below_eight_exits_three(self, capsys, command):
        """--precision 0 is an override like 7 or -1, not an absent one."""
        args = ["oracle", "5", "5", "2"] if command == "oracle" else [command, str(SAMPLE)]
        errors = []
        for precision in ("0", "7", "-1"):
            code, out = run_cli(args + ["--precision", precision])
            assert code == 3 and out == ""
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].endswith(": precision must be at least 8\n")

    @pytest.mark.parametrize("angle", ["1/0", "1e10000000", "1E-3"],
                             ids=["zero-denominator", "huge-exponent", "exponent"])
    @pytest.mark.parametrize("command", ["validate", "compute", "check"])
    def test_bad_angle_exits_three(self, tmp_path, capsys, command, angle):
        """A zero denominator and an exponent form are parse errors, found
        without expanding the exponent."""
        doc = json.loads((GOLDEN / "large-prime-unitary.json").read_text())
        doc["endoscopic"]["mu_plus"]["angle_pi"] = angle
        path = tmp_path / "angle.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out = run_cli([command, str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            "parse error: $.endoscopic.mu_plus: angle_pi must be a rational like '1/4'\n")

    @pytest.mark.parametrize("angle", ["0.5", " 1/2 ", "-1.5", "5/2", 0.5])
    def test_decimal_and_fraction_angles_parse(self, tmp_path, angle):
        doc = json.loads((GOLDEN / "large-prime-unitary.json").read_text())
        path = tmp_path / "angle.json"
        path.write_text(json.dumps(doc))
        want = run_cli(["compute", str(path)])
        doc["endoscopic"]["mu_plus"]["angle_pi"] = angle
        path.write_text(json.dumps(doc))
        assert run_cli(["compute", str(path)]) == want and want[0] == 0

    def test_unknown_case_reports_the_group_step(self, tmp_path, capsys):
        doc = json.loads(SAMPLE.read_text())
        doc["group"]["case"] = "foo"
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["validate", str(path)])
        assert code == 1
        assert out == "group: case-unknown: unknown group case 'foo'\ninvalid\n"
        code, out = run_cli(["compute", str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "invalid: ValidationFailure: group: case-unknown: unknown group case 'foo'\n")


class TestCompute:
    def test_plain_output(self, doc_path):
        code, out = run_cli(["compute", doc_path])
        assert code == 0
        assert out.startswith("delta = ")

    @pytest.mark.parametrize("path", [SAMPLE] + sorted(
        p for p in GOLDEN.glob("*.json") if not p.name.endswith(".check.json")),
        ids=lambda p: p.stem)
    def test_plain_output_is_the_last_trace_line(self, path):
        """Without --trace, compute prints the trace's total line alone:
        'delta = <value> (angle <angle>)'."""
        _, plain = run_cli(["compute", str(path)])
        _, traced = run_cli(["compute", str(path), "--trace"])
        _, payload = run_cli(["compute", str(path), "--json"])
        delta = json.loads(payload)["delta"]
        assert plain == traced.splitlines(keepends=True)[-1]
        assert plain == f"delta = {delta['value']} (angle {delta['angle']})\n"
        if path == SAMPLE:
            assert plain == "delta = +1 (angle 0)\n"

    def test_trace_and_determinism(self, doc_path):
        code1, out1 = run_cli(["compute", doc_path, "--trace"])
        code2, out2 = run_cli(["compute", doc_path, "--trace"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert "prefactor chi(eta*x_D*P(1)*P_minus(-1))" in out1

    def test_json_output(self, doc_path):
        code, out = run_cli(["compute", doc_path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"]["value"] in ("+1", "-1")

    def test_match_failure_exits_one(self, rng, tmp_path):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        doc["indices"][0]["x"] = "(" + doc["indices"][0]["x"] + ")^3"
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["compute", str(path)])
        assert code == 1


class TestCheck:
    def test_full_suite(self, doc_path):
        code, out = run_cli(["check", doc_path])
        assert code == 0
        assert "cD-square-class: pass" in out
        assert "all checks passed" in out

    def test_reduced_suite_notice(self, rng, tmp_path):
        from support import make_instance
        inst = make_instance(rng, "so_odd", p=5)
        path = tmp_path / "so.json"
        path.write_text(json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)))
        code, out = run_cli(["check", str(path)])
        assert code == 0
        assert "reduced suite" in out

    def test_corrupted_document_fails(self, rng, tmp_path, capsys):
        from support import make_instance
        inst = make_instance(rng, "twisted_gl_odd", p=5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        doc["indices"][0]["y"] = "(" + doc["indices"][0]["y"] + ")^3"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["check", str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(
            "invalid: MatchFailure: stable classes do not correspond")

    def test_every_validation_step_runs_before_the_suite(self, tmp_path, capsys):
        doc = json.loads(SAMPLE.read_text())
        del doc["x_D"]
        path = tmp_path / "no_xd.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["check", str(path), "--json"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "invalid: ValidationFailure: param-group: xD-missing: "
            "odd twisted case needs x_D in F^x\n")

    def test_failing_group_report_is_rejected(self, tmp_path, capsys):
        doc = json.loads(SAMPLE.read_text())
        doc["group"]["case"] = "foo"
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["check", str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "invalid: ValidationFailure: group: case-unknown: unknown group case 'foo'\n")


def _copy_minus_index_to_plus(doc):
    """A plus-side copy of the minus-side field index i2 (degree 4 over F),
    with d and d_plus raised to match: P gets a repeated factor."""
    copy = dict(next(en for en in doc["indices"] if en["name"] == "i2"), name="copy", side="+")
    del copy["c_endoscopic"]        # a plus-side c is tau-odd; none is needed
    doc["indices"].append(copy)
    doc["group"]["d"] += 4
    doc["endoscopic"]["d_plus"] += 4


@pytest.mark.parametrize("mutate, step", [
    (lambda doc: doc.pop("x_D"), "xD-missing"),
    (lambda doc: doc["endoscopic"].__setitem__("d_minus", 7), "dim-sum"),
    (_copy_minus_index_to_plus, "not suitably regular"),
    (lambda doc: doc["indices"][2].__setitem__("y", f"({doc['indices'][2]['y']})^3"),
     "stable classes do not correspond"),
    (lambda doc: doc["group"].__setitem__("eta", "3"), "eta-pinning"),
], ids=["x_D", "d_minus", "regularity", "matching", "pinning"])
def test_check_refuses_as_compute(two_sided, capsys, mutate, step):
    """An odd twisted document that compute refuses at a validation step:
    check and check --json end with compute's exit code and stderr line,
    and print nothing."""
    path = two_sided(mutate)
    code, out = run_cli(["compute", path])
    err = capsys.readouterr().err
    assert code == 1 and out == "" and step in err and err.count("\n") == 1
    for args in (["check", path], ["check", path, "--json"]):
        assert run_cli(args) == (code, "")
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["compute", "check"])
def test_failure_message_is_one_line(tmp_path, capsys, command):
    """A step with several violations fails with all of them on one line;
    validate keeps one line per violation."""
    doc = json.loads(SAMPLE.read_text())
    doc["group"]["case"] = "so_even"
    path = tmp_path / "so_even.json"
    path.write_text(json.dumps(doc))
    violations = ["group: dim-parity: case so_even needs d even, got d = 3",
                  "group: disc-missing: even special orthogonal case needs delta",
                  "group: nu-extraneous: nu is only meaningful for twisted cases"]
    code, out = run_cli([command, str(path)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "invalid: ValidationFailure: " + "; ".join(violations) + "\n")
    code, out = run_cli(["validate", str(path)])
    assert code == 1 and out.splitlines()[:3] == violations


class TestZeroFormCoefficient:
    """A present, non-null c or c_endoscopic is kept whatever its value:
    a zero one is validated like any other, not read as absent."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        """compute on a document with index 0's ``key`` set to ``value``:
        the exit code and stderr."""
        def run(source, key, value):
            doc = json.loads(source.read_text())
            doc["indices"][0][key] = value
            path = tmp_path / "zero_c.json"
            path.write_text(json.dumps(doc))
            code, _ = run_cli(["compute", str(path)])
            return code, capsys.readouterr().err
        return run

    @pytest.mark.parametrize("value", ["0", "1", 0])
    def test_c_on_the_twisted_group_side_is_extraneous(self, run, value):
        code, err = run(SAMPLE, "c", value)
        assert code == 1 and "param-group: c-extraneous: index 'i0'" in err

    def test_zero_c_is_not_a_unit(self, run):
        code, err = run(GOLDEN / "quartic-symplectic.json", "c", "0")
        assert code == 1
        assert err == ("invalid: ValidationFailure: param-group: c-unit: index 'i0': "
                       "c must be invertible\n")

    def test_zero_c_endoscopic_is_not_a_unit(self, run):
        code, err = run(SAMPLE, "c_endoscopic", "0")
        assert code == 1
        assert err == ("invalid: ValidationFailure: param-endoscopic: c-unit: index 'i0': "
                       "c must be invertible\n")

    @pytest.mark.parametrize("key", ["c", "c_endoscopic"])
    def test_empty_literal_is_a_parse_error(self, run, key):
        code, err = run(SAMPLE, key, "")
        assert code == 3 and err.startswith(f"parse error: $.indices[0].{key}: ")

    @pytest.mark.parametrize("key", ["c", "c_endoscopic"])
    def test_null_is_absent(self, run, key):
        assert run(SAMPLE, key, None) == (0, "")


class TestEtaPinning:
    """The odd twisted eta must lie in the square class of -nu, the class
    verify.eta_from_nu gives; the two-sided golden has nu = 3/10."""

    PINNING = "group: eta-pinning: odd twisted case needs eta in the square class of -nu"

    @pytest.fixture
    def path(self, two_sided):
        """The two-sided golden with ``group[key]`` set to ``value``."""
        return lambda key, value: two_sided(lambda doc: doc["group"].__setitem__(key, value))

    @pytest.mark.parametrize("key, value", [("eta", "-6/10"), ("eta", "3"), ("nu", "65")])
    def test_eta_off_the_class_of_minus_nu_is_invalid(self, path, capsys, key, value):
        doc = path(key, value)
        code, out = run_cli(["validate", doc])
        assert code == 1 and out.splitlines()[0] == self.PINNING
        for command in ("compute", "check"):
            assert run_cli([command, doc]) == (1, "")
            assert capsys.readouterr().err == f"invalid: ValidationFailure: {self.PINNING}\n"

    @pytest.mark.parametrize("eta", ["-3/10", "-12/10", "3/10"])
    def test_eta_in_the_class_of_minus_nu_is_valid(self, path, eta):
        doc = path("eta", eta)
        assert run_cli(["validate", doc])[0] == 0
        code, out = run_cli(["check", doc])
        assert code == 0 and out.endswith("all checks passed\n")


class TestCharacterRestriction:
    """A character that does not restrict to the power of sgn_{E/F} the
    datum asks for is refused: one unit exponent off, or a quarter turn
    off on the uniformizer, over the ramified E of quartic-unitary (p = 3)
    and the unramified E of large-prime-unitary (p = 10007)."""

    @pytest.mark.parametrize("name, tag, k", [
        ("quartic-unitary", "minus", 0), ("quartic-unitary", "plus", 4),
        ("large-prime-unitary", "minus", 0), ("large-prime-unitary", "plus", 1)])
    def test_refused(self, tmp_path, capsys, name, tag, k):
        doc = json.loads((GOLDEN / f"{name}.json").read_text())
        mu = doc["endoscopic"][f"mu_{tag}"]
        if tag == "minus":
            mu["unit_exponent"] += 1
        else:
            mu["angle_pi"] = str(Fraction(mu["angle_pi"]) + Fraction(1, 4))
        path = tmp_path / "restriction.json"
        path.write_text(json.dumps(doc))
        line = (f"endoscopic: char-restriction-{tag}: restriction to F^x must "
                f"equal the norm character to the power {k}")
        assert run_cli(["validate", str(path)]) == (1, (
            f"group: ok\n{line}\nparam-endoscopic: ok\nparam-group: ok\ninvalid\n"))
        assert run_cli(["compute", str(path)]) == (1, "")
        assert capsys.readouterr().err == f"invalid: ValidationFailure: {line}\n"


class TestJsonReports:
    def test_validate_json(self, doc_path):
        code, out = run_cli(["validate", doc_path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert any(line.startswith("matching") for line in payload["report"])

    def test_check_json_deterministic(self, doc_path):
        first = run_cli(["check", doc_path, "--json"])
        second = run_cli(["check", doc_path, "--json"])
        assert first == second
        payload = json.loads(first[1])
        assert payload["ok"] is True
        assert all(r["ok"] for r in payload["results"])


class TestOracle:
    def test_agreement(self):
        code, out = run_cli(["oracle", "5", "5", "2", "--depth", "3"])
        assert code == 0
        assert "formula: -1" in out and "oracle:  -1" in out and "agree:   yes" in out

    def test_trivial_case(self):
        code, out = run_cli(["oracle", "5", "5", "1", "--depth", "3"])
        assert code == 0
        assert "formula: +1" in out

    def test_p3_example(self):
        code, out = run_cli(["oracle", "3", "3", "-1", "--depth", "3"])
        assert code == 0
        assert "agree:   yes" in out

    def test_default_depth_and_json(self):
        code, out = run_cli(["oracle", "7", "7", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True

    def test_depth_too_small_exits_two(self):
        code, _ = run_cli(["oracle", "5", "5", "2", "--depth", "1"])
        assert code == 2

    def test_square_delta_exits_one(self):
        code, _ = run_cli(["oracle", "5", "4", "2", "--depth", "2"])
        assert code == 1

    def test_over_large_ring_exits_one(self, capsys):
        code, out = run_cli(["oracle", "5", "2", "3", "--depth", "30"])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err == ("invalid: UnsupportedCase: oracle residue ring O/pi^30 has 5^30 "
                       f"elements, more than the limit {MAX_ORACLE_RING}\n")

    def test_over_large_prime_exits_three(self, capsys):
        code, out = run_cli(["oracle", "1000000000000000003", "2", "3"])
        assert code == 3 and out == ""
        assert "exceeds the largest supported prime" in capsys.readouterr().err
