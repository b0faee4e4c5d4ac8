import json
from pathlib import Path

import pytest

from endofactor.document import (
    dump_document,
    load_document,
    parse_etale_literal,
    parse_tower_literal,
)
from endofactor.errors import ParseError
from endofactor.etale import quadratic_field
from endofactor.factor import compute_delta
from endofactor.localfield import BaseField, make_extension, trivial_tower
from endofactor.params import stable_class_of
from fractions import Fraction

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)
SAMPLE = Path(__file__).resolve().parent.parent / "sample-instance.json"


class TestLiterals:
    def test_rationals(self):
        assert parse_tower_literal("3/5", F5) == F5.element(Fraction(3, 5))
        assert parse_tower_literal("-7", F5) == F5.element(-7)

    def test_generators(self):
        t = make_extension(Q5, 2, [-5, 1])
        v = parse_tower_literal("2 + 3*u + u^2*pi", t)
        assert v == t.element(2) + 3 * t.ugen() + t.ugen() ** 2 * t.pi()

    def test_etale(self):
        k = quadratic_field(F5, F5.element(5))
        v = parse_etale_literal("1 + 2*s + s^2", k)
        assert v == k.element(6, 2)      # s^2 = 5

    def test_precedence_and_parens(self):
        k = quadratic_field(F5, F5.element(5))
        assert parse_etale_literal("2*s + 1", k) == parse_etale_literal("1 + 2*s", k)
        assert parse_etale_literal("(1 + s)^2", k) == k.element(6, 2)
        assert parse_etale_literal("2^-1", k) == k.element(Fraction(1, 2))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_tower_literal("2 + $", F5)
        assert "column 5" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_tower_literal("2 +", F5)
        assert "column" in str(err.value)
        with pytest.raises(ParseError):
            parse_tower_literal("q", F5)        # unknown generator
        with pytest.raises(ParseError):
            parse_tower_literal("u", F5)        # f = 1: no unramified generator
        with pytest.raises(ParseError) as err:
            parse_tower_literal("pi^100000000", F5)
        assert "column 4" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_tower_literal("((pi^8)^8)^2", F5)   # nested exponents multiply
        assert "column 12" in str(err.value)
        assert parse_tower_literal("(pi^8)^8", F5) == F5.pi() ** 64

    def test_repr_round_trip(self, rng):
        from support import random_etale_unit, random_field_algebra, random_tower
        for _ in range(10):
            alg = random_field_algebra(rng, random_tower(rng, Q5))
            x = random_etale_unit(rng, alg)
            assert parse_etale_literal(repr(x), alg) == x


class TestDocuments:
    def test_round_trip_same_verdicts(self, rng):
        from support import make_instance
        for case in ("symplectic", "twisted_gl_odd", "unitary"):
            inst = make_instance(rng, case, p=5)
            text = json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x))
            doc = load_document(text)
            d1, _ = compute_delta(*inst.astuple())
            d2, _ = compute_delta(doc.y, doc.x, doc.group, doc.endoscopic)
            assert d1.angle == d2.angle
            assert (stable_class_of(doc.y, doc.group)
                    == stable_class_of(inst.y, inst.g))

    def test_bad_json_position(self):
        with pytest.raises(ParseError) as err:
            load_document("{\n  \"base\": }")
        assert "line 2" in str(err.value)

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            load_document("{}")
        with pytest.raises(ParseError):
            load_document(json.dumps({"base": {"kind": "p-adic"}}))
        sample = json.loads(SAMPLE.read_text())
        for towers in (["K0"], "K0"):
            with pytest.raises(ParseError) as err:
                load_document(json.dumps(dict(sample, towers=towers)))
            assert str(err.value).startswith("$.towers: ")

    def test_unknown_tower_reference(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        doc["indices"][0]["tower"] = "nope"
        with pytest.raises(ParseError):
            load_document(json.dumps(doc))

    def test_malformed_literal_in_document(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        doc["indices"][0]["y"] = "1 + *"
        with pytest.raises(ParseError) as err:
            load_document(json.dumps(doc))
        assert "indices[0].y" in str(err.value)

    def test_precision_override(self, rng):
        from support import make_instance
        inst = make_instance(rng, "symplectic", p=5)
        doc = load_document(
            json.dumps(dump_document(inst.g, inst.e, inst.y, inst.x)),
            precision=128)
        assert doc.base.precision == 128
