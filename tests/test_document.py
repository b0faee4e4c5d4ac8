import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endofactor import document, etale, localfield
from endofactor.document import (
    MAX_INDICES,
    MAX_LITERAL_LENGTH,
    dump_document,
    load_document,
    parse_etale_literal,
    parse_tower_literal,
)
from endofactor.errors import ParseError
from endofactor.etale import UnitaryBaseData, quadratic_field, split_algebra
from endofactor.factor import compute_delta
from endofactor.localfield import BaseField, make_extension, trivial_tower
from support import stable_class_of
from fractions import Fraction
from test_tower_reference import SHAPES, _eis

Q5 = BaseField("p-adic", 5)
F5 = trivial_tower(Q5)
ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "sample-instance.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    @pytest.mark.parametrize("text, bad, column", [
        ("٣", "٣", 1), ("3²", "²", 2), ("1/٣", "٣", 3), ("uπ", "π", 2), ("x٣", "٣", 2)])
    def test_only_ascii_digits_and_names(self, text, bad, column):
        with pytest.raises(ParseError) as err:
            parse_tower_literal(text, F5)
        assert str(err.value) == f"literal: unexpected character {bad!r} at column {column}"

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

    def test_zero_c_round_trips(self):
        doc = json.loads((GOLDEN / "quartic-symplectic.json").read_text())
        doc["indices"][0]["c"] = doc["indices"][0]["c_endoscopic"] = "0"
        first = load_document(json.dumps(doc))
        dumped = dump_document(first.group, first.endoscopic, first.y, first.x)
        assert dumped["indices"][0]["c"] == dumped["indices"][0]["c_endoscopic"] == "0"
        again = load_document(json.dumps(dumped))
        for param in (first.y, first.x, again.y, again.x):
            c = param.entries[0].c
            assert c is not None and c == c.algebra.zero()

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

    @pytest.mark.parametrize("towers", [[], 0, "", False], ids=["list", "zero", "empty", "false"])
    def test_falsy_towers_of_the_wrong_type(self, towers):
        """A falsy 'towers' that is not an object is a type error, as a
        truthy one is; it is not read as no towers."""
        sample = json.loads(SAMPLE.read_text())
        with pytest.raises(ParseError) as err:
            load_document(json.dumps(dict(sample, towers=towers)))
        assert str(err.value) == "$.towers: field 'towers' has the wrong type"

    def test_null_towers_are_absent(self):
        sample = json.loads(SAMPLE.read_text())
        for doc in (dict(sample, towers=None), {k: v for k, v in sample.items() if k != "towers"}):
            with pytest.raises(ParseError) as err:
                load_document(json.dumps(doc))
            assert str(err.value) == "$.indices[0]: unknown tower 'K0'"

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


class TestLimits:
    def test_literal_limit_is_checked_before_reading(self):
        """A literal of MAX_LITERAL_LENGTH characters is read; one more
        character is refused before the literal is looked at (an unclosed
        parenthesis would otherwise be reported)."""
        assert parse_tower_literal("0" * (MAX_LITERAL_LENGTH - 1) + "7", F5) == F5.element(7)
        for text in ("0" * MAX_LITERAL_LENGTH + "7", "(" * (MAX_LITERAL_LENGTH + 1)):
            with pytest.raises(ParseError) as err:
                parse_tower_literal(text, F5, "$.x")
            assert str(err.value) == (f"$.x: literal of {MAX_LITERAL_LENGTH + 1} characters "
                                      f"exceeds the limit {MAX_LITERAL_LENGTH}")

    @pytest.mark.parametrize("path, where", [
        (("indices", 0, "x"), "$.indices[0].x"),
        (("towers", "K0", "eis", 0), "$.towers.K0.eis[0]"),
        (("group", "eta"), "$.group.eta"),
        (("x_D",), "$.x_D")], ids=["index", "eis", "group", "x_D"])
    def test_literal_limit_in_a_document(self, path, where):
        doc = json.loads(SAMPLE.read_text())
        *parents, key = path
        node = doc
        for k in parents:
            node = node[k]
        node[key] = "0" * MAX_LITERAL_LENGTH + "1"
        with pytest.raises(ParseError) as err:
            load_document(json.dumps(doc))
        assert str(err.value) == (f"{where}: literal of {MAX_LITERAL_LENGTH + 1} characters "
                                  f"exceeds the limit {MAX_LITERAL_LENGTH}")

    def test_index_limit_is_checked_first(self):
        """More than MAX_INDICES indices are refused before the base, or
        anything else, is read; MAX_INDICES of them pass that check."""
        doc = {"base": "not an object", "indices": [{}] * (MAX_INDICES + 1)}
        with pytest.raises(ParseError) as err:
            load_document(json.dumps(doc))
        assert str(err.value) == (
            f"$.indices: {MAX_INDICES + 1} indices exceed the limit {MAX_INDICES}")
        doc["indices"] = [{}] * MAX_INDICES
        with pytest.raises(ParseError) as err:
            load_document(json.dumps(doc))
        assert str(err.value) == "$.base: missing field 'kind'"


# ---------------------------------------------------------------------------
# the direct reader of serializer-shaped literals against the evaluator
# ---------------------------------------------------------------------------

def _shape_rings():
    """(ring, tower) for each SHAPES tower over Q_5 and for three quadratic
    etale algebras over it: a field, the split algebra, and the tensor
    with the unramified E = Q_5(sqrt 2)."""
    ub = UnitaryBaseData(Q5, 2)
    out = []
    for f, e in SHAPES:
        tower = make_extension(Q5, f, _eis(f, e))
        out += [(tower, tower), (quadratic_field(tower, tower.pi()), tower),
                (split_algebra(tower), tower), (ub.algebra_over(tower), tower)]
    return out


RINGS = _shape_rings()
_NUMBERS = (st.sampled_from(["0", "1", "2", "7", "10", "007", "00", "٣", "3²"])
            | st.integers(0, 10 ** 12).map(str))
_ASCII_NUMBERS = st.sampled_from(["0", "1", "7", "007"]) | st.integers(0, 10 ** 12).map(str)


@st.composite
def _rationals(draw, numbers):
    text = draw(st.sampled_from(["", "", "-"])) + draw(numbers)
    if draw(st.booleans()):
        text += "/" + draw(numbers)
    return text


@st.composite
def _terms(draw, f, e, etale, strict):
    """An optional rational and then u, pi and s with exponents around the
    basis bounds.  A strict term has the serializer's shape (ASCII numbers,
    the ring's generators in their order, exponents inside the basis and
    single "*" joins), except that its denominator may be 0."""
    names = draw(st.lists(st.sampled_from(["u", "pi", "s"]), max_size=4))
    if strict:
        names = [g for g, ok in (("u", f > 1), ("pi", e > 1), ("s", etale)) if ok and g in names]
    parts = []
    if not names or draw(st.booleans()):
        parts.append(draw(_rationals(_ASCII_NUMBERS if strict else _NUMBERS)))
    for name in names:
        bound = {"u": f, "pi": e, "s": 2}[name]
        exps = [None, None, "1", str(bound - 1)]
        if not strict:
            exps += ["0", "01", "-1", "٢", str(bound), str(bound + 1)]
        exp = draw(st.sampled_from(exps))
        parts.append(name if exp is None or name == "s" and strict else f"{name}^{exp}")
    return ("*" if strict else draw(st.sampled_from(["*", " * ", "**"]))).join(parts)


@st.composite
def _literals(draw, f, e, etale):
    """Terms joined by " + ", or in one literal of two by a mix of nearby
    separators, sometimes with a term repeated."""
    strict = draw(st.booleans())
    terms = draw(st.lists(_terms(f, e, etale, strict), min_size=1, max_size=4))
    if draw(st.booleans()):
        terms.append(terms[0])
    seps = [" + "] if strict else [" + ", "+", "  + ", " +  ", " - "]
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from(seps)) + term
    return text


def _outcome(read, text, ring, *args):
    """(True, num, den) for the value in ring, or the ParseError text."""
    try:
        x = read(text, ring, *args)
    except ParseError as exc:
        return str(exc)
    return x.ring is ring, x.num, x.den


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_the_evaluator(data):
    """Near the serializer's grammar, parse_*_literal gives the value the
    evaluator alone gives, or raises the same ParseError."""
    ring, tower = data.draw(st.sampled_from(RINGS), label="ring")
    text = data.draw(_literals(tower.f, tower.e, ring is not tower), label="literal")
    parse = parse_tower_literal if ring is tower else parse_etale_literal
    assert (_outcome(parse, text, ring, "lit")
            == _outcome(document._evaluate_literal, text, ring, tower, "lit"))


def _perfbench_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def test_default_seed_corpora_match_the_pinned_digests():
    """The benchmark's three default-seed corpora regenerate to the full
    digests pinned in perfbench/digests.json, so a change to a repr or to a
    draw of the generator fails here rather than refusing a benchmark run."""
    corpus = _perfbench_corpus()
    pinned = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert sorted(pinned["workloads"]) == sorted(corpus.WORKLOADS)
    for workload, want in pinned["workloads"].items():
        texts = corpus.generate(workload, pinned["seed"])
        assert (len(texts), corpus.digest(texts)) == (want["documents"], want["sha256"]), workload


def test_seed_one_corpus_literals_are_read_directly(monkeypatch):
    """Every literal of the benchmark's seed-1 corpora, the eis literals
    included, is read without the evaluator, to the evaluator's value."""
    corpus = _perfbench_corpus()
    texts = [t for w in ("batch-mixed", "deep-towers", "large-prime-unitary")
             for t in corpus.generate(w, 1)]
    read, parse, evaluate = (document._read_literal, document._parse_literal,
                             document._evaluate_literal)
    reads, parsed, evaluated = [], [], []

    def recorded_read(text, f, e, etale, where):
        out = read(text, f, e, etale, where)
        reads.append((text, f, where, out))
        return out

    def recorded_parse(text, ring, tower, where):
        x = parse(text, ring, tower, where)
        parsed.append((text, ring, tower, where, x))
        return x

    monkeypatch.setattr(document, "_read_literal", recorded_read)
    monkeypatch.setattr(document, "_parse_literal", recorded_parse)
    monkeypatch.setattr(document, "_evaluate_literal",
                        lambda *args: evaluated.append(args) or evaluate(*args))
    for text in texts:
        reads.clear()
        parsed.clear()
        load_document(text)
        assert evaluated == [] and all(out is not None for *_, out in reads)
        base = BaseField("p-adic", json.loads(text)["base"]["p"])
        for lit, f, where, out in reads:
            if ".eis[" in where:
                helper = make_extension(base, f, [-base.p, 1])
                want = evaluate(lit, helper, helper, where)
                assert out == (want.num, want.den), (where, lit)
        for lit, ring, tower, where, x in parsed:
            want = evaluate(lit, ring, tower, where)
            assert (x.ring, x.num, x.den) == (want.ring, want.num, want.den), (where, lit)
        assert len(parsed) + sum(".eis[" in r[2] for r in reads) == len(reads)


@pytest.mark.parametrize("name", ("quartic-symplectic", "quartic-unitary",
                                  "quartic-bc-unitary"))
def test_quartic_document_is_read_without_ring_products(monkeypatch, name):
    """Loading a golden document on the f = e = 2 tower multiplies no ring
    elements while it reads literals, and builds no unramified helper tower
    for the eis literals: every make_extension call it makes builds one of
    the document's towers."""
    text = (GOLDEN / f"{name}.json").read_text()
    counts = {"products": 0, "towers": 0}
    reading = [False]
    for cls in (localfield.FlatElement, localfield.FieldElement):
        def counted(self, other, mul=cls.__dict__["__mul__"]):
            counts["products"] += reading[0]
            return mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counted)
    parse, build = document._parse_literal, document.make_extension

    def reading_parse(*args):
        reading[0] = True
        try:
            return parse(*args)
        finally:
            reading[0] = False

    def counted_build(*args):
        counts["towers"] += 1
        return build(*args)

    monkeypatch.setattr(document, "_parse_literal", reading_parse)
    monkeypatch.setattr(document, "make_extension", counted_build)
    load_document(text)
    assert counts == {"products": 0, "towers": len(json.loads(text)["towers"])}


def _count_builds(monkeypatch):
    """The towers and the etale algebras built from here on."""
    towers, algebras = [], []
    build, init = localfield.make_extension, etale.QuadraticEtale.__init__

    def counted_build(*args):
        towers.append(args[1:])
        return build(*args)

    def counted_init(self, *args, **kwargs):
        algebras.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(localfield, "make_extension", counted_build)
    monkeypatch.setattr(document, "make_extension", counted_build)
    monkeypatch.setattr(etale.QuadraticEtale, "__init__", counted_init)
    return towers, algebras


def _distinct_specs(doc):
    """The distinct (f, eis) tower specs of a document, the base field's own
    (x - p at f = 1) included."""
    return ({(1, (str(-doc["base"]["p"]), "1"))}
            | {(spec["f"], tuple(spec["eis"])) for spec in doc["towers"].values()})


def test_unitary_document_builds_the_trivial_tower_once(monkeypatch):
    """E is built over the document's own F, and a tower spec equal to F's
    is F: loading a unitary document builds one tower per distinct spec, F
    included (here F alone), and no second trivial tower."""
    text = (GOLDEN / "large-prime-unitary.json").read_text()
    built, _ = _count_builds(monkeypatch)
    doc = load_document(text)
    assert len(built) == len(_distinct_specs(json.loads(text))) == 1
    assert doc.group.E.F.is_trivial and doc.group.E.F.base == doc.base
    assert doc.y.entries[0].algebra.base_pm is doc.group.E.F


def test_each_ring_is_built_once(monkeypatch, rng):
    """A document that names its towers once per index, so that two names
    share a spec, and one spec is the base field's, builds one tower per
    distinct spec and one algebra per distinct (tower, algebra) pair, and
    computes the trace of the document with one name per spec."""
    from support import make_instance
    for _ in range(50):
        inst = make_instance(rng, "symplectic", p=5, n_indices=(3, 3), split_ratio=0.5)
        doc = dump_document(inst.g, inst.e, inst.y, inst.x)
        pairs = [(ispec["tower"], json.dumps(ispec["algebra"])) for ispec in doc["indices"]]
        if len(set(pairs)) < len(pairs) and {"f": 1, "eis": ["-5", "1"]} in doc["towers"].values():
            break
    else:
        pytest.fail("no draw repeats a (tower, algebra) pair on the base field's spec")
    aliased = json.loads(json.dumps(doc))
    aliased["towers"] = {f"T{k}": doc["towers"][ispec["tower"]]
                         for k, ispec in enumerate(doc["indices"])}
    for k, ispec in enumerate(aliased["indices"]):
        ispec["tower"] = f"T{k}"
    towers, algebras = _count_builds(monkeypatch)
    loaded = load_document(json.dumps(aliased))
    assert len(towers) == len(_distinct_specs(doc))
    assert len(algebras) == len(set(pairs)) < len(pairs)
    traces = [compute_delta(d.y, d.x, d.group, d.endoscopic)[1].lines()
              for d in (loaded, load_document(json.dumps(doc)))]
    assert traces[0] == traces[1]
