"""Instance documents: schema-validated JSON in, validated objects out.

An instance document declares the base field, named towers, the optional
quadratic extension E, the group descriptor, the endoscopic datum, and the
indexed parameters (endoscopic-side y with optional form coefficient, and
group-side x with its coefficient or the twisted data).  Element literals
use a small expression grammar

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := rational | name | '(' expr ')' | '-' atom

over the declared generators: ``pi`` and ``u`` for a tower, additionally
``s`` for the square root carried by an etale algebra or by E.  An exponent
may not exceed MAX_LITERAL_EXPONENT in absolute value, and nor may the
product of nested exponents such as ``(x^8)^8``.  The serializer emits
literals this grammar parses back, so documents round-trip.  A literal in
exactly the serializer's shape is read straight into the ring's integer
numerators, with no ring product; any other text goes to the evaluator,
which gives the same values and is the only source of error messages.
"""

import json
import math
import re
from fractions import Fraction

from .errors import ParseError
from .etale import EtaleElement, UnitaryBaseData, quadratic_field, split_algebra
from .localfield import (
    MAX_TOWER_DEGREE,
    BaseField,
    FieldElement,
    make_extension,
    trivial_tower,
)
from .params import (
    CASES,
    EndoscopicDatum,
    GroupDescriptor,
    IndexEntry,
    RegularParam,
    TameCharacter,
    case_info,
)

# ---------------------------------------------------------------------------
# element literals
# ---------------------------------------------------------------------------

# The largest |exponent| a literal may apply.  A general element of an
# etale algebra over an f = e = 2 tower raised to the power -64 parses in at
# most 0.4 s, and to -128 in up to 1.1 s (p = 199 and 401, Python 3.11, a
# 2-vCPU Xeon); the serializer only writes exponents below the tower degree.
MAX_LITERAL_EXPONENT = 64
# The longest literal and the most indices a document may have, each
# checked before anything it bounds is read.  The generated corpora, the
# golden documents and the sample have literals of at most 600 characters
# and at most 3 indices.
MAX_LITERAL_LENGTH = 4096
MAX_INDICES = 64

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | _DIGITS

# One term of a literal in the shape the serializer writes (see
# FieldElement.__repr__ and EtaleElement.__repr__), matched against
# "*" + term: an optional rational, then u^a, pi^b and s in that order,
# each part after a "*".
_TERM = re.compile(r"(?:\*(-?[0-9]+)(?:/([1-9][0-9]*))?)?(\*u(?:\^([0-9]+))?)?"
                   r"(\*pi(?:\^([0-9]+))?)?(\*s)?")


def _tokenize(text, where):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            tokens.append((ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append((("num", int(text[i:j])), i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            tokens.append((("name", text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at column {i + 1}", where)
    return tokens


class _LiteralParser:
    """Recursive-descent evaluator over a generator environment."""

    def __init__(self, text, env, element, where):
        self.text = text
        self.tokens = _tokenize(text, where)
        self.pos = 0
        self.env = env
        self.element = element      # coerces a Fraction into the ring
        self.where = where
        self.power = 1      # the largest product of nested exponents so far

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _fail(self, msg, col=None):
        if col is None:
            col = self.tokens[self.pos][1] + 1 if self.pos < len(self.tokens) else len(self.text) + 1
        raise ParseError(f"{msg} at column {col} in {self.text!r}", self.where)

    def parse(self):
        value = self._expr()
        if self.pos != len(self.tokens):
            self._fail("trailing input")
        return value

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._factor()
        while self._peek() == "*":
            self._next()
            value = value * self._factor()
        return value

    def _factor(self):
        outer, self.power = self.power, 1
        value = self._atom()
        if self._peek() == "^":
            self._next()
            sign = 1
            if self._peek() == "-":
                self._next()
                sign = -1
            tok, col = self._next() if self.pos < len(self.tokens) else ((None, None), None)
            if not (isinstance(tok, tuple) and tok[0] == "num"):
                self._fail("exponent must be an integer")
            self.power *= tok[1]
            if self.power > MAX_LITERAL_EXPONENT:
                self._fail(f"total exponent exceeds {MAX_LITERAL_EXPONENT}", col + 1)
            try:
                value = value ** (sign * tok[1])
            except Exception as exc:
                raise ParseError(f"cannot raise to power: {exc}", self.where) from None
        self.power = max(outer, self.power)
        return value

    def _atom(self):
        if self._peek() is None:
            self._fail("unexpected end of literal")
        tok, col = self._next()
        if tok == "-":
            return -self._atom()
        if tok == "(":
            value = self._expr()
            if self._peek() != ")":
                self._fail("missing ')'")
            self._next()
            return value
        if isinstance(tok, tuple) and tok[0] == "num":
            num = tok[1]
            if self._peek() == "/":
                self._next()
                den_tok, dcol = self._next() if self.pos < len(self.tokens) else ((None, None), None)
                if not (isinstance(den_tok, tuple) and den_tok[0] == "num") or den_tok[1] == 0:
                    self._fail("bad denominator")
                return self.element(Fraction(num, den_tok[1]))
            return self.element(Fraction(num))
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if name not in self.env:
                self._fail(f"unknown generator {name!r}", col + 1)
            return self.env[name]
        self._fail("expected a value")


def _read_literal(text, f, e, etale, where):
    """The normal-form (num, den) of a literal in exactly the serializer's
    shape, on the monomials u^a*pi^b (k = b*f + a) of a tower of degrees f
    and e, followed for an etale algebra by the n = e*f monomials times s;
    None for any other text.  A literal over MAX_LITERAL_LENGTH characters
    raises ParseError."""
    if len(text) > MAX_LITERAL_LENGTH:
        raise ParseError(f"literal of {len(text)} characters exceeds the limit "
                         f"{MAX_LITERAL_LENGTH}", where)
    n = f * e
    terms = []
    try:
        for term in text.split(" + "):
            m = _TERM.fullmatch("*" + term)
            if m is None:
                return None
            c, d, u, a, pi, b, s = m.groups()
            a = (int(a) if a else 1) if u else 0
            b = (int(b) if b else 1) if pi else 0
            if (u and not 1 <= a < f) or (pi and not 1 <= b < e) or (s and not etale):
                return None
            terms.append((int(c) if c else 1, int(d) if d else 1, (n if s else 0) + b * f + a))
    except ValueError:      # a number past the interpreter's digit limit
        return None
    den = math.lcm(*(d for _, d, _ in terms))
    num = [0] * (2 * n if etale else n)
    for c, d, k in terms:
        num[k] += c * (den // d)
    g = math.gcd(den, *num)
    return tuple(c // g for c in num), den // g


def parse_tower_literal(text, tower, where="literal"):
    return _parse_literal(text, tower, tower, where)


def parse_etale_literal(text, algebra, where="literal"):
    return _parse_literal(text, algebra, algebra.base_pm, where)


def _parse_literal(text, ring, tower, where):
    """The element of ring (tower, or an etale algebra over it) a literal
    names: read directly when it has the serializer's shape, else
    evaluated."""
    etale = ring is not tower
    read = _read_literal(text, tower.f, tower.e, etale, where)
    if read is not None:
        return (EtaleElement if etale else FieldElement)(ring, *read)
    return _evaluate_literal(text, ring, tower, where)


def _evaluate_literal(text, ring, tower, where):
    """Evaluate a literal over the generators pi and u of tower, and s for
    an etale algebra ring; the grammar's one evaluator and the source of
    every error message."""
    env = {"s": ring.rt()} if ring is not tower else {}
    if not tower.base.is_real:
        env["pi"] = ring.element(tower.pi())
    if tower.f >= 2:
        env["u"] = ring.element(tower.ugen())
    try:
        return _LiteralParser(text, env, ring.element, where).parse()
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"cannot evaluate {text!r}: {exc}", where) from None


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

class InstanceDocument:
    """A parsed instance: the base field and the four computation inputs."""

    def __init__(self, base, group, endoscopic, y, x):
        self.base = base
        self.group = group
        self.endoscopic = endoscopic
        self.y = y
        self.x = x


def _need(obj, key, where, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    value = obj[key]
    # JSON true and false load as bool, a subclass of int, but are no numbers
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"field {key!r} has the wrong type", where)
    return value


def _opt(obj, key, default=None):
    return obj.get(key, default) if isinstance(obj, dict) else default


def _precision(base_spec, override):
    """The override, else the declared precision; 64 when both are absent or null."""
    if override is not None:
        return override
    if _opt(base_spec, "precision") is None:
        return 64
    return _need(base_spec, "precision", "$.base", int)


def _literal(obj, key, ring, where):
    """obj[key] read as an element of ring, a tower or an etale algebra,
    at where.key; None when the key is absent or null."""
    if _opt(obj, key) is None:
        return None
    return _parse_literal(str(obj[key]), ring, getattr(ring, "base_pm", ring), f"{where}.{key}")


def load_document(text, *, precision=None):
    """Parse a JSON instance document (a string) into an InstanceDocument."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "$") from None
    except ValueError:      # the only other one: an integer past the digit limit
        raise ParseError("invalid JSON: an integer has too many digits", "$") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "$")
    if isinstance(doc.get("indices"), list) and len(doc["indices"]) > MAX_INDICES:
        raise ParseError(f"{len(doc['indices'])} indices exceed the limit {MAX_INDICES}",
                         "$.indices")
    base_spec = _need(doc, "base", "$")
    kind = _need(base_spec, "kind", "$.base", str)
    try:
        if kind == "real":
            base = BaseField("real", precision=_precision(base_spec, precision))
        elif kind == "p-adic":
            base = BaseField("p-adic", _need(base_spec, "p", "$.base", int),
                             precision=_precision(base_spec, precision))
        else:
            raise ParseError(f"unknown base kind {kind!r}", "$.base.kind")
    except ValueError as exc:
        raise ParseError(str(exc), "$.base") from None
    F = trivial_tower(base)
    # one tower per distinct (f, eis literals read as (num, den)); F is x - p
    # (x - 1 over R) at f = 1
    rings = {(1, (((-1 if base.is_real else -base.p,), 1), ((1,), 1))): F}
    tower_specs = {} if _opt(doc, "towers") is None else doc["towers"]
    if not isinstance(tower_specs, dict):
        raise ParseError("field 'towers' has the wrong type", "$.towers")
    towers = {}
    helpers = {1: F}    # the unramified tower of degree f, for evaluated eis literals
    for name, spec in tower_specs.items():
        where = f"$.towers.{name}"
        f = _need(spec, "f", where, int)
        eis_lits = _need(spec, "eis", where, list)
        fu = max(f, 1)      # the eis literals are u-vectors of this length
        # bounds the degree of the unramified helper below and of the tower
        degree = fu * max(len(eis_lits) - 1, 1)
        if degree > MAX_TOWER_DEGREE:
            raise ParseError(f"tower degree {degree} exceeds the limit {MAX_TOWER_DEGREE}", where)
        try:
            reads = []
            for k, lit in enumerate(eis_lits):
                lit, at = str(lit), f"{where}.eis[{k}]"
                read = _read_literal(lit, fu, 1, False, at)
                if read is None:    # evaluated over the unramified tower of degree fu
                    if fu not in helpers:
                        helpers[fu] = make_extension(base, fu, [-(base.p if not base.is_real else 1), 1])
                    val = _evaluate_literal(lit, helpers[fu], helpers[fu], at)
                    read = val.num, val.den
                reads.append(read)
            key = (f, tuple(reads))
            if key not in rings:
                rings[key] = make_extension(base, f, [[Fraction(c, d) for c in num] for num, d in reads])
            towers[name] = rings[key]
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"bad tower: {exc}", where) from None

    ub = None
    if _opt(doc, "extension") is not None:
        where = "$.extension"
        delta_lit = _need(doc["extension"], "delta", where)
        delta = parse_tower_literal(str(delta_lit), F, f"{where}.delta")
        try:
            ub = UnitaryBaseData(base, delta)
        except Exception as exc:
            raise ParseError(f"bad extension: {exc}", where) from None

    gspec = _need(doc, "group", "$")
    case = _need(gspec, "case", "$.group", str)
    d = _need(gspec, "d", "$.group", int)
    def _group_literal(key, over_E):
        if over_E and ub is None and _opt(gspec, key) is not None:
            raise ParseError(f"{case} needs $.extension", f"$.group.{key}")
        return _literal(gspec, key, ub.E if over_E and ub else F, "$.group")
    # an unknown case parses over F; validation reports it
    info = case_info(case) if case in CASES else None
    over_E = info is not None and info["ground"] == "E"
    delta = _group_literal("delta", False)
    nu = _group_literal("nu", over_E and info["twisted"])
    eta = _group_literal("eta", over_E)
    group = GroupDescriptor(case=case, d=d, base=base, delta=delta, E=ub,
                            nu=nu, eta=eta)

    espec = _need(doc, "endoscopic", "$")
    def _mu(key):
        spec = _opt(espec, key)
        if spec is None:
            return None
        if ub is None:
            raise ParseError("characters need $.extension", f"$.endoscopic.{key}")
        where = f"$.endoscopic.{key}"
        angle = str(_need(spec, "angle_pi", where))
        try:
            # an exponent form like '1e10000000' would expand to a huge integer
            if "e" in angle.lower():
                raise ValueError(angle)
            angle = Fraction(angle)
        except (ValueError, ZeroDivisionError):
            raise ParseError("angle_pi must be a rational like '1/4'", where) from None
        return TameCharacter(ub, angle, _need(spec, "unit_exponent", where, int))
    endo = EndoscopicDatum(
        d_minus=_need(espec, "d_minus", "$.endoscopic", int),
        d_plus=_need(espec, "d_plus", "$.endoscopic", int),
        delta_minus=_literal(espec, "delta_minus", F, "$.endoscopic"),
        delta_plus=_literal(espec, "delta_plus", F, "$.endoscopic"),
        chi=_literal(espec, "chi", F, "$.endoscopic"),
        mu_minus=_mu("mu_minus"),
        mu_plus=_mu("mu_plus"),
        cocycle_class=_opt(espec, "cocycle_class", "trivial"),
    )

    y_entries = []
    x_entries = []
    algebras = {}   # one per distinct (tower, kind, delta literal)
    indices = _need(doc, "indices", "$", list)
    for k, ispec in enumerate(indices):
        where = f"$.indices[{k}]"
        name = _need(ispec, "name", where, str)
        side = _need(ispec, "side", where, str)
        tname = _need(ispec, "tower", where, str)
        if tname not in towers:
            raise ParseError(f"unknown tower {tname!r}", where)
        tower = towers[tname]
        aspec = _need(ispec, "algebra", where)
        akind = _need(aspec, "kind", f"{where}.algebra", str)
        dlit = str(_need(aspec, "delta", f"{where}.algebra")) if akind == "field" else None
        key = (id(tower), akind, dlit)      # a tower is one object per distinct spec
        if key not in algebras:
            try:
                if akind == "field":
                    algebras[key] = quadratic_field(
                        tower, parse_tower_literal(dlit, tower, f"{where}.algebra.delta"))
                elif akind == "split":
                    algebras[key] = split_algebra(tower)
                elif akind == "tensor":
                    if ub is None:
                        raise ParseError("tensor algebras need $.extension", f"{where}.algebra")
                    algebras[key] = ub.algebra_over(tower)
                else:
                    raise ParseError(f"unknown algebra kind {akind!r}", f"{where}.algebra")
            except ParseError:
                raise
            except Exception as exc:
                raise ParseError(f"bad algebra: {exc}", f"{where}.algebra") from None
        algebra = algebras[key]
        yv = parse_etale_literal(str(_need(ispec, "y", where)), algebra, f"{where}.y")
        ce = _literal(ispec, "c_endoscopic", algebra, where)
        xv = parse_etale_literal(str(_need(ispec, "x", where)), algebra, f"{where}.x")
        cx = _literal(ispec, "c", algebra, where)
        y_entries.append(IndexEntry(name, side, algebra, yv, ce))
        x_entries.append(IndexEntry(name, side, algebra, xv, cx))

    x_d = _literal(doc, "x_D", F, "$")
    return InstanceDocument(
        base=base,
        group=group,
        endoscopic=endo,
        y=RegularParam(tuple(y_entries)),
        x=RegularParam(tuple(x_entries), x_d),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dump_document(g, e, y, x):
    """Emit the JSON-compatible dict for an instance; literals round-trip."""
    doc = {"base": ({"kind": "real"} if g.base.is_real
                    else {"kind": "p-adic", "p": g.base.p,
                          "precision": g.base.precision})}
    towers = {}
    names = {}
    def tower_name(tower):
        if tower._fingerprint not in names:
            names[tower._fingerprint] = f"K{len(names)}"
            towers[names[tower._fingerprint]] = {
                "f": tower.f,
                "eis": [repr(tower.from_coords([list(vec)])) for vec in tower.eis],
            }
        return names[tower._fingerprint]

    for en in y.entries:
        tower_name(en.algebra.base_pm)
    doc["towers"] = towers
    if g.E is not None:
        doc["extension"] = {"delta": str(g.E.delta_e.as_fraction())}
    gspec = {"case": g.case, "d": g.d}
    if g.delta is not None:
        gspec["delta"] = repr(g.delta)
    if g.nu is not None:
        gspec["nu"] = repr(g.nu)
    if g.eta is not None:
        gspec["eta"] = repr(g.eta)
    doc["group"] = gspec
    espec = {"d_minus": e.d_minus, "d_plus": e.d_plus,
             "cocycle_class": e.cocycle_class}
    if e.delta_minus is not None:
        espec["delta_minus"] = repr(e.delta_minus)
    if e.delta_plus is not None:
        espec["delta_plus"] = repr(e.delta_plus)
    if e.chi is not None:
        espec["chi"] = repr(e.chi)
    for tag, mu in (("mu_minus", e.mu_minus), ("mu_plus", e.mu_plus)):
        if mu is not None:
            espec[tag] = {"angle_pi": str(mu.angle_pi),
                          "unit_exponent": mu.unit_exponent}
    doc["endoscopic"] = espec
    indices = []
    for ye, xe in zip(y.entries, x.entries):
        alg = ye.algebra
        if alg.unitary_base is not None:
            aspec = {"kind": "tensor"}
        elif not alg.is_field:
            aspec = {"kind": "split"}
        else:
            aspec = {"kind": "field", "delta": repr(alg.delta)}
        ispec = {"name": ye.name, "side": ye.side,
                 "tower": tower_name(alg.base_pm), "algebra": aspec,
                 "y": repr(ye.value), "x": repr(xe.value)}
        if ye.c is not None:
            ispec["c_endoscopic"] = repr(ye.c)
        if xe.c is not None:
            ispec["c"] = repr(xe.c)
        indices.append(ispec)
    doc["indices"] = indices
    if x.x_D is not None:
        doc["x_D"] = repr(x.x_D)
    return doc
