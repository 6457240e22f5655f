"""Small declaration language for rings, ideals, maps, and extension instances.

Grammar (statements end with ';'):

    ring NAME over (QQ | GF(p)) vars v1:w1, v2:w2, ...;
    ideal NAME in RING = poly, poly, ...;
    map NAME : SRC -> TGT = poly, ...;
    instance NAME = (A, B, MAP) [char p] [pe N] [domain]
                    [separable | purely_inseparable];
    COMMAND arg ...;            # any invariants/hilbert/betti/... invocation

Polynomials use `^` for powers and require `*` for products; coefficients are
integers or fractions of integers.  Tokens, declarations, commands and the
SessionScript are records that compare field by field, and
parse(print_script(s)) returns an equal SessionScript for every parseable
script.
"""

import re
from fractions import Fraction

from .core import GF, QQ, FrozenRecord, GradedPolyRing, GradedQuotientPresentation, Record
from .groebner import GradedRingMap


class ScriptError(Exception):
    """Diagnostic with a 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__("%d:%d: %s" % (line, column, message))
        self.message = message
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_\[\]]*)
  | (?P<sym>[;,:()=^*+\-/])
    """,
    re.VERBOSE,
)


class Token(FrozenRecord):
    """One lexeme: kind "int", "name", "sym" or "eof", at a 1-based position."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token("sym" if kind == "arrow" else kind,
                                chunk if kind != "arrow" else "->", line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST


class RingDecl(Record):
    __slots__ = ("name", "characteristic", "variables")

    def __init__(self, name, characteristic, variables):
        self.name = name
        self.characteristic = characteristic  # 0 for QQ
        self.variables = variables  # tuple of (name, weight)


class IdealDecl(Record):
    __slots__ = ("name", "ring", "generators")

    def __init__(self, name, ring, generators):
        self.name = name
        self.ring = ring
        self.generators = generators  # tuple of Polynomial


class MapDecl(Record):
    __slots__ = ("name", "source", "target", "images")

    def __init__(self, name, source, target, images):
        self.name = name
        self.source = source
        self.target = target
        self.images = images  # tuple of Polynomial


class InstanceDecl(Record):
    __slots__ = (
        "name", "A", "B", "map", "characteristic", "p_power", "domain", "separability",
    )

    def __init__(
        self, name, A, B, map, characteristic=None, p_power=None, domain=False,
        separability="unknown",
    ):
        self.name = name
        self.A = A
        self.B = B
        self.map = map
        self.characteristic = characteristic
        self.p_power = p_power
        self.domain = domain
        self.separability = separability


class Command(Record):
    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words  # tuple of str


class SessionScript(Record):
    __slots__ = ("declarations", "commands")

    def __init__(self, declarations=None, commands=None):
        self.declarations = [] if declarations is None else declarations
        self.commands = [] if commands is None else commands


COMMAND_WORDS = {
    "invariants", "hilbert", "betti", "kernel", "veronese", "frobenius",
    "check", "suite",
}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.rings = {}  # name -> GradedPolyRing (for polynomial parsing)
        self.declared = set()

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, message, token=None):
        t = token or self.peek()
        raise ScriptError(message, t.line, t.column)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.error("expected %r, found %r" % (text, t.text or "end of input"), t)
        return t

    def expect_name(self):
        t = self.next()
        if t.kind != "name":
            self.error("expected a name, found %r" % (t.text or "end of input"), t)
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            self.error("expected an integer, found %r" % (t.text or "end of input"), t)
        return int(t.text)

    def fresh(self, token):
        if token.text in self.declared:
            self.error("name %r is already declared" % token.text, token)
        self.declared.add(token.text)
        return token.text

    def known(self, token, what="name"):
        if token.text not in self.declared:
            self.error("undeclared %s %r" % (what, token.text), token)
        return token.text

    # -- statements ---------------------------------------------------------

    def parse_script(self):
        script = SessionScript()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "ring":
                script.declarations.append(self.ring_decl())
            elif t.text == "ideal":
                script.declarations.append(self.ideal_decl())
            elif t.text == "map":
                script.declarations.append(self.map_decl())
            elif t.text == "instance":
                script.declarations.append(self.instance_decl())
            elif t.text in COMMAND_WORDS:
                script.commands.append(self.command())
            else:
                self.error("expected a declaration or command, found %r" % t.text, t)
        return script

    def ring_decl(self):
        self.expect("ring")
        name = self.fresh(self.expect_name())
        self.expect("over")
        t = self.next()
        if t.text == "QQ":
            p = 0
        elif t.text == "GF":
            self.expect("(")
            p = self.expect_int()
            self.expect(")")
            if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
                self.error("modulus %d is not prime" % p, t)
        else:
            self.error("expected QQ or GF(p), found %r" % t.text, t)
        self.expect("vars")
        variables = []
        while True:
            v = self.expect_name()
            w = 1
            if self.peek().text == ":":
                self.next()
                wt = self.peek()
                w = self.expect_int()
                if w <= 0:
                    self.error("weight must be positive", wt)
            variables.append((v.text, w))
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(";")
        decl = RingDecl(name, p, tuple(variables))
        fieldspec = QQ if p == 0 else GF(p)
        self.rings[name] = GradedPolyRing(
            fieldspec, tuple(v for v, _ in variables), tuple(w for _, w in variables)
        )
        return decl

    def ideal_decl(self):
        self.expect("ideal")
        name = self.fresh(self.expect_name())
        self.expect("in")
        rt = self.expect_name()
        ring_name = self.known(rt, "ring")
        ring = self.rings.get(ring_name)
        if ring is None:
            self.error("%r is not a ring" % ring_name, rt)
        self.expect("=")
        gens = [self.polynomial(ring)]
        while self.peek().text == ",":
            self.next()
            gens.append(self.polynomial(ring))
        self.expect(";")
        # an ideal names the quotient presentation in the same ambient ring
        self.rings[name] = ring
        return IdealDecl(name, ring_name, tuple(gens))

    def map_decl(self):
        self.expect("map")
        name = self.fresh(self.expect_name())
        self.expect(":")
        src = self.known(self.expect_name(), "ring or ideal")
        self.expect("->")
        tgt_tok = self.expect_name()
        tgt = self.known(tgt_tok, "ring or ideal")
        ring = self.rings.get(tgt)
        if ring is None:
            self.error("%r is not a ring or ideal" % tgt, tgt_tok)
        self.expect("=")
        images = [self.polynomial(ring)]
        while self.peek().text == ",":
            self.next()
            images.append(self.polynomial(ring))
        self.expect(";")
        return MapDecl(name, src, tgt, tuple(images))

    def instance_decl(self):
        self.expect("instance")
        name = self.fresh(self.expect_name())
        self.expect("=")
        self.expect("(")
        a = self.known(self.expect_name(), "ring or ideal")
        self.expect(",")
        b = self.known(self.expect_name(), "ring or ideal")
        self.expect(",")
        m = self.known(self.expect_name(), "map")
        self.expect(")")
        decl = InstanceDecl(name, a, b, m)
        while self.peek().text != ";":
            t = self.next()
            if t.text == "char":
                decl.characteristic = self.expect_int()
            elif t.text == "pe":
                decl.p_power = self.expect_int()
            elif t.text == "domain":
                decl.domain = True
            elif t.text == "separable":
                decl.separability = "separable"
            elif t.text == "purely_inseparable":
                decl.separability = "purely-inseparable"
            else:
                self.error("unknown instance modifier %r" % t.text, t)
        self.expect(";")
        return decl

    def command(self):
        words = []
        while self.peek().text != ";":
            t = self.next()
            if t.kind == "eof":
                self.error("unterminated command (missing ';')", t)
            words.append(t.text)
        self.expect(";")
        return Command(tuple(words))

    # -- polynomial expressions --------------------------------------------

    def polynomial(self, ring):
        poly = self.poly_term(ring)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.poly_term(ring)
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def poly_term(self, ring):
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.next().text == "-":
                sign = -sign
        poly = self.poly_factor(ring)
        while self.peek().text == "*":
            self.next()
            poly = poly * self.poly_factor(ring)
        return poly.scale(ring.field.coerce(sign)) if sign == -1 else poly

    def poly_factor(self, ring):
        base = self.poly_base(ring)
        if self.peek().text == "^":
            self.next()
            et = self.peek()
            e = self.expect_int()
            if e < 0:
                self.error("negative exponent", et)
            return base**e
        return base

    def poly_base(self, ring):
        t = self.next()
        if t.kind == "int":
            value = Fraction(int(t.text))
            if self.peek().text == "/":
                self.next()
                dt = self.peek()
                den = self.expect_int()
                if den == 0:
                    self.error("division by zero", dt)
                value /= den
            c = (
                value
                if ring.field.characteristic == 0
                else ring.field.div(value.numerator, value.denominator)
            )
            return ring.const(c)
        if t.kind == "name":
            if t.text not in ring.names:
                self.error("unknown variable %s" % t.text, t)
            return ring.var(ring.names.index(t.text))
        if t.text == "(":
            poly = self.polynomial(ring)
            self.expect(")")
            return poly
        self.error("expected a polynomial, found %r" % (t.text or "end of input"), t)


def parse_script(text):
    """Parse DSL text into a SessionScript, or raise ScriptError."""
    return _Parser(tokenize(text)).parse_script()


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(print_script(s)) == s)


def print_script(script):
    lines = []
    for d in script.declarations:
        if isinstance(d, RingDecl):
            fld = "QQ" if d.characteristic == 0 else "GF(%d)" % d.characteristic
            vs = ", ".join("%s:%d" % (v, w) for v, w in d.variables)
            lines.append("ring %s over %s vars %s;" % (d.name, fld, vs))
        elif isinstance(d, IdealDecl):
            lines.append(
                "ideal %s in %s = %s;" % (d.name, d.ring, ", ".join(map(repr, d.generators)))
            )
        elif isinstance(d, MapDecl):
            lines.append(
                "map %s : %s -> %s = %s;"
                % (d.name, d.source, d.target, ", ".join(map(repr, d.images)))
            )
        elif isinstance(d, InstanceDecl):
            bits = ["instance %s = (%s, %s, %s)" % (d.name, d.A, d.B, d.map)]
            if d.characteristic is not None:
                bits.append("char %d" % d.characteristic)
            if d.p_power is not None:
                bits.append("pe %d" % d.p_power)
            if d.domain:
                bits.append("domain")
            if d.separability == "separable":
                bits.append("separable")
            elif d.separability == "purely-inseparable":
                bits.append("purely_inseparable")
            lines.append(" ".join(bits) + ";")
        else:
            raise TypeError("unknown declaration %r" % (d,))
    for c in script.commands:
        lines.append(" ".join(c.words) + ";")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Session: resolved declarations ready for computation.


class Session:
    """Named presentations, maps, and instances built from a SessionScript."""

    def __init__(self, script=None):
        self.presentations = {}
        self.maps = {}
        self.instances = {}
        self.script = script or SessionScript()
        for d in self.script.declarations:
            self._declare(d)

    def _declare(self, d):
        from .theorems import ExtensionInstance

        if isinstance(d, RingDecl):
            fieldspec = QQ if d.characteristic == 0 else GF(d.characteristic)
            ring = GradedPolyRing(
                fieldspec,
                tuple(v for v, _ in d.variables),
                tuple(w for _, w in d.variables),
            )
            self.presentations[d.name] = GradedQuotientPresentation(
                ring, (), asserted_domain=True, name=d.name
            )
        elif isinstance(d, IdealDecl):
            ambient = self.presentations[d.ring].ring
            self.presentations[d.name] = GradedQuotientPresentation(
                ambient, d.generators, name=d.name
            )
        elif isinstance(d, MapDecl):
            self.maps[d.name] = GradedRingMap(
                self.presentations[d.source], self.presentations[d.target], d.images
            )
        elif isinstance(d, InstanceDecl):
            A = self.presentations[d.A]
            B = self.presentations[d.B]
            phi = self.maps[d.map]
            if phi.source is not A or phi.target is not B:
                raise ValueError(
                    "map %r does not go from %r to %r" % (d.map, d.A, d.B)
                )
            char = A.field.characteristic
            if d.characteristic is not None and d.characteristic != char:
                raise ValueError(
                    "declared characteristic %d differs from the field's %d"
                    % (d.characteristic, char)
                )
            if d.domain:
                A.asserted_domain = True
                B.asserted_domain = True
            self.instances[d.name] = ExtensionInstance(
                d.name, A, B, phi, char,
                d.p_power if d.p_power is not None else (1 if char == 0 else None),
                d.separability,
            )
        else:
            raise TypeError("unknown declaration %r" % (d,))
