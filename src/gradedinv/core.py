"""Exact coefficient fields, monomials, term orders, and graded polynomial rings.

Also `left_nullspace`, the exact elimination over a field that the Veronese
kernel and the exponent-lattice solver share.

Also `Record` and `FrozenRecord`, the base of every small value class in
the package (fields, orders, reports, verdicts, instances, script records):
slots, with equality and repr by field.  They stand in for `dataclasses`,
whose import would add `inspect`, `ast`, `dis` and `tokenize` to the start-up
of every process.

Fields and orders are frozen records; rings and polynomials are not changed
after construction.  All of them are safe to share between threads.
Coefficients are `fractions.Fraction` over the rationals and plain ints in
[0, p) over a prime field.
"""

from fractions import Fraction

# Exponents live in machine range; anything past this is a modelling error,
# not a bigger desk computation.
EXPONENT_LIMIT = 2**31


class RingMismatchError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Record:
    """A value record: its fields are its `__slots__`, in order.

    Equality and repr go by field, as for a dataclass; records are
    unhashable and pickle by their constructor arguments.
    """

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__),
        )

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A Record whose fields cannot be reassigned; hashable by field.

    `__init__` sets the fields with `object.__setattr__`.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class FieldSpec(FrozenRecord):
    """Base field: the rationals or a prime field F_p with p < 2^31."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        object.__setattr__(self, "characteristic", characteristic)
        p = characteristic
        if p == 0:
            return
        if p >= EXPONENT_LIMIT or not _is_prime(p):
            raise ValueError("characteristic must be 0 or a prime < 2^31, got %r" % p)

    @property
    def kind(self):
        return "rationals" if self.characteristic == 0 else "prime-field"

    def coerce(self, x):
        """Map an int or Fraction into the field."""
        if self.characteristic == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            num = x.numerator % self.characteristic
            den = x.denominator % self.characteristic
            return num * self.inv(den) % self.characteristic
        return x % self.characteristic

    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.characteristic == 0:
            return 1 / a
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __str__(self):
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic


QQ = FieldSpec(0)


def GF(p):
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# Exact linear algebra over a FieldSpec.


def left_nullspace(rows, fld):
    """A basis of {c : sum_k c_k rows[k] = 0} over fld, by Gauss-Jordan
    elimination of the transposed matrix.  Entries must lie in fld."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    M = [[rows[r][c] for r in range(nr)] for c in range(nc)]
    piv = {}
    rank = 0
    for col in range(nr):
        pr = next((r for r in range(rank, nc) if M[r][col]), None)
        if pr is None:
            continue
        M[rank], M[pr] = M[pr], M[rank]
        inv = fld.inv(M[rank][col])
        M[rank] = [fld.mul(x, inv) for x in M[rank]]
        for r in range(nc):
            if r != rank and M[r][col]:
                f = M[r][col]
                M[r] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(M[r], M[rank])]
        piv[col] = rank
        rank += 1
    out = []
    for free_col in range(nr):
        if free_col in piv:
            continue
        vec = [fld.zero()] * nr
        vec[free_col] = fld.coerce(1)
        for col, r in piv.items():
            vec[col] = fld.neg(M[r][free_col])
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# Monomials: plain tuples of non-negative ints, one slot per ring variable.


def mono_mul(a, b):
    c = tuple(x + y for x, y in zip(a, b))
    if any(e >= EXPONENT_LIMIT for e in c):
        raise OverflowError("monomial exponent exceeds 2^31")
    return c


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    c = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in c):
        return None
    return c


def mono_divides(b, a):
    return all(x <= y for x, y in zip(b, a))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a, weights=None):
    if weights is None:
        return sum(a)
    return sum(e * w for e, w in zip(a, weights))


# ---------------------------------------------------------------------------
# Term orders.  key(m) returns a tuple; larger key = larger monomial.


class MonomialOrder(FrozenRecord):
    """A global monomial order.

    kind:
      degrevlex            degree, revlex tie-break
      lex                  pure lexicographic
      weighted-degrevlex   weighted degree first (weights required)
      elimination          degrevlex block on the first `block` variables,
                           then degrevlex on the rest
    """

    __slots__ = ("kind", "weights", "block")

    def __init__(self, kind="degrevlex", weights=None, block=0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "block", block)
        if self.kind not in ("degrevlex", "lex", "weighted-degrevlex", "elimination"):
            raise ValueError("unknown order kind %r" % self.kind)
        if self.kind == "weighted-degrevlex" and not self.weights:
            raise ValueError("weighted order needs weights")
        if self.kind == "elimination" and self.block <= 0:
            raise ValueError("elimination order needs a positive block size")

    def key(self, m):
        if self.kind == "lex":
            return m
        if self.kind == "degrevlex":
            return (sum(m), tuple(-e for e in reversed(m)))
        if self.kind == "weighted-degrevlex":
            wd = sum(e * w for e, w in zip(m, self.weights))
            return (wd, tuple(-e for e in reversed(m)))
        k = self.block
        head, tail = m[:k], m[k:]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )

    def compare(self, a, b):
        """-1, 0, or 1 as a <, =, > b."""
        if len(a) != len(b):
            raise RingMismatchError("monomials from rings of different variable counts")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def elimination_order(block):
    return MonomialOrder("elimination", block=block)


# ---------------------------------------------------------------------------
# Rings and polynomials.


class GradedPolyRing:
    """A positively weighted polynomial ring over QQ or GF(p)."""

    def __init__(self, fieldspec, names, weights=None):
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        names = tuple(names)
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        self.field = fieldspec
        self.names = names
        self.weights = weights

    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_standard_graded(self):
        return all(w == 1 for w in self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, GradedPolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.field, self.names, self.weights))

    def __repr__(self):
        vars_ = ", ".join(
            n if w == 1 else "%s:%d" % (n, w) for n, w in zip(self.names, self.weights)
        )
        return "%s[%s]" % (self.field, vars_)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one()})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r" % (exps,))
        c = self.field.coerce(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, {exps: c})


class Polynomial:
    """Multivariate polynomial with exact coefficients; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # dict: exponent tuple -> nonzero coefficient

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, fld.zero()), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        fld = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = fld.add(out.get(m, fld.zero()), fld.mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c):
        fld = self.ring.field
        c = fld.coerce(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: fld.mul(c, k) for m, k in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def mul_term(self, mono, coeff):
        fld = self.ring.field
        return Polynomial(
            self.ring,
            {mono_mul(m, mono): fld.mul(c, coeff) for m, c in self.terms.items()},
        )

    def lead(self, order):
        """(monomial, coeff) of the order-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order):
        if not self.terms:
            return self
        _, c = self.lead(order)
        return self.scale(self.ring.field.inv(c))

    def weighted_degree(self):
        """Max weighted degree over the terms (None for 0)."""
        if not self.terms:
            return None
        w = self.ring.weights
        return max(mono_degree(m, w) for m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        w = self.ring.weights
        degs = {mono_degree(m, w) for m in self.terms}
        return len(degs) == 1

    def degree(self):
        """Degree of a nonzero homogeneous polynomial."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        if not self.is_homogeneous():
            raise ValueError("degree of an inhomogeneous polynomial")
        return self.weighted_degree()

    def homogeneous_components(self):
        w = self.ring.weights
        comps = {}
        for m, c in self.terms.items():
            comps.setdefault(mono_degree(m, w), {})[m] = c
        return {d: Polynomial(self.ring, t) for d, t in sorted(comps.items())}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=DEGREVLEX.key, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append("-" + body)
            else:
                bits.append("%s*%s" % (c, body))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")


class GradedQuotientPresentation:
    """A graded algebra A = S/I given by homogeneous ideal generators.

    Results that depend only on the presentation and a monomial order (the
    reduced Groebner basis of I, the Hilbert series, the minimal free
    resolution and the canonical-module a-invariant) are kept on the object
    by the functions that compute them, so each is computed at most once per
    presentation and order.  Nothing is shared between separately built
    presentations.
    """

    def __init__(self, ring, ideal_gens=(), asserted_domain=False, name=None):
        gens = [g for g in ideal_gens if not g.is_zero()]
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generator outside the presentation ring")
            if not g.is_homogeneous():
                raise ValueError("ideal generator %r is not homogeneous" % g)
        self.ring = ring
        self.ideal_gens = tuple(gens)
        self.asserted_domain = bool(asserted_domain)
        self.name = name
        self._memo = {}

    def cached(self, key, compute):
        """compute(), run at most once per presentation and kept under `key`.

        The owning function decides what is kept; callers get the same
        object back every time and must treat it as read-only.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def field(self):
        return self.ring.field

    @property
    def is_standard_graded(self):
        return self.ring.is_standard_graded

    def __repr__(self):
        if not self.ideal_gens:
            return repr(self.ring)
        return "%r/(%s)" % (self.ring, ", ".join(map(repr, self.ideal_gens)))


def free_presentation(fieldspec, names, weights=None, asserted_domain=True, name=None):
    return GradedQuotientPresentation(
        GradedPolyRing(fieldspec, names, weights), (), asserted_domain, name
    )
