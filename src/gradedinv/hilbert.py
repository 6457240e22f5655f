"""Hilbert series, Krull dimension, multiplicity, and the CM a-invariant fast path.

The numerator is computed from the lead-term ideal by the pivot-variable
recursion on monomial ideals and kept uncancelled; dimension is read off as
the pole order at t = 1, so no factor-cancellation choices are involved.
"""

from .core import DEGREVLEX, GradedQuotientPresentation, mono_degree, mono_divides
from .groebner import lead_ideal_monomials


class IntPoly:
    """Integer polynomial in t, stored as {degree: coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {d: c for d, c in (coeffs or {}).items() if c}

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return IntPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) - c
        return IntPoly(out)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
        return IntPoly(out)

    def shift(self, k):
        return IntPoly({d + k: c for d, c in self.coeffs.items()})

    def degree(self):
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial")
        return max(self.coeffs)

    def __call__(self, t):
        return sum(c * t**d for d, c in self.coeffs.items())

    def coefficient_list(self):
        if not self.coeffs:
            return [0]
        n = self.degree()
        return [self.coeffs.get(d, 0) for d in range(n + 1)]

    def try_divide_one_minus_t(self, w=1):
        """Quotient by (1 - t^w), or None when not divisible."""
        rem = dict(self.coeffs)
        out = {}
        while rem:
            d = max(rem)
            c = rem.pop(d)
            if d < w:
                return None
            # c*t^d = c*t^(d-w) * (t^w - 1) + c*t^(d-w); we divide by 1 - t^w
            out[d - w] = out.get(d - w, 0) - c
            rem[d - w] = rem.get(d - w, 0) + c
            if not rem[d - w]:
                del rem[d - w]
        return IntPoly(out)

    def root_multiplicity_at_one(self):
        m = 0
        p = self
        while not p.is_zero():
            q = p.try_divide_one_minus_t(1)
            if q is None:
                break
            m += 1
            p = q
        return m

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                bits.append(str(c))
            else:
                term = "t" if d == 1 else "t^%d" % d
                if c == 1:
                    bits.append(term)
                elif c == -1:
                    bits.append("-" + term)
                else:
                    bits.append("%d*%s" % (c, term))
        return " + ".join(bits).replace("+ -", "- ")


def _minimalize_monomials(monos):
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    out = []
    for m in monos:
        if not any(mono_divides(p, m) for p in out):
            out.append(m)
    return out


def hilbert_numerator(monomials, weights):
    """Numerator N(t) with N(t)/prod(1-t^w) the Hilbert series of S/(monomials)."""
    weights = tuple(weights)
    cache = {}

    def rec(gens):
        gens = tuple(_minimalize_monomials(gens))
        hit = cache.get(gens)
        if hit is not None:
            return hit
        if not gens:
            res = IntPoly.one()
        elif any(sum(m) == 0 for m in gens):
            res = IntPoly()
        else:
            shared = _most_shared_variable(gens)
            if shared is None:
                # pairwise coprime generators: product formula
                res = IntPoly.one()
                for m in gens:
                    res = res * IntPoly({0: 1, mono_degree(m, weights): -1})
            else:
                j = shared
                # 0 -> S/(I:x_j)(-w_j) -> S/I -> S/(I + x_j) -> 0
                killed = [m for m in gens if m[j] == 0]
                pivot = tuple(1 if i == j else 0 for i in range(len(weights)))
                colon = [tuple(e - 1 if i == j and e > 0 else e for i, e in enumerate(m)) for m in gens]
                res = rec(killed + [pivot]) + rec(colon).shift(weights[j])
        cache[gens] = res
        return res

    def _most_shared_variable(gens):
        n = len(gens[0])
        counts = [0] * n
        for m in gens:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        best = max(range(n), key=lambda i: counts[i])
        return best if counts[best] >= 2 else None

    return rec(tuple(monomials))


class HilbertSeries:
    """N(t) / prod(1 - t^w) with the numerator kept uncancelled."""

    def __init__(self, numerator, denominator_weights):
        self.numerator = numerator
        self.denominator_weights = tuple(sorted(denominator_weights))

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.denominator_weights == other.denominator_weights
        )

    def dimension(self):
        """Pole order at t = 1."""
        if self.numerator.is_zero():
            return -1
        return len(self.denominator_weights) - self.numerator.root_multiplicity_at_one()

    def coefficients(self, bound):
        """dim_k A_i for 0 <= i <= bound, by power-series expansion."""
        coeffs = [0] * (bound + 1)
        for d, c in self.numerator.coeffs.items():
            if d <= bound:
                coeffs[d] += c
        for w in self.denominator_weights:
            for i in range(w, bound + 1):
                coeffs[i] += coeffs[i - w]
        return coeffs

    def fastpath_a_invariant(self):
        """deg(numerator) - sum(denominator weights); valid for CM algebras."""
        if self.numerator.is_zero():
            raise ValueError("the zero ring has no a-invariant")
        return self.numerator.degree() - sum(self.denominator_weights)

    def __repr__(self):
        return "(%r) / %s" % (
            self.numerator,
            " ".join("(1-t^%d)" % w for w in self.denominator_weights) or "1",
        )


def hilbert_series(A, order=None):
    """Exact Hilbert series of a graded quotient presentation.

    The numerator comes from the lead-term ideal under `order` (degrevlex
    by default).  The series is computed once per presentation and order and
    kept on A; the same object is returned on later calls.
    """
    if not isinstance(A, GradedQuotientPresentation):
        raise TypeError("expected a GradedQuotientPresentation")
    order = order or DEGREVLEX
    return A.cached(("hilbert_series", order), lambda: _hilbert_series(A, order))


def _hilbert_series(A, order):
    if A.ideal_gens:
        num = hilbert_numerator(lead_ideal_monomials(A, order), A.ring.weights)
    else:
        num = IntPoly.one()
    return HilbertSeries(num, A.ring.weights)


def krull_dimension(A):
    return hilbert_series(A).dimension()


def multiplicity(A):
    """Degree of a standard graded algebra: h(1) for the cancelled numerator."""
    if not A.is_standard_graded:
        raise ValueError("multiplicity requires a standard grading")
    series = hilbert_series(A)
    num = series.numerator
    if num.is_zero():
        raise ValueError("multiplicity of the zero ring")
    m = num.root_multiplicity_at_one()
    for _ in range(m):
        num = num.try_divide_one_minus_t(1)
    return num(1)


def h_vector(A):
    """Coefficients of the fully cancelled numerator (standard graded)."""
    if not A.is_standard_graded:
        raise ValueError("h-vector requires a standard grading")
    series = hilbert_series(A)
    num = series.numerator
    if num.is_zero():
        return [0]
    for _ in range(num.root_multiplicity_at_one()):
        num = num.try_divide_one_minus_t(1)
    return num.coefficient_list()


def a_invariant_fastpath(A, cm_certificate):
    """a(A) for Cohen-Macaulay A, read off the Hilbert series.

    The certificate must come from an honest CM check
    (resolution.is_cohen_macaulay); this function refuses to guess.
    """
    if not cm_certificate:
        raise ValueError("fast path requires a Cohen-Macaulay certificate")
    return hilbert_series(A).fastpath_a_invariant()
