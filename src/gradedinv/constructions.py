"""Ring constructions: Veronese subrings, Frobenius powers, integrality
tests, subalgebra membership, and irrelevant-ideal saturation."""

import itertools

from .core import (
    GradedPolyRing,
    GradedQuotientPresentation,
    Polynomial,
    left_nullspace,
    mono_divides,
)
from .groebner import (
    GradedRingMap,
    elimination_order,
    groebner_basis,
    lead_ideal_monomials,
    normal_form,
    presentation_groebner_basis,
    ring_map_kernel,
    saturation,
    _inject,
)
from .hilbert import hilbert_series
from .resolution import minimal_ideal_generators

REGRADED = "regraded"
AMBIENT = "ambient"


def reweight(presentation, new_weights):
    """Same variables and relations, new weights (relations must stay homogeneous)."""
    ring = presentation.ring
    new_ring = GradedPolyRing(ring.field, ring.names, new_weights)
    gens = [Polynomial(new_ring, dict(g.terms)) for g in presentation.ideal_gens]
    return GradedQuotientPresentation(
        new_ring, gens, presentation.asserted_domain, presentation.name
    )


def degree_slot_basis(A, n):
    """Monomial k-basis of the degree-n slot of a standard graded A."""
    if not A.is_standard_graded:
        raise ValueError("Veronese construction requires a standard grading")
    leads = lead_ideal_monomials(A) if A.ideal_gens else []
    nvars = A.ring.nvars
    basis = []
    for combo in itertools.combinations_with_replacement(range(nvars), n):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        e = tuple(e)
        if not any(mono_divides(lm, e) for lm in leads):
            basis.append(e)
    return basis


def _monomials_of_degree(nvars, t):
    for combo in itertools.combinations_with_replacement(range(nvars), t):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def _stride_certified(A, n, candidate_pres):
    """Does the candidate quotient have the Hilbert function of A^(n)?

    The candidate ideal sits inside the true kernel, so the candidate quotient
    surjects onto the Veronese; equal Hilbert functions force equality.  Both
    functions are eventually polynomial of degree below the variable count, so
    agreement up to (polynomial range start) + (variable count) + 1 decides
    agreement everywhere.
    """
    hsV = hilbert_series(candidate_pres)
    hsC = hilbert_series(A)
    k = candidate_pres.ring.nvars
    deg_v = 0 if hsV.numerator.is_zero() else hsV.numerator.degree()
    deg_c = 0 if hsC.numerator.is_zero() else hsC.numerator.degree()
    bound = max(deg_v, -(-deg_c // n)) + k + 2
    c_v = hsV.coefficients(bound)
    c_c = hsC.coefficients(n * bound)
    return all(c_v[i] == c_c[n * i] for i in range(bound + 1))


def _rref_insert(pivots, vec, fld):
    """Reduce vec against the RREF rows; insert and return it if independent."""
    vec = list(vec)
    for p, row in pivots.items():
        if vec[p]:
            f = vec[p]
            vec = [fld.sub(x, fld.mul(f, y)) for x, y in zip(vec, row)]
    lead = next((i for i, x in enumerate(vec) if x), None)
    if lead is None:
        return None
    inv = fld.inv(vec[lead])
    vec = [fld.mul(x, inv) for x in vec]
    pivots[lead] = vec
    return vec


def _veronese_kernel(A, n, ring, basis, max_source_degree=8):
    """Kernel of the slot-variable presentation map, by exact linear algebra.

    Degree by degree, kernel elements are left-nullspace vectors of the
    matrix of normal forms of slot-monomial products against the target
    degree slot basis; multiples of lower-degree kernel generators are
    quotiented out, so the result is a minimal generating set by the graded
    Nakayama argument.  The Hilbert-function certificate above decides when
    the accumulated ideal is the whole kernel.  `ring` is the weight-1 ring
    of the slot variables, so slot i of the Hilbert function is A_{ni}.
    Returns the certified presentation over `ring`, its Groebner basis and
    Hilbert series kept from the certificate, or None when the degree cap
    is hit (elimination is then the fallback).
    """
    fld = A.field
    gbA = presentation_groebner_basis(A) if A.ideal_gens else None
    gens = []
    for t in range(2, max_source_degree + 1):
        monos = list(_monomials_of_degree(ring.nvars, t))
        mono_index = {m: i for i, m in enumerate(monos)}
        target = degree_slot_basis(A, n * t)
        index = {m: i for i, m in enumerate(target)}
        rows = []
        for m in monos:
            exps = [0] * A.ring.nvars
            for i, e in enumerate(m):
                for j in range(A.ring.nvars):
                    exps[j] += e * basis[i][j]
            img = A.ring.monomial(tuple(exps))
            if gbA is not None:
                img = normal_form(img, gbA)
            vec = [fld.zero()] * len(target)
            for mono, cf in img.terms.items():
                vec[index[mono]] = cf
            rows.append(vec)
        # span of degree-t multiples of the generators found so far
        old_span = {}
        for g in gens:
            for m in _monomials_of_degree(ring.nvars, t - g.degree()):
                prod = g * Polynomial(ring, {m: fld.coerce(1)})
                vec = [fld.zero()] * len(monos)
                for mono, cf in prod.terms.items():
                    vec[mono_index[mono]] = cf
                _rref_insert(old_span, vec, fld)
        for coeffs in left_nullspace(rows, fld):
            reduced = _rref_insert(old_span, coeffs, fld)
            if reduced is None:
                continue
            poly = ring.zero()
            for k, cf in enumerate(reduced):
                if cf:
                    poly = poly + Polynomial(ring, {monos[k]: cf})
            gens.append(poly)
        candidate = GradedQuotientPresentation(ring, gens)
        if _stride_certified(A, n, candidate):
            return candidate
    return None


class VeronesePresentation:
    """Presentation of a Veronese subring plus its bookkeeping.

    basis_monomials[i] is the exponent vector in the ambient ring of A that
    the i-th new variable maps to.
    """

    def __init__(self, presentation, basis_monomials, source_algebra, degree, convention):
        self.presentation = presentation
        self.basis_monomials = list(basis_monomials)
        self.source_algebra = source_algebra
        self.degree = degree
        self.convention = convention

    def variable_index_of(self, exps):
        return self.basis_monomials.index(tuple(exps))

    def inclusion_images(self):
        """Images of the Veronese variables inside the ambient algebra."""
        return [self.source_algebra.ring.monomial(m) for m in self.basis_monomials]


def veronese_presentation(A, n, convention=REGRADED):
    """Present the n-th Veronese subring of a standard graded algebra.

    When the linear-algebra kernel is certified, the REGRADED presentation
    is the certified weight-1 presentation itself, so its Groebner basis and
    Hilbert series come back already computed.  AMBIENT, and the elimination
    fallback, build a fresh presentation with the kernel reweighted.
    """
    if n < 1:
        raise ValueError("Veronese degree must be positive")
    if convention not in (REGRADED, AMBIENT):
        raise ValueError("unknown Veronese convention %r" % convention)
    basis = degree_slot_basis(A, n)
    names = tuple(_monomial_name(A.ring, m) for m in basis)
    ambient = GradedPolyRing(A.field, names, (n,) * len(basis))
    pres = _veronese_kernel(A, n, GradedPolyRing(A.field, names), basis)
    if pres is None:
        phi = GradedRingMap(
            GradedQuotientPresentation(ambient), A, [A.ring.monomial(m) for m in basis]
        )
        kernel = minimal_ideal_generators(
            GradedQuotientPresentation(ambient, ring_map_kernel(phi))
        )
        pres = GradedQuotientPresentation(ambient, kernel)
        if convention == REGRADED:
            pres = reweight(pres, (1,) * len(basis))
    elif convention == AMBIENT:
        pres = reweight(pres, ambient.weights)
    pres.asserted_domain = A.asserted_domain
    pres.name = "%s^(%d)" % (A.name, n) if A.name else None
    return VeronesePresentation(pres, basis, A, n, convention)


def _monomial_name(ring, exps):
    bits = []
    for name, e in zip(ring.names, exps):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append("%s%d" % (name, e))
    return "_".join(bits) if bits else "one"


def frobenius_power_presentation(B, q):
    """The q-th Frobenius power of B, as the degree-scaled regrade.

    In characteristic p the Frobenius b -> b^q is a graded ring isomorphism
    onto the subring of q-th powers, multiplying every degree by q; the
    relations are untouched because coefficients in F_p are Frobenius-fixed.
    """
    p = B.field.characteristic
    if q == 1:
        return B
    if p == 0:
        raise ValueError("Frobenius powers need positive characteristic")
    qq = q
    while qq % p == 0:
        qq //= p
    if qq != 1:
        raise ValueError("%d is not a power of the characteristic %d" % (q, p))
    scaled = tuple(w * q for w in B.ring.weights)
    pres = reweight(B, scaled)
    pres.name = "%s^%d" % (B.name, q) if B.name else None
    return pres


def frobenius_power_subalgebra_generators(B, q):
    """q-th powers of the variables, as elements of B's ambient ring."""
    return [B.ring.var(i) ** q for i in range(B.ring.nvars)]


def subalgebra_membership(element, subalgebra_gens, B):
    """Decide membership of an element of B in k[g_1, ..., g_s] <= B.

    Classic tag-variable test: in k[B-vars, u_1..u_s] reduce the element
    against a Groebner basis of I_B + (u_i - g_i) for an order eliminating
    the B variables; membership holds iff the normal form avoids them.
    """
    ring = B.ring
    tn = ring.nvars
    s = len(subalgebra_gens)
    names = tuple("T_" + n for n in ring.names) + tuple("U_%d" % i for i in range(s))
    gdeg = [g.degree() for g in subalgebra_gens]
    big = GradedPolyRing(ring.field, names, ring.weights + tuple(gdeg))
    gens = [_inject(g, big, 0) for g in B.ideal_gens]
    for i, g in enumerate(subalgebra_gens):
        e = [0] * big.nvars
        e[tn + i] = 1
        gens.append(big.monomial(tuple(e)) - _inject(g, big, 0))
    gb = groebner_basis(gens, elimination_order(tn))
    nf = normal_form(_inject(element, big, 0), gb)
    return all(all(e == 0 for e in m[:tn]) for m in nf.terms)


def subalgebras_equal(gens_a, gens_b, B):
    """Equality of the subalgebras of B the two generator lists span."""
    return all(subalgebra_membership(g, gens_b, B) for g in gens_a) and all(
        subalgebra_membership(g, gens_a, B) for g in gens_b
    )


def is_module_finite(phi):
    """Integrality of a graded inclusion: B/(A_+ B) finite over k."""
    target = phi.target
    gens = list(target.ideal_gens) + [img for img in phi.images if not img.is_zero()]
    if not gens:
        return target.ring.nvars == 0
    quotient = GradedQuotientPresentation(target.ring, gens)
    return hilbert_series(quotient).dimension() <= 0


def irrelevant_saturation(A):
    """A / H^0_m(A), presented as S/(I : m^infinity)."""
    ring = A.ring
    if not A.ideal_gens:
        return A
    m_gens = ring.gens()
    sat = saturation(list(A.ideal_gens), m_gens)
    return GradedQuotientPresentation(ring, sat, A.asserted_domain, A.name)
