"""Minimal graded free resolutions and everything read off them.

Resolutions are built iteratively: minimal generators, syzygies, minimal
generators of the syzygies, and so on.  Because every stage starts from a
minimal generating set, the differentials automatically have all entries in
the irrelevant maximal ideal; FreeResolution checks this on construction.

Also houses the Jacobian-ideal singular locus test (R1) and a
parameter-colength Cohen-Macaulay certificate for presentations too large
to resolve at desk scale.
"""

import random

from .core import (
    DEGREVLEX,
    GradedQuotientPresentation,
    Polynomial,
)
from .groebner import is_zero_ring, lead_ideal_monomials, presentation_groebner_basis
from .hilbert import hilbert_series, multiplicity
from .modules import (
    kernel_of_matrix,
    minimal_generators,
    syzygy_module,
    unit_vector,
    vector,
)

# Above this many ambient variables, iterated syzygies are not attempted.
RESOLUTION_VARIABLE_LIMIT = 10


class BettiTable:
    """Sparse (homological index, internal degree) -> rank."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    def projective_dimension(self):
        return max((i for (i, _j) in self.entries), default=0)

    def regularity(self):
        return max(j - i for (i, j) in self.entries)

    def alternating_numerator(self):
        """Sum_i (-1)^i sum_j beta_{i,j} t^j, as an IntPoly."""
        from .hilbert import IntPoly

        coeffs = {}
        for (i, j), b in self.entries.items():
            coeffs[j] = coeffs.get(j, 0) + (b if i % 2 == 0 else -b)
        return IntPoly(coeffs)

    def rows(self):
        return sorted(self.entries.items())

    def __repr__(self):
        return "BettiTable(%s)" % (
            ", ".join("b[%d,%d]=%d" % (i, j, b) for (i, j), b in self.rows())
        )


class FreeResolution:
    """0 <- A <- F_0 <- F_1 <- ... with minimal differentials.

    shifts[i] lists the generator degrees of F_i.  matrices[i] is the map
    F_{i+1} -> F_i as a rank(F_i) x rank(F_{i+1}) matrix of polynomials.
    A non-minimal differential or a length above the variable count is an
    internal fault and raises RuntimeError.
    """

    def __init__(self, ring, shifts, matrices):
        self.ring = ring
        self.shifts = [list(s) for s in shifts]
        self.matrices = matrices
        if not self.is_minimal():
            raise RuntimeError("non-minimal differential produced")
        if self.length > ring.nvars:
            raise RuntimeError("resolution longer than the variable count")

    @property
    def length(self):
        return len(self.shifts) - 1

    def betti_table(self):
        entries = {}
        for i, degs in enumerate(self.shifts):
            for d in degs:
                entries[(i, d)] = entries.get((i, d), 0) + 1
        return BettiTable(entries)

    def is_minimal(self):
        zero_mono = (0,) * self.ring.nvars
        for mat in self.matrices:
            for row in mat:
                for p in row:
                    if zero_mono in p.terms:
                        return False
        return True

    def check_exactness_composition(self):
        """d_i . d_{i+1} = 0 for consecutive differentials."""
        for a, b in zip(self.matrices, self.matrices[1:]):
            rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
            for i in range(rows):
                for j in range(cols):
                    s = self.ring.zero()
                    for k in range(mid):
                        s = s + a[i][k] * b[k][j]
                    if not s.is_zero():
                        return False
        return True


def minimal_ideal_generators(A, order=DEGREVLEX):
    """Minimal homogeneous generators of the presentation ideal."""
    ring = A.ring
    vecs = [vector(ring, 1, {0: g}) for g in A.ideal_gens]
    mins = minimal_generators(vecs, 1, shifts=[0], order=order)
    return [v.component(0) for v in mins]


def minimal_free_resolution(A, order=DEGREVLEX):
    """Minimal graded free resolution of A = S/I as an S-module.

    The resolution is computed once per presentation and order and kept on
    A; the same object is returned on later calls.  The zero ring (I the
    unit ideal) and rings above RESOLUTION_VARIABLE_LIMIT variables raise
    ValueError.
    """
    ring = A.ring
    if ring.nvars > RESOLUTION_VARIABLE_LIMIT:
        raise ValueError(
            "resolution over %d variables exceeds the desk-scale limit (%d)"
            % (ring.nvars, RESOLUTION_VARIABLE_LIMIT)
        )
    return A.cached(("resolution", order), lambda: _resolve(A, order))


def _resolve(A, order):
    if is_zero_ring(A):
        raise ValueError("free resolution of the zero ring (the unit ideal)")
    ring = A.ring
    shifts = [[0]]
    matrices = []
    gens = minimal_ideal_generators(A, order)
    current = [vector(ring, 1, {0: g}) for g in gens]
    cur_shifts = [0]
    while current:
        col_shifts = [v.degree(cur_shifts) for v in current]
        rank = len(cur_shifts)
        matrix = [[v.component(i) for v in current] for i in range(rank)]
        matrices.append(matrix)
        shifts.append(col_shifts)
        syz = syzygy_module(current, rank, order)
        current = minimal_generators(syz, len(col_shifts), shifts=col_shifts, order=order)
        cur_shifts = col_shifts
    return FreeResolution(ring, shifts, matrices)


def betti_table(A, order=DEGREVLEX):
    return minimal_free_resolution(A, order).betti_table()


def projective_dimension(A):
    return minimal_free_resolution(A).length


def depth(A):
    """depth via Auslander-Buchsbaum: #variables - projective dimension."""
    return A.ring.nvars - projective_dimension(A)


def is_cohen_macaulay(A):
    from .hilbert import krull_dimension

    return depth(A) == krull_dimension(A)


def regularity(A):
    """Castelnuovo-Mumford regularity; standard graded only."""
    if not A.is_standard_graded:
        raise ValueError("regularity requires a standard grading")
    return betti_table(A).regularity()


# ---------------------------------------------------------------------------
# Canonical module and the general a-invariant.


class CanonicalModulePresentation:
    """omega_A = Ext^{n-d}_S(A, S(-sum w)) as generators plus relations."""

    def __init__(self, generator_degrees, relations):
        self.generator_degrees = list(generator_degrees)
        self.relations = relations  # rows: one per relation, columns per generator

    @property
    def initial_degree(self):
        return min(self.generator_degrees)

    def __repr__(self):
        return "CanonicalModule(generator degrees %s, %d relations)" % (
            self.generator_degrees,
            len(self.relations),
        )


def canonical_module(res, d, order=DEGREVLEX):
    """Canonical module of a nonzero A = S/I, given its minimal free
    resolution `res` and its Krull dimension d: res is dualized at
    homological index n - d."""
    ring = res.ring
    n = ring.nvars
    c = n - d
    sigma = sum(ring.weights)
    if c > res.length:
        raise ValueError("Ext index %d exceeds projective dimension %d" % (c, res.length))

    dual_shifts = [sigma - a for a in res.shifts[c]]
    rank = len(res.shifts[c])

    if c == res.length:
        kernel = [unit_vector(ring, rank, i) for i in range(rank)]
    else:
        transposed = [
            [res.matrices[c][i][j] for i in range(rank)]
            for j in range(len(res.shifts[c + 1]))
        ]
        kernel = kernel_of_matrix(transposed, ring, order)

    if c == 0:
        image = []
    else:
        # columns of the transpose of d_c = rows of d_c
        prev_rank = len(res.shifts[c - 1])
        image = [
            vector(
                ring,
                rank,
                {j: res.matrices[c - 1][i][j] for j in range(rank) if not res.matrices[c - 1][i][j].is_zero()},
            )
            for i in range(prev_rank)
        ]
        image = [v for v in image if not v.is_zero()]

    gens = minimal_generators(kernel, rank, shifts=dual_shifts, order=order, modulo=image)
    if not gens:
        raise ValueError("zero canonical module: wrong dimension input")
    gen_degrees = [v.degree(dual_shifts) for v in gens]

    relations = syzygy_module(gens + image, rank, order)
    r = len(gens)
    rel_rows = []
    for z in relations:
        row = [z.component(i) for i in range(r)]
        if any(not p.is_zero() for p in row):
            rel_rows.append(row)
    return CanonicalModulePresentation(gen_degrees, rel_rows)


def a_invariant(A, order=DEGREVLEX):
    """a(A) = -(initial degree of the graded canonical module).

    The value is computed once per presentation and order and kept on A.
    """
    from .hilbert import krull_dimension

    d = krull_dimension(A)
    if d < 0:
        raise ValueError("canonical module of the zero ring")

    def compute():
        res = minimal_free_resolution(A, order)
        return -canonical_module(res, d, order).initial_degree

    return A.cached(("a_invariant", order), compute)


# ---------------------------------------------------------------------------
# Embedding dimension, Jacobian criterion, parameter-based CM certificate.


def embedding_dimension(A):
    """Variable count minus the number of independent linear forms in I."""
    if not A.is_standard_graded:
        raise ValueError("embedding dimension requires a standard grading")
    if not A.ideal_gens:
        return A.ring.nvars
    linear = sum(1 for g in presentation_groebner_basis(A) if g.degree() == 1)
    return A.ring.nvars - linear


def partial_derivative(f, j):
    ring = f.ring
    fld = ring.field
    out = {}
    for m, c in f.terms.items():
        e = m[j]
        if not e:
            continue
        coeff = fld.mul(c, fld.coerce(e))
        if not coeff:
            continue
        mm = tuple(x - 1 if i == j else x for i, x in enumerate(m))
        prev = out.get(mm, fld.zero())
        s = fld.add(prev, coeff)
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return Polynomial(ring, out)


def _minors(matrix, size, ring):
    from itertools import combinations

    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if size == 0:
        return [ring.one()]
    if size > rows or size > cols:
        return []

    def det(rs, cs):
        if len(rs) == 1:
            return matrix[rs[0]][cs[0]]
        total = ring.zero()
        r0 = rs[0]
        for idx, c in enumerate(cs):
            entry = matrix[r0][c]
            if entry.is_zero():
                continue
            sub = det(rs[1:], cs[:idx] + cs[idx + 1 :])
            term = entry * sub
            total = total + term if idx % 2 == 0 else total - term
        return total

    out = []
    for rs in combinations(range(rows), size):
        for cs in combinations(range(cols), size):
            m = det(list(rs), tuple(cs))
            if not m.is_zero():
                out.append(m)
    return out


def singular_locus_dimension(A):
    """Dimension of V(I + size-(n-d) minors of the Jacobian); -1 when empty."""
    from .hilbert import krull_dimension

    ring = A.ring
    d = krull_dimension(A)
    c = ring.nvars - d
    jac = [
        [partial_derivative(g, j) for j in range(ring.nvars)] for g in A.ideal_gens
    ]
    minors = _minors(jac, c, ring)
    gens = list(A.ideal_gens) + minors
    sing = GradedQuotientPresentation(ring, [g for g in gens if g.is_homogeneous()])
    # a unit among the minors (c = 0) means an empty singular locus
    if any(not g.is_zero() and g.weighted_degree() == 0 for g in gens):
        return -1
    return hilbert_series(sing).dimension()


def is_r1(A):
    """Serre's R1 via the Jacobian criterion (asserted-domain presentations)."""
    from .hilbert import krull_dimension

    if not A.asserted_domain:
        raise ValueError("the Jacobian R1 test needs an asserted-domain presentation")
    return singular_locus_dimension(A) <= krull_dimension(A) - 2


class NoLinearParametersError(ValueError):
    """No sampled linear form system is a system of parameters.

    Over a small field every linear form may be a zero divisor, so a ring
    can have no linear system of parameters at all."""


def linear_system_of_parameters(A, rng=None, attempts=60):
    """Sample a linear system of parameters for a standard graded algebra.

    Returns (forms, quotient): the d sampled linear forms and the
    presentation of A/(forms), with generators A.ideal_gens + forms, whose
    Hilbert series accepted the draw.  Its Groebner basis and Hilbert series
    are kept on it, so callers read the colength and normal forms modulo
    I + J from it without computing them again.  For d = 0 the forms are
    empty and the quotient is A itself.  Raises NoLinearParametersError (a
    ValueError) when none of `attempts` draws is a system of parameters.
    """
    from .hilbert import krull_dimension

    if not A.is_standard_graded:
        raise ValueError("linear parameters require a standard grading")
    ring = A.ring
    d = krull_dimension(A)
    if d == 0:
        return [], A
    rng = rng or random.Random(0)
    p = ring.field.characteristic
    span = p if 0 < p < 11 else 11
    for _ in range(attempts):
        forms = []
        for _i in range(d):
            f = ring.zero()
            for j in range(ring.nvars):
                f = f + ring.var(j).scale(rng.randrange(span))
            forms.append(f)
        if any(f.is_zero() for f in forms):
            continue
        quotient = GradedQuotientPresentation(ring, list(A.ideal_gens) + forms)
        if hilbert_series(quotient).dimension() == 0:
            return forms, quotient
    raise NoLinearParametersError(
        "no linear system of parameters found over %s in %d draws"
        % (ring.field, attempts)
    )


def cm_certificate_by_parameters(A, rng=None):
    """CM test via colength of a linear parameter ideal.

    For a homogeneous linear system of parameters J one has
    dim_k(A/J) >= e(A), with equality exactly when A is Cohen-Macaulay.
    The colength is read off the quotient that accepted the sampled J, so
    GB(I + J) is computed once per accepted draw.  Cheap enough for
    presentations whose resolutions are out of reach.
    """
    from .hilbert import krull_dimension

    d = krull_dimension(A)
    if d == 0:
        return True
    _forms, quotient = linear_system_of_parameters(A, rng)
    colength = sum(hilbert_series(quotient).coefficients(_colength_bound(quotient)))
    return colength == multiplicity(A)


def _colength_bound(artinian):
    """Top degree of an Artinian quotient, from its lead-term ideal."""
    leads = lead_ideal_monomials(artinian)
    weights = artinian.ring.weights
    # max degree of a standard monomial: bounded by sum of (max exponent per var)
    bound = 0
    for j in range(artinian.ring.nvars):
        pures = [m[j] for m in leads if all(e == 0 for i, e in enumerate(m) if i != j)]
        if not pures:
            raise ValueError("quotient is not Artinian")
        bound += (min(pures) - 1) * weights[j]
    return max(bound, 0)
