"""Vectors over the polynomial ring, module Groebner bases, and syzygies.

Module terms are (component, monomial) pairs ordered position-over-term:
lower component index dominates, ties broken by the ring's monomial order.
Module Groebner bases come from the one Buchberger engine in `groebner`,
run on these terms (`_vector_ops`): Gebauer-Moeller pruning applies, the
coprime criterion does not.  Syzygies are computed by tagging: append a
unit vector to each input, compute a module basis, and read off the
elements supported only on tags.
"""

from .core import (
    DEGREVLEX,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .groebner import _buchberger, _reduce, _TermOps


class ModuleVector:
    """Element of a free module S^rank, stored as {(comp, mono): coeff}."""

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring, rank, terms):
        self.ring = ring
        self.rank = rank
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleVector)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __add__(self, other):
        fld = self.ring.field
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = fld.add(out.get(k, fld.zero()), c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ModuleVector(self.ring, self.rank, out)

    def __neg__(self):
        fld = self.ring.field
        return ModuleVector(self.ring, self.rank, {k: fld.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        fld = self.ring.field
        c = fld.coerce(c)
        if not c:
            return ModuleVector(self.ring, self.rank, {})
        return ModuleVector(self.ring, self.rank, {k: fld.mul(c, x) for k, x in self.terms.items()})

    def mul_term(self, mono, coeff):
        fld = self.ring.field
        return ModuleVector(
            self.ring,
            self.rank,
            {(i, mono_mul(m, mono)): fld.mul(c, coeff) for (i, m), c in self.terms.items()},
        )

    def component(self, i):
        return Polynomial(
            self.ring, {m: c for (j, m), c in self.terms.items() if j == i}
        )

    def components(self):
        return [self.component(i) for i in range(self.rank)]

    def degree(self, shifts=None):
        """Degree of a homogeneous vector; shifts[i] is the degree of e_i."""
        if not self.terms:
            raise ValueError("degree of the zero vector")
        w = self.ring.weights
        degs = {
            mono_degree(m, w) + (shifts[i] if shifts else 0) for (i, m) in self.terms
        }
        if len(degs) != 1:
            raise ValueError("vector is not homogeneous")
        return degs.pop()

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.components()) + ")"


def vector(ring, rank, comp_to_poly):
    """Build a vector from a {component index: polynomial} mapping."""
    terms = {}
    for i, p in comp_to_poly.items():
        for m, c in p.terms.items():
            terms[(i, m)] = c
    return ModuleVector(ring, rank, terms)


def unit_vector(ring, rank, i):
    one = ring.field.one()
    return ModuleVector(ring, rank, {(i, (0,) * ring.nvars): one})


def _vector_ops(field, order):
    """The engine's operations on (component, monomial) terms, ordered
    position-over-term.  Leads in different components have no lcm, and the
    coprime criterion is off: it does not hold for modules.  Pairs are
    selected by the order key of the lcm's monomial."""
    mkey = order.key
    return _TermOps(
        field,
        key=lambda t: (-t[0], mkey(t[1])),
        div=lambda t, s: mono_div(t[1], s[1]) if t[0] == s[0] else None,
        shift=lambda t, q: (t[0], mono_mul(t[1], q)),
        lcm=lambda s, t: (s[0], mono_lcm(s[1], t[1])) if s[0] == t[0] else None,
        divides=lambda s, t: s[0] == t[0] and mono_divides(s[1], t[1]),
        coprime=lambda s, t: False,
        select=lambda t: mkey(t[1]),
    )


def module_groebner(vectors, order=DEGREVLEX):
    """Groebner basis of the submodule the vectors generate (monic leads)."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    ring, rank = vecs[0].ring, vecs[0].rank
    G, _leads = _buchberger([v.terms for v in vecs], _vector_ops(ring.field, order))
    return [ModuleVector(ring, rank, g) for g in G]


def syzygy_module(vectors, rank, order=DEGREVLEX):
    """Generators of the syzygy module of the given vectors in S^rank.

    Returned vectors live in S^len(vectors): coordinates are the tag block.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    ring = vecs[0].ring
    s = len(vecs)
    big_rank = rank + s
    tagged = []
    for i, v in enumerate(vecs):
        terms = dict(v.terms)
        terms[(rank + i, (0,) * ring.nvars)] = ring.field.one()
        tagged.append(ModuleVector(ring, big_rank, terms))
    G = module_groebner(tagged, order)
    out = []
    for g in G:
        if all(i >= rank for (i, _m) in g.terms):
            out.append(
                ModuleVector(ring, s, {(i - rank, m): c for (i, m), c in g.terms.items()})
            )
    return out


def kernel_of_matrix(matrix, ring, order=DEGREVLEX):
    """Kernel of the map S^c -> S^r given by an r x c matrix of polynomials.

    Returns generating vectors in S^c.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    columns = [
        vector(ring, rows, {i: matrix[i][j] for i in range(rows) if not matrix[i][j].is_zero()})
        for j in range(cols)
    ]
    if rows == 0:
        return [unit_vector(ring, cols, j) for j in range(cols)]
    return syzygy_module(columns, rows, order)


def minimal_generators(vectors, rank, shifts=None, order=DEGREVLEX, modulo=()):
    """Greedy minimal generating set: process by degree, drop members of the
    submodule generated by what is already kept (plus `modulo`)."""
    vecs = [v for v in vectors if not v.is_zero()]
    vecs.sort(key=lambda v: (v.degree(shifts), sorted(v.terms)))
    kept = []
    base = list(modulo)
    gb = module_groebner(base, order) if base else []
    for v in vecs:
        if gb:
            ops = _vector_ops(v.ring.field, order)
            basis = [g.terms for g in gb]
            if not _reduce(v.terms, basis, [max(g, key=ops.key) for g in basis], ops):
                continue
        kept.append(v)
        gb = module_groebner(base + kept, order)
    return kept
