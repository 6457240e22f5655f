"""Vectors over the polynomial ring, module Groebner bases, and syzygies.

Module terms are (component, monomial) pairs ordered position-over-term:
lower component index dominates, ties broken by the ring's monomial order.
Syzygies are computed by tagging: append a unit vector to each input,
compute a module basis, and read off the elements supported only on tags.
"""

import heapq

from .core import DEGREVLEX, Polynomial, mono_degree, mono_div, mono_lcm, mono_mul


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


def _term_key(order):
    def key(t):
        i, m = t
        return (-i, order.key(m))

    return key


def _lead(v, order):
    k = max(v.terms, key=_term_key(order))
    return k, v.terms[k]


def _reduce_vector(v, basis, leads, order):
    """Full remainder of v on division by basis vectors."""
    fld = v.ring.field
    key = _term_key(order)
    remainder = {}
    work = dict(v.terms)
    while work:
        t = max(work, key=key)
        comp, m = t
        c = work.pop(t)
        for g, (lt, lc) in zip(basis, leads):
            gcomp, gm = lt
            if gcomp != comp:
                continue
            q = mono_div(m, gm)
            if q is None:
                continue
            factor = fld.div(c, lc)
            for (gi, gmm), gc in g.terms.items():
                if (gi, gmm) == lt:
                    continue
                tt = (gi, mono_mul(gmm, q))
                s = fld.sub(work.get(tt, fld.zero()), fld.mul(factor, gc))
                if s:
                    work[tt] = s
                else:
                    work.pop(tt, None)
            break
        else:
            remainder[t] = c
    return ModuleVector(v.ring, v.rank, remainder)


def module_groebner(vectors, order=DEGREVLEX):
    """Groebner basis of the submodule the vectors generate (monic leads)."""
    vecs = [v for v in vectors if not v.is_zero()]
    if not vecs:
        return []
    ring = vecs[0].ring
    fld = ring.field

    G = []
    leads = []
    for v in vecs:
        lt, lc = _lead(v, order)
        G.append(v.scale(fld.inv(lc)))
        leads.append((lt, fld.one()))

    # same-component pairs, smallest lcm first: (order key of lcm, i, j)
    pairs = []

    def add_pair(i, j):
        lcm = mono_lcm(leads[i][0][1], leads[j][0][1])
        heapq.heappush(pairs, (order.key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i):
            if leads[i][0][0] == leads[j][0][0]:
                add_pair(j, i)

    while pairs:
        _key, i, j = heapq.heappop(pairs)
        (ci, mi), _lci = leads[i]
        (cj, mj), _lcj = leads[j]
        lcm = mono_lcm(mi, mj)
        s = G[i].mul_term(mono_div(lcm, mi), fld.one()) - G[j].mul_term(
            mono_div(lcm, mj), fld.one()
        )
        r = _reduce_vector(s, G, leads, order)
        if r.is_zero():
            continue
        lt, lc = _lead(r, order)
        G.append(r.scale(fld.inv(lc)))
        leads.append((lt, fld.one()))
        k = len(G) - 1
        for a in range(k):
            if leads[a][0][0] == lt[0]:
                add_pair(a, k)
    return G


def module_normal_form(v, gb, order=DEGREVLEX):
    leads = [(_lead(g, order)[0], g.terms[_lead(g, order)[0]]) for g in gb]
    return _reduce_vector(v, gb, leads, order)


def module_membership(v, gb, order=DEGREVLEX):
    return module_normal_form(v, gb, order).is_zero()


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
        if gb and module_membership(v, gb, order):
            continue
        kept.append(v)
        gb = module_groebner(base + kept, order)
    return kept
