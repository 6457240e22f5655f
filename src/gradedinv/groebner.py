"""Buchberger engine and the ideal-theoretic toolkit.

One Buchberger engine serves ideals and submodules of free modules: one
reducer (`_reduce`), one Gebauer-Moeller pair update (`_update_pairs`) and
one pair loop (`_buchberger`) with normal pair selection.  They run on term
dicts {term: coeff} through a `_TermOps`.  For ideals the terms are
monomials and the operations are the `core` monomial functions with the
order's key.  For modules (`modules._vector_ops`) the terms are (component,
monomial) pairs ordered position-over-term; leads in different components
have no lcm, and Buchberger's coprime criterion is off, since it does not
hold for modules.

Around it: reduced Groebner bases, multivariate division, elimination,
colon ideals, saturation, intersections, and kernels of graded ring maps
via graph ideals.
"""

from .core import (
    DEGREVLEX,
    GradedPolyRing,
    GradedQuotientPresentation,
    Polynomial,
    RingMismatchError,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class GroebnerBasis:
    """A reduced Groebner basis, sorted by decreasing lead monomial."""

    def __init__(self, generators, order):
        self.generators = tuple(generators)
        self.order = order
        self._leads = tuple(g.lead(order)[0] for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @property
    def lead_monomials(self):
        return self._leads

    def __repr__(self):
        return "GroebnerBasis(%s)" % (", ".join(map(repr, self.generators)))


# ---------------------------------------------------------------------------
# The engine.


class _TermOps:
    """What the engine needs to know about terms.

    key(t) orders terms (larger key, larger term); div(t, s) is the
    monomial q with shift(s, q) == t, or None; lcm(s, t) is None when the
    terms have no common multiple; coprime(s, t) is true when the pair
    (s, t) may be skipped by Buchberger's first criterion.  Pairs are
    selected by select(lcm), smallest first.
    """

    __slots__ = ("field", "key", "div", "shift", "lcm", "divides", "coprime", "select")

    def __init__(self, field, key, div, shift, lcm, divides, coprime, select):
        self.field = field
        self.key = key
        self.div = div
        self.shift = shift
        self.lcm = lcm
        self.divides = divides
        self.coprime = coprime
        self.select = select


def _mono_coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def _monomial_ops(field, order):
    return _TermOps(
        field, order.key, mono_div, mono_mul, mono_lcm, mono_divides, _mono_coprime, order.key
    )


def _subtract(work, g, lead, q, factor, ops):
    """work -= factor * q * (g minus its lead term), dropping cancelled terms."""
    fld, shift = ops.field, ops.shift
    for t, c in g.items():
        if t == lead:
            continue
        u = shift(t, q)
        s = fld.sub(work.get(u, fld.zero()), fld.mul(factor, c))
        if s:
            work[u] = s
        else:
            work.pop(u, None)


def _reduce(f, basis, leads, ops):
    """Full remainder of the term dict f on division by basis."""
    key, div, fld = ops.key, ops.div, ops.field
    remainder = {}
    work = dict(f)
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        for g, lead in zip(basis, leads):
            q = div(t, lead)
            if q is not None:
                _subtract(work, g, lead, q, fld.div(c, g[lead]), ops)
                break
        else:
            remainder[t] = c
    return remainder


def _update_pairs(leads, P, ops):
    """Gebauer-Moeller update of the pairs {(a, b): lcm} for the newest lead."""
    lcm, divides = ops.lcm, ops.divides
    j = len(leads) - 1
    lj = leads[j]
    for (a, b), L in list(P.items()):
        if divides(lj, L) and lcm(leads[a], lj) != L and lcm(leads[b], lj) != L:
            del P[(a, b)]
    by_lcm = {}
    for i in range(j):
        L = lcm(leads[i], lj)
        if L is not None:
            by_lcm.setdefault(L, []).append(i)
    kept_lcms = []
    for L in sorted(by_lcm, key=ops.select):
        if not any(divides(L2, L) for L2 in kept_lcms):
            kept_lcms.append(L)
    for L in kept_lcms:
        # Buchberger's first criterion: skip coprime lead pairs.
        if any(ops.coprime(leads[i], lj) for i in by_lcm[L]):
            continue
        P[(min(by_lcm[L]), j)] = L


def _buchberger(gens, ops):
    """Groebner basis of the nonzero term dicts gens: (monic basis, leads)."""
    fld, key, select = ops.field, ops.key, ops.select
    G, leads, P = [], [], {}

    def add(f):
        lead = max(f, key=key)
        inv = fld.inv(f[lead])
        G.append({t: fld.mul(c, inv) for t, c in f.items()})
        leads.append(lead)
        _update_pairs(leads, P, ops)

    for f in gens:
        add(f)
    while P:
        # normal strategy: smallest lcm first
        i, j = pair = min(P, key=lambda p: select(P[p]))
        L = P.pop(pair)
        q = ops.div(L, leads[i])
        s = {ops.shift(t, q): c for t, c in G[i].items() if t != leads[i]}
        _subtract(s, G[j], leads[j], ops.div(L, leads[j]), fld.one(), ops)
        r = _reduce(s, G, leads, ops)
        if r:
            add(r)
    return G, leads


def _interreduce(G, leads, ops):
    """Minimalize and autoreduce a monic Groebner basis; sorted by decreasing lead."""
    idx = sorted(range(len(G)), key=lambda i: ops.key(leads[i]))
    minimal = []
    for i in idx:
        if not any(ops.divides(leads[k], leads[i]) for k in minimal):
            minimal.append(i)
    reduced = []
    for i in reversed(minimal):
        others = [k for k in minimal if k != i]
        reduced.append(_reduce(G[i], [G[k] for k in others], [leads[k] for k in others], ops))
    return reduced


def normal_form(f, gb):
    """Remainder of f modulo gb; no remainder term is divisible by a lead."""
    ops = _monomial_ops(f.ring.field, gb.order)
    return Polynomial(f.ring, _reduce(f.terms, [g.terms for g in gb], gb.lead_monomials, ops))


def groebner_basis(generators, order=DEGREVLEX):
    """Reduced Groebner basis of the ideal the generators span."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        ring = generators[0].ring if generators else None
        if ring is None:
            raise ValueError("cannot infer the ring of an empty generator list")
        return GroebnerBasis((), order)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    ops = _monomial_ops(ring.field, order)
    G, leads = _buchberger([g.terms for g in gens], ops)
    return GroebnerBasis([Polynomial(ring, t) for t in _interreduce(G, leads, ops)], order)


def ideal_membership(f, gb_or_gens, order=DEGREVLEX):
    gb = gb_or_gens
    if not isinstance(gb, GroebnerBasis):
        gb = groebner_basis(list(gb_or_gens), order)
    return normal_form(f, gb).is_zero()


def ideals_equal(gens_a, gens_b, order=DEGREVLEX):
    """Ideal equality via reduced-basis uniqueness."""
    gb_a = gens_a if isinstance(gens_a, GroebnerBasis) else groebner_basis(list(gens_a), order)
    gb_b = gens_b if isinstance(gens_b, GroebnerBasis) else groebner_basis(list(gens_b), order)
    return list(gb_a.generators) == list(gb_b.generators)


def presentation_groebner_basis(A, order=DEGREVLEX):
    """Reduced Groebner basis of A's ideal, computed once per A and order."""
    if not A.ideal_gens:
        return GroebnerBasis((), order)
    return A.cached(
        ("groebner_basis", order), lambda: groebner_basis(list(A.ideal_gens), order)
    )


def is_zero_ring(A):
    """True when A's ideal is the unit ideal."""
    return any(g.weighted_degree() == 0 for g in presentation_groebner_basis(A))


def lead_ideal_monomials(presentation_or_gens, order=DEGREVLEX):
    """Minimal generators of the lead-term ideal."""
    if isinstance(presentation_or_gens, GradedQuotientPresentation):
        return list(presentation_groebner_basis(presentation_or_gens, order).lead_monomials)
    gens = list(presentation_or_gens)
    if not gens:
        return []
    return list(groebner_basis(gens, order).lead_monomials)


# ---------------------------------------------------------------------------
# Ring extension / restriction plumbing used by elimination tricks.


def _inject(poly, big_ring, offset):
    """View poly in big_ring, its variables shifted right by offset."""
    pad = (0,) * offset
    tail = (0,) * (big_ring.nvars - offset - poly.ring.nvars)
    return Polynomial(
        big_ring, {pad + m + tail: c for m, c in poly.terms.items()}
    )


def _restrict(poly, small_ring, offset):
    """Drop the first `offset` variables; ValueError if one of them occurs."""
    out = {}
    for m, c in poly.terms.items():
        if any(m[:offset]):
            raise ValueError("a dropped variable occurs in %r" % poly)
        out[m[offset:]] = c
    return Polynomial(small_ring, out)


def elimination_ideal(generators, k, order=None):
    """Generators of I ∩ k[x_{k+1}, ...]: drop the first k variables."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    if order is None:
        order = elimination_order(k)
    gb = groebner_basis(gens, order)
    return [g for g in gb if all(e == 0 for m in g.terms for e in m[:k])]


def ideal_quotient(I_gens, f, order=DEGREVLEX):
    """(I : f), via first syzygy coordinates of (f, g_1, ..., g_s)."""
    from .modules import syzygy_module, vector

    if isinstance(f, Polynomial) and f.is_zero():
        raise ZeroDivisionError("colon by the zero polynomial")
    I_gens = [g for g in I_gens if not g.is_zero()]
    ring = f.ring
    vecs = [vector(ring, 1, {0: f})] + [vector(ring, 1, {0: g}) for g in I_gens]
    syz = syzygy_module(vecs, 1)
    out = []
    for s in syz:
        a0 = s.component(0)
        if not a0.is_zero():
            out.append(a0)
    return list(groebner_basis(out, order)) if out else []


def ideal_quotient_ideal(I_gens, J_gens, order=DEGREVLEX):
    """(I : J) = intersection of (I : g) over generators g of J."""
    J_gens = [g for g in J_gens if not g.is_zero()]
    if not J_gens:
        raise ZeroDivisionError("colon by the zero ideal")
    result = None
    for g in J_gens:
        q = ideal_quotient(I_gens, g, order)
        result = q if result is None else intersection(result, q, order)
    return list(groebner_basis(result, order)) if result else []


def saturation(I_gens, J_gens, order=DEGREVLEX):
    """I : J^∞ by iterating the colon until the ideal stabilizes."""
    current = list(groebner_basis(list(I_gens), order)) if list(I_gens) else []
    while True:
        nxt = ideal_quotient_ideal(current if current else I_gens, J_gens, order)
        nxt = list(groebner_basis(nxt, order)) if nxt else []
        if nxt == current:
            return current
        current = nxt


def intersection(I_gens, J_gens, order=DEGREVLEX):
    """I ∩ J via syzygies of the row (f_1..f_s, g_1..g_t)."""
    from .modules import syzygy_module, vector

    I_gens = [g for g in I_gens if not g.is_zero()]
    J_gens = [g for g in J_gens if not g.is_zero()]
    if not I_gens or not J_gens:
        return []
    ring = I_gens[0].ring
    vecs = [vector(ring, 1, {0: g}) for g in I_gens + J_gens]
    syz = syzygy_module(vecs, 1)
    s = len(I_gens)
    out = []
    for z in syz:
        h = ring.zero()
        for i in range(s):
            h = h + z.component(i) * I_gens[i]
        if not h.is_zero():
            out.append(h)
    return list(groebner_basis(out, order)) if out else []


# ---------------------------------------------------------------------------
# Graded ring maps and their kernels.


class GradedRingMap:
    """A homogeneous map between graded quotient presentations.

    images[i] is the target polynomial the i-th source variable maps to;
    its degree must equal the weight of that variable.
    """

    def __init__(self, source, target, images, check=True):
        images = tuple(images)
        if len(images) != source.ring.nvars:
            raise ValueError("one image per source variable required")
        self.source = source
        self.target = target
        self.images = images
        if check:
            for name, w, img in zip(source.ring.names, source.ring.weights, images):
                if img.ring != target.ring:
                    raise RingMismatchError("image of %s lies outside the target ring" % name)
                if img.is_zero():
                    continue
                if not img.is_homogeneous() or img.degree() != w:
                    raise ValueError(
                        "image of %s must be homogeneous of degree %d" % (name, w)
                    )
            if source.ideal_gens and not self.is_well_defined():
                raise ValueError("source relations do not map into the target ideal")

    def apply(self, f):
        """Image of a source polynomial, reduced modulo the target ideal."""
        if f.ring != self.source.ring:
            raise RingMismatchError("argument is not a source polynomial")
        tgt = self.target.ring
        out = tgt.zero()
        for m, c in f.terms.items():
            term = tgt.const(c)
            for img, e in zip(self.images, m):
                if e:
                    term = term * img**e
            out = out + term
        if self.target.ideal_gens:
            out = normal_form(out, presentation_groebner_basis(self.target))
        return out

    def is_well_defined(self):
        return all(self.apply(g).is_zero() for g in self.source.ideal_gens)

    def graph_ring(self):
        """k[target vars, source vars] with target variables first."""
        src, tgt = self.source.ring, self.target.ring
        names = tuple("T_" + n for n in tgt.names) + tuple("S_" + n for n in src.names)
        weights = tgt.weights + src.weights
        return GradedPolyRing(src.field, names, weights)

    def graph_ideal(self):
        """Target relations plus (source var - its image), in the graph ring."""
        big = self.graph_ring()
        tn = self.target.ring.nvars
        sn = self.source.ring.nvars
        gens = [_inject(g, big, 0) for g in self.target.ideal_gens]
        for i, img in enumerate(self.images):
            e = [0] * big.nvars
            e[tn + i] = 1
            var_i = big.monomial(tuple(e))
            gens.append(var_i - _inject(img, big, 0))
        return big, gens, tn, sn


def ring_map_kernel(phi):
    """Homogeneous generators of ker(phi) in the source polynomial ring."""
    big, gens, tn, sn = phi.graph_ideal()
    elim = elimination_ideal(gens, tn)
    src = phi.source.ring
    out = [_restrict(g, src, tn) for g in elim]
    for g in out:
        if not g.is_homogeneous():
            raise ValueError("kernel generator %r is not homogeneous" % g)
    return out


def contraction(phi, target_ideal_gens):
    """phi^{-1}(J + target ideal) as an ideal of the source polynomial ring."""
    big, gens, tn, sn = phi.graph_ideal()
    gens = gens + [_inject(g, big, 0) for g in target_ideal_gens]
    elim = elimination_ideal(gens, tn)
    return [_restrict(g, phi.source.ring, tn) for g in elim]
