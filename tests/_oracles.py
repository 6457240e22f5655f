"""Independent oracles shared by the unit tests and the acceptance gate."""

import itertools
import math

from gradedinv.core import Polynomial, mono_mul


def monomials_of_degree(n, d):
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        yield tuple(e)


def _echelon(rows, fld):
    """Reduced row echelon form: (the nonzero rows, their pivot columns)."""
    rows = [list(r) for r in rows if any(r)]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rnk = len(pivots)
        pr = next((i for i in range(rnk, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[rnk], rows[pr] = rows[pr], rows[rnk]
        inv = fld.inv(rows[rnk][col])
        rows[rnk] = [fld.mul(x, inv) for x in rows[rnk]]
        for i in range(len(rows)):
            if i != rnk and rows[i][col]:
                f = rows[i][col]
                rows[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(rows[i], rows[rnk])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank(rows, fld):
    return len(_echelon(rows, fld)[1])


def _ideal_rows(ring, gens, basis):
    """Coefficient rows spanning I_d over the degree-d monomial basis."""
    fld = ring.field
    d = sum(basis[0])
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        gd = g.degree()
        if gd > d:
            continue
        for m in monomials_of_degree(ring.nvars, d - gd):
            vec = [fld.zero()] * len(basis)
            for mono, cf in g.terms.items():
                vec[index[mono_mul(mono, m)]] = cf
            rows.append(vec)
    return rows


def linear_algebra_hilbert(ring, gens, bound):
    """dim (S/I)_d for d <= bound: monomial count minus rank of I_d."""
    counts = []
    for d in range(bound + 1):
        basis = list(monomials_of_degree(ring.nvars, d))
        counts.append(len(basis) - rank(_ideal_rows(ring, gens, basis), ring.field))
    return counts


def _quotient_degree(ring, gens, d):
    """(S/I)_d as S_d modulo the row space of I_d.

    Returns the monomials whose classes form a basis, and for every degree-d
    monomial its coordinates on that basis, as a dict {position: coeff}.
    """
    fld = ring.field
    basis = list(monomials_of_degree(ring.nvars, d))
    rows, pivots = _echelon(_ideal_rows(ring, gens, basis), fld)
    free = [c for c in range(len(basis)) if c not in pivots]
    pos = {c: k for k, c in enumerate(free)}
    coords = {basis[c]: {pos[c]: fld.one()} for c in free}
    for row, c in zip(rows, pivots):
        coords[basis[c]] = {pos[f]: fld.neg(row[f]) for f in free if row[f]}
    return [basis[c] for c in free], coords


def koszul_betti(ring, gens, bound):
    """Graded Betti numbers of S/I for internal degrees j <= bound, as
    {(i, j): beta_ij}, read off Koszul homology: beta_ij = dim H_i(K(x; S/I))_j.

    K_i in degree j is wedge^i k^n tensor (S/I)_{j-i}, with
    d(e_T tensor f) = sum_k (-1)^k e_{T minus t_k} tensor x_{t_k} f.  Plain
    linear algebra on a standard graded ring; no Groebner basis is involved.
    """
    if not ring.is_standard_graded:
        raise ValueError("the Koszul oracle needs a standard graded ring")
    fld, n = ring.field, ring.nvars
    quot = [_quotient_degree(ring, gens, t) for t in range(bound + 1)]
    wedges = [list(itertools.combinations(range(n), i)) for i in range(n + 1)]
    signs = (fld.one(), fld.neg(fld.one()))
    ranks = {}

    def rank_d(i, j):
        """Rank of d_i: wedge^i (S/I)_{j-i} -> wedge^{i-1} (S/I)_{j-i+1}."""
        if not 1 <= i <= min(n, j):
            return 0
        if (i, j) not in ranks:
            source = quot[j - i][0]
            target, coords = quot[j - i + 1]
            width = len(target)
            offset = {T: k * width for k, T in enumerate(wedges[i - 1])}
            rows = []
            for T in wedges[i]:
                for m in source:
                    row = [fld.zero()] * (len(wedges[i - 1]) * width)
                    for k, t in enumerate(T):
                        e = list(m)
                        e[t] += 1
                        base = offset[T[:k] + T[k + 1 :]]
                        for c, v in coords[tuple(e)].items():
                            row[base + c] = fld.add(row[base + c], fld.mul(signs[k % 2], v))
                    rows.append(row)
            ranks[(i, j)] = rank(rows, fld)
        return ranks[(i, j)]

    out = {}
    for j in range(bound + 1):
        for i in range(min(n, j) + 1):
            b = math.comb(n, i) * len(quot[j - i][0]) - rank_d(i, j) - rank_d(i + 1, j)
            if b:
                out[(i, j)] = b
    return out


def random_homogeneous_ideal(ring, rng, max_gens=3, max_degree=4):
    """A few random homogeneous polynomials in the given ring."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        terms = {}
        deg = rng.randint(1, max_degree)
        for _ in range(rng.randint(1, 3)):
            e = [0] * ring.nvars
            for _ in range(deg):
                e[rng.randrange(ring.nvars)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice([-2, -1, 1, 2])
        p = Polynomial(
            ring, {m: ring.field.coerce(c) for m, c in terms.items() if c % _char_or(ring) != 0}
        )
        if not p.is_zero():
            gens.append(p)
    return gens


def _char_or(ring):
    p = ring.field.characteristic
    return p if p else 10**9
