"""Exponent lattices of monomial subalgebras and inseparable degrees.

A monomial algebra k[x^{a_1}, ..., x^{a_s}] determines the subgroup of Z^r
generated by the exponent vectors inside the quotient-field torus.  Field
degrees of monomial extensions are lattice indices, and the inseparable
degree of Quot(A) in Quot(B) is the stabilized index [L_B : L_A + p^e L_B].
"""

from .core import QQ, left_nullspace


def _hnf(rows):
    """Row-style Hermite normal form over Z; returns the nonzero rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    col = 0
    while rows and col < ncols:
        pivots = [r for r in rows if r[col]]
        if not pivots:
            col += 1
            continue
        # Euclid on the pivot column
        while True:
            pivots = [r for r in rows if r[col]]
            if len(pivots) == 1:
                break
            pivots.sort(key=lambda r: abs(r[col]))
            small = pivots[0]
            for r in pivots[1:]:
                q = r[col] // small[col]
                for j in range(ncols):
                    r[j] -= q * small[j]
            rows = [r for r in rows if any(r)]
        pivot = pivots[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        rows = [r for r in rows if r is not pivots[0] and any(r)]
        out.append(pivot)
        col += 1
    # reduce entries above each pivot
    for i in reversed(range(len(out))):
        pcol = next(j for j, x in enumerate(out[i]) if x)
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                for j in range(len(out[i])):
                    out[k][j] -= q * out[i][j]
    return [tuple(r) for r in out]


class ExponentLattice:
    """A sublattice of Z^rank, canonicalized by Hermite normal form."""

    def __init__(self, generators, ambient_rank):
        self.ambient_rank = ambient_rank
        for g in generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length differs from the ambient rank")
        self.basis = tuple(_hnf(list(generators)))

    @property
    def rank(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, ExponentLattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def contains(self, vector):
        """Membership via exact solving against the HNF basis."""
        coords = _solve_integer(self.basis, vector)
        return coords is not None

    def is_sublattice_of(self, other):
        return all(other.contains(b) for b in self.basis)

    def sum(self, other):
        return ExponentLattice(list(self.basis) + list(other.basis), self.ambient_rank)

    def scaled(self, k):
        return ExponentLattice([tuple(k * x for x in b) for b in self.basis], self.ambient_rank)

    def __repr__(self):
        return "ExponentLattice(basis=%s, ambient_rank=%d)" % (
            list(self.basis),
            self.ambient_rank,
        )


def _solve_integer(basis, vector):
    """Integer coordinates of vector in the independent rows `basis`, or None.

    With independent rows the left nullspace of (basis; vector) is nonzero
    exactly when vector lies in their rational span, and then it is spanned
    by one vector whose last entry is 1.
    """
    rows = [[QQ.coerce(x) for x in r] for r in list(basis) + [vector]]
    null = left_nullspace(rows, QQ)
    if not null:
        return None
    coords = [-x for x in null[0][:-1]]
    if any(x.denominator != 1 for x in coords):
        return None
    return [int(x) for x in coords]


def lattice_of_monomial_algebra(generators, ambient_rank=None):
    """Exponent lattice of k[x^{g_1}, ..., x^{g_s}] in the torus."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("need at least one monomial generator")
    if any(not any(g) for g in gens):
        raise ValueError("monomial generators must be nonzero")
    rank = ambient_rank if ambient_rank is not None else len(gens[0])
    return ExponentLattice(gens, rank)


def extension_index(L_A, L_B):
    """[L_B : L_A] for full-rank sublattices, via the change-of-basis determinant."""
    if L_A.ambient_rank != L_B.ambient_rank:
        raise ValueError("lattices live in different ambient ranks")
    if L_A.rank != L_B.rank:
        raise ValueError("lattices have different ranks; the index is infinite")
    if not L_A.is_sublattice_of(L_B):
        raise ValueError("first lattice is not contained in the second")
    # rows of L_A in coordinates of L_B's basis; the Hermite normal form of
    # this square matrix is upper triangular, and unimodular row operations
    # keep |det|, so the index is the product of its diagonal
    M = [_solve_integer(L_B.basis, a) for a in L_A.basis]
    index = 1
    for i, row in enumerate(_hnf(M)):
        index *= row[i]
    return index


def inseparable_degree(L_A, L_B, p):
    """Stabilized index [L_B : L_A + p^e L_B]; always a power of p.

    Realizes the separable-closure identity K_sep = K.L^{p^e}: the lattice of
    K_sep is L_A + p^e L_B once e is large enough for the index to stop
    growing.
    """
    if not L_A.is_sublattice_of(L_B):
        raise ValueError("first lattice must be contained in the second")
    total = extension_index(L_A, L_B)
    vp = 0
    t = total
    while t % p == 0:
        t //= p
        vp += 1
    prev = None
    for e in range(vp + 2):
        mixed = L_A.sum(L_B.scaled(p**e))
        idx = extension_index(mixed, L_B)
        if idx == prev:
            return idx
        prev = idx
    raise AssertionError("inseparable degree failed to stabilize by e = v_p(index) + 1")
