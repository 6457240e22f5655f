"""Syzygy modules against plain polynomial arithmetic and linear algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import monomials_of_degree, rank
from gradedinv.core import GF, QQ, GradedPolyRing, Polynomial, mono_mul
from gradedinv.modules import syzygy_module, vector

DEGREE_BOUND = 5


@st.composite
def _vector_lists(draw):
    """(variable count, rank, vectors): 2-3 vectors in S^1 or S^2 over 2-3
    variables.  Vector i has every component homogeneous of degree d_i;
    each component is a dict exponent -> nonzero integer coefficient."""
    nvars = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    vectors = []
    for _ in range(draw(st.integers(2, 3))):
        deg = draw(st.integers(1, 2))
        monos = st.lists(
            st.integers(0, nvars - 1), min_size=deg, max_size=deg
        ).map(lambda vs: tuple(vs.count(i) for i in range(nvars)))
        coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
        comps = [draw(st.dictionaries(monos, coeffs, max_size=2)) for _ in range(rank)]
        vectors.append((deg, comps))
    return nvars, rank, vectors


def _index(cells):
    return {cell: k for k, cell in enumerate(cells)}


def _kernel_dimension(R, rank_, vecs, degs, t):
    """dim_k of the degree-t kernel of (z_i) -> sum z_i v_i, z_i in S_{t-d_i}."""
    n = R.nvars
    target = _index((c, m) for c in range(rank_) for m in monomials_of_degree(n, t))
    rows = []
    for v, d in zip(vecs, degs):
        for q in monomials_of_degree(n, t - d) if d <= t else ():
            row = [R.field.zero()] * len(target)
            for (c, m), coeff in v.terms.items():
                row[target[(c, mono_mul(m, q))]] = coeff
            rows.append(row)
    return len(rows) - rank(rows, R.field)


def _syzygy_span_dimension(R, syz, degs, t):
    """dim_k of the degree-t part of the submodule the syzygies generate."""
    n = R.nvars
    domain = _index(
        (i, m) for i, d in enumerate(degs) if d <= t for m in monomials_of_degree(n, t - d)
    )
    rows = []
    for z in syz:
        e = z.degree(degs)
        for q in monomials_of_degree(n, t - e) if e <= t else ():
            row = [R.field.zero()] * len(domain)
            for (i, m), coeff in z.terms.items():
                row[domain[(i, mono_mul(m, q))]] = coeff
            rows.append(row)
    return rank(rows, R.field)


@pytest.mark.parametrize("p", [0, 32003])
@settings(max_examples=60, deadline=None)
@given(data=_vector_lists())
def test_syzygy_module_is_the_whole_kernel(p, data):
    nvars, rank_, raw = data
    R = GradedPolyRing(GF(p) if p else QQ, tuple("x%d" % i for i in range(nvars)))
    vecs, degs = [], []
    for deg, comps in raw:
        polys = {
            c: Polynomial(R, {m: R.field.coerce(k) for m, k in comp.items()})
            for c, comp in enumerate(comps)
        }
        vecs.append(vector(R, rank_, polys))
        degs.append(deg)
    syz = syzygy_module(vecs, rank_)

    for z in syz:
        assert z.rank == len(vecs)
        for c in range(rank_):
            total = R.zero()
            for i, v in enumerate(vecs):
                total = total + z.component(i) * v.component(c)
            assert total.is_zero()

    for t in range(DEGREE_BOUND + 1):
        assert _syzygy_span_dimension(R, syz, degs, t) == _kernel_dimension(
            R, rank_, vecs, degs, t
        )
