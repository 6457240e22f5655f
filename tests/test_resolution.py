"""Free resolutions, Betti tables, depth, canonical modules, singular loci."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import koszul_betti
from gradedinv.constructions import veronese_presentation
from gradedinv.groebner import presentation_groebner_basis
from gradedinv.core import (
    QQ,
    GF,
    GradedPolyRing,
    GradedQuotientPresentation,
    Polynomial,
    free_presentation,
)
from gradedinv.hilbert import hilbert_series, krull_dimension, multiplicity
from gradedinv.resolution import (
    FreeResolution,
    a_invariant,
    betti_table,
    canonical_module,
    cm_certificate_by_parameters,
    depth,
    embedding_dimension,
    is_cohen_macaulay,
    is_r1,
    linear_system_of_parameters,
    minimal_free_resolution,
    projective_dimension,
    regularity,
    singular_locus_dimension,
)
from gradedinv.theorems import builtin_instances, builtin_rings


def _hypersurface():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    return GradedQuotientPresentation(R, [x**3 + y**3 + z**3], asserted_domain=True)


def _quadric():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    return GradedQuotientPresentation(R, [z**2 - x * y], asserted_domain=True)


def _twisted_cubic():
    R = GradedPolyRing(QQ, ("a", "b", "c", "d"))
    a, b, c, d = R.gens()
    return GradedQuotientPresentation(
        R, [b**2 - a * c, b * c - a * d, c**2 - b * d], asserted_domain=True
    )


def _pinch(n=3):
    R = GradedPolyRing(QQ, ("u", "v", "w"))
    u, v, w = R.gens()
    return GradedQuotientPresentation(R, [v**n - u ** (n - 1) * w], asserted_domain=True)


def test_hypersurface_betti():
    bt = betti_table(_hypersurface())
    assert bt.beta(0, 0) == 1
    assert bt.beta(1, 3) == 1
    assert bt.projective_dimension() == 1
    assert bt.regularity() == 2


def test_twisted_cubic_betti():
    bt = betti_table(_twisted_cubic())
    assert bt.beta(0, 0) == 1
    assert bt.beta(1, 2) == 3
    assert bt.beta(2, 3) == 2
    assert bt.projective_dimension() == 2
    assert bt.regularity() == 1


@pytest.mark.parametrize("d", [3, 4, 5])
def test_rational_normal_curve_is_eagon_northcott(d):
    # The 2x2 minors of a 2 x d matrix: beta_{i,i+1} = i * C(d, i+1).
    kxy = free_presentation(QQ, ("x", "y"))
    bt = betti_table(veronese_presentation(kxy, d).presentation)
    expected = {(0, 0): 1}
    expected.update({(i, i + 1): i * comb(d, i + 1) for i in range(1, d)})
    assert bt.entries == expected


@st.composite
def _homogeneous_ideals(draw):
    """(variable count, generators): 1-4 forms of degree 1-3 in 2-4 variables,
    each generator a dict exponent -> nonzero coefficient."""
    nvars = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(1, 3))
        monos = st.lists(
            st.integers(0, nvars - 1), min_size=deg, max_size=deg
        ).map(lambda vs: tuple(vs.count(i) for i in range(nvars)))
        coeffs = st.integers(1, 32002)
        gens.append(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))
    return nvars, gens


def _low_degree_betti(bt, bound):
    return {(i, j): b for (i, j), b in bt.entries.items() if j <= bound}


@settings(max_examples=60, deadline=None)
@given(ideal=_homogeneous_ideals())
def test_betti_table_matches_koszul_homology(ideal):
    # Koszul homology sees each beta_ij on its own, so errors in adjacent
    # homological degrees cannot cancel as in the alternating sum.
    nvars, gens = ideal
    R = GradedPolyRing(GF(32003), tuple("x%d" % i for i in range(nvars)))
    polys = [Polynomial(R, {m: R.field.coerce(c) for m, c in g.items()}) for g in gens]
    bt = betti_table(GradedQuotientPresentation(R, polys))
    assert _low_degree_betti(bt, 7) == koszul_betti(R, polys, 7)


def _suite_rings(max_vars):
    rings = list(builtin_rings())
    for inst in builtin_instances():
        rings += [inst.A, inst.B]
    seen, out = set(), []
    for A in rings:
        key = (A.ring, A.ideal_gens)
        if A.ring.nvars <= max_vars and key not in seen:
            seen.add(key)
            out.append(A)
    return out


def test_suite_rings_betti_tables_match_koszul_homology():
    rings = _suite_rings(5)
    assert len(rings) >= 15
    for A in rings:
        bt = betti_table(A)
        bound = max(j for (_i, j) in bt.entries) + 1
        assert bt.entries == koszul_betti(A.ring, A.ideal_gens, bound), repr(A)


def test_zero_ring_has_no_resolution():
    R = GradedPolyRing(QQ, ("x", "y"))
    Z = GradedQuotientPresentation(R, [R.one()])
    with pytest.raises(ValueError, match="zero ring"):
        minimal_free_resolution(Z)
    with pytest.raises(ValueError, match="zero ring"):
        betti_table(Z)


def test_equal_presentations_share_nothing(syzygy_calls):
    A1, A2 = _twisted_cubic(), _twisted_cubic()
    r1 = minimal_free_resolution(A1)
    once = len(syzygy_calls)
    assert once > 0
    assert minimal_free_resolution(A1) is r1 and len(syzygy_calls) == once
    r2 = minimal_free_resolution(A2)
    assert len(syzygy_calls) == 2 * once
    assert r2 is not r1 and r2.betti_table().entries == r1.betti_table().entries
    assert hilbert_series(A2) is not hilbert_series(A1)
    assert presentation_groebner_basis(A2) is not presentation_groebner_basis(A1)


def test_depth_and_cm():
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    A = GradedQuotientPresentation(R, [x**2, x * y])
    assert projective_dimension(A) == 2
    assert depth(A) == 0
    assert not is_cohen_macaulay(A)
    assert is_cohen_macaulay(_twisted_cubic())
    assert is_cohen_macaulay(_pinch())


def test_resolution_is_exact_and_minimal():
    res = minimal_free_resolution(_twisted_cubic())
    assert res.is_minimal()
    assert res.check_exactness_composition()


def test_a_invariants_via_canonical_module():
    assert a_invariant(_hypersurface()) == 0
    assert a_invariant(_quadric()) == -1
    assert a_invariant(free_presentation(QQ, ("x", "y"))) == -2
    assert a_invariant(free_presentation(QQ, ("x", "y"), (2, 2))) == -4
    assert a_invariant(_twisted_cubic()) == -1


def test_pinch_point_a_invariant_family():
    for n in (2, 3, 4, 5):
        assert a_invariant(_pinch(n)) == n - 3
        assert multiplicity(_pinch(n)) == n


def test_canonical_module_of_gorenstein_is_cyclic():
    A = _hypersurface()
    omega = canonical_module(minimal_free_resolution(A), krull_dimension(A))
    assert len(omega.generator_degrees) == 1


def test_free_resolution_rejects_non_minimal_and_overlong():
    R = GradedPolyRing(QQ, ("x",))
    (x,) = R.gens()
    with pytest.raises(RuntimeError, match="non-minimal"):
        FreeResolution(R, [[0], [0]], [[[x + R.one()]]])
    with pytest.raises(RuntimeError, match="longer"):
        FreeResolution(R, [[0], [1], [2]], [[[x]], [[x]]])


def test_a_plus_dim_le_reg_with_equality_iff_cm():
    for A in (_hypersurface(), _quadric(), _twisted_cubic(), _pinch(4)):
        a = a_invariant(A)
        d = krull_dimension(A)
        r = regularity(A)
        assert a + d <= r
        if is_cohen_macaulay(A):
            assert a + d == r


def test_alternating_betti_sum_equals_hilbert_numerator():
    for A in (_hypersurface(), _quadric(), _twisted_cubic(), _pinch(5)):
        bt = betti_table(A)
        assert bt.alternating_numerator() == hilbert_series(A).numerator


def test_embedding_dimension():
    assert embedding_dimension(_twisted_cubic()) == 4
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    # a linear relation drops the embedding dimension
    A = GradedQuotientPresentation(R, [x - y])
    assert embedding_dimension(A) == 1


def test_singular_locus_and_r1():
    assert singular_locus_dimension(_quadric()) == 0
    assert is_r1(_quadric())
    assert singular_locus_dimension(_pinch()) == 1
    assert not is_r1(_pinch())
    free = free_presentation(QQ, ("x", "y"))
    assert singular_locus_dimension(free) == -1
    assert is_r1(free)


def test_r1_requires_domain_assertion():
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    A = GradedQuotientPresentation(R, [x * y])  # not asserted a domain
    with pytest.raises(ValueError):
        is_r1(A)


def test_linear_sop_and_parameter_certificate():
    rng = random.Random(11)
    tc = _twisted_cubic()
    sop, quotient = linear_system_of_parameters(tc, rng)
    assert len(sop) == krull_dimension(tc)
    assert quotient.ideal_gens == tc.ideal_gens + tuple(sop)
    assert cm_certificate_by_parameters(tc, random.Random(11))
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    not_cm = GradedQuotientPresentation(R, [x**2, x * y])
    assert not cm_certificate_by_parameters(not_cm, random.Random(11))


def test_parameter_certificate_agrees_with_resolution_route():
    for A in (_hypersurface(), _quadric(), _twisted_cubic(), _pinch(4)):
        assert cm_certificate_by_parameters(A, random.Random(3)) == is_cohen_macaulay(A)


def test_char_p_resolution():
    R = GradedPolyRing(GF(2), ("x", "y", "z"))
    x, y, z = R.gens()
    A = GradedQuotientPresentation(R, [z**2 - x * y], asserted_domain=True)
    assert a_invariant(A) == -1
    assert is_cohen_macaulay(A)
    assert is_r1(A)
