"""Veronese subrings, Frobenius powers, subalgebra tests, saturation."""

import pytest

from gradedinv import constructions
from gradedinv.core import (
    GF,
    QQ,
    GradedPolyRing,
    GradedQuotientPresentation,
    free_presentation,
)
from gradedinv.constructions import (
    AMBIENT,
    REGRADED,
    degree_slot_basis,
    frobenius_power_presentation,
    frobenius_power_subalgebra_generators,
    irrelevant_saturation,
    is_module_finite,
    reweight,
    subalgebra_membership,
    subalgebras_equal,
    veronese_presentation,
)
from gradedinv.groebner import GradedRingMap, ideals_equal, is_zero_ring
from gradedinv.hilbert import hilbert_series, krull_dimension
from gradedinv.resolution import a_invariant


def _quadric(field=QQ):
    R = GradedPolyRing(field, ("x", "y", "z"))
    x, y, z = R.gens()
    return GradedQuotientPresentation(R, [z**2 - x * y], asserted_domain=True)


def test_degree_slot_basis():
    A = free_presentation(QQ, ("x", "y"))
    assert degree_slot_basis(A, 2) == [(2, 0), (1, 1), (0, 2)]
    Q = _quadric()
    # degree-2 slot of the quadric cone: z^2 is reduced away
    assert len(degree_slot_basis(Q, 2)) == 5


def test_veronese_of_plane():
    A = free_presentation(QQ, ("x", "y"))
    V = veronese_presentation(A, 2)
    pres = V.presentation
    assert pres.ring.nvars == 3
    assert pres.is_standard_graded
    u, v, w = pres.ring.gens()
    assert ideals_equal(list(pres.ideal_gens), [v**2 - u * w])


def test_veronese_cubic_is_twisted_cubic():
    A = free_presentation(QQ, ("x", "y"))
    V = veronese_presentation(A, 3)
    pres = V.presentation
    a, b, c, d = pres.ring.gens()
    minors = [b**2 - a * c, b * c - a * d, c**2 - b * d]
    assert ideals_equal(list(pres.ideal_gens), minors)


def test_veronese_ambient_convention():
    A = free_presentation(QQ, ("x", "y"))
    V = veronese_presentation(A, 2, AMBIENT)
    assert V.presentation.ring.weights == (2, 2, 2)
    W = veronese_presentation(A, 2, REGRADED)
    assert W.presentation.ring.weights == (1, 1, 1)


def test_veronese_elimination_fallback_matches_certified_kernel(monkeypatch):
    C = _quadric()
    C.name = "quadric"
    certified = {c: veronese_presentation(C, 2, c).presentation for c in (REGRADED, AMBIENT)}
    monkeypatch.setattr(constructions, "_veronese_kernel", lambda *args: None)
    for convention, want in certified.items():
        got = veronese_presentation(C, 2, convention).presentation
        assert got.ring == want.ring
        assert (got.asserted_domain, got.name) == (want.asserted_domain, want.name)
        assert ideals_equal(list(got.ideal_gens), list(want.ideal_gens))


def test_veronese_bookkeeping():
    A = free_presentation(QQ, ("x", "y"))
    V = veronese_presentation(A, 3)
    assert V.basis_monomials == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert V.variable_index_of((2, 1)) == 1
    images = V.inclusion_images()
    assert images[0] == A.ring.monomial((3, 0))


def test_veronese_a_invariant_law():
    for n in (2, 3):
        for C in (free_presentation(QQ, ("x", "y")), _quadric()):
            V = veronese_presentation(C, n)
            assert a_invariant(V.presentation) == a_invariant(C) // n


def test_veronese_hilbert_function_is_stride():
    C = _quadric()
    V = veronese_presentation(C, 3)
    cs = hilbert_series(C).coefficients(12)
    vs = hilbert_series(V.presentation).coefficients(4)
    assert vs == [cs[3 * i] for i in range(5)]


def test_frobenius_power():
    B = _quadric(GF(2))
    B2 = frobenius_power_presentation(B, 2)
    assert B2.ring.weights == (2, 2, 2)
    assert a_invariant(B2) == 2 * a_invariant(B)
    B4 = frobenius_power_presentation(B, 4)
    assert a_invariant(B4) == 4 * a_invariant(B)


def test_frobenius_power_rejects_bad_exponent():
    B = _quadric(GF(2))
    with pytest.raises(ValueError):
        frobenius_power_presentation(B, 3)
    with pytest.raises(ValueError):
        frobenius_power_presentation(_quadric(QQ), 2)


def test_subalgebra_membership():
    B = _quadric(GF(2))
    x, y, z = B.ring.gens()
    # z^2 = x*y inside B, so z^2 lies in the subalgebra generated by x, y
    assert subalgebra_membership(z**2, [x, y], B)
    assert not subalgebra_membership(z, [x, y], B)


def test_frobenius_square_equals_veronese_square_char2():
    """The purely inseparable equality B^2 = A^(2) for the quadric over F_2."""
    B = _quadric(GF(2))
    x, y, z = B.ring.gens()
    frob = frobenius_power_subalgebra_generators(B, 2)
    ver = [x**2, x * y, y**2]  # degree-2 slot of A = F_2[x,y] inside B
    assert subalgebras_equal(frob, ver, B)


def test_subalgebras_differ_char3():
    B = _quadric(GF(3))
    x, y, z = B.ring.gens()
    frob = frobenius_power_subalgebra_generators(B, 3)
    ver = [x**3, x**2 * y, x * y**2, y**3]
    assert not subalgebras_equal(frob, ver, B)


def test_is_module_finite():
    A = free_presentation(QQ, ("x", "y"))
    B = _quadric()
    x, y, z = B.ring.gens()
    phi = GradedRingMap(A, B, [x, y])
    assert is_module_finite(phi)
    # only one variable hit: z stays free over the image
    C = free_presentation(QQ, ("u",))
    psi = GradedRingMap(C, B, [x])
    assert not is_module_finite(psi)


def test_reweight():
    B = _quadric()
    W = reweight(B, (2, 2, 2))
    assert W.ring.weights == (2, 2, 2)
    assert len(W.ideal_gens) == 1
    assert W.ideal_gens[0].degree() == 4


def test_irrelevant_saturation():
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    A = GradedQuotientPresentation(R, [x**2, x * y])
    sat = irrelevant_saturation(A)
    assert ideals_equal(list(sat.ideal_gens), [x])
    artinian = GradedQuotientPresentation(R, [x**2, x * y, y**2])
    assert is_zero_ring(irrelevant_saturation(artinian))


def test_veronese_name():
    A = free_presentation(QQ, ("x", "y"), name="k[x,y]")
    V = veronese_presentation(A, 2)
    assert V.presentation.name == "k[x,y]^(2)"
