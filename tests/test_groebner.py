"""Groebner bases, normal forms, elimination, and ideal operations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedinv.core import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    GradedPolyRing,
    GradedQuotientPresentation,
    Polynomial,
    free_presentation,
)
from gradedinv.groebner import (
    GradedRingMap,
    contraction,
    elimination_ideal,
    groebner_basis,
    ideal_membership,
    ideal_quotient,
    ideal_quotient_ideal,
    ideals_equal,
    intersection,
    normal_form,
    ring_map_kernel,
    saturation,
    _restrict,
)


def _ring2(field=QQ):
    return GradedPolyRing(field, ("x", "y"))


def test_lex_groebner_contains_y4_minus_y():
    # the circle-fold system: lex GB of (x^2 - y, y^2 - x) eliminates x
    R = _ring2()
    x, y = R.gens()
    gb = groebner_basis([x**2 - y, y**2 - x], LEX)
    assert any(g == y**4 - y for g in gb)


def test_normal_form_is_zero_on_members():
    R = GradedPolyRing(QQ, ("u", "v", "w"))
    u, v, w = R.gens()
    gb = groebner_basis([v**2 - u * w])
    assert normal_form(v**2 * w - u * w**2, gb).is_zero()
    assert normal_form(v**3, gb) == u * v * w


def test_reduced_groebner_basis_is_monic_and_autoreduced():
    R = _ring2()
    x, y = R.gens()
    from gradedinv.core import mono_divides

    gb = groebner_basis([2 * x**2 - 2 * y**2, 3 * x * y + y**2])
    for g in gb:
        assert g.lead(gb.order)[1] == 1
        others = [h.lead(gb.order)[0] for h in gb if h is not g]
        for m in g.terms:
            assert not any(mono_divides(lead, m) for lead in others)


def test_groebner_shuffle_invariance():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    gens = [x * y - z**2, y**2 - x * z, x**2 * z - y * z**2]
    reference = list(groebner_basis(gens))
    rng = random.Random(7)
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert list(groebner_basis(shuffled)) == reference


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_normal_form_idempotent(rnd):
    R = GradedPolyRing(QQ, ("x", "y"))
    x, y = R.gens()

    def rand_poly():
        p = R.zero()
        for _ in range(rnd.randint(1, 4)):
            c = rnd.randint(-4, 4)
            p = p + R.monomial((rnd.randint(0, 3), rnd.randint(0, 3))) * c
        return p

    gens = [g for g in (rand_poly(), rand_poly()) if not g.is_zero()]
    if not gens:
        return
    gb = groebner_basis(gens)
    f = rand_poly()
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert normal_form(f - nf, gb).is_zero()


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def homogeneous_ideals(draw):
    """(variable count, generators): 2-4 quadrics or cubics in 2-4 variables,
    each generator a dict exponent -> nonzero integer coefficient."""
    nvars = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        deg = draw(st.sampled_from((2, 3)))
        monos = st.lists(
            st.integers(0, nvars - 1), min_size=deg, max_size=deg
        ).map(lambda vs: tuple(vs.count(i) for i in range(nvars)))
        coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
        gens.append(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))
    return nvars, gens


@pytest.mark.parametrize("p", [0, 32003])
@settings(max_examples=100, deadline=None)
@given(ideal=homogeneous_ideals())
def test_reduced_basis_matches_sympy(sympy, p, ideal):
    # Reduced Groebner bases are unique, so the monic bases must agree.
    nvars, gens = ideal
    names = tuple("x%d" % i for i in range(nvars))
    R = GradedPolyRing(GF(p) if p else QQ, names)
    polys = [Polynomial(R, {m: R.field.coerce(c) for m, c in g.items()}) for g in gens]
    ours = {frozenset(g.terms.items()) for g in groebner_basis(polys)}

    syms = sympy.symbols(names)
    exprs = [
        sum(c * sympy.Mul(*(s**e for s, e in zip(syms, m))) for m, c in g.items())
        for g in gens
    ]
    field = {"modulus": p} if p else {"domain": "QQ"}
    theirs = set()
    for g in sympy.groebner(exprs, *syms, order="grevlex", **field).polys:
        # Poly.monic() would divide by the lex leading coefficient
        terms = {
            m: R.field.coerce(int(c) if p else Fraction(int(c.p), int(c.q)))
            for m, c in g.as_dict().items()
        }
        lc = terms[max(terms, key=DEGREVLEX.key)]
        theirs.add(frozenset((m, R.field.div(c, lc)) for m, c in terms.items()))
    assert ours == theirs


def test_elimination_ideal():
    R = GradedPolyRing(QQ, ("t", "x", "y"), (1, 1, 1))
    t, x, y = R.gens()
    # eliminate t from (x - t^2... ) use homogeneous: x*y - t^2
    elim = elimination_ideal([x * y - t**2, t * x - y**2], 1)
    assert elim  # nonempty
    for g in elim:
        assert all(m[0] == 0 for m in g.terms)


def test_ideal_quotient_and_saturation():
    R = _ring2()
    x, y = R.gens()
    quot = ideal_quotient([x**2, x * y], y)
    assert ideals_equal(quot, [x])
    sat = saturation([x**2, x * y], [x, y])
    assert ideals_equal(sat, [x])


def test_ideal_quotient_ideal():
    R = _ring2()
    x, y = R.gens()
    quot = ideal_quotient_ideal([x**2, x * y], [x, y])
    assert ideals_equal(quot, [x])


def test_intersection():
    R = _ring2()
    x, y = R.gens()
    assert ideals_equal(intersection([x], [y]), [x * y])
    got = intersection([x**2, y], [x])
    assert ideals_equal(got, [x**2, x * y])


def test_membership():
    R = _ring2()
    x, y = R.gens()
    assert ideal_membership(x**3 + x * y**2, [x])
    assert not ideal_membership(y, [x])


def test_ring_map_kernel_quadric():
    # k[u,v,w] -> k[s,t], u,v,w -> s^2, s*t, t^2: kernel (v^2 - u*w)
    src = free_presentation(QQ, ("u", "v", "w"), (2, 2, 2))
    tgt = free_presentation(QQ, ("s", "t"))
    s, t = tgt.ring.gens()
    phi = GradedRingMap(src, tgt, [s**2, s * t, t**2])
    u, v, w = src.ring.gens()
    assert ideals_equal(ring_map_kernel(phi), [v**2 - u * w])


def test_ring_map_kernel_pinch():
    src = free_presentation(QQ, ("u", "v", "w"), (3, 3, 3))
    tgt = free_presentation(QQ, ("s", "t"))
    s, t = tgt.ring.gens()
    phi = GradedRingMap(src, tgt, [s**3, s**2 * t, t**3])
    u, v, w = src.ring.gens()
    assert ideals_equal(ring_map_kernel(phi), [v**3 - u**2 * w])


def test_ring_map_kernel_twisted_cubic():
    src = free_presentation(QQ, ("a", "b", "c", "d"), (3, 3, 3, 3))
    tgt = free_presentation(QQ, ("s", "t"))
    s, t = tgt.ring.gens()
    phi = GradedRingMap(src, tgt, [s**3, s**2 * t, s * t**2, t**3])
    a, b, c, d = src.ring.gens()
    minors = [b**2 - a * c, b * c - a * d, c**2 - b * d]
    assert ideals_equal(ring_map_kernel(phi), minors)


def test_ring_map_rejects_wrong_degree():
    src = free_presentation(QQ, ("u",), (2,))
    tgt = free_presentation(QQ, ("s", "t"))
    s, t = tgt.ring.gens()
    with pytest.raises(ValueError):
        GradedRingMap(src, tgt, [s])


def test_contraction():
    # pull (s^2) back along u -> s^2: contains u
    src = free_presentation(QQ, ("u",), (2,))
    tgt = free_presentation(QQ, ("s", "t"))
    s, t = tgt.ring.gens()
    phi = GradedRingMap(src, tgt, [s**2])
    pulled = contraction(phi, [s**2])
    u = src.ring.var(0)
    assert ideal_membership(u, pulled)


def test_char_p_groebner():
    R = _ring2(GF(5))
    x, y = R.gens()
    gb = groebner_basis([2 * x**2 + y**2, x * y])
    assert normal_form(x**3, gb).is_zero()


def test_restrict_rejects_a_dropped_variable():
    big = GradedPolyRing(QQ, ("t", "x"))
    small = GradedPolyRing(QQ, ("x",))
    t, x = big.gens()
    assert _restrict(x**2, small, 1) == small.gens()[0] ** 2
    with pytest.raises(ValueError):
        _restrict(t * x, small, 1)
