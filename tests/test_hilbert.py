"""Hilbert series, dimension, multiplicity, and the fast-path a-invariant."""

import itertools
import random

import pytest

from gradedinv.core import (
    DEGREVLEX,
    LEX,
    QQ,
    GradedPolyRing,
    GradedQuotientPresentation,
    free_presentation,
    mono_divides,
)
from gradedinv.hilbert import (
    IntPoly,
    a_invariant_fastpath,
    h_vector,
    hilbert_numerator,
    hilbert_series,
    krull_dimension,
    multiplicity,
)


def _quotient(ring, gens):
    return GradedQuotientPresentation(ring, gens)


def test_numerator_single_variable():
    assert hilbert_numerator([(2, 0)], (1, 1)) == IntPoly({0: 1, 2: -1})


def test_numerator_two_generators():
    # (x^2, x*y): 1 - t^2 - t^2 + t^3
    got = hilbert_numerator([(2, 0), (1, 1)], (1, 1))
    assert got == IntPoly({0: 1, 2: -2, 3: 1})


def test_hypersurface_series():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    A = _quotient(R, [x**3 + y**3 + z**3])
    hs = hilbert_series(A)
    assert hs.numerator == IntPoly({0: 1, 3: -1})
    assert hs.dimension() == 2
    assert multiplicity(A) == 3
    assert h_vector(A) == [1, 1, 1]
    assert hs.fastpath_a_invariant() == 0


def test_quadric_cone_series():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    A = _quotient(R, [z**2 - x * y])
    hs = hilbert_series(A)
    assert hs.dimension() == 2
    assert multiplicity(A) == 2
    assert h_vector(A) == [1, 1]
    assert hs.coefficients(3) == [1, 3, 5, 7]


def test_series_is_kept_per_order():
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    A = _quotient(R, [x**2 - y * z, x * y - z**2])
    lex = hilbert_series(A, LEX)
    assert hilbert_series(A, LEX) is lex
    assert hilbert_series(A) is hilbert_series(A, DEGREVLEX) is not lex
    assert lex == hilbert_series(A)


def test_free_ring_a_invariant():
    A = free_presentation(QQ, ("x", "y"))
    assert hilbert_series(A).fastpath_a_invariant() == -2
    W = free_presentation(QQ, ("x", "y"), (2, 2))
    assert hilbert_series(W).fastpath_a_invariant() == -4


def test_zero_ring_dimension():
    R = GradedPolyRing(QQ, ("x",))
    x = R.var(0)
    A = _quotient(R, [x])
    # S/(x) is the field: dimension 0
    assert krull_dimension(A) == 0
    assert multiplicity(A) == 1


def test_weighted_series():
    A = free_presentation(QQ, ("x", "y"), (1, 2))
    hs = hilbert_series(A)
    assert hs.coefficients(4) == [1, 1, 2, 2, 3]
    assert hs.dimension() == 2


def test_fastpath_requires_certificate():
    A = free_presentation(QQ, ("x",))
    with pytest.raises(ValueError):
        a_invariant_fastpath(A, False)
    assert a_invariant_fastpath(A, True) == -1


from _oracles import linear_algebra_hilbert as _brute_force_hilbert


def test_hilbert_function_matches_monomial_counts():
    """Degree-by-degree counting oracle on random small ideals."""
    rng = random.Random(20240824)
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            deg = rng.randint(1, 4)
            for _ in range(rng.randint(1, 3)):
                e = [0] * 3
                for _ in range(deg):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice([-2, -1, 1, 2])
            from gradedinv.core import Polynomial

            p = Polynomial(R, {m: QQ.coerce(c) for m, c in terms.items() if c})
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        A = GradedQuotientPresentation(R, gens)
        hs = hilbert_series(A)
        assert hs.coefficients(8) == _brute_force_hilbert(R, gens, 8)
