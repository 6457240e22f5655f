"""Acceptance gate: one test and one reported pass/fail line per criterion."""

import random
import sys

from gradedinv.core import GF, QQ, GradedPolyRing, GradedQuotientPresentation, free_presentation
from gradedinv.constructions import (
    frobenius_power_presentation,
    frobenius_power_subalgebra_generators,
    subalgebras_equal,
    veronese_presentation,
)
from gradedinv.groebner import groebner_basis
from gradedinv.hilbert import hilbert_series, krull_dimension, multiplicity
from gradedinv.resolution import a_invariant, betti_table, is_cohen_macaulay, is_r1, regularity, singular_locus_dimension
from gradedinv.theorems import (
    COUNTEREXAMPLE,
    SMALL_RING_VARS,
    VIOLATED,
    RingRoute,
    builtin_rings,
    check_separable_bound,
    contracted_parameter_ideal_equals,
    even_powers_instance,
    min_mult_conditions,
    pinchpoint_family,
    quadric_cone_instance,
    twisted_cubic_in_veronese_instance,
)
from gradedinv.toric import inseparable_degree, lattice_of_monomial_algebra

from _oracles import linear_algebra_hilbert, random_homogeneous_ideal


def _report(number, ok, text):
    print(
        "ACCEPTANCE %d: %s - %s" % (number, "PASS" if ok else "FAIL", text),
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, text


def _quadric(field=QQ):
    R = GradedPolyRing(field, ("x", "y", "z"))
    x, y, z = R.gens()
    return GradedQuotientPresentation(R, [z**2 - x * y], asserted_domain=True)


def _twisted_cubic(field=QQ):
    R = GradedPolyRing(field, ("a", "b", "c", "d"))
    a, b, c, d = R.gens()
    return GradedQuotientPresentation(
        R, [b**2 - a * c, b * c - a * d, c**2 - b * d], asserted_domain=True
    )


def test_criterion_1_pinch_point_family():
    ok = True
    rng = random.Random(1)
    for n in range(2, 9):
        inst = pinchpoint_family(n, QQ)
        ok = ok and a_invariant(inst.A) == n - 3
        ok = ok and multiplicity(inst.A) == n
        ok = ok and RingRoute(inst.B, rng).a == -1
    _report(1, ok, "pinch-point family n=2..8: a(A)=n-3, e(A)=n, a(Ver_n)=-1")


def test_criterion_2_veronese_law():
    ok = True
    rng = random.Random(2)
    rings = [
        free_presentation(QQ, ("x", "y")),
        free_presentation(QQ, ("x", "y", "z")),
        _quadric(),
        _twisted_cubic(),
    ]
    for C in rings:
        a_c = a_invariant(C)
        for n in (2, 3, 4):
            V = veronese_presentation(C, n)
            ok = ok and RingRoute(V.presentation, rng).a == a_c // n
    _report(2, ok, "Veronese law a(C^(n)) = floor(a(C)/n) on 4 rings x n=2,3,4")


def test_criterion_3_frobenius_law():
    ok = True
    for p in (2, 3):
        for B in (free_presentation(GF(p), ("x", "y")), _quadric(GF(p))):
            a_b = a_invariant(B)
            for q in (p, p * p):
                ok = ok and a_invariant(frobenius_power_presentation(B, q)) == q * a_b
    _report(3, ok, "Frobenius law a(B^q) = q a(B) over F_2, F_3 for q = p, p^2")


def test_criterion_4_equality_witness_char2():
    inst = quadric_cone_instance(GF(2))
    L_A = lattice_of_monomial_algebra([(2, 0), (0, 2)])
    L_B = lattice_of_monomial_algebra([(2, 0), (0, 2), (1, 1)])
    q = inseparable_degree(L_A, L_B, 2)
    a_A = a_invariant(inst.A)
    a_B = a_invariant(inst.B)
    frob = frobenius_power_subalgebra_generators(inst.B, 2)
    x, y, _z = inst.B.ring.gens()
    ver = [x**2, x * y, y**2]
    ok = (
        q == 2
        and a_A // q == a_B == -1
        and is_r1(inst.B)
        and subalgebras_equal(frob, ver, inst.B)
    )
    _report(4, ok, "char-2 quadric: p^e=2, floor(a(A)/2)=a(B)=-1, B is R1, B^2=A^(2)")


def test_criterion_5_general_bound_char2():
    inst = quadric_cone_instance(GF(2))
    a_A = a_invariant(inst.A)
    d = krull_dimension(inst.A)
    reg_B = regularity(inst.B)
    lhs = (a_A + d - 2) // 2
    ok = lhs == -1 and lhs <= reg_B - 2 == -1
    _report(5, ok, "char-2 quadric: floor((a(A)+d-2)/p^e) = -1 <= reg B - 2 = -1")


def test_criterion_6_counterexample_behavior():
    ok = True
    for n in range(3, 7):
        inst = pinchpoint_family(n, QQ)
        v = check_separable_bound(inst, random.Random(6))
        ok = ok and v.conclusion == COUNTEREXAMPLE
        ok = ok and ("A regular in codimension one", VIOLATED) in v.hypotheses
        d = krull_dimension(inst.A)
        ok = ok and singular_locus_dimension(inst.A) == d - 1
    _report(6, ok, "pinch points n=3..6: inequality fails, R1 flagged violated, sing dim = d-1")


def test_criterion_7_min_mult_equivalences():
    rings = builtin_rings()
    ok = len(rings) >= 10
    for A in rings:
        conds = min_mult_conditions(A, random.Random(7))
        values = list(conds.values())
        ok = ok and (all(values) or not any(values))
    _report(7, ok, "four minimal-multiplicity conditions agree on %d rings" % len(rings))


def test_criterion_8_contracted_parameter_ideal():
    ok = True
    for inst in (even_powers_instance(QQ), twisted_cubic_in_veronese_instance(QQ)):
        equal, _j = contracted_parameter_ideal_equals(inst, random.Random(8))
        ok = ok and equal
    _report(8, ok, "JB cap A = J for k[x^2,y^2] < k[x^2,xy,y^2] and twisted cubic < Ver_3")


def test_criterion_9_cross_route_oracles():
    rng = random.Random(9)
    ok = True

    # (a) Hilbert numerator equals the alternating Betti sum
    small = [A for A in builtin_rings() if A.ring.nvars <= SMALL_RING_VARS]
    for A in small:
        ok = ok and betti_table(A).alternating_numerator() == hilbert_series(A).numerator

    # (b) canonical-module a-invariant equals the fast path on CM rings
    for A in small:
        if is_cohen_macaulay(A):
            ok = ok and a_invariant(A) == hilbert_series(A).fastpath_a_invariant()

    # (c) reduced Groebner bases are permutation invariant, 100 trials
    R = GradedPolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    gens = [x * y - z**2, y**2 - x * z, x**3 - y * z**2, x * z**3 - y**4]
    reference = list(groebner_basis(gens))
    for _ in range(100):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        ok = ok and list(groebner_basis(shuffled)) == reference

    # (d) Hilbert function vs degreewise linear algebra on 20 random ideals
    R3 = GradedPolyRing(QQ, ("x", "y", "z"))
    done = 0
    while done < 20:
        gens = random_homogeneous_ideal(R3, rng)
        if not gens:
            continue
        A = GradedQuotientPresentation(R3, gens)
        ok = ok and hilbert_series(A).coefficients(8) == linear_algebra_hilbert(R3, gens, 8)
        done += 1

    _report(9, ok, "cross-route oracles: Betti sums, fastpath a, GB shuffles, Hilbert counts")
