"""The verification harness: invariant reports, checks, built-in suite."""

import random

import pytest

from gradedinv import resolution, theorems
from gradedinv.constructions import veronese_presentation
from gradedinv.core import GF, QQ, free_presentation
from gradedinv.resolution import cm_certificate_by_parameters
from gradedinv.theorems import (
    COUNTEREXAMPLE,
    NOT_APPLICABLE,
    PARAMETER_CERTIFIED,
    PASS,
    VIOLATED,
    RingRoute,
    builtin_instances,
    builtin_rings,
    check_dim2_bound,
    check_general_bound,
    check_mcm_quotient,
    check_min_mult_descent,
    check_min_mult_equivalences,
    check_purely_inseparable,
    check_separable_bound,
    contracted_parameter_ideal_equals,
    even_powers_instance,
    has_minimal_multiplicity,
    invariant_report,
    min_mult_conditions,
    pinchpoint_family,
    quadric_cone_instance,
    run_suite,
    twisted_cubic_in_veronese_instance,
)


def test_pinch_point_reports():
    inst = pinchpoint_family(3, QQ)
    ra = invariant_report(inst.A)
    assert (ra.dim, ra.multiplicity, ra.a_invariant, ra.regularity) == (2, 3, 0, 2)
    assert ra.is_cm and ra.is_r1 is False
    rb = invariant_report(inst.B)
    assert (rb.dim, rb.multiplicity, rb.a_invariant, rb.regularity) == (2, 3, -1, 1)
    assert rb.is_cm and rb.is_r1 and rb.has_min_mult


def test_pinch_point_birational():
    for n in (3, 4, 5):
        inst = pinchpoint_family(n, GF(2))
        assert inst.p_power == 1  # same exponent lattice: birational inclusion


def test_separable_bound_counterexample():
    for n in (3, 4):
        inst = pinchpoint_family(n, QQ)
        v = check_separable_bound(inst, random.Random(0))
        assert v.conclusion == COUNTEREXAMPLE
        assert (v.lhs, v.rhs) == (n - 3, -1)
        assert ("A regular in codimension one", VIOLATED) in v.hypotheses


def test_separable_bound_pass():
    v = check_separable_bound(quadric_cone_instance(QQ), random.Random(0))
    assert v.conclusion == PASS
    assert v.lhs <= v.rhs


def test_char2_quadric_all_checks_pass():
    inst = quadric_cone_instance(GF(2))
    assert inst.p_power == 2
    assert inst.separability_claim == "purely-inseparable"
    for chk in (check_dim2_bound, check_purely_inseparable, check_general_bound):
        v = chk(inst, random.Random(0))
        assert v.conclusion == PASS, (chk.__name__, v.notes)
    v = check_dim2_bound(inst, random.Random(0))
    assert v.lhs == v.rhs == -1  # the equality witness


def test_purely_inseparable_not_applicable_char3():
    v = check_purely_inseparable(quadric_cone_instance(GF(3)), random.Random(0))
    assert v.conclusion == NOT_APPLICABLE


def test_dim2_not_applicable_char0():
    v = check_dim2_bound(quadric_cone_instance(QQ), random.Random(0))
    assert v.conclusion == NOT_APPLICABLE


def test_min_mult_conditions_agree():
    rng_seed = 5
    for A in builtin_rings():
        conds = min_mult_conditions(A, random.Random(rng_seed))
        values = list(conds.values())
        assert all(values) or not any(values), (A.name, conds)


def test_min_mult_examples():
    assert has_minimal_multiplicity(free_presentation(QQ, ("x", "y")))
    assert has_minimal_multiplicity(quadric_cone_instance(QQ).B)
    assert not has_minimal_multiplicity(pinchpoint_family(4, QQ).A)


def test_min_mult_descent():
    v = check_min_mult_descent(quadric_cone_instance(QQ), random.Random(0))
    assert v.conclusion == PASS
    v = check_min_mult_descent(pinchpoint_family(3, QQ), random.Random(0))
    assert v.conclusion == COUNTEREXAMPLE  # A fails; its normality hypothesis fails


def test_mcm_quotient_criterion():
    for inst in (even_powers_instance(QQ), twisted_cubic_in_veronese_instance(QQ)):
        equal, J = contracted_parameter_ideal_equals(inst, random.Random(0))
        assert equal and len(J) == 2
    v = check_mcm_quotient(even_powers_instance(QQ), random.Random(0))
    assert v.conclusion == PASS
    # the pinch point fails the criterion and its min-mult hypothesis
    v = check_mcm_quotient(pinchpoint_family(3, QQ), random.Random(0))
    assert v.conclusion == COUNTEREXAMPLE


def test_min_mult_equivalence_verdicts():
    v = check_min_mult_equivalences(
        free_presentation(QQ, ("x", "y", "z")), random.Random(0)
    )
    assert v.conclusion == PASS


def test_suite_composition():
    verdicts = run_suite(seed=2024)
    assert len(verdicts) >= 80
    conclusions = {v.conclusion for v in verdicts}
    # inequalities either hold or fail only alongside violated hypotheses
    assert "fail" not in conclusions
    names = [(v.instance, v.theorem_id) for v in verdicts]
    assert names == sorted(names)


def test_suite_deterministic():
    a = [v.to_dict() for v in run_suite(seed=2024)]
    b = [v.to_dict() for v in run_suite(seed=2024, workers=2)]
    assert a == b


def test_report_certifies_a_large_ring_once(monkeypatch):
    calls = []

    def counted(A, rng=None):
        calls.append(A)
        return cm_certificate_by_parameters(A, rng)

    monkeypatch.setattr(theorems, "cm_certificate_by_parameters", counted)
    V = veronese_presentation(free_presentation(QQ, ("x", "y")), 6).presentation
    rep = invariant_report(V, random.Random(1))
    assert rep.route == PARAMETER_CERTIFIED and rep.is_cm
    assert (rep.a_invariant, rep.regularity) == (-1, 1)
    assert len(calls) == 1


def test_checks_resolve_each_presentation_once(syzygy_calls):
    # The resolution work of both rings, each done once: resolution and a.
    twin = quadric_cone_instance(QQ)
    for A in (twin.A, twin.B):
        route = RingRoute(A)
        route.a, route.regularity, route.is_cm
    once = len(syzygy_calls)
    assert once > 0

    syzygy_calls.clear()
    inst = quadric_cone_instance(QQ)
    for check in theorems.ALL_CHECKS.values():
        check(inst, random.Random(2024))
    assert len(syzygy_calls) == once
    for check in theorems.ALL_CHECKS.values():
        check(inst, random.Random(2024))
    assert len(syzygy_calls) == once


def test_routes_on_one_large_ring_each_draw_their_certificate():
    # The certificate samples from the route's rng, so it is not kept on the
    # presentation: both routes draw, and draw the same.
    V = veronese_presentation(free_presentation(QQ, ("x", "y")), 6).presentation
    rngs = [random.Random(3), random.Random(3)]
    for rng in rngs:
        route = RingRoute(V, rng)
        assert route.route == PARAMETER_CERTIFIED and route.is_cm
    assert rngs[0].getstate() == rngs[1].getstate() != random.Random(3).getstate()


def _ver6():
    return veronese_presentation(free_presentation(QQ, ("x", "y")), 6).presentation


@pytest.fixture
def accepted_sops(monkeypatch):
    """The forms of every linear sop accepted during the test, in order."""
    accepted = []
    real = resolution.linear_system_of_parameters

    def recorded(*args, **kwargs):
        forms, quotient = real(*args, **kwargs)
        accepted.append(forms)
        return forms, quotient

    monkeypatch.setattr(resolution, "linear_system_of_parameters", recorded)
    monkeypatch.setattr(theorems, "linear_system_of_parameters", recorded)
    return accepted


def test_report_on_a_certified_veronese_computes_no_gb_of_its_ideal(groebner_calls):
    # The kernel certificate computed GB(I) already, on the returned object.
    V = _ver6()
    groebner_calls.clear()
    rep = invariant_report(V, random.Random(1))
    assert rep.route == PARAMETER_CERTIFIED and rep.is_cm
    assert groebner_calls.of(V.ideal_gens) == 0


def test_report_computes_one_gb_per_accepted_sop(groebner_calls, accepted_sops):
    V = _ver6()
    invariant_report(V, random.Random(1))
    assert len(accepted_sops) == 1
    assert groebner_calls.of(V.ideal_gens + tuple(accepted_sops[0])) == 1


def test_min_mult_m2_check_reuses_its_accepted_sop(groebner_calls, accepted_sops):
    V = _ver6()
    conds = theorems._min_mult_conditions(RingRoute(V, random.Random(1)))
    assert all(conds.values())
    # one draw for the CM certificate, one for the m^2 condition
    assert len(accepted_sops) == 2 and accepted_sops[0] != accepted_sops[1]
    for forms in accepted_sops:
        assert groebner_calls.of(V.ideal_gens + tuple(forms)) == 1


def test_instance_rejects_bad_claim():
    inst = quadric_cone_instance(QQ)
    with pytest.raises(ValueError):
        type(inst)(
            inst.name, inst.A, inst.B, inst.inclusion, 0, 1, "sometimes-separable"
        )


def test_builtin_instances_cover_ten_rings():
    assert len(builtin_rings()) >= 10
    assert len(builtin_instances()) >= 10
