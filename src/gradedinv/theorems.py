"""Verification harness: invariant reports and theorem checks on extensions.

Each check evaluates one of the paper-level inequalities or equivalences on
a concrete extension instance, reporting a hypothesis checklist, both sides
of the comparison, and a conclusion.  A failed inequality with a violated
hypothesis is reported as "counterexample-consistent", not as an error.
Reports, instances and verdicts are mutable records (`core.Record`): they
compare and print field by field, are unhashable, and pickle, so suite
workers can take instances and send back verdicts.

Every invariant of a ring comes from its RingRoute, which picks one of two
routes from the ambient variable count.  Whatever does not depend on a
random draw (the Groebner basis of I, the Hilbert series, the resolution and
the canonical-module a) is kept on the presentation, so the checks of one
suite run share it.  The parameter certificate and every sampled system of
parameters draw from the check's rng, so they are not kept: each route draws
its own, and how much of the stream a check consumes does not depend on
which checks ran before it.

Rings with at most SMALL_RING_VARS variables take the "resolution" route:
one minimal free resolution gives depth, CM and regularity, and the same
resolution is dualized for the canonical module and a.  Larger rings
are out of reach for iterated syzygies and take the "parameter-certified"
route: one parameter-colength certificate decides CM (standard gradings;
weighted ones are still resolved), and a and reg are read off the Hilbert
series (a = deg N - sum w, reg = a + dim).  Both identities are exact for
certified-CM algebras and are cross-checked against the resolution route on
every small instance.  Where the parameter route cannot answer (a, reg or
depth of a non-CM ring, or no linear system of parameters over a small
field), a ring with at most RESOLUTION_VARIABLE_LIMIT variables is resolved
after all and its report's route says "resolution"; beyond that limit, a or
reg of a non-CM ring raises ValueError.
"""

import random
from functools import cached_property
from math import comb, floor

from .core import (
    GF,
    QQ,
    GradedPolyRing,
    GradedQuotientPresentation,
    Record,
    free_presentation,
)
from .constructions import (
    frobenius_power_subalgebra_generators,
    subalgebra_membership,
    subalgebras_equal,
    veronese_presentation,
    is_module_finite,
)
from .groebner import (
    GradedRingMap,
    contraction,
    groebner_basis,
    normal_form,
    presentation_groebner_basis,
)
from .hilbert import hilbert_series, krull_dimension, multiplicity
from .resolution import (
    RESOLUTION_VARIABLE_LIMIT,
    NoLinearParametersError,
    a_invariant,
    cm_certificate_by_parameters,
    embedding_dimension,
    linear_system_of_parameters,
    minimal_free_resolution,
    singular_locus_dimension,
)
from .toric import inseparable_degree, lattice_of_monomial_algebra

# Resolutions are attempted up to this many ambient variables; beyond it the
# parameter-certified Hilbert-series route takes over.
SMALL_RING_VARS = 6
# The two routes, as named in an invariant report's `route` field.
RESOLUTION = "resolution"
PARAMETER_CERTIFIED = "parameter-certified"

# Cap on the number of Jacobian minors expanded for the R1 test.
MINOR_BUDGET = 4000

VERIFIED = "verified"
USER_ASSERTED = "user-asserted"
VIOLATED = "violated"
UNVERIFIED = "unverified"

PASS = "pass"
FAIL = "fail"
COUNTEREXAMPLE = "counterexample-consistent"
NOT_APPLICABLE = "not-applicable"


class InvariantReport(Record):
    """The invariants of one ring; a field is None where it is unknown."""

    __slots__ = (
        "dim", "depth", "edim", "multiplicity", "regularity", "a_invariant",
        "is_cm", "is_r1", "has_min_mult", "hilbert", "route",
    )

    def __init__(
        self, dim, depth, edim, multiplicity, regularity, a_invariant, is_cm,
        is_r1, has_min_mult, hilbert, route=RESOLUTION,
    ):
        self.dim = dim
        self.depth = depth
        self.edim = edim
        self.multiplicity = multiplicity
        self.regularity = regularity
        self.a_invariant = a_invariant
        self.is_cm = is_cm
        self.is_r1 = is_r1
        self.has_min_mult = has_min_mult
        self.hilbert = hilbert
        self.route = route

    def to_dict(self):
        return {
            "dim": self.dim,
            "depth": self.depth,
            "edim": self.edim,
            "multiplicity": self.multiplicity,
            "regularity": self.regularity,
            "a_invariant": self.a_invariant,
            "is_cm": self.is_cm,
            "is_r1": self.is_r1,
            "has_min_mult": self.has_min_mult,
            "hilbert_series": {
                "numerator_coeffs": self.hilbert.numerator.coefficient_list(),
                "denominator_weights": list(self.hilbert.denominator_weights),
            },
            "route": self.route,
        }


class ExtensionInstance(Record):
    """An inclusion A -> B of graded algebras, with what is known of it."""

    __slots__ = (
        "name", "A", "B", "inclusion", "characteristic", "p_power",
        "separability_claim", "proper",
    )

    def __init__(
        self, name, A, B, inclusion, characteristic, p_power=None,
        separability_claim="unknown", proper=True,
    ):
        self.name = name
        self.A = A
        self.B = B
        self.inclusion = inclusion
        self.characteristic = characteristic
        self.p_power = p_power
        self.separability_claim = separability_claim
        self.proper = proper
        if self.separability_claim not in (
            "separable",
            "purely-inseparable",
            "mixed",
            "unknown",
        ):
            raise ValueError("bad separability claim %r" % self.separability_claim)


class TheoremVerdict(Record):
    """One check's outcome: hypotheses as (name, status) pairs, both sides of
    the comparison (None where not computed), and the conclusion."""

    __slots__ = ("theorem_id", "instance", "hypotheses", "lhs", "rhs", "conclusion", "notes")

    def __init__(self, theorem_id, instance, hypotheses, lhs, rhs, conclusion, notes=""):
        self.theorem_id = theorem_id
        self.instance = instance
        self.hypotheses = hypotheses
        self.lhs = lhs
        self.rhs = rhs
        self.conclusion = conclusion
        self.notes = notes

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "hypotheses": [{"name": n, "status": s} for n, s in self.hypotheses],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "conclusion": self.conclusion,
            "notes": self.notes,
        }


def _finish(theorem_id, instance, hyps, lhs, rhs, ok, notes=""):
    if ok:
        conclusion = PASS
    elif any(s == VIOLATED for _n, s in hyps):
        conclusion = COUNTEREXAMPLE
    else:
        conclusion = FAIL
    return TheoremVerdict(theorem_id, instance, hyps, lhs, rhs, conclusion, notes)


# ---------------------------------------------------------------------------
# Routing: each ring's invariants come from one place, each computed once.


class RingRoute:
    """The route by which the invariants of one presentation are computed.

    `route` starts from the variable count.  Where the parameter route
    cannot answer (depth, a or reg of a non-CM ring, or no linear system of
    parameters over the field), a ring with at most
    RESOLUTION_VARIABLE_LIMIT variables switches to the resolution route
    for good, and `route` says so; a larger ring still raises.  The Hilbert
    series, the resolution and the resolution-route a are kept on the
    presentation itself, so every route on the same presentation, in any
    check, shares them.  The parameter certificate draws from this route's
    rng, so is_cm (and what follows from it on the parameter route) is kept
    on the route only: two routes on one ring each sample their own
    certificate.
    """

    def __init__(self, A, rng=None):
        self.A = A
        self.rng = rng or random.Random(0)
        self.route = RESOLUTION if A.ring.nvars <= SMALL_RING_VARS else PARAMETER_CERTIFIED

    def _resolve_instead(self, error):
        """Take the answers the parameter route cannot give from the
        resolution from now on; raise `error` if the ring is too large."""
        if self.A.ring.nvars > RESOLUTION_VARIABLE_LIMIT:
            raise error
        self.route = RESOLUTION

    @property
    def hilbert(self):
        return hilbert_series(self.A)

    @cached_property
    def dim(self):
        return self.hilbert.dimension()

    @property
    def resolution(self):
        return minimal_free_resolution(self.A)

    @cached_property
    def depth(self):
        """Auslander-Buchsbaum depth; a ring too large to resolve has one
        only when CM."""
        if self.route == PARAMETER_CERTIFIED:
            if self.is_cm:
                return self.dim
            if self.A.ring.nvars > RESOLUTION_VARIABLE_LIMIT:
                return None
            self.route = RESOLUTION
        return self.A.ring.nvars - self.resolution.length

    @cached_property
    def is_cm(self):
        if self.route == PARAMETER_CERTIFIED and self.A.is_standard_graded:
            try:
                return cm_certificate_by_parameters(self.A, self.rng)
            except NoLinearParametersError as exc:
                self._resolve_instead(exc)
        return self.A.ring.nvars - self.resolution.length == self.dim

    @cached_property
    def a(self):
        if self.route == PARAMETER_CERTIFIED and not self.is_cm:
            self._resolve_instead(
                ValueError("a-invariant of a large non-CM presentation is out of desk-scale reach")
            )
        if self.route == RESOLUTION:
            return a_invariant(self.A)
        return self.hilbert.fastpath_a_invariant()

    @cached_property
    def regularity(self):
        """Castelnuovo-Mumford regularity; None for weighted gradings."""
        if not self.A.is_standard_graded:
            return None
        if self.route == PARAMETER_CERTIFIED and not self.is_cm:
            self._resolve_instead(
                ValueError("regularity of a large non-CM presentation is out of reach")
            )
        if self.route == RESOLUTION:
            return self.resolution.betti_table().regularity()
        return self.a + self.dim


def r1_status(A):
    """(is_r1 or None, hypothesis status) respecting the minor budget."""
    if not A.asserted_domain:
        return None, UNVERIFIED
    gens = len(A.ideal_gens)
    n = A.ring.nvars
    d = krull_dimension(A)
    c = n - d
    if c > 0 and comb(max(gens, c), c) * comb(n, c) > MINOR_BUDGET:
        return None, UNVERIFIED
    sing = singular_locus_dimension(A)
    ok = sing <= d - 2
    return ok, (VERIFIED if ok else VIOLATED)


def invariant_report(A, rng=None):
    """Aggregate dim, depth, edim, e, reg, a, CM, R1, and min-mult."""
    route = RingRoute(A, rng)
    d = route.dim
    std = A.is_standard_graded

    edim = embedding_dimension(A) if std else None
    mult = multiplicity(A) if std else None

    cm = route.is_cm
    a = route.a
    r1, _ = r1_status(A)
    min_mult = None
    if std and (cm or A.asserted_domain):
        min_mult = mult == edim - d + 1
    return InvariantReport(
        d, route.depth, edim, mult, route.regularity, a, cm, r1, min_mult,
        route.hilbert, route.route,
    )


# ---------------------------------------------------------------------------
# Shared hypothesis helpers.


def _common_hypotheses(inst, need_integral=True):
    hyps = []
    if need_integral:
        hyps.append(
            ("integral extension", VERIFIED if is_module_finite(inst.inclusion) else VIOLATED)
        )
    hyps.append(("A is a domain", USER_ASSERTED if inst.A.asserted_domain else UNVERIFIED))
    hyps.append(("B is a domain", USER_ASSERTED if inst.B.asserted_domain else UNVERIFIED))
    return hyps


# ---------------------------------------------------------------------------
# Theorem checks.


def check_separable_bound(inst, rng=None):
    """Separable case: a(A) <= a(B), and reg A <= a(B)+d <= reg B for CM A."""
    tid = "sep"
    if inst.separability_claim != "separable":
        return TheoremVerdict(
            tid, inst.name, [("separable extension", UNVERIFIED)], None, None,
            NOT_APPLICABLE, "separability claim is %r" % inst.separability_claim,
        )
    rng = rng or random.Random(0)
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    hyps = _common_hypotheses(inst)
    hyps.append(("separable extension", USER_ASSERTED))
    r1, status = r1_status(inst.A)
    hyps.append(("A regular in codimension one", status))
    a_A, a_B = ra.a, rb.a
    notes = ""
    ok = a_A <= a_B
    if inst.A.is_standard_graded and ra.is_cm:
        d = ra.dim
        reg_A, reg_B = ra.regularity, rb.regularity
        reg_ok = reg_A <= a_B + d <= reg_B
        notes = "reg A = %d, a(B)+d = %d, reg B = %d (%s)" % (
            reg_A, a_B + d, reg_B, "holds" if reg_ok else "fails",
        )
        ok = ok and reg_ok
    return _finish(tid, inst.name, hyps, a_A, a_B, ok, notes)


def check_dim2_bound(inst, rng=None):
    """Dimension two: floor(a(A)/p^e) <= a(B), floor((reg A - 2)/p^e) <= a(B)."""
    tid = "dim2"
    rng = rng or random.Random(0)
    if inst.characteristic == 0:
        return TheoremVerdict(
            tid, inst.name, [("characteristic p > 0", UNVERIFIED)], None, None,
            NOT_APPLICABLE, "characteristic zero",
        )
    if inst.p_power is None:
        raise ValueError("instance %s carries no inseparable degree p^e" % inst.name)
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    dA, dB = ra.dim, rb.dim
    if dA != 2 or dB != 2:
        return TheoremVerdict(
            tid, inst.name, [("dim A = dim B = 2", VIOLATED)], None, None,
            NOT_APPLICABLE, "dimensions are %d and %d" % (dA, dB),
        )
    hyps = _common_hypotheses(inst)
    hyps.append(("dim A = dim B = 2", VERIFIED))
    _r1, status = r1_status(inst.A)
    hyps.append(("Sing condition on J", status))
    q = inst.p_power
    a_B = rb.a
    lhs = floor(ra.a / q)
    ok = lhs <= a_B
    notes = "floor(a(A)/p^e) = %d vs a(B) = %d" % (lhs, a_B)
    if inst.A.is_standard_graded and ra.is_cm:
        lhs2 = floor((ra.regularity - 2) / q)
        ok = ok and lhs2 <= a_B
        notes += "; floor((reg A - 2)/p^e) = %d" % lhs2
    return _finish(tid, inst.name, hyps, lhs, a_B, ok, notes)


def _veronese_subalgebra_generators(inst, q):
    """Generators of A^{(q)} inside B: images of a basis of the degree-q slot."""
    from .constructions import degree_slot_basis

    basis = degree_slot_basis(inst.A, q)
    out = []
    for exps in basis:
        out.append(inst.inclusion.apply(inst.A.ring.monomial(exps)))
    return out


def check_purely_inseparable(inst, rng=None):
    """B^{p^e} vs A^{(p^e)}: containment always, equality iff B normal."""
    tid = "pure-insep"
    rng = rng or random.Random(0)
    if inst.characteristic == 0 or inst.p_power is None or inst.p_power == 1:
        claim = inst.separability_claim
        if inst.p_power == 1 and claim != "purely-inseparable":
            return TheoremVerdict(
                tid, inst.name, [("purely inseparable extension", UNVERIFIED)],
                None, None, NOT_APPLICABLE,
                "extension is separable (p^e = 1)" if inst.p_power == 1 else "characteristic zero",
            )
    if inst.separability_claim != "purely-inseparable" and inst.p_power != 1:
        return TheoremVerdict(
            tid, inst.name, [("purely inseparable extension", UNVERIFIED)],
            None, None, NOT_APPLICABLE, "claim is %r" % inst.separability_claim,
        )
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    hyps = _common_hypotheses(inst)
    r1_A, r1_stat = r1_status(inst.A)
    normal_A = ra.is_cm and bool(r1_A)
    hyps.append(
        ("A normal (CM + R1 sufficient)", VERIFIED if normal_A else (r1_stat if r1_stat == VIOLATED else UNVERIFIED))
    )
    hyps.append(("purely inseparable extension", USER_ASSERTED if inst.p_power != 1 else VERIFIED))
    q = inst.p_power
    frob_gens = frobenius_power_subalgebra_generators(inst.B, q)
    ver_gens = _veronese_subalgebra_generators(inst, q)
    contained = all(subalgebra_membership(g, ver_gens, inst.B) for g in frob_gens)
    hyps.append(("B^{p^e} contained in A^{(p^e)}", VERIFIED if contained else VIOLATED))
    equal = contained and subalgebras_equal(frob_gens, ver_gens, inst.B)
    notes = "B^{p^e} %s A^{(p^e)}" % ("=" if equal else ("<" if contained else "!<"))
    if not equal:
        return _finish(tid, inst.name, hyps, None, None, contained, notes + "; B not normal" if contained else notes)
    a_B = rb.a
    lhs = floor(ra.a / q)
    ok = lhs == a_B
    notes += "; floor(a(A)/p^e) = %d, a(B) = %d" % (lhs, a_B)
    return _finish(tid, inst.name, hyps, lhs, a_B, ok, notes)


def check_general_bound(inst, rng=None):
    """General case: floor((a(A) + dim A - 2)/p^e) <= reg B - 2."""
    tid = "general"
    rng = rng or random.Random(0)
    if inst.characteristic == 0:
        return TheoremVerdict(
            tid, inst.name, [("characteristic p > 0", UNVERIFIED)], None, None,
            NOT_APPLICABLE, "characteristic zero",
        )
    if inst.p_power is None:
        raise ValueError("instance %s carries no inseparable degree p^e" % inst.name)
    if not (inst.A.is_standard_graded and inst.B.is_standard_graded):
        return TheoremVerdict(
            tid, inst.name, [("standard gradings", VIOLATED)], None, None,
            NOT_APPLICABLE, "weighted grading",
        )
    hyps = _common_hypotheses(inst)
    hyps.append(("standard gradings", VERIFIED))
    _r1, status = r1_status(inst.A)
    hyps.append(("A regular in codimension one", status))
    q = inst.p_power
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    lhs = floor((ra.a + ra.dim - 2) / q)
    rhs = rb.regularity - 2
    return _finish(tid, inst.name, hyps, lhs, rhs, lhs <= rhs)


def _no_linear_sop(tid, name, exc):
    """The verdict of a check that needs a linear sop its field does not have."""
    return TheoremVerdict(
        tid, name, [("linear sop over the field", UNVERIFIED)], None, None,
        NOT_APPLICABLE, str(exc),
    )


def min_mult_conditions(A, rng=None):
    """The four minimal-multiplicity conditions, each decided independently."""
    return _min_mult_conditions(RingRoute(A, rng))


def _min_mult_conditions(route):
    A = route.A
    if not A.is_standard_graded:
        raise ValueError("minimal multiplicity is a standard graded notion")
    d = route.dim
    e = multiplicity(A)
    edim = embedding_dimension(A)
    cm = route.is_cm
    cond_e = e == edim - d + 1
    cond_reg = route.regularity <= 1
    cond_a = cm and route.a <= 1 - d
    cond_m2 = False
    if cm:
        _sop, quotient = linear_system_of_parameters(A, route.rng)
        gb = presentation_groebner_basis(quotient)
        ring = A.ring
        cond_m2 = all(
            normal_form(ring.var(i) * ring.var(j), gb).is_zero()
            for i in range(ring.nvars)
            for j in range(i, ring.nvars)
        )
    return {
        "e = edim - dim + 1": cond_e,
        "reg <= 1": cond_reg,
        "CM and a <= 1 - dim": cond_a,
        "CM and m^2 in sampled linear sop": cond_m2,
    }


def check_min_mult_equivalences(A, rng=None, name=None):
    """The four conditions must agree: all true or all false."""
    tid = "minmult-eq"
    name = name or A.name or repr(A)
    try:
        conds = min_mult_conditions(A, rng)
    except NoLinearParametersError as exc:
        return _no_linear_sop(tid, name, exc)
    values = list(conds.values())
    agree = all(values) or not any(values)
    hyps = [("standard graded", VERIFIED)]
    hyps.append(("A is a domain or CM", USER_ASSERTED if A.asserted_domain else UNVERIFIED))
    notes = "; ".join("%s: %s" % (k, v) for k, v in conds.items())
    return _finish(tid, name, hyps, int(sum(values)), len(values) if values[0] else 0, agree, notes)


def has_minimal_multiplicity(A, rng=None):
    return all(min_mult_conditions(A, rng).values())


def check_min_mult_descent(inst, rng=None):
    """If B has minimal multiplicity, so must A (A normal, both CM)."""
    tid = "minmult-descent"
    rng = rng or random.Random(0)
    if not (inst.A.is_standard_graded and inst.B.is_standard_graded):
        return TheoremVerdict(
            tid, inst.name, [("standard gradings", VIOLATED)], None, None,
            NOT_APPLICABLE, "weighted grading",
        )
    try:
        return _min_mult_descent(tid, inst, rng)
    except NoLinearParametersError as exc:
        return _no_linear_sop(tid, inst.name, exc)


def _min_mult_descent(tid, inst, rng):
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    if not all(_min_mult_conditions(rb).values()):
        return TheoremVerdict(
            tid, inst.name, [("B has minimal multiplicity", VIOLATED)], None, None,
            NOT_APPLICABLE, "B does not have minimal multiplicity",
        )
    hyps = _common_hypotheses(inst)
    cm_A = ra.is_cm
    hyps.append(("A Cohen-Macaulay", VERIFIED if cm_A else VIOLATED))
    r1_A, r1_stat = r1_status(inst.A)
    normal_A = cm_A and bool(r1_A)
    hyps.append(
        ("A normal (CM + R1 sufficient)",
         VERIFIED if normal_A else (VIOLATED if r1_stat == VIOLATED or not cm_A else UNVERIFIED))
    )
    a_min = all(_min_mult_conditions(ra).values())
    notes = "B min-mult: True; A min-mult: %s" % a_min
    return _finish(tid, inst.name, hyps, int(a_min), 1, a_min, notes)


def contracted_parameter_ideal_equals(inst, rng=None):
    """Sample a linear sop J of A and decide JB ∩ A = J (mod I_A).

    Returns (equal, J) with J the sampled forms.
    """
    rng = rng or random.Random(0)
    J, quotient = linear_system_of_parameters(inst.A, rng)
    jb = [inst.inclusion.apply(f) for f in J]
    pulled = contraction(inst.inclusion, jb)
    lhs = groebner_basis(pulled + list(inst.A.ideal_gens))
    rhs = presentation_groebner_basis(quotient)
    return list(lhs.generators) == list(rhs.generators), J


def check_mcm_quotient(inst, rng=None):
    """B/A maximal Cohen-Macaulay, via the criterion JB ∩ A = J."""
    tid = "mcm-quotient"
    rng = rng or random.Random(0)
    if not inst.proper:
        return TheoremVerdict(
            tid, inst.name, [("proper extension", VIOLATED)], None, None,
            NOT_APPLICABLE, "A = B",
        )
    try:
        return _mcm_quotient(tid, inst, rng)
    except NoLinearParametersError as exc:
        return _no_linear_sop(tid, inst.name, exc)


def _mcm_quotient(tid, inst, rng):
    hyps = _common_hypotheses(inst)
    hyps.append(("proper extension", USER_ASSERTED))
    ra, rb = RingRoute(inst.A, rng), RingRoute(inst.B, rng)
    hyps.append(("A Cohen-Macaulay", VERIFIED if ra.is_cm else VIOLATED))
    hyps.append(("B Cohen-Macaulay", VERIFIED if rb.is_cm else VIOLATED))
    mm = inst.A.is_standard_graded and all(_min_mult_conditions(ra).values())
    hyps.append(("A has minimal multiplicity", VERIFIED if mm else VIOLATED))
    equal, J = contracted_parameter_ideal_equals(inst, rng)
    notes = "J = (%s); JB ∩ A %s J" % (", ".join(map(repr, J)), "=" if equal else "!=")
    return _finish(tid, inst.name, hyps, int(equal), 1, equal, notes)


# ---------------------------------------------------------------------------
# Built-in instances.


def pinchpoint_family(n, fieldspec=QQ):
    """The counterexample family A = k[x^n, x^{n-1}y, y^n] inside Ver_n(k[x,y])."""
    if n < 2:
        raise ValueError("family needs n >= 2")
    S = GradedPolyRing(fieldspec, ("u", "v", "w"))
    u, v, w = S.gens()
    A = GradedQuotientPresentation(
        S, [v**n - u ** (n - 1) * w], asserted_domain=True,
        name="pinch-point-%d" % n,
    )
    kxy = free_presentation(fieldspec, ("x", "y"), name="k[x,y]")
    V = veronese_presentation(kxy, n)
    B = V.presentation
    B.name = "Ver_%d(k[x,y])" % n
    idx = [V.variable_index_of(m) for m in [(n, 0), (n - 1, 1), (0, n)]]
    images = [B.ring.var(i) for i in idx]
    incl = GradedRingMap(A, B, images)
    p = fieldspec.characteristic
    L_A = lattice_of_monomial_algebra([(n, 0), (n - 1, 1), (0, n)])
    L_B = lattice_of_monomial_algebra(V.basis_monomials)
    q = inseparable_degree(L_A, L_B, p) if p else 1
    return ExtensionInstance(
        "pinch-point-%d%s" % (n, "" if p == 0 else "-GF%d" % p),
        A, B, incl, p, q, "separable" if q == 1 else "purely-inseparable",
        proper=(n > 2),
    )


def quadric_cone_instance(fieldspec=QQ):
    """A = k[x,y] inside B = k[x,y,z]/(z^2 - xy)."""
    A = free_presentation(fieldspec, ("x", "y"), name="k[x,y]")
    S = GradedPolyRing(fieldspec, ("x", "y", "z"))
    x, y, z = S.gens()
    B = GradedQuotientPresentation(
        S, [z**2 - x * y], asserted_domain=True, name="quadric-cone"
    )
    incl = GradedRingMap(A, B, [x, y])
    p = fieldspec.characteristic
    # doubled coordinates: x = (2,0), y = (0,2), z = (1,1)
    L_A = lattice_of_monomial_algebra([(2, 0), (0, 2)])
    L_B = lattice_of_monomial_algebra([(2, 0), (0, 2), (1, 1)])
    q = inseparable_degree(L_A, L_B, p) if p else 1
    claim = "purely-inseparable" if q > 1 else "separable"
    return ExtensionInstance(
        "quadric-cone%s" % ("" if p == 0 else "-GF%d" % p), A, B, incl, p, q, claim
    )


def even_powers_instance(fieldspec=QQ):
    """A = k[x^2, y^2] inside B = k[x^2, xy, y^2], both regraded standard."""
    A = free_presentation(fieldspec, ("X", "Y"), name="k[x^2,y^2]")
    S = GradedPolyRing(fieldspec, ("u", "v", "w"))
    u, v, w = S.gens()
    B = GradedQuotientPresentation(
        S, [v**2 - u * w], asserted_domain=True, name="k[x^2,xy,y^2]"
    )
    incl = GradedRingMap(A, B, [u, w])
    p = fieldspec.characteristic
    L_A = lattice_of_monomial_algebra([(2, 0), (0, 2)])
    L_B = lattice_of_monomial_algebra([(2, 0), (1, 1), (0, 2)])
    q = inseparable_degree(L_A, L_B, p) if p else 1
    claim = "purely-inseparable" if q > 1 else "separable"
    return ExtensionInstance(
        "even-powers%s" % ("" if p == 0 else "-GF%d" % p), A, B, incl, p, q, claim
    )


def twisted_cubic_in_veronese_instance(fieldspec=QQ):
    """The twisted cubic mapped onto Ver_3(k[x,y]) by its four generators."""
    S = GradedPolyRing(fieldspec, ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    A = GradedQuotientPresentation(
        S,
        [b**2 - a * c, b * c - a * d, c**2 - b * d],
        asserted_domain=True,
        name="twisted-cubic",
    )
    kxy = free_presentation(fieldspec, ("x", "y"), name="k[x,y]")
    V = veronese_presentation(kxy, 3)
    B = V.presentation
    B.name = "Ver_3(k[x,y])"
    idx = [V.variable_index_of(m) for m in [(3, 0), (2, 1), (1, 2), (0, 3)]]
    incl = GradedRingMap(A, B, [B.ring.var(i) for i in idx])
    return ExtensionInstance(
        "twisted-cubic-in-ver3", A, B, incl, fieldspec.characteristic, 1, "separable"
    )


def identity_instance(fieldspec=QQ):
    A = free_presentation(fieldspec, ("x", "y"), name="k[x,y]")
    incl = GradedRingMap(A, A, list(A.ring.gens()))
    return ExtensionInstance(
        "identity-k[x,y]", A, A, incl, fieldspec.characteristic, 1, "separable",
        proper=False,
    )


def builtin_instances():
    """The deterministic instance list exercised by the suite."""
    out = [
        identity_instance(QQ),
        quadric_cone_instance(QQ),
        quadric_cone_instance(GF(2)),
        quadric_cone_instance(GF(3)),
        even_powers_instance(QQ),
        twisted_cubic_in_veronese_instance(QQ),
    ]
    for n in (3, 4, 5, 6):
        out.append(pinchpoint_family(n, QQ))
    out.append(pinchpoint_family(3, GF(2)))
    out.append(pinchpoint_family(5, GF(2)))
    return out


def builtin_rings():
    """Named rings used for the minimal-multiplicity equivalence sweep."""
    rings = [
        free_presentation(QQ, ("x",), name="k[x]"),
        free_presentation(QQ, ("x", "y"), name="k[x,y]"),
        free_presentation(QQ, ("x", "y", "z"), name="k[x,y,z]"),
    ]
    kxy = free_presentation(QQ, ("x", "y"), name="k[x,y]")
    for n in (2, 3, 4):
        V = veronese_presentation(kxy, n)
        V.presentation.name = "Ver_%d(k[x,y])" % n
        rings.append(V.presentation)
    for n in (3, 4, 5, 6):
        rings.append(pinchpoint_family(n, QQ).A)
    q = quadric_cone_instance(QQ)
    rings.append(q.B)
    tc = twisted_cubic_in_veronese_instance(QQ)
    rings.append(tc.A)
    return rings


ALL_CHECKS = {
    "sep": check_separable_bound,
    "dim2": check_dim2_bound,
    "pure-insep": check_purely_inseparable,
    "general": check_general_bound,
    "minmult-descent": check_min_mult_descent,
    "mcm-quotient": check_mcm_quotient,
}


def _instance_verdicts(inst, seed):
    return [ALL_CHECKS[tid](inst, random.Random(seed)) for tid in sorted(ALL_CHECKS)]


def run_suite(seed=2024, workers=1):
    """Run every check on every built-in instance; deterministic output order.

    With workers > 1 the instances are checked in that many processes; each
    check still gets its own Random(seed), so the verdicts do not change.
    """
    instances = sorted(builtin_instances(), key=lambda i: i.name)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            seeds = [seed] * len(instances)
            batches = list(pool.map(_instance_verdicts, instances, seeds))
    else:
        # Drop each instance once checked, and with it what its presentations
        # keep; holding every instance to the end would raise peak memory.
        batches = []
        while instances:
            batches.append(_instance_verdicts(instances.pop(0), seed))
    verdicts = [v for batch in batches for v in batch]
    for ring in builtin_rings():
        verdicts.append(check_min_mult_equivalences(ring, random.Random(seed)))
    verdicts.sort(key=lambda v: (v.instance, v.theorem_id))
    return verdicts
