"""Inputs and one timed pass of each workload.

Workloads (the seed is the only knob; the program sees generated inputs):

suite    `gradedinv suite --json --seed S` in-process: 84 verdicts over QQ,
         GF(2) and GF(3).  Dominated by repeated resolutions and Groebner
         runs on the same presentations, so compute-once caching shows here.
param    invariant_report of four Veronese rings that take the
         parameter-certified route, two over QQ and two over GF(32003).
         No module calls; almost all of the time is polynomial Buchberger.
         The seed drives the sampling of the linear system of parameters.
         It does not permute the base rings: over seeds 11-15 a permutation
         of the twisted cubic's variables swung its report from 6.1 s to
         9.3 s, against 5.2-5.4 s from the sampling alone.
"""

import random
import time

WORKLOADS = ("suite", "param")

# (label, field characteristic, base ring, Veronese degree).  The base rings
# and their dim, multiplicity and a-invariant are textbook values, so the
# oracle does not ask the program under test for them.
PARAM_RINGS = (
    ("Ver_3(k[x,y,z])", 0, "polynomial3", 3),
    ("Ver_2(k[x,y,z,w])", 32003, "polynomial4", 2),
    ("Ver_4(quadric)", 0, "quadric", 4),
    ("Ver_3(twisted-cubic)", 32003, "twisted-cubic", 3),
)
# Items one pass attempts: suite verdicts, invariant reports.
ITEMS = {"suite": 84, "param": len(PARAM_RINGS)}

BASE_INVARIANTS = {  # name -> (dim, multiplicity, a-invariant)
    "polynomial3": (3, 1, -3),
    "polynomial4": (4, 1, -4),
    "quadric": (2, 2, -1),
    "twisted-cubic": (2, 3, -1),
}


# ---------------------------------------------------------------------------
# Inputs.


def _base_ring(gi, kind, fieldspec):
    if kind == "polynomial3":
        return gi.free_presentation(fieldspec, ("x", "y", "z"), name="k[x,y,z]")
    if kind == "polynomial4":
        return gi.free_presentation(fieldspec, ("x", "y", "z", "w"), name="k[x,y,z,w]")
    if kind == "quadric":
        S = gi.GradedPolyRing(fieldspec, ("x", "y", "z"))
        x, y, z = S.gens()
        return gi.GradedQuotientPresentation(S, [z**2 - x * y], True, "quadric-cone")
    S = gi.GradedPolyRing(fieldspec, ("a", "b", "c", "d"))
    a, b, c, d = S.gens()
    return gi.GradedQuotientPresentation(
        S, [b**2 - a * c, b * c - a * d, c**2 - b * d], True, "twisted-cubic"
    )


def build_inputs(gi, workload):
    """The base inputs of one pass (part of set-up, not timed)."""
    if workload == "suite":
        return None
    return [
        (label, n, _base_ring(gi, kind, gi.GF(p) if p else gi.QQ))
        for label, p, kind, n in PARAM_RINGS
    ]


# ---------------------------------------------------------------------------
# One pass: the program's outputs in plain JSON-able form.


def run_pass(gi, workload, inputs, seed):
    """Run one pass with the seed; return its outputs and each item's seconds."""
    if workload == "suite":
        import contextlib
        import io

        from gradedinv import cli

        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["suite", "--json", "--seed", str(seed)])
        return {"exit": code, "stdout": buf.getvalue()}, [time.perf_counter() - start]
    out, seconds = [], []
    for label, n, C in inputs:
        start = time.perf_counter()
        V = gi.veronese_presentation(C, n).presentation
        rep = gi.invariant_report(V, random.Random(seed))
        out.append({"ring": label, "report": rep.to_dict()})
        seconds.append(time.perf_counter() - start)
    return out, seconds
