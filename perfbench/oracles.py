"""Exact oracles for the outputs of one pass, and their self-check.

Each oracle returns (attempted, failures): the number of items it judged and
a list of one-line reasons, one per failed item.  None of them asks the
program under test for the expected value.
"""

import copy
import json
import os

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_suite.json")


def _verdict_key(v):
    return (v.get("instance"), v.get("theorem"))


def golden_verdicts():
    """Verdicts of `suite --json` at the seed commit, every field but notes."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["verdicts"]


def check_suite(output, seed, schema, golden):
    import jsonschema

    n = workloads.ITEMS["suite"]
    if output.get("exit") != 0:
        return n, ["suite exited %r" % output.get("exit")] * n
    try:
        doc = json.loads(output["stdout"])
        jsonschema.validate(doc, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return n, ["suite JSON invalid: %s" % str(exc).splitlines()[0]] * n
    failures = []
    if doc["seed"] != seed:
        failures.append("seed field %r != %r" % (doc["seed"], seed))
    got = {}
    for v in doc["verdicts"]:
        stripped = {k: x for k, x in v.items() if k != "notes"}
        if _verdict_key(v) in got:
            failures.append("duplicate verdict %s/%s" % _verdict_key(v))
        got[_verdict_key(v)] = stripped
    for want in golden:
        have = got.pop(_verdict_key(want), None)
        if have != want:
            failures.append("verdict %s/%s: %s" % (want["instance"], want["theorem"], have))
    for key in got:
        failures.append("unexpected verdict %s/%s" % key)
    return max(len(golden), len(doc["verdicts"])), failures


def expected_param(kind, n):
    """dim, e and a of the n-th Veronese of a base ring, from its invariants."""
    dim, e, a = workloads.BASE_INVARIANTS[kind]
    return {"dim": dim, "multiplicity": n ** (dim - 1) * e, "a_invariant": a // n}


def check_param(output):
    failures = []
    specs = {label: (kind, n) for label, _p, kind, n in workloads.PARAM_RINGS}
    for item in output:
        rep = item["report"]
        want = expected_param(*specs[item["ring"]])
        want.update(is_cm=True, route="parameter-certified")
        bad = {k: rep.get(k) for k, v in want.items() if rep.get(k) != v}
        if bad:
            failures.append("%s: %s (want %s)" % (item["ring"], bad, want))
    want = workloads.ITEMS["param"]
    if len(output) != want:
        failures.append("expected %d reports, got %d" % (want, len(output)))
    return max(len(output), want), failures


class Oracle:
    """The oracle of one workload, with whatever it loads once."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        if workload == "suite":
            path = os.path.join(root, "src", "gradedinv", "schemas", "report.schema.json")
            with open(path, encoding="utf-8") as fh:
                self.schema = json.load(fh)
            self.golden = golden_verdicts()

    def check(self, output):
        if self.workload == "suite":
            return check_suite(output, self.seed, self.schema, self.golden)
        return check_param(output)

    def rejects_corruptions(self, output):
        """Each corrupted copy of a correct output must fail the oracle."""
        return all(self.check(bad)[1] for bad in corruptions(self.workload, output))


def corruptions(workload, output):
    """Copies of an output with one planted error each."""
    out = []
    if workload == "suite":
        doc = json.loads(output["stdout"])
        flipped = copy.deepcopy(doc)
        v = flipped["verdicts"][0]
        v["conclusion"] = "fail" if v["conclusion"] != "fail" else "pass"
        missing = copy.deepcopy(doc)
        del missing["verdicts"][-1]["hypotheses"]
        for bad in (flipped, missing):
            out.append(dict(output, stdout=json.dumps(bad, indent=2, sort_keys=True)))
        out.append(dict(output, exit=1))
    else:
        for key, change in (
            ("is_cm", lambda x: not x),
            ("a_invariant", lambda x: x + 1),
            ("route", lambda x: "resolution"),
        ):
            bad = copy.deepcopy(output)
            bad[0]["report"][key] = change(bad[0]["report"][key])
            out.append(bad)
    return out
