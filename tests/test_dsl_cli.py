"""Script parsing, canonical printing, CLI subcommands, and JSON schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gradedinv.dsl import ScriptError, Session, parse_script, print_script

ROOT = Path(__file__).resolve().parent.parent
PINCHPOINT = ROOT / "scripts" / "pinchpoint.gi"
# The full bytes of `gradedinv suite --json` at seed 2024.  Unlike
# perfbench/golden_suite.json it keeps the notes, which print the sampled
# systems of parameters, so any shift in the random stream shows here.
GOLDEN_SUITE = ROOT / "tests" / "data" / "suite_seed2024.json"
SCHEMA = json.loads(
    (ROOT / "src" / "gradedinv" / "schemas" / "report.schema.json").read_text()
)


def _run(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gradedinv.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_parse_ring_declaration():
    s = parse_script("ring A over GF(2) vars x:1, y:1;")
    decl = s.declarations[0]
    assert decl.characteristic == 2
    assert decl.variables == (("x", 1), ("y", 1))


def test_unknown_variable_diagnostic():
    with pytest.raises(ScriptError) as err:
        parse_script("ring A over QQ vars x, y;\nideal I in A = z^2 - x*y;")
    assert "unknown variable z" in str(err.value)
    assert err.value.line == 2


def test_nonprime_modulus_rejected():
    with pytest.raises(ScriptError) as err:
        parse_script("ring A over GF(4) vars x;")
    assert "not prime" in str(err.value)


def test_nonpositive_weight_rejected():
    with pytest.raises(ScriptError):
        parse_script("ring A over QQ vars x:0;")


def test_undeclared_name_rejected():
    with pytest.raises(ScriptError) as err:
        parse_script("ideal I in A = 1;")
    assert "undeclared" in str(err.value)


def test_syntax_error_position():
    with pytest.raises(ScriptError) as err:
        parse_script("ring A over QQ vars x y;")
    assert err.value.line == 1


def test_fraction_coefficients():
    s = parse_script("ring A over QQ vars x, y;\nideal I in A = 1/2*x - y;")
    gen = s.declarations[1].generators[0]
    from fractions import Fraction

    assert gen.terms[(1, 0)] == Fraction(1, 2)


def test_roundtrip_pinchpoint_script():
    text = PINCHPOINT.read_text()
    s1 = parse_script(text)
    s2 = parse_script(print_script(s1))
    assert s1 == s2


def test_session_builds_instance():
    session = Session(parse_script(PINCHPOINT.read_text()))
    inst = session.instances["pinch3"]
    assert inst.characteristic == 0
    assert inst.p_power == 1
    assert inst.A.asserted_domain and inst.B.asserted_domain


def test_cli_invariants_pinch3():
    r = _run("invariants", "A", "--script", str(PINCHPOINT), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    inv = doc["instances"][0]["invariants"]
    assert inv["a_invariant"] == 0
    assert inv["multiplicity"] == 3
    assert inv["regularity"] == 2


def test_cli_check_sep_exit_zero_on_counterexample():
    """A failed inequality is a finding, not an error: exit code 0."""
    r = _run("check", "sep", "pinch3", "--script", str(PINCHPOINT), "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdicts"][0]["conclusion"] == "counterexample-consistent"


def test_cli_run_script():
    r = _run("run", str(PINCHPOINT))
    assert r.returncode == 0, r.stderr
    assert "counterexample-consistent" in r.stdout


def test_cli_input_errors_exit_2():
    assert _run("invariants", "A").returncode == 2  # no script
    assert _run("invariants", "NOPE", "--script", str(PINCHPOINT)).returncode == 2
    r = _run("check", "sep", "missing", "--script", str(PINCHPOINT))
    assert r.returncode == 2


def test_cli_hilbert_betti_kernel():
    r = _run("hilbert", "A", "--script", str(PINCHPOINT), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    hs = doc["instances"][0]["hilbert_series"]
    assert hs["numerator_coeffs"] == [1, 0, 0, -1]
    assert hs["denominator_weights"] == [1, 1, 1]

    r = _run("betti", "B", "--script", str(PINCHPOINT), "--json")
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["instances"][0]["regularity"] == 1

    r = _run("kernel", "incl", "--script", str(PINCHPOINT), "--json")
    assert r.returncode == 0


def test_cli_betti_of_zero_ring_is_input_error(tmp_path):
    script = tmp_path / "zero.gi"
    script.write_text("ring S over QQ vars x:1, y:1;\nideal Z in S = 1;\n")
    r = _run("betti", "Z", "--script", str(script))
    assert r.returncode == 2
    assert "zero ring" in r.stderr and "internal error" not in r.stderr


def test_cli_minmult_without_a_linear_sop_is_not_applicable(tmp_path):
    # Over GF(2) no linear form is a parameter on x*y*(x+y).
    script = tmp_path / "f.gi"
    script.write_text("ring S over GF(2) vars x:1, y:1;\nideal A in S = x*y*(x+y);\n")
    r = _run("check", "--script", str(script), "minmult-eq", "A", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    verdict = doc["verdicts"][0]
    assert verdict["conclusion"] == "not-applicable"
    assert verdict["hypotheses"] == [
        {"name": "linear sop over the field", "status": "unverified"}
    ]
    assert "GF(2)" in verdict["notes"] and "60 draws" in verdict["notes"]


@pytest.mark.parametrize("check", ["mcm-quotient", "minmult-descent"])
def test_cli_instance_check_without_a_linear_sop_is_not_applicable(tmp_path, check):
    script = tmp_path / "f.gi"
    script.write_text(
        "ring S over GF(2) vars x:1, y:1;\n"
        "ring T over GF(2) vars u:1, v:1, w:1;\n"
        "ideal A in S = x*y*(x+y);\n"
        "ideal B in T = u*v*(u+v);\n"
        "map incl : A -> B = u, v;\n"
        "instance t = (A, B, incl) domain;\n"
    )
    r = _run("check", "--script", str(script), check, "t", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    verdict = doc["verdicts"][0]
    assert verdict["theorem"] == check
    assert verdict["conclusion"] == "not-applicable"
    assert verdict["hypotheses"] == [
        {"name": "linear sop over the field", "status": "unverified"}
    ]
    assert verdict["notes"] == "no linear system of parameters found over GF(2) in 60 draws"


_SEVEN_VARS = "a:1, b:1, c:1, d:1, e:1, f:1, g:1"


@pytest.mark.parametrize(
    "field, ideal, expected",
    [
        # non-CM: the parameter route reads a only off a CM ring
        ("QQ", "a*c, a*d, b*c, b*d", {"a_invariant": -5, "depth": 4, "is_cm": False}),
        # CM, but no linear form over GF(2) is a parameter
        ("GF(2)", "a*b*(a+b), c*d*(c+d)", {"a_invariant": -1, "depth": 5, "is_cm": True}),
    ],
)
def test_cli_invariants_fall_back_to_the_resolution(tmp_path, field, ideal, expected):
    # Seven variables start on the parameter route, which cannot answer
    # here; the ring is small enough to resolve instead.
    script = tmp_path / "g.gi"
    script.write_text(
        "ring S over %s vars %s;\nideal A in S = %s;\n" % (field, _SEVEN_VARS, ideal)
    )
    r = _run("invariants", "--script", str(script), "A", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    inv = doc["instances"][0]["invariants"]
    assert inv["route"] == "resolution" and inv["dim"] == 5
    assert {k: inv[k] for k in expected} == expected


def test_cli_veronese_and_frobenius():
    r = _run("veronese", "A", "2", "--script", str(PINCHPOINT), "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["instances"][0]["weights"] == [1] * len(doc["instances"][0]["weights"])

    script = "ring B over GF(2) vars x, y;\n"
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".gi", delete=False) as fh:
        fh.write(script)
        path = fh.name
    try:
        r = _run("frobenius", "B", "2", "--script", path, "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["instances"][0]["weights"] == [2, 2]
        # 3 is not a power of 2: input error
        assert _run("frobenius", "B", "3", "--script", path).returncode == 2
    finally:
        os.unlink(path)


def test_cli_csv():
    r = _run("invariants", "A", "--script", str(PINCHPOINT), "--csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("name,dim,depth")
    assert lines[1].startswith("A,2,2")


def test_cli_suite_deterministic_and_valid(tmp_path):
    r1 = _run("suite", "--json", env_extra={"GI_SEED": "2024"})
    r2 = _run("suite", "--json")
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical
    doc = json.loads(r1.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert all(
        v["conclusion"] in ("pass", "counterexample-consistent", "not-applicable")
        for v in doc["verdicts"]
    )


def test_cli_suite_json_matches_golden_bytes(capsys):
    from gradedinv.cli import main

    assert main(["suite", "--json", "--seed", "2024"]) == 0
    assert capsys.readouterr().out == GOLDEN_SUITE.read_text()
