"""`import gradedinv` stays light: every CLI call, suite worker and benchmark
pass is a fresh process that pays for the package's imports."""

import json
import os
import pathlib
import subprocess
import sys

import gradedinv

SRC = pathlib.Path(gradedinv.__file__).resolve().parent.parent
# dataclasses pulls in inspect, and inspect pulls in ast, dis and tokenize.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# Only what the package import adds counts, whatever `site` loads first.
PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import gradedinv, gradedinv.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def test_package_import_loads_no_heavy_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert r.returncode == 0, r.stderr
    added = set(json.loads(r.stdout))
    assert "gradedinv.cli" in added
    assert not added & HEAVY, sorted(added & HEAVY)
