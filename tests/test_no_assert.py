"""Checks must survive `python -O`, so the package has no assert statements."""

import ast
import pathlib

import gradedinv

SRC = pathlib.Path(gradedinv.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: %s" % ", ".join(found)
