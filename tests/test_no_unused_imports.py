"""Every name the package imports is read somewhere in the importing module.

`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
import pathlib

import gradedinv

SRC = pathlib.Path(gradedinv.__file__).parent


def _unused_imports(tree):
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_package_has_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name) for line, name in _unused_imports(tree)]
    assert not found, "unused imports in the package: %s" % ", ".join(found)
