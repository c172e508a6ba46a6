"""Every module-level import of the package is used in its module, and the
exact layer imports no numpy.

No linter runs on this code base, so this test is the unused-import check:
it parses each module of `src/eigensphere` (not `__init__.py`, whose imports
are the public re-exports) and fails on a name that a top-level import binds
and the module never references.  `from __future__` imports are directives,
not names, and are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eigensphere"

# The modules that decide verdicts exactly; none of them may import numpy.
EXACT_LAYER = ("errors", "polynomial", "parsing", "calculus", "eigen")

# (module, name): the benchmark's tracer alias test patches and restores this name
ALLOWED = {("minimality", "newton_project")}


def _imports(tree: ast.Module):
    """(bound name, top-level package) of each top-level import; the package
    of a relative import is ""."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                package = alias.name.split(".")[0]
                yield alias.asname or package, package
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            package = "" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield alias.asname or alias.name, package


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        name for name, _package in _imports(tree)
        if name not in used and (path.stem, name) not in ALLOWED
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("module", EXACT_LAYER)
def test_exact_layer_imports_no_numpy(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert "numpy" not in {package for _name, package in _imports(tree)}


def test_check_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\nimport enum\nimport json\n"
        "from fractions import Fraction\nprint(json.dumps(1))\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["Fraction", "enum"]
