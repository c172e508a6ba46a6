"""Every module-level import of the package is used in its module.

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

# (module, name): the benchmark's tracer alias test patches and restores this name
ALLOWED = {("minimality", "newton_project")}


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        name for name in _imported_names(tree)
        if name not in used and (path.stem, name) not in ALLOWED
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []


def test_check_catches_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\nimport enum\nimport json\n"
        "from fractions import Fraction\nprint(json.dumps(1))\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == ["Fraction", "enum"]
