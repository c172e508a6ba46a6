"""Only `polynomial` and `calculus` read a polynomial's stored form.

`Polynomial` keeps its terms as Gaussian-integer pairs over one shared
denominator, in private fields with private constructors for them.  Every
other module goes through `items`, `coefficient`, `leading_term` and the
arithmetic, so a change of storage touches two modules.  This test parses
each module of `src/eigensphere` and fails on an attribute access to one of
those private names outside the two.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eigensphere"

PRIVATE = {"_pairs", "_den", "_raw", "_reduced", "_summed"}
OWNERS = {"polynomial", "calculus"}


def _private_reads(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.stem not in OWNERS),
    ids=lambda p: p.stem,
)
def test_module_leaves_storage_alone(path):
    assert _private_reads(path) == []


def test_owners_exist_and_use_the_storage():
    for owner in OWNERS:
        assert _private_reads(PACKAGE / f"{owner}.py"), owner


def test_check_catches_a_private_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def size(p):\n    return len(p.items())\n\n"
        "def den(p):\n    return p._den\n\n"
        "def pairs(p):\n    return getattr(p, 'x') or p._pairs.values()\n",
        encoding="utf-8",
    )
    assert _private_reads(module) == [(5, "_den"), (8, "_pairs")]
