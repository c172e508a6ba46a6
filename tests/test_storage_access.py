"""Only `polynomial` reads a polynomial's stored form.

`Polynomial` keeps its terms as Gaussian-integer pairs over one shared
denominator, keyed by packed exponent vectors, in private fields with
private constructors and private key helpers for them.  Every pass over
that storage, `partial` and `laplacian` included, lives in `polynomial`,
and every other module goes through `items`, `coefficient`, `leading_term`
and the arithmetic, so a change of storage touches one module.  This test
parses each module of `src/eigensphere` and fails on an attribute access to
one of those private names, or an import of one, outside `polynomial`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eigensphere"

PRIVATE = {
    "_pairs", "_den", "_raw", "_reduced", "_summed",
    "_shift", "_unit", "_pack", "_unpack", "_check_degree", "_scalar",
}
OWNERS = {"polynomial"}


def _private_reads(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]
    reads += [
        (node.lineno, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in PRIVATE
    ]
    return sorted(reads)


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
        "def pairs(p):\n    return getattr(p, 'x') or p._pairs.values()\n\n"
        "from eigensphere.polynomial import MAX_DEGREE, _unpack as exponents\n",
        encoding="utf-8",
    )
    assert _private_reads(module) == [(5, "_den"), (8, "_pairs"), (10, "_unpack")]


def test_product_rules_have_one_owner():
    # the degree limit is checked where polynomials are built from exponent
    # tuples and in the one sum of products; nowhere else
    tree = ast.parse((PACKAGE / "polynomial.py").read_text(encoding="utf-8"))
    callers = {
        function.name for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_degree"
    }
    assert callers == {"__init__", "_dot"}
