"""Every function the benchmark tracer wraps exists in eigensphere.

bench/tracer.py names its targets as (module, attribute path) strings and
patches them in place; a renamed or deleted target would only fail the
benchmark's own tests, so the names are resolved here as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _tracer_module()
TARGETS = [(module, path) for module, path, _name in _tracer.SPANS + _tracer.COUNTED]


@pytest.mark.parametrize("module_name, path", TARGETS,
                         ids=[f"{module}.{path}" for module, path in TARGETS])
def test_target_resolves(module_name, path):
    owner = importlib.import_module(f"eigensphere.{module_name}")
    *classes, attr = path.split(".")
    for class_name in classes:
        owner = vars(owner)[class_name]
    # the tracer reads the attribute from the owner's own namespace
    assert callable(vars(owner).get(attr)), f"eigensphere.{module_name}.{path}"
