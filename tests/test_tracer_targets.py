"""Every function the benchmark tracer wraps exists in eigensphere.

bench/tracer.py names its targets as (module, attribute path) strings and
patches them in place; a renamed or deleted target would only fail the
benchmark's own tests, so the names are resolved here as well.  A target
that resolves but that nothing calls reads 0 in a traced run, so the
search's Levenberg-Marquardt Jacobian is checked to be the traced one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from eigensphere import search

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


def test_search_jacobian_is_the_one_levenberg_marquardt_calls(monkeypatch):
    calls = []
    jacobian = search.ResidualSystem.jacobian

    def counted(self, p, out=None):
        calls.append(1)
        return jacobian(self, p, out=out)
    monkeypatch.setattr(search.ResidualSystem, "jacobian", counted)
    search.search_eigen(4, 1, 2, rng_seed=1)
    assert len(calls) > 0
