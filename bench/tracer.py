"""Outside-in tracer: spans around the public functions of eigensphere.

Nothing in the package is instrumented.  ``Tracer.install`` replaces each
traced function with a wrapper, in its defining module or class and under
every name any ``eigensphere`` module imported it as (``from .calculus import
kappa`` binds a second name, and patching only the first would miss most
calls).  ``Tracer.uninstall`` puts every original back.

A span records its name, start, end and parent span.  Spans stay in memory,
in flat arrays, until the run ends; a fiber-sample run makes several
hundred thousand.  ``Polynomial.evaluate`` is called ~58k times per fiber-sample check,
so it is counted without a span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name).  A path with a dot is a method.
SPANS = (
    ("cli", "main", "cli"),
    ("parsing", "parse", "parsing.parse"),
    ("parsing", "render", "parsing.render"),
    ("polynomial", "Polynomial.__mul__", "polynomial.mul"),
    ("polynomial", "Polynomial.__rmul__", "polynomial.mul"),
    ("polynomial", "Polynomial.exact_divide", "polynomial.exact_divide"),
    ("calculus", "partial", "calculus.partial"),
    ("calculus", "gradient", "calculus.gradient"),
    ("calculus", "hessian", "calculus.hessian"),
    ("calculus", "laplacian", "calculus.laplacian"),
    ("calculus", "kappa", "calculus.kappa"),
    ("calculus", "hess_grad_grad", "calculus.hess_grad_grad"),
    ("eigen", "verify_eigenfunction", "eigen.verify_eigenfunction"),
    ("geometry", "VarietySpec.__init__", "geometry.VarietySpec.init"),
    ("geometry", "VarietySpec.values", "geometry.values"),
    ("geometry", "VarietySpec.jacobian", "geometry.jacobian"),
    ("geometry", "VarietySpec.hessian_at", "geometry.hessian_at"),
    ("geometry", "newton_project", "geometry.newton_project"),
    ("geometry", "sample", "geometry.sample"),
    ("geometry", "mean_curvature", "geometry.mean_curvature"),
    ("geometry", "export_cloud", "geometry.export_cloud"),
    ("minimality", "check_minimal_codim1", "minimality.check_minimal_codim1"),
    ("minimality", "check_minimal_codim2", "minimality.check_minimal_codim2"),
    ("search", "ResidualSystem.__init__", "search.ResidualSystem.init"),
    ("search", "ResidualSystem.residual", "search.residual"),
    ("search", "ResidualSystem.jacobian", "search.jacobian"),
    ("search", "search_eigen", "search.search_eigen"),
    ("search", "rationalize_and_verify", "search.rationalize_and_verify"),
)

# Counted without a span: (module, attribute path, counter name).
COUNTED = (("polynomial", "Polynomial.evaluate", "polynomial.evaluate.calls"),)


class Tracer:
    """Span recorder and call counter for one benchmark process."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        name_id = self._name_id(name)
        calls = f"{name}.calls"
        counts, clock, opened = self.counts, time.perf_counter, self._open
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent = self.span_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                before(args)
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(opened[-1] if opened else -1)
            span_end.append(0.0)
            opened.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                span_end[index] = clock()
                opened.pop()
            if after is not None:
                after(args)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_term_pairs(self, args) -> None:
        left, right = args[0], args[1]
        other = right.num_terms() if hasattr(right, "num_terms") else (1 if right else 0)
        self.counts["polynomial.mul.term_pairs"] += left.num_terms() * other

    def _record_kappa_forms(self, args) -> None:
        size = args[0].kappa_forms.nbytes
        self.counts["search.kappa_forms_bytes"] = max(self.counts["search.kappa_forms_bytes"], size)

    # ----- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind all its import aliases."""
        modules = {
            name: module for name, module in list(sys.modules.items())
            if name == "eigensphere" or name.startswith("eigensphere.")
        }
        hooks = {
            "polynomial.mul": {"before": self._count_term_pairs},
            "search.ResidualSystem.init": {"after": self._record_kappa_forms},
        }
        wrappers = {}
        for module_name, path, name in SPANS:
            wrappers[(module_name, path)] = functools.partial(
                self._spanned, name, **hooks.get(name, {}))
        for module_name, path, counter in COUNTED:
            wrappers[(module_name, path)] = functools.partial(self._counted, counter)

        for (module_name, path), make in wrappers.items():
            owner = modules[f"eigensphere.{module_name}"]
            attr = path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            wrapper = make(original)
            self._patch(owner, attr, wrapper)
            if "." not in path:
                for module in modules.values():
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- analysis -----------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def durations(self, first: int = 0, last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: total time, self time and span count in [first, last).

        Self time is a span's duration minus the time its child spans cover.
        Total time counts only spans with no same-named ancestor, so a name
        nested in itself is not counted twice.
        """
        last = self.span_count() if last is None else last
        start, end, parent, name_of = (
            self.span_start, self.span_end, self.span_parent, self.span_name)
        self_time = [end[i] - start[i] for i in range(first, last)]
        for i in range(first, last):
            if parent[i] >= first:
                self_time[parent[i] - first] -= end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(first, last):
            entry = out.setdefault(
                self.names[name_of[i]], {"total_s": 0.0, "self_s": 0.0, "spans": 0})
            entry["self_s"] += self_time[i - first]
            entry["spans"] += 1
            ancestor = parent[i]
            while ancestor >= first and name_of[ancestor] != name_of[i]:
                ancestor = parent[ancestor]
            if ancestor < first:
                entry["total_s"] += end[i] - start[i]
        return out

    def root_spans(self, first: int, last: int) -> List[int]:
        """Indices of the spans in [first, last) with no parent among them."""
        return [i for i in range(first, last) if self.span_parent[i] < first]
