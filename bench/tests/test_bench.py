"""Tests of the benchmark itself: generators, labels, tracer and output.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from eigensphere import calculus, cli, eigen, geometry, minimality, search  # noqa: E402
from eigensphere.minimality import check_minimal_codim1, check_minimal_codim2  # noqa: E402
from eigensphere.parsing import parse  # noqa: E402
from eigensphere.polynomial import Polynomial  # noqa: E402

NAMED_END_TO_END = (
    "setup_s", "checks_per_s", "check_p50_s", "check_tail_s", "peak_rss_mb", "failed_ratio",
)
NAMED_PER_LAYER = (
    "parsing.parse.self_s", "parsing.parse.calls",
    "polynomial.mul.self_s", "polynomial.mul.calls", "polynomial.mul.term_pairs",
    "polynomial.exact_divide.self_s", "polynomial.exact_divide.calls",
    "polynomial.evaluate.calls",
    "calculus.partial.self_s", "calculus.partial.calls", "calculus.laplacian.self_s",
    "calculus.kappa.self_s", "calculus.hess_grad_grad.self_s", "calculus.gradient.self_s",
    "calculus.hessian.self_s",
    "eigen.verify_eigenfunction.total_s", "eigen.verify_eigenfunction.calls",
    "geometry.VarietySpec.init_s", "geometry.values.self_s", "geometry.jacobian.self_s",
    "geometry.hessian_at.self_s", "geometry.newton_project.self_s",
    "geometry.newton_project.calls", "geometry.newton_project.converged_ratio",
    "geometry.mean_curvature.self_s", "geometry.export_cloud.self_s",
    "minimality.check_minimal_codim1.total_s", "minimality.check_minimal_codim2.total_s",
    "minimality.reliable_ratio",
    "search.ResidualSystem.init_s", "search.residual.self_s", "search.residual.calls",
    "search.jacobian.self_s", "search.jacobian.calls", "search.rationalize_and_verify.self_s",
    "search.exact_recovery_ratio", "search.kappa_forms_bytes",
    "cli.self_s", "setup.numpy_import_s", "setup.eigensphere_import_s", "trace.overhead_ratio",
)


def cycles(workload, seed, count, out_dir="/out"):
    return [workloads.make_cycle(workload, seed, c, out_dir) for c in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = [[c.argv for c in cycle] for cycle in cycles(workload, 7, 3)]
    again = [[c.argv for c in cycle] for cycle in cycles(workload, 7, 3)]
    other = [[c.argv for c in cycle] for cycle in cycles(workload, 8, 3)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_check_repeats_an_input(workload):
    argvs = [c.argv for cycle in cycles(workload, 3, 40) for c in cycle]
    assert len(set(argvs)) == len(argvs)
    if workload == "exact-verify":
        polys = [c.argv[c.argv.index("--poly") + 1] for cycle in cycles(workload, 3, 40)
                 for c in cycle]
        assert len(set(polys)) == len(polys)


def test_every_cycle_has_the_same_slots():
    for workload in workloads.WORKLOADS:
        slots = {tuple(c.slot for c in cycle) for cycle in cycles(workload, 11, 5)}
        assert len(slots) == 1


def test_exact_verify_is_about_one_third_negative():
    cycle = workloads.make_cycle("exact-verify", 1, 0, "/out")
    negatives = [c for c in cycle if c.label["exit"] == 1]
    assert 0.25 <= len(negatives) / len(cycle) <= 0.4
    assert {c.label["condition"] for c in negatives} == {
        "homogeneity", "laplacian_P", "laplacian_P2"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 20261017])
def test_seed_code_reproduces_every_label(workload, seed, tmp_path):
    outcomes = [run.run_check(cli.main, check)
                for check in workloads.make_cycle(workload, seed, 0, str(tmp_path))]
    run.verify_witnesses(outcomes)
    assert [(o.check.slot, o.error) for o in outcomes if o.error] == []


@pytest.mark.parametrize("poly", workloads.NONISOTROPIC_ZERO_POOL)
def test_pinned_nonisotropic_fibers_are_far_from_minimal(poly):
    verdict = check_minimal_codim2(parse(poly, 6), 5, rng_seed=0)
    assert verdict.status == "NotMinimal"
    assert verdict.max_residual >= 900 * minimality.DEFAULT_REJECT


@pytest.mark.parametrize("poly", workloads.CUBIC_LINE_POOL)
def test_pinned_cubic_lines_are_far_from_minimal(poly):
    for line in workloads.CUBIC_LINES:
        a, b = (int(v) for v in line.split(","))
        verdict = check_minimal_codim1(parse(poly, 6), a, b, 5, rng_seed=0)
        assert verdict.status == "NotMinimal", line
        assert verdict.max_residual >= 900 * minimality.DEFAULT_REJECT, line


def test_mismatch_reports_a_wrong_verdict(tmp_path):
    check = workloads.make_cycle("exact-verify", 1, 0, str(tmp_path))[0]
    outcome = run.run_check(cli.main, check)
    assert outcome.error is None
    assert workloads.mismatch(check, 1, outcome.report) == "exit code 1, expected 0"
    wrong = dict(outcome.report, verdict=dict(outcome.report["verdict"], mu=-1))
    assert workloads.mismatch(check, 0, wrong).startswith("lambda, mu")


def test_raising_check_counts_as_failed():
    def broken_main(argv):
        raise RuntimeError("boom")

    check = workloads.make_cycle("coeff-search", 1, 0, "/out")[0]
    outcome = run.run_check(broken_main, check)
    assert outcome.error == "raised RuntimeError: boom"


def test_tail_keeps_ten_checks_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_tracer_rebinds_aliases_and_restores_them():
    aliases = [
        (eigen, "kappa"), (minimality, "hess_grad_grad"), (minimality, "newton_project"),
        (geometry, "gradient"), (cli, "verify_eigenfunction"), (search, "verify_eigenfunction"),
        (cli, "main"),
    ]
    originals = [getattr(module, name) for module, name in aliases]
    methods = [Polynomial.__dict__[name] for name in ("__mul__", "__rmul__", "evaluate")]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(aliases, originals):
            assert getattr(module, name) is not original, name
            assert getattr(module, name).__wrapped__ is original, name
        assert calculus.kappa is eigen.kappa
        assert all(Polynomial.__dict__[name] is not m
                   for name, m in zip(("__mul__", "__rmul__", "evaluate"), methods))
    finally:
        tracer.uninstall()
    assert [getattr(module, name) for module, name in aliases] == originals
    assert [Polynomial.__dict__[name] for name in ("__mul__", "__rmul__", "evaluate")] == methods


def test_spans_nest_and_self_times_add_up():
    poly = parse("z1^3*conj(z2)^2", 4)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eigen-check", "--vars", "4", "--sphere-dim", "3",
                      "--poly", "z1^3*conj(z2)^2", "--json"])
        2 * poly
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.span_name]
    roots = tracer.root_spans(0, tracer.span_count())
    assert [names[i] for i in roots] == ["cli", "polynomial.mul"]
    kappa = names.index("calculus.kappa")
    assert names[tracer.span_parent[kappa]] == "eigen.verify_eigenfunction"
    spans = tracer.durations()
    total_self = sum(entry["self_s"] for entry in spans.values())
    total_roots = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    assert total_self == pytest.approx(total_roots, rel=1e-9)
    assert tracer.counts["polynomial.mul.term_pairs"] >= poly.num_terms() ** 2
    assert spans["cli"]["spans"] == 1


def test_coverage_check_catches_an_unpatched_alias(tmp_path):
    check = next(c for c in workloads.make_cycle("coeff-search", 1, 0, str(tmp_path))
                 if c.slot == "search-5-3")
    tracer = Tracer()
    tracer.install()
    try:
        assert run.run_traced_check(tracer, cli.main, check).error is None
        cli.search_eigen = cli.search_eigen.__wrapped__  # as if the alias were missed
        outcome = run.run_traced_check(tracer, cli.main, check)
    finally:
        tracer.uninstall()
    assert outcome.error is not None and "uncovered" in outcome.error
    assert cli.search_eigen is search.search_eigen


def test_traced_cycles_depend_on_the_arguments_only():
    assert run.traced_cycles("exact-verify", 30) == round(15 / run.CYCLE_S["exact-verify"])
    assert all(run.traced_cycles(w, 0.01) == 1 for w in workloads.WORKLOADS)


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def benchmark_output(workload, trace):
    """(report, result) of a short run, which must have passed."""
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return json.loads("\n".join(lines[:-1])), result


def test_end_to_end_output_names_every_metric():
    report, result = benchmark_output("coeff-search", "0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {entry["name"] for entry in spec["end_to_end"]}
    assert set(NAMED_END_TO_END) <= set(report["metrics"])
    assert report["environment"]["nproc"] >= 1 and report["environment"]["seed"] == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_output_names_every_metric(workload):
    report, result = benchmark_output(workload, "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {entry["name"] for entry in spec["per_layer"]}
    # BENCHMARK.json lists only per-layer metrics that are nonzero on every workload
    assert all(entry["value"] for entry in result["metrics"].values())
    assert set(NAMED_PER_LAYER) <= set(report["metrics"])


def test_traced_counts_repeat_exactly():
    first, _ = benchmark_output("exact-verify", "1")
    again, _ = benchmark_output("exact-verify", "1")
    counts = [name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "B")]
    assert "polynomial.mul.term_pairs" in counts and "polynomial.mul.calls" in counts
    assert [first["metrics"][n] for n in counts] == [again["metrics"][n] for n in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = run_benchmark("--workload", "exact-verify", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
