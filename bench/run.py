"""End-to-end and per-layer benchmark for eigensphere.

Usage, from the repository root:

    python3 bench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

One process runs a closed loop of single-threaded checks: each check is one
call of ``eigensphere.cli.main(argv + ["--json"])`` with its output
captured, and its verdict is compared with the label the generator built it
with (see ``workloads.py``).  The loop runs whole cycles of checks until
``--seconds`` have passed.  The program only ever sees the generated argv.

Check times are reported in reference seconds (see ``calibration.py``):
each call's wall time is scaled by a fixed kernel timed right before and
after it, because the host's speed drifts; set-up time is scaled the same
way by a fresh-interpreter probe.  The raw wall-clock figures are in the
report too; the per-layer import times are wall time.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs a number of cycles fixed by ``--workload`` and
``--seconds`` twice, untraced and then under the outside-in tracer of
``tracer.py``, checks that both give identical verdicts and that library
spans cover each check's work, and reports per-layer totals.

The second-to-last stdout line ends a JSON report with every metric the
benchmark computes and the run's environment; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# numpy reads these when it loads; the CLI is timed single-threaded.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibration import SpeedProbe
from workloads import WORKLOADS, Check, make_cycle, mismatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_TARGET = "import eigensphere.cli"
SETUP_PROBE = "import numpy, argparse, csv, dataclasses, fractions, json"
SETUP_PROBE_REFERENCE = 0.100  # the probe's wall time on the build host while it ran fast
IMPORTTIME_REPEATS = 3
WARMUP_CYCLE = -1
# A traced check fails when the library spans under its ``cli`` span leave
# more than this share of its wall time uncovered, or more than CLI_OWN_S if
# that is larger: argparse, report assembly and JSON emission, which take
# under 5 ms per check on the build host, with margin.
COVERAGE_TOLERANCE = 0.10
CLI_OWN_S = 0.010
# Wall seconds of one untraced cycle at the seed code on the build host,
# probe timings included, roughly.  ``--trace 1`` runs seconds / 2 worth of
# cycles by this table, untraced and then traced, so the number of traced
# cycles, and with it every per-layer total, depends on the arguments alone
# and not on the host's speed.
CYCLE_S = {"exact-verify": 2.1, "fiber-sample": 2.2, "coeff-search": 1.15}


@dataclass
class Outcome:
    check: Check
    wall: float  # wall-clock seconds of the cli.main call
    code: Optional[int]
    report: Optional[Dict]
    error: Optional[str]  # why the check failed; None when it matched its label
    seconds: float = 0.0  # the wall time in reference seconds
    spans: Tuple[int, int] = (0, 0)  # its span range when traced


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import_seconds(repeats: int) -> Tuple[List[float], List[float]]:
    """(reference, wall) seconds of fresh interpreters running ``import eigensphere.cli``.

    Process start-up did not follow the in-process kernel on the host, but it
    did follow other fresh interpreters: each import is scaled by a fresh
    interpreter importing numpy and the standard modules the package uses.
    """
    env = child_env()

    def fresh(code: str) -> None:
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)

    fresh(SETUP_TARGET)  # untimed first run: it may write the bytecode caches
    probe = SpeedProbe(lambda: fresh(SETUP_PROBE), SETUP_PROBE_REFERENCE)
    scaled, walls = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        fresh(SETUP_TARGET)
        walls.append(time.perf_counter() - start)
        scaled.append(probe.scale(walls[-1]))
    return scaled, walls


def import_breakdown() -> Tuple[float, float]:
    """(numpy, eigensphere without numpy) cumulative import wall seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import eigensphere.cli"],
        env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative["eigensphere.cli"] - numpy_s


def run_check(main, check: Check) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*check.argv, "--json"])
    except Exception as exc:  # a check that raises counts as failed, not skipped
        return Outcome(check, time.perf_counter() - start, None, None,
                       f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue()) if out.getvalue().strip() else None
        error = mismatch(check, code, report)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        report, error = None, f"unreadable result: {type(exc).__name__}: {exc}"
    if error and err.getvalue():
        error += f" (stderr: {err.getvalue().strip()[:200]})"
    return Outcome(check, wall, code, report, error)


def closed_loop(run_one, probe: SpeedProbe, workload: str, seed: int, out_dir: str,
                seconds: float = 0.0, cycles: Optional[int] = None):
    """Run whole cycles until `seconds` pass, or exactly `cycles` cycles.

    Returns (outcomes, loop wall time, cycles run).
    """
    outcomes: List[Outcome] = []
    probe.mark()
    start = time.perf_counter()
    cycle = 0
    while (time.perf_counter() - start < seconds) if cycles is None else (cycle < cycles):
        for check in make_cycle(workload, seed, cycle, out_dir):
            outcome = run_one(check)
            outcome.seconds = probe.scale(outcome.wall)
            outcomes.append(outcome)
        cycle += 1
    return outcomes, time.perf_counter() - start, cycle


def verify_witnesses(outcomes: List[Outcome]) -> None:
    """Re-verify every exact search witness with the exact eigen-check path."""
    from eigensphere.eigen import verify_eigenfunction
    from eigensphere.parsing import parse

    for outcome in outcomes:
        if outcome.error or outcome.check.argv[0] != "search":
            continue
        nvars = outcome.report["inputs"]["vars"]
        for result in outcome.report["verdict"]["results"]:
            if result["exact"] is None:
                continue
            if not verify_eigenfunction(parse(result["exact"], nvars), max(nvars - 1, 2)).is_eigen:
                outcome.error = f"exact witness {result['exact']!r} is not an eigenfunction"


def tail(times: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, checks beyond) at the highest percentile with >= 10 beyond."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def rate(outcomes: List[Outcome], field: str = "seconds") -> float:
    """Checks that matched their label per second of check time."""
    return sum(o.error is None for o in outcomes) / sum(getattr(o, field) for o in outcomes)


def end_to_end(outcomes: List[Outcome], setup: Tuple[List[float], List[float]]) -> Tuple[Dict, Dict]:
    times = [o.seconds for o in outcomes]
    walls = [o.wall for o in outcomes]
    failed = sum(o.error is not None for o in outcomes)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup[0]), "s"),
        "checks_per_s": (rate(outcomes), "1/s"),
        "check_p50_s": (statistics.median(times), "s"),
        "check_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (failed / len(outcomes), "ratio"),
    }
    details = {
        "checks": len(outcomes), "check_tail_percentile": tail_pct, "checks_beyond_tail": beyond,
        "setup_samples_s": setup[0],
        "wall_clock": {
            "setup_s": statistics.median(setup[1]), "setup_samples_s": setup[1],
            "checks_per_s": rate(outcomes, "wall"), "check_p50_s": statistics.median(walls),
            "check_tail_s": tail(walls)[0],
        },
    }
    return metrics, details


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def per_layer(tracer, outcomes: List[Outcome], imports: Tuple[float, float],
              overhead: float) -> Dict:
    """Per-layer totals over the traced checks, span times in reference seconds."""
    spans: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    reliable = attempts = exact = 0
    for outcome in outcomes:
        factor = outcome.seconds / outcome.wall
        for name, entry in tracer.durations(*outcome.spans).items():
            spans[name]["self_s"] += entry["self_s"] * factor
            spans[name]["total_s"] += entry["total_s"] * factor
        verdict = (outcome.report or {}).get("verdict") or {}
        sampling = verdict.get("diagnostics", {}).get("sampling")
        if sampling and "unreliable" in sampling:  # codimension 1: reliable samples
            reliable += sampling["converged"] - sampling["unreliable"]
            attempts += sampling["attempts"]
        elif sampling:  # codimension 2: kept samples
            reliable += sampling["converged"]
            attempts += sampling["converged"] + sampling["no_convergence"] + sampling["singular"]
        exact += sum(r["exact"] is not None for r in verdict.get("results", []))
    counts = tracer.counts

    def self_s(name):
        return (spans[name]["self_s"], "s")

    def total_s(name):
        return (spans[name]["total_s"], "s")

    def calls(name):
        return (counts[f"{name}.calls"], "count")

    newton = "geometry.newton_project"
    return {
        "parsing.parse.self_s": self_s("parsing.parse"),
        "parsing.parse.calls": calls("parsing.parse"),
        "polynomial.mul.self_s": self_s("polynomial.mul"),
        "polynomial.mul.calls": calls("polynomial.mul"),
        "polynomial.mul.term_pairs": (counts["polynomial.mul.term_pairs"], "count"),
        "polynomial.exact_divide.self_s": self_s("polynomial.exact_divide"),
        "polynomial.exact_divide.calls": calls("polynomial.exact_divide"),
        "polynomial.evaluate.calls": (counts["polynomial.evaluate.calls"], "count"),
        "calculus.partial.self_s": self_s("calculus.partial"),
        "calculus.partial.calls": calls("calculus.partial"),
        "calculus.laplacian.self_s": self_s("calculus.laplacian"),
        "calculus.kappa.self_s": self_s("calculus.kappa"),
        "calculus.hess_grad_grad.self_s": self_s("calculus.hess_grad_grad"),
        "calculus.gradient.self_s": self_s("calculus.gradient"),
        "calculus.hessian.self_s": self_s("calculus.hessian"),
        "eigen.verify_eigenfunction.total_s": total_s("eigen.verify_eigenfunction"),
        "eigen.verify_eigenfunction.calls": calls("eigen.verify_eigenfunction"),
        "geometry.VarietySpec.init_s": total_s("geometry.VarietySpec.init"),
        "geometry.values.self_s": self_s("geometry.values"),
        "geometry.jacobian.self_s": self_s("geometry.jacobian"),
        "geometry.hessian_at.self_s": self_s("geometry.hessian_at"),
        "geometry.newton_project.self_s": self_s(newton),
        "geometry.newton_project.calls": calls(newton),
        "geometry.newton_project.converged_ratio": (
            _ratio(counts[f"{newton}.calls"] - counts[f"{newton}.raised"],
                   counts[f"{newton}.calls"]), "ratio"),
        "geometry.mean_curvature.self_s": self_s("geometry.mean_curvature"),
        "geometry.export_cloud.self_s": self_s("geometry.export_cloud"),
        "minimality.check_minimal_codim1.total_s": total_s("minimality.check_minimal_codim1"),
        "minimality.check_minimal_codim2.total_s": total_s("minimality.check_minimal_codim2"),
        "minimality.reliable_ratio": (_ratio(reliable, attempts), "ratio"),
        "search.ResidualSystem.init_s": total_s("search.ResidualSystem.init"),
        "search.residual.self_s": self_s("search.residual"),
        "search.residual.calls": calls("search.residual"),
        "search.jacobian.self_s": self_s("search.jacobian"),
        "search.jacobian.calls": calls("search.jacobian"),
        "search.rationalize_and_verify.self_s": self_s("search.rationalize_and_verify"),
        "search.exact_recovery_ratio": (
            _ratio(exact, counts["search.rationalize_and_verify.calls"]), "ratio"),
        "search.kappa_forms_bytes": (counts["search.kappa_forms_bytes"], "B"),
        "cli.self_s": self_s("cli"),
        "setup.numpy_import_s": (imports[0], "s"),
        "setup.eigensphere_import_s": (imports[1], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def comparable(outcome: Outcome):
    """The part of a check's result that tracing must not change."""
    report = dict(outcome.report or {})
    report.pop("timing_seconds", None)
    return outcome.code, report


def traced_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / 2 / CYCLE_S[workload]))


def uncovered_seconds(tracer, outcome: Outcome) -> float:
    """Wall time of a traced check that no library span under its ``cli`` span covers."""
    first, last = outcome.spans
    roots = set(tracer.root_spans(first, last))
    library = sum(tracer.span_end[i] - tracer.span_start[i]
                  for i in range(first, last) if tracer.span_parent[i] in roots)
    return outcome.wall - library


def run_traced_check(tracer, main, check: Check) -> Outcome:
    """One check under an installed tracer, failed if its spans miss its work."""
    first = tracer.span_count()
    outcome = run_check(main, check)
    outcome.spans = (first, tracer.span_count())
    uncovered = uncovered_seconds(tracer, outcome)
    if outcome.error is None and uncovered > max(COVERAGE_TOLERANCE * outcome.wall, CLI_OWN_S):
        outcome.error = (f"library spans leave {uncovered:.6f} s of a "
                         f"{outcome.wall:.6f} s check uncovered")
    return outcome


def traced_run(cli_module, probe: SpeedProbe, workload: str, seed: int, seconds: float,
               out_dir: str):
    """A fixed number of cycles untraced, then the same cycles under the tracer."""
    from tracer import Tracer

    cycles = traced_cycles(workload, seconds)
    plain, _, _ = closed_loop(
        lambda check: run_check(cli_module.main, check), probe, workload, seed, out_dir,
        cycles=cycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = closed_loop(
            lambda check: run_traced_check(tracer, cli_module.main, check),  # the patched main
            probe, workload, seed, out_dir, cycles=cycles)
    finally:
        tracer.uninstall()
    for before, after in zip(plain, traced):
        if after.error is None and comparable(before) != comparable(after):
            after.error = "traced verdict differs from the untraced one"
    overhead = rate(plain) / rate(traced) - 1
    details = {"cycles": cycles, "checks": len(traced), "spans": tracer.span_count(),
               "untraced_checks_per_s": rate(plain), "traced_checks_per_s": rate(traced)}
    return plain, traced, tracer, overhead, details


def selected(metrics: Dict, kind: str) -> Dict:
    """The metrics BENCHMARK.json names for this mode, with its units."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)[kind]
    out = {}
    for entry in spec:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"] or value is None:
            raise RuntimeError(f"metric {entry['name']} is {value!r} {unit}, "
                               f"BENCHMARK.json expects a number in {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigensphere" / "cli.py").is_file():
        print(f"error: no eigensphere sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from eigensphere import cli

    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }
    probe = SpeedProbe()
    out_dir = tempfile.mkdtemp(prefix=".run-", dir=BENCH_DIR)
    try:
        if args.trace:
            imports = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
            imports = (statistics.median(i[0] for i in imports),
                       statistics.median(i[1] for i in imports))
        else:
            setup = fresh_import_seconds(SETUP_REPEATS)
        warmup = make_cycle(args.workload, args.seed, WARMUP_CYCLE, out_dir)[0]
        run_check(cli.main, warmup)

        if args.trace:
            plain, traced, tracer, overhead, details = traced_run(
                cli, probe, args.workload, args.seed, args.seconds, out_dir)
            outcomes = plain + traced
            verify_witnesses(outcomes)
            metrics = per_layer(tracer, traced, imports, overhead)
            kind = "per_layer"
        else:
            outcomes, loop_s, cycles = closed_loop(
                lambda check: run_check(cli.main, check), probe, args.workload, args.seed,
                out_dir, seconds=args.seconds)
            verify_witnesses(outcomes)
            metrics, details = end_to_end(outcomes, setup)
            details.update(cycles=cycles, loop_s=loop_s)
            kind = "end_to_end"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [o for o in outcomes if o.error is not None]
    report = {
        "environment": environment,
        "details": details,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failures": [{"slot": o.check.slot, "argv": list(o.check.argv), "error": o.error}
                     for o in failures[:20]],
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": selected(metrics, kind),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
