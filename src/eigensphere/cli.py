"""Command-line interface.

Every verifier and exporter is exposed as a subcommand producing either
human-readable lines or, with --json, a single self-contained JSON report on
standard output (diagnostics go to standard error).  Exit codes separate the
mathematical outcome from operational problems:

    0   positive verdict (eigen / minimal / export succeeded)
    1   negative verdict (not eigen / not minimal)
    2   inconclusive or partial (undecided ladder, partial sample yield)
    3+  operational error (bad input, precondition failure, empty fiber)

The sphere dimension is always explicit: passing --vars N and --sphere-dim n
with N != n+1 is rejected rather than silently fixed, because every formula
downstream depends on that relation.  --vars is capped at MAX_VARS for every
subcommand that takes it, before any polynomial is built; the library API
has no such cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, geometry
from .eigen import verify_eigenfunction
from .errors import BudgetExceeded, EigenSphereError, InsufficientYield
from .geometry import VarietySpec, add_stereo, export_cloud, sample
from .minimality import (
    DEFAULT_REJECT,
    DEFAULT_SAMPLES,
    DEFAULT_TOL,
    NOT_MINIMAL,
    check_minimal_codim1,
    check_minimal_codim2,
    lawson_surface,
)
from .parsing import MAX_COEFF_DIGITS, parse
from .search import search_eigen
from .selftest import run_selftest

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

# the numeric layer grows as N^2 in memory and faster in time: codimension 2
# compiles an N x N table of second partials per constraint and
# mean_curvature evaluates those N x N Hessians at every point.
# `minimal-zero --poly z1 --samples 5` took 1.45-1.99 s and 145-147 MB at
# 1,000 variables (0.62-0.90 s in mean_curvature, 0.57-0.79 s of it building
# the Hessian table, and 0.78-1.06 s building the spec) and 0.08-0.09 s and
# 45 MB at 256 (2-CPU x86_64 Xeon)
MAX_VARS = 256


def _emit(args, verdict: Dict, started: float, human_lines: List[str]) -> None:
    if args.json:
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "json")}
        report = {
            "command": args.command,
            "inputs": inputs,
            "verdict": verdict,
            "timing_seconds": round(time.perf_counter() - started, 6),
            "version": __version__,
            "rng_seed": inputs.get("seed"),
        }
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


# one entry of --line: the polynomial grammar's rational literal with a sign
_LINE_ENTRY_RE = re.compile(r"[+-]?\d+(/\d+)?")


def _parse_line(text: str) -> Tuple[Fraction, Fraction]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(_LINE_ENTRY_RE.fullmatch(part) for part in parts):
        raise ValueError(
            f"--line expects 'a,b' with each entry of the form [+-]digits[/digits], got {text!r}")
    if max(len(digits) for digits in re.findall(r"\d+", text)) > MAX_COEFF_DIGITS:
        raise BudgetExceeded(f"--line has an entry over the limit of {MAX_COEFF_DIGITS} digits")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except ZeroDivisionError:
        raise ValueError(f"--line {text!r} has a zero denominator") from None


def _check_dims(nvars: int, sphere_dim: int) -> None:
    if nvars != sphere_dim + 1:
        raise ValueError(
            f"--vars {nvars} and --sphere-dim {sphere_dim} disagree: need vars = sphere-dim + 1"
        )


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (verdict, human lines, exit code)


def _cmd_eigen_check(args):
    _check_dims(args.vars, args.sphere_dim)
    report = verify_eigenfunction(parse(args.poly, args.vars), args.sphere_dim)
    if report.is_eigen:
        lines = [
            f"eigenfunction: yes (degree k={report.k})",
            f"lambda = {report.lam}   mu = {report.mu}",
        ]
    else:
        lines = [
            "eigenfunction: no",
            f"failed condition: {report.failure.condition}",
            f"residual: {report.failure.residual}",
        ]
    return report.to_json(), lines, EXIT_POSITIVE if report.is_eigen else EXIT_NEGATIVE


def _cmd_minimal(args):
    """minimal-line (codimension 1) and minimal-zero (codimension 2)."""
    _check_dims(args.vars, args.sphere_dim)
    line = _parse_line(args.line) if args.command == "minimal-line" else None
    F = parse(args.poly, args.vars)
    common = dict(samples=args.samples, tol=args.tol, reject=args.reject, rng_seed=args.seed)
    if line is not None:
        a, b = line
        verdict = check_minimal_codim1(
            F, a, b, args.sphere_dim, cross_check=args.cross_check, **common)
        quantity = "max |criterion|"
    else:
        verdict = check_minimal_codim2(F, args.sphere_dim, **common)
        quantity = "max sphere-intrinsic component"
    lines = [f"status: {verdict.status}"]
    if verdict.certificate is not None:
        lines.append(f"certificate: {verdict.certificate}")
    if verdict.max_residual is not None:
        lines.append(f"{quantity} over {verdict.samples} samples: {verdict.max_residual:.3e}")
    flat = verdict.diagnostics.get("flat_section_max_residual")
    if flat is not None:
        lines.append(f"flat-section max residual: {flat:.3e}")
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    code = (EXIT_POSITIVE if verdict.is_minimal()
            else EXIT_NEGATIVE if verdict.status == NOT_MINIMAL else EXIT_INCONCLUSIVE)
    return verdict.to_json(), lines, code


def _cmd_sample(args):
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.stereo is not None and not 1 <= args.stereo <= args.vars:
        raise ValueError(f"--stereo {args.stereo} is outside 1..{args.vars}")
    constraints = []
    for expr in args.constraints:
        poly = parse(expr, args.vars)
        if not poly.is_real():
            raise ValueError(
                f"constraint {expr!r} has complex coefficients; pass its real and "
                f"imaginary parts separately"
            )
        constraints.append(poly)
    spec = VarietySpec(args.vars, constraints)
    partial = False
    try:
        cloud = sample(spec, args.count, args.seed, tol=args.tol)
    except InsufficientYield as err:
        cloud = err.cloud
        partial = True
        print(f"warning: {err}", file=sys.stderr)
    if args.stereo is not None:
        cloud = add_stereo(cloud, args.stereo)
    export_cloud(cloud, args.out)
    verdict = {
        "points_written": len(cloud),
        "requested": args.count,
        "outcomes": cloud.metadata.get("outcomes", {}),
        "out": args.out,
        "partial": partial,
    }
    lines = [f"wrote {len(cloud)} of {args.count} requested points to {args.out}"]
    return verdict, lines, EXIT_INCONCLUSIVE if partial else EXIT_POSITIVE


def _cmd_lawson(args):
    surface = lawson_surface(args.n, args.m)
    return surface.to_json(), [surface.type.value], EXIT_POSITIVE


def _cmd_search(args):
    results = search_eigen(
        args.vars, args.degree, args.attempts,
        rng_seed=args.seed, denominator_bound=args.denominator_bound,
    )
    lines = []
    for r in results[: min(5, len(results))]:
        exact = f"   exact: {r.to_json()['exact']}" if r.exact is not None else ""
        lines.append(f"attempt {r.attempt}: residual {r.residual:.3e}{exact}")
    return {"results": [r.to_json() for r in results]}, lines or ["no candidates"], EXIT_POSITIVE


def _cmd_selftest(args):
    results = run_selftest()
    all_ok = all(r.passed for r in results)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results
    ]
    verdict = {
        "passed": all_ok,
        "suites": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    return verdict, lines, EXIT_POSITIVE if all_ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing


# Built once per process: parse_args does not change the parser, and a new
# one per call costs about 2 ms and leaves reference cycles for the garbage
# collector to find.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigensphere",
        description="Exact eigenfunction verification and minimal-submanifold checks on spheres",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--vars", type=int, required=True, help="number of ambient variables N")
        p.add_argument("--sphere-dim", type=int, required=True,
                       help="sphere dimension n (must satisfy N = n+1)")
        p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")

    p = sub.add_parser("eigen-check", help="verify the exact eigenfunction conditions")
    add_common(p)
    p.add_argument("--poly", required=True, help="polynomial expression")
    p.set_defaults(func=_cmd_eigen_check)

    p = sub.add_parser("minimal-line", help="minimality of a line preimage (codimension 1)")
    add_common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--line", required=True,
                   help="line direction a,b, each [+-]digits[/digits], e.g. 1,0 or -1/2,3")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--reject", type=float, default=DEFAULT_REJECT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cross-check", action="store_true",
                   help="run the numeric ladder even when an exact certificate exists")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("minimal-zero", help="minimality of the zero fiber (codimension 2)")
    add_common(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--reject", type=float, default=DEFAULT_REJECT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("sample", help="sample a constraint variety on the sphere, export CSV")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--constraint", action="append", dest="constraints", default=[],
                   help="real polynomial constraint (repeatable); sphere always included")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=geometry.DEFAULT_TOL)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--stereo", type=int, default=None,
                   help="add stereographic coordinates from this pole index (1-based)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("lawson", help="topological type of the surface Im(z1^n conj(z2)^m)=0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lawson)

    p = sub.add_parser("search", help="numeric search for eigenfunction candidates")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--attempts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator-bound", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("selftest", help="run the exact identity suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _join_line_values(argv: Sequence[str]) -> List[str]:
    """Spell `--line -1,2` as `--line=-1,2`.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number for an option, so it would refuse `--line -1,2`.
    """
    args = list(argv)
    for i in range(len(args) - 1, 0, -1):
        value = args[i]
        if args[i - 1] == "--line" and value[:1] == "-" and value[1:2] in tuple("0123456789."):
            args[i - 1:i + 1] = [f"--line={value}"]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_line_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as err:
        # argparse exits 2 on usage errors; fold into the operational-error band
        code = err.code if isinstance(err.code, int) else 0
        return EXIT_ERROR if code != 0 else 0
    started = time.perf_counter()
    try:
        if getattr(args, "vars", 0) > MAX_VARS:
            raise BudgetExceeded(f"--vars {args.vars} is over the limit of {MAX_VARS} variables")
        verdict, lines, code = args.func(args)
    except (EigenSphereError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if isinstance(err, InsufficientYield) else EXIT_ERROR
    _emit(args, verdict, started, lines)
    return code


def entrypoint() -> None:
    sys.exit(main())
