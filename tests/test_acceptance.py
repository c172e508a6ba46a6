"""End-to-end acceptance suite.

Each test checks one headline capability at its stated tolerance and records
a single PASS/FAIL line (echoed after the run summary).  Tolerances here are
contractual: do not loosen them to make a failure go away.
"""

import json
import math
import time

import numpy as np

from eigensphere.calculus import (
    hess_grad_grad,
    identity_one_check,
    laplacian,
    r2_coprime,
)
from eigensphere.cli import main
from eigensphere.eigen import verify_eigenfunction
from eigensphere.geometry import VarietySpec, mean_curvature, sample
from eigensphere.minimality import classify_lawson, flat_section_residuals, LawsonType
from eigensphere.parsing import parse
from eigensphere.polynomial import Polynomial, r_squared
from eigensphere.search import search_eigen

from conftest import ACCEPTANCE_LINES, random_poly
from oracles import laplace_beltrami_fd, tangential_square_fd, unit_sphere_points


def record(num, name, ok, detail):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def cli_json(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, json.loads(buffer.getvalue())


def test_criterion_01_golden_identity():
    p = parse("x1^2 - x2^2 + x3^2 - x4^2", 4)
    q = hess_grad_grad(p)
    exact = q == 8 * p
    best = min(
        _timed(lambda: hess_grad_grad(p)) for _ in range(5)
    )
    ok = exact and best < 1e-3
    record(1, "golden identity", ok, f"exact={exact}, fastest run {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_eigen_verification_with_oracle():
    start = time.perf_counter()
    p = parse("z1^2 + z2^2", 4)
    report = verify_eigenfunction(p, 3)
    ok = report.is_eigen and report.k == 2 and report.lam == -8 and report.mu == -4
    worst_lam = 0.0
    worst_mu = 0.0
    rng = np.random.default_rng(20240818)
    for x in unit_sphere_points(4, 20, rng):
        value = p.evaluate(x)
        scale = max(abs(value), 1e-3)
        fd_lam = laplace_beltrami_fd(p, x)
        worst_lam = max(worst_lam, abs(fd_lam - float(report.lam) * value) / (abs(float(report.lam)) * scale))
        fd_mu = tangential_square_fd(p, x)
        mu_scale = max(abs(value) ** 2, 1e-3)
        worst_mu = max(worst_mu, abs(fd_mu - float(report.mu) * value**2) / (abs(float(report.mu)) * mu_scale))
    elapsed = time.perf_counter() - start
    ok = ok and worst_lam < 1e-5 and worst_mu < 1e-5 and elapsed < 0.1
    record(
        2, "eigen verification", ok,
        f"lambda={report.lam}, mu={report.mu}, fd errors {worst_lam:.2e}/{worst_mu:.2e}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_03_clifford_lines_end_to_end():
    worst = 0.0
    ok = True
    for line in ("1,0", "0,1"):
        code, report = cli_json(
            "minimal-line", "--vars", "4", "--sphere-dim", "3",
            "--poly", "z1^2+z2^2", "--line", line,
            "--samples", "200", "--cross-check", "--json",
        )
        verdict = report["verdict"]
        ok = ok and code == 0 and verdict["status"] == "ExactMinimal"
        ok = ok and verdict["certificate"] == "8"
        ok = ok and verdict["samples"] >= 200 and verdict["max_residual"] < 1e-8
        worst = max(worst, verdict["max_residual"])
    record(3, "clifford lines", ok, f"both lines quotient 8, max |q| = {worst:.2e}")


def test_criterion_04_lawson_family():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for n, m in ((1, 1), (2, 1), (3, 2), (1, 3)):
        poly = f"z1^{n}*z2^{m}" if m > 1 else f"z1^{n}*z2"
        for line in ("1,0", "0,1", "1,1"):
            code, report = cli_json(
                "minimal-line", "--vars", "4", "--sphere-dim", "3",
                "--poly", poly, "--line", line,
                "--samples", "200", "--cross-check", "--json",
            )
            verdict = report["verdict"]
            ok = ok and code == 0
            ok = ok and verdict["status"] in ("ExactMinimal", "NumericMinimal")
            ok = ok and verdict["samples"] >= 200 and verdict["max_residual"] < 1e-8
            worst = max(worst, verdict["max_residual"])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    record(
        4, "lawson family", ok,
        f"12 line checks, max |q| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_05_codim2_quadric():
    f = parse("z1^2 + z2^2", 4)
    u, v = f.real_imag_parts()
    spec = VarietySpec(4, [u, v])
    cloud = sample(spec, 100, rng_seed=20240818)
    worst_normal = 0.0
    worst_radial = 0.0
    for x in cloud.points:
        cs = mean_curvature(spec, x)
        worst_normal = max(worst_normal, float(np.max(np.abs(cs.normal_components))))
        worst_radial = max(worst_radial, abs(cs.radial_component + 1.0))
    ok = len(cloud) >= 100 and worst_normal < 1e-8 and worst_radial < 1e-8
    record(
        5, "codim-2 fiber", ok,
        f"{len(cloud)} samples, max normal {worst_normal:.2e}, radial error {worst_radial:.2e}",
    )


def test_criterion_06_flat_sections():
    f = parse("z1^3 + z2^3", 5)
    u, v = f.real_imag_parts()
    spec = VarietySpec(5, [u, v])
    cloud = sample(spec, 100, rng_seed=20240818)
    residuals = flat_section_residuals(cloud.points, 3)
    worst = float(np.max(residuals))
    ok = len(cloud) >= 100 and worst < 1e-8
    record(6, "flat sections", ok, f"{len(cloud)} samples, max section distance {worst:.2e}")


def test_criterion_07_clifford_torus_equation():
    q = parse("x1^2 - x2^2 + x3^2 - x4^2", 4)
    cloud = sample(VarietySpec(4, [q]), 500, rng_seed=20240818)
    values = cloud.points[:, 0] ** 2 + cloud.points[:, 2] ** 2
    worst = float(np.max(np.abs(values - 0.5)))
    ok = len(cloud) == 500 and worst < 1e-10
    record(7, "clifford torus", ok, f"500 samples, max |x1^2+x3^2-1/2| = {worst:.2e}")


def test_criterion_08_small_sphere_control():
    spec = VarietySpec(4, [parse("x4 - 1/2", 4)])
    cloud = sample(spec, 25, rng_seed=20240818)
    expected = 2.0 / math.sqrt(3.0)
    worst = 0.0
    for x in cloud.points:
        cs = mean_curvature(spec, x)
        worst = max(worst, abs(abs(cs.normal_components[0]) - expected))
    ok = len(cloud) == 25 and worst < 1e-6
    record(
        8, "small-sphere control", ok,
        f"|normal| = 2/sqrt(3) to {worst:.2e} over {len(cloud)} samples",
    )


def test_criterion_09_identity_suite():
    rng = np.random.default_rng(20240818)
    product_rule_ok = all(
        identity_one_check(random_poly(rng, nvars=4, max_degree=4),
                           random_poly(rng, nvars=4, max_degree=4))
        for _ in range(100)
    )
    radial_ok = True
    for nvars in range(2, 7):
        r2 = r_squared(nvars)
        for k in range(1, 6):
            coeff = 2 * k * (nvars + 2 * k - 2)
            radial_ok = radial_ok and laplacian(r2**k) == coeff * r2 ** (k - 1)
    harmonic_ok = True
    count = 0
    while count < 100:
        base = parse("z1", 4) if count % 2 == 0 else parse("z2", 4)
        k = count % 6 + 1
        u, v = (base**k).real_imag_parts()
        a = int(rng.integers(-4, 5))
        b = int(rng.integers(-4, 5))
        combo = a * u + b * v
        if combo.is_zero():
            continue
        count += 1
        harmonic_ok = harmonic_ok and laplacian(combo).is_zero() and r2_coprime(combo)
    ok = product_rule_ok and radial_ok and harmonic_ok
    record(
        9, "identity suite", ok,
        f"product rule 100/100 = {product_rule_ok}, radial law = {radial_ok}, "
        f"coprimality 100/100 = {harmonic_ok}",
    )


def test_criterion_10_search_rediscovery():
    start = time.perf_counter()
    best = {}
    recovered = False
    for degree in (1, 2):
        results = search_eigen(4, degree, attempts=50, rng_seed=20240818)
        best[degree] = results[0].residual
        if degree == 1:
            recovered = any(r.exact is not None for r in results)
    elapsed = time.perf_counter() - start
    ok = best[1] < 1e-10 and best[2] < 1e-10 and recovered and elapsed < 60.0
    record(
        10, "search rediscovery", ok,
        f"best residuals d=1: {best[1]:.1e}, d=2: {best[2]:.1e}, "
        f"exact recovery={recovered}, {elapsed:.1f} s",
    )


def test_criterion_11_lawson_classifier_table():
    expected_table = {}
    for n in range(7):
        for m in range(7):
            if n == 0 and m == 0:
                continue
            if n == 0 or m == 0:
                expected_table[(n, m)] = LawsonType.SPHERE
            elif (n * m) % 2 == 1:
                expected_table[(n, m)] = LawsonType.TORUS
            else:
                expected_table[(n, m)] = LawsonType.KLEIN_BOTTLE
    mistakes = [
        pair for pair, want in expected_table.items() if classify_lawson(*pair) is not want
    ]
    ok = not mistakes
    record(11, "lawson classifier", ok, f"48 pairs checked, mismatches: {mistakes or 'none'}")
