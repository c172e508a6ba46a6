"""Built-in exact identity suite.

Runs the symbolic invariants that must hold by construction: ring axioms,
the Laplacian product rule, the Euler identity, the radial-power Laplacian
law, divisibility round-trips, and the golden cubic-criterion identity for
the standard quadric.  Everything here is exact arithmetic; a failure means
the algebra layer itself is broken, not that an input was bad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .calculus import euler, hess_grad_grad, identity_one_check, kappa, laplacian
from .parsing import parse
from .polynomial import GaussianRational, Polynomial, r_squared


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def random_polynomial(
    rng: np.random.Generator,
    nvars: int = 3,
    max_degree: int = 3,
    terms: int = 6,
    complex_coeffs: bool = True,
) -> Polynomial:
    """Random sparse polynomial with small integer (Gaussian) coefficients."""
    data = {}
    for _ in range(terms):
        exps = tuple(int(e) for e in rng.multinomial(rng.integers(0, max_degree + 1),
                                                     np.ones(nvars) / nvars))
        re = int(rng.integers(-5, 6))
        im = int(rng.integers(-5, 6)) if complex_coeffs else 0
        data[exps] = data.get(exps, GaussianRational()) + GaussianRational(re, im)
    return Polynomial(nvars, data)


def _suite_ring_axioms(rng: np.random.Generator) -> Tuple[bool, str]:
    for trial in range(20):
        a = random_polynomial(rng, 3, 3)
        b = random_polynomial(rng, 3, 3)
        c = random_polynomial(rng, 3, 3)
        if (a + b) + c != a + (b + c):
            return False, f"additive associativity failed on trial {trial}"
        if a * b != b * a:
            return False, f"commutativity failed on trial {trial}"
        if a * (b + c) != a * b + a * c:
            return False, f"distributivity failed on trial {trial}"
        if (a * b) * c != a * (b * c):
            return False, f"multiplicative associativity failed on trial {trial}"
    return True, "20 random triples"


def _suite_product_rule(rng: np.random.Generator) -> Tuple[bool, str]:
    for trial in range(20):
        phi = random_polynomial(rng, 4, 4)
        psi = random_polynomial(rng, 4, 4)
        if not identity_one_check(phi, psi):
            return False, f"Laplacian product rule failed on trial {trial}"
    return True, "20 random pairs"


def _suite_euler(rng: np.random.Generator) -> Tuple[bool, str]:
    for k in range(0, 5):
        data = {}
        for _ in range(4):
            exps = tuple(int(e) for e in rng.multinomial(k, np.ones(3) / 3))
            coeff = GaussianRational(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            data[exps] = data.get(exps, GaussianRational()) + coeff
        p = Polynomial(3, data)
        if p.is_zero():
            continue
        if euler(p) != k * p:
            return False, f"Euler identity failed at degree {k}"
    return True, "degrees 0..4"


def _suite_radial_power_law() -> Tuple[bool, str]:
    for nvars in range(2, 7):
        r2 = r_squared(nvars)
        for k in range(1, 6):
            left = laplacian(r2**k)
            right = (2 * k * (nvars + 2 * k - 2)) * r2 ** (k - 1)
            if left != right:
                return False, f"radial power law failed for N={nvars}, k={k}"
    return True, "k <= 5, N <= 6"


def _suite_golden_quadric() -> Tuple[bool, str]:
    P = parse("x1^2-x2^2+x3^2-x4^2", 4)
    if hess_grad_grad(P) != 8 * P:
        return False, "cubic criterion of the standard quadric is not 8*P"
    R = parse("2*x1*x2+2*x3*x4", 4)
    if hess_grad_grad(R) != 8 * R:
        return False, "cubic criterion of the conjugate quadric is not 8*R"
    return True, "both quadrics"


def _suite_isotropic_goldens() -> Tuple[bool, str]:
    z1 = parse("z1", 4)
    if not kappa(z1, z1).is_zero():
        return False, "kappa(z1, z1) != 0"
    F = parse("z1^2+z2^2", 4)
    if not kappa(F, F).is_zero():
        return False, "kappa(z1^2+z2^2, same) != 0"
    if not laplacian(F * F).is_zero():
        return False, "laplacian of the squared quadric is not zero"
    return True, "isotropic gradients"


def _suite_division(rng: np.random.Generator) -> Tuple[bool, str]:
    for trial in range(20):
        p = random_polynomial(rng, 3, 3)
        d = random_polynomial(rng, 3, 2)
        if d.is_zero():
            continue
        if (p * d).exact_divide(d) != p:
            return False, f"exact division round-trip failed on trial {trial}"
    return True, "20 random products"


def run_selftest(rng_seed: int = 12345) -> List[SuiteResult]:
    suites: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
        ("ring axioms", lambda: _suite_ring_axioms(np.random.default_rng([rng_seed, 1]))),
        ("laplacian product rule", lambda: _suite_product_rule(np.random.default_rng([rng_seed, 2]))),
        ("euler identity", lambda: _suite_euler(np.random.default_rng([rng_seed, 3]))),
        ("radial power law", _suite_radial_power_law),
        ("golden quadric 8P", _suite_golden_quadric),
        ("isotropic goldens", _suite_isotropic_goldens),
        ("exact division", lambda: _suite_division(np.random.default_rng([rng_seed, 4]))),
    ]
    results = []
    for name, fn in suites:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(SuiteResult(name, ok, detail))
    return results
