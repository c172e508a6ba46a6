"""Seeded check generators and verdict labels for the benchmark workloads.

A *check* is one ``eigensphere`` command line plus the verdict it must
produce.  Each workload is an endless sequence of *cycles*; a cycle is a
fixed list of slots, and the workload seed only picks the coefficients,
variable orders, line directions and sampler seeds inside each slot.  Every
cycle therefore does the same kind and amount of work, which is what keeps
throughput comparable between seeds, while no two checks repeat an input.

Labels come from construction wherever the mathematics fixes them:

* holomorphic homogeneous P of degree k in z1..zm, and c*z1^n*conj(z2)^m,
  are eigenfunctions on S^(2m-1) with lambda = -k(k+n-1), mu = -k^2;
* P + c*z_j^(k-1) fails ``homogeneity``; P + c*x_j^k fails ``laplacian_P``
  (x_j^k is not harmonic for k >= 2, P is); P + c*conj(z_j)^k fails
  ``laplacian_P2`` because kappa(P, conj(z_j)^k) = 2k*conj(z_j)^(k-1)*dP/dz_j
  and the dense P here depends on every z_j;
* zero fibers of holomorphic F are complex cones, hence minimal, and every
  line preimage of a Lawson polynomial is congruent to the one for (1,0)
  (multiplying by e^(i*theta) is the isometry z1 -> e^(i*theta/n)*z1), so
  its exact certificate exists for every rational line.

The NotMinimal labels cannot come from construction.  Those inputs are drawn
from the pinned pools below, whose verdicts were read off the seed code with
the criterion at least 900 times the reject threshold.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("exact-verify", "fiber-sample", "coeff-search")

# Non-isotropic harmonic quadrics on S^5: homogeneous and harmonic, but
# kappa(F, F) != 0, so the zero fiber is not minimal.  Smallest max
# criterion over sampler seeds 0..4 at the seed code: 1.0, 1.0, 2.07, 1.40, 1.34.
NONISOTROPIC_ZERO_POOL = (
    "z1^2+z2^2+x5^2-x6^2",
    "z1^2+z2^2+2*x5*x6",
    "z1^2+x3*x4+x5^2-x6^2",
    "z1*z2+x5^2-x6^2",
    "z1^2+z2^2+x5^2-x6^2+x3*x5",
)

# Holomorphic cubics on S^5 whose line preimages fail the numeric ladder.
# Smallest max criterion over these lines and sampler seeds 0..5 at the seed
# code: 1.26 (reject is 1e-3).
CUBIC_LINE_POOL = (
    "z1^2*z2+z3^3",
    "2*z1^2*z2+z3^3",
    "z1^2*z2+2*z3^3",
    "3*z1^2*z2+z3^3",
    "z1^2*z2+3*z3^3",
    "z1^2*z2+z3^3+z1*z3^2",
    "z1^2*z3+z2^3+z2*z3^2",
)
CUBIC_LINES = ("1,0", "0,1", "1,1", "1,-1", "2,1")

CLIFFORD_TORUS = "x1^2+x2^2-x3^2-x4^2"

# Fixed sparse supports (exponents of z1, z2, z3) for the S^5 slots of degree
# 4 and 5; dense supports there cost 1-5 s per check at the seed code, which
# would make one check a large share of a cycle.
SUPPORT_S5_D4 = ((4, 0, 0), (2, 1, 1), (0, 3, 1), (1, 0, 3), (0, 2, 2))
SUPPORT_S5_D5 = ((5, 0, 0), (2, 2, 1), (0, 4, 1), (1, 0, 4))

# Lawson polynomials are multiplied by c = a + b*i with a, b in +-1..+-9; the
# seed picks a permutation of these, so a run repeats no polynomial before
# 324 cycles.
LAWSON_SCALES = tuple(
    (a, b) for a in range(-9, 10) for b in range(-9, 10) if a != 0 and b != 0
)

# (nvars, degree, attempts) of the search slots.  An LM attempt at (6, 3) or
# (6, 4) either converges in 10-25 iterations or runs to the 300-iteration
# cap, with probability about 0.2 and 0.35, and the cap costs 0.43 s and 7 s;
# a seeded mix of those swings a 30 s run by +-10% and +-40%.  Those two
# pairs therefore run with no attempts and time the residual-system build
# alone (the dense kappa tensor is 58.7 MB at (6, 4)).  The LM path is timed
# at (5, 3), where about 90% of attempts run to the cap, and at (4, 1) and
# (5, 2), where they converge.
SEARCH_SLOTS = ((4, 1, 3), (5, 2, 3), (5, 3, 3), (6, 3, 0), (6, 4, 0))


@dataclass(frozen=True)
class Check:
    """One CLI invocation and the verdict it must produce."""

    slot: str
    argv: Tuple[str, ...]
    label: Dict


def gaussian(a: int, b: int) -> str:
    """A Gaussian integer a + b*i as a parenthesised parser literal."""
    if b == 0:
        return f"({a})"
    return f"({a}{b:+d}*i)"


def _nonzero_gaussian(rng: random.Random) -> str:
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return gaussian(a, b)


def _monomial(exps: Sequence[int], names: Sequence[str]) -> str:
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(factors)


def holomorphic(rng: random.Random, nz: int, degree: int, support=None) -> str:
    """Random holomorphic homogeneous polynomial in z1..z<nz>.

    With no support every monomial of the degree gets a nonzero coefficient;
    a fixed support is applied after a random permutation of the z's.
    """
    names = [f"z{j + 1}" for j in range(nz)]
    if support is None:
        support = []
        for combo in itertools.combinations_with_replacement(range(nz), degree):
            support.append(tuple(combo.count(j) for j in range(nz)))
    else:
        rng.shuffle(names)
    return " + ".join(f"{_nonzero_gaussian(rng)}*{_monomial(e, names)}" for e in support)


def _eigen_label(k: int, n: int) -> Dict:
    return {"exit": 0, "is_eigen": True, "lambda": -k * (k + n - 1), "mu": -k * k}


def _not_eigen_label(condition: str) -> Dict:
    return {"exit": 1, "is_eigen": False, "condition": condition}


def _sphere_args(nz: int) -> List[str]:
    return ["--vars", str(2 * nz), "--sphere-dim", str(2 * nz - 1)]


def _eigen_check(slot: str, nz: int, poly: str, label: Dict) -> Check:
    return Check(slot, ("eigen-check", *_sphere_args(nz), "--poly", poly), label)


def _lawson_scale(seed: int, slot: str, cycle: int) -> str:
    order = list(LAWSON_SCALES)
    random.Random(f"lawson:{seed}:{slot}").shuffle(order)
    return gaussian(*order[cycle % len(order)])


def exact_verify_cycle(seed: int, cycle: int) -> List[Check]:
    rng = random.Random(f"exact-verify:{seed}:{cycle}")
    checks = []
    for nz, degree, support in ((3, 3, None), (3, 4, SUPPORT_S5_D4), (3, 5, SUPPORT_S5_D5),
                                (2, 3, None), (2, 4, None), (2, 5, None)):
        n = 2 * nz - 1
        checks.append(_eigen_check(
            f"eigen-S{n}-d{degree}", nz, holomorphic(rng, nz, degree, support),
            _eigen_label(degree, n)))

    # the costliest slot runs twice, so that the tail percentile (ten checks
    # beyond it) falls inside one slot's times whenever a run has 5+ cycles
    for n, m in ((8, 7), (7, 8)):
        slot = f"eigen-lawson-{n}-{m}"
        poly = f"{_lawson_scale(seed, slot, cycle)}*z1^{n}*conj(z2)^{m}"
        checks.append(_eigen_check(slot, 2, poly, _eigen_label(n + m, 3)))
    for n, m, line in ((4, 3, "1,0"), (5, 2, "1,1")):
        slot = f"line-lawson-{n}-{m}"
        poly = f"{_lawson_scale(seed, slot, cycle)}*z1^{n}*conj(z2)^{m}"
        checks.append(Check(
            slot,
            ("minimal-line", *_sphere_args(2), "--poly", poly, f"--line={line}"),
            {"exit": 0, "status": "ExactMinimal"}))

    # negatives: about a third of the cycle, every failing condition on S^5 or S^3
    j = rng.randint(1, 3)
    checks.append(_eigen_check(
        "neg-homogeneity-S5", 3,
        f"{holomorphic(rng, 3, 4, SUPPORT_S5_D4)} + {_nonzero_gaussian(rng)}*z{j}^3",
        _not_eigen_label("homogeneity")))
    checks.append(_eigen_check(
        "neg-laplacian_P-S3", 2,
        f"{holomorphic(rng, 2, 4)} + {_nonzero_gaussian(rng)}*x{rng.randint(1, 4)}^4",
        _not_eigen_label("laplacian_P")))
    checks.append(_eigen_check(
        "neg-laplacian_P2-S5", 3,
        f"{holomorphic(rng, 3, 3)} + {_nonzero_gaussian(rng)}*conj(z{rng.randint(1, 3)})^3",
        _not_eigen_label("laplacian_P2")))
    checks.append(_eigen_check(
        "neg-laplacian_P2-S3", 2,
        f"{holomorphic(rng, 2, 4)} + {_nonzero_gaussian(rng)}*conj(z{rng.randint(1, 2)})^4",
        _not_eigen_label("laplacian_P2")))
    return checks


def _fermat(rng: random.Random, nz: int, degree: int) -> str:
    return " + ".join(f"{_nonzero_gaussian(rng)}*z{j + 1}^{degree}" for j in range(nz))


def fiber_sample_cycle(seed: int, cycle: int, out_dir: str) -> List[Check]:
    rng = random.Random(f"fiber-sample:{seed}:{cycle}")

    def sampler_seed() -> str:
        return str(rng.randrange(2**31))

    checks = []
    for nz, degree in ((2, 2), (2, 3), (3, 2), (3, 3)):
        n = 2 * nz - 1
        checks.append(Check(
            f"zero-holomorphic-S{n}-d{degree}",
            ("minimal-zero", *_sphere_args(nz), "--poly", _fermat(rng, nz, degree),
             "--samples", "200", "--seed", sampler_seed()),
            {"exit": 0, "status": "NumericMinimal"}))
    checks.append(Check(
        "zero-nonisotropic-S5",
        ("minimal-zero", *_sphere_args(3), "--poly", rng.choice(NONISOTROPIC_ZERO_POOL),
         "--samples", "200", "--seed", sampler_seed()),
        {"exit": 1, "status": "NotMinimal"}))
    checks.append(Check(
        "line-cubic-S5",
        ("minimal-line", *_sphere_args(3), "--poly", rng.choice(CUBIC_LINE_POOL),
         f"--line={rng.choice(CUBIC_LINES)}", "--seed", sampler_seed()),
        {"exit": 1, "status": "NotMinimal"}))
    # both components nonzero, so that every line's pullback has all terms
    a, b = (rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in range(2))
    checks.append(Check(
        "line-lawson-3-2-cross-check",
        ("minimal-line", *_sphere_args(2), "--poly", "z1^3*conj(z2)^2", f"--line={a},{b}",
         "--cross-check", "--seed", sampler_seed()),
        {"exit": 0, "status": "ExactMinimal"}))
    checks.append(Check(
        "sample-clifford-torus",
        ("sample", "--vars", "4", "--constraint", CLIFFORD_TORUS, "--count", "500",
         "--seed", sampler_seed(), "--out", f"{out_dir}/clifford-{cycle}.csv"),
        {"exit": 0, "points_written": 500}))
    return checks


def coeff_search_cycle(seed: int, cycle: int) -> List[Check]:
    rng = random.Random(f"coeff-search:{seed}:{cycle}")
    return [
        Check(
            f"search-{nvars}-{degree}",
            ("search", "--vars", str(nvars), "--degree", str(degree),
             "--attempts", str(attempts), "--seed", str(rng.randrange(2**31))),
            {"exit": 0, "results": attempts})
        for nvars, degree, attempts in SEARCH_SLOTS
    ]


def make_cycle(workload: str, seed: int, cycle: int, out_dir: str) -> List[Check]:
    """The checks of one cycle; the same arguments always give the same list."""
    if workload == "exact-verify":
        return exact_verify_cycle(seed, cycle)
    if workload == "fiber-sample":
        return fiber_sample_cycle(seed, cycle, out_dir)
    if workload == "coeff-search":
        return coeff_search_cycle(seed, cycle)
    raise ValueError(f"unknown workload {workload!r}")


def mismatch(check: Check, code: int, report: Optional[Dict]) -> Optional[str]:
    """Why the CLI result differs from the check's label, or None if it matches."""
    label = check.label
    if code != label["exit"]:
        return f"exit code {code}, expected {label['exit']}"
    if report is None:
        return "no JSON report on stdout"
    verdict = report["verdict"]
    if "is_eigen" in label:
        if verdict["is_eigen"] != label["is_eigen"]:
            return f"is_eigen {verdict['is_eigen']}"
        if label["is_eigen"]:
            if (verdict["lambda"], verdict["mu"]) != (label["lambda"], label["mu"]):
                return f"lambda, mu = {verdict['lambda']}, {verdict['mu']}"
        elif verdict["failure"]["condition"] != label["condition"]:
            return f"failed condition {verdict['failure']['condition']}"
    if "status" in label and verdict["status"] != label["status"]:
        return f"status {verdict['status']}"
    if "points_written" in label:
        if verdict["points_written"] != label["points_written"] or verdict["partial"]:
            return f"{verdict['points_written']} points written"
        with open(verdict["out"]) as handle:
            rows = sum(1 for _line in handle) - 1
        if rows != label["points_written"]:
            return f"{rows} rows in {verdict['out']}"
    if "results" in label:
        results = verdict["results"]
        if len(results) != label["results"]:
            return f"{len(results)} search results"
        if sorted(r["attempt"] for r in results) != list(range(label["results"])):
            return "search attempts are not 0..attempts-1"
        residuals = [r["residual"] for r in results]
        if residuals != sorted(residuals):
            return "search results are not sorted by residual"
    return None
