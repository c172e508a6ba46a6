"""Minimality decision procedures, conformality, and the surface classifier."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from eigensphere.calculus import (
    gradient,
    hess_grad_grad,
    hessian,
    hessian_entries,
    kappa,
    laplacian,
)
from eigensphere import geometry, minimality
from eigensphere.errors import (
    BothZero,
    DimensionMismatch,
    EmptyFiber,
    NotAnEigenfunction,
    SingularFiber,
    SphereDimensionTooSmall,
    ZeroLine,
    ZeroPolynomial,
)
from eigensphere.minimality import (
    EXACT_MINIMAL,
    INCONCLUSIVE,
    NUMERIC_MINIMAL,
    LawsonType,
    MinimalityVerdict,
    check_minimal_codim1,
    check_minimal_codim2,
    classify_lawson,
    conformality_diagnostics,
    lawson_polynomial,
    lawson_surface,
    line_pullback,
)
from eigensphere.geometry import VarietySpec, mean_curvature
from eigensphere.parsing import parse
from eigensphere.polynomial import GaussianRational, Polynomial, r_squared

from conftest import plant_draws, random_poly


def quadric():
    return parse("z1^2 + z2^2", 4)


# (tol, reject) pairs that cannot separate the verdicts, and the text that
# must name the offending value
BAD_THRESHOLDS = [
    pytest.param(-1.0, 1e-3, "tol -1.0", id="negative-tol"),
    pytest.param(0.0, 1e-3, "tol 0.0", id="zero-tol"),
    pytest.param(float("nan"), 1e-3, "tol nan", id="nan-tol"),
    pytest.param(1e-8, float("nan"), "reject nan", id="nan-reject"),
    pytest.param(1e-8, float("inf"), "reject inf", id="infinite-reject"),
    pytest.param(1e-3, 1e-3, "reject 0.001", id="reject-equals-tol"),
    pytest.param(1e-3, 1e-8, "reject 1e-08", id="reject-below-tol"),
]


def zero_draws(monkeypatch, is_zero):
    """Make the seed draw of every attempt i with is_zero(i) all zeros."""
    plant_draws(monkeypatch, lambda attempt: 0.0 if is_zero(attempt) else None)


# a draw beside the circle {z1 = 0} of the fiber of Re(z1^2*z2), where
# grad P vanishes: Newton creeps onto it, reaching |P| < 1e-13 with
# |grad P| about 4e-7, far too close to bound the criterion
BESIDE_SINGULAR_CIRCLE = (0.1, 0.0, 1.0, 0.0)


class TestLinePullback:
    def test_first_line(self):
        assert line_pullback(quadric(), 1, 0) == parse(
            "x1^2 - x2^2 + x3^2 - x4^2", 4
        )

    def test_second_line(self):
        assert line_pullback(quadric(), 0, 1) == parse("2*x1*x2 + 2*x3*x4", 4)

    def test_real_input(self):
        p = parse("x1^2 - x2^2", 4)
        assert line_pullback(p, 5, 7) == 5 * p
        assert line_pullback(p, Fraction(2, 3), 0) == p

    def test_scale_invariance(self):
        f = lawson_polynomial(2, 1)
        base = line_pullback(f, 3, 2)
        assert line_pullback(f, 6, 4) == base
        assert line_pullback(f, Fraction(1, 2), Fraction(1, 3)) == base

    def test_zero_line(self):
        with pytest.raises(ZeroLine):
            line_pullback(quadric(), 0, 0)


class TestCheckMinimalCodim1:
    def test_clifford_first_line(self):
        verdict = check_minimal_codim1(quadric(), 1, 0, 3)
        assert verdict.status == EXACT_MINIMAL
        assert verdict.certificate == "8"
        assert verdict.is_minimal()

    def test_clifford_second_line(self):
        verdict = check_minimal_codim1(quadric(), 0, 1, 3)
        assert verdict.status == EXACT_MINIMAL
        assert verdict.certificate == "8"

    def test_certificate_certifies(self):
        # the stated quotient must reproduce the criterion exactly
        for n, m, a, b in ((2, 1, 1, 0), (1, 3, 0, 1), (3, 2, 1, 1)):
            f = lawson_polynomial(n, m)
            verdict = check_minimal_codim1(f, a, b, 3)
            assert verdict.status == EXACT_MINIMAL
            p = line_pullback(f, a, b)
            q = hess_grad_grad(p)
            if verdict.certificate == "Q ≡ 0":
                assert q.is_zero()
            else:
                assert q == parse(verdict.certificate, 4) * p

    def test_cross_check_soundness(self):
        # exact certificate must survive the numeric criterion as well
        verdict = check_minimal_codim1(
            quadric(), 1, 0, 3, samples=100, cross_check=True
        )
        assert verdict.status == EXACT_MINIMAL
        assert verdict.samples == 100
        assert verdict.max_residual < 1e-8
        assert verdict.diagnostics["sampling"]["attempts"] == 100

    def test_zero_norm_seed_skipped(self, monkeypatch):
        # a draw of all zeros cannot be normalized: it is tallied, not divided
        zero_draws(monkeypatch, lambda attempt: attempt == 0)
        verdict = check_minimal_codim1(
            quadric(), 1, 0, 3, samples=20, cross_check=True
        )
        sampling = verdict.diagnostics["sampling"]
        assert sampling["no_convergence"] == 1
        assert sampling["attempts"] == 21
        assert verdict.samples == 20
        assert verdict.max_residual < 1e-8

    @pytest.mark.parametrize("samples, draw, sampling, reliable", [
        # quota fills after a failed and two unreliable attempts
        pytest.param(8, {1: 0.0, 0: BESIDE_SINGULAR_CIRCLE, 3: BESIDE_SINGULAR_CIRCLE}.get,
                     (10, 1, 0, 2, 11), 8, id="quota-fills"),
        # attempts run out with every converged sample unreliable
        pytest.param(4, lambda attempt: BESIDE_SINGULAR_CIRCLE if attempt % 2 else 0.0,
                     (60, 60, 0, 60, 120), None, id="runs-out"),
    ])
    def test_cross_check_attempt_bookkeeping(self, monkeypatch, samples, draw, sampling,
                                             reliable):
        # the natural draws of seed 3 all converge with bounds below tol/1000
        plant_draws(monkeypatch, draw)
        verdict = check_minimal_codim1(
            parse("z1^2*z2", 4), 1, 0, 3, samples=samples, rng_seed=3, cross_check=True
        )
        keys = ("converged", "no_convergence", "singular", "unreliable", "attempts")
        assert verdict.diagnostics["sampling"] == dict(zip(keys, sampling))
        assert verdict.samples == reliable

    @pytest.mark.parametrize("F", [parse("z1", 4), lawson_polynomial(1, 0)],
                             ids=["z1", "lawson-1-0"])
    def test_cross_check_of_linear_pullback(self, F):
        # Q = 0 has no degree; the cross-check must still sample the fiber
        verdict = check_minimal_codim1(F, 1, 0, 3, cross_check=True)
        assert verdict.status == EXACT_MINIMAL
        assert verdict.certificate == "Q ≡ 0"
        assert verdict.samples == 200
        assert verdict.max_residual == 0.0

    @pytest.mark.parametrize("n, m", [(4, 3), (6, 5)])
    def test_high_degree_lawson_samples_are_reliable(self, n, m):
        # the roundoff term of the reliability bound must not grow with the
        # coefficient mass of Q: every monomial is at most 1 on the sphere
        verdict = check_minimal_codim1(lawson_polynomial(n, m), 1, 0, 3, cross_check=True)
        assert verdict.status == EXACT_MINIMAL
        assert verdict.samples == 200
        assert verdict.max_residual < 1e-8

    def test_newton_tolerance_floor(self):
        # tol*1e-5 = 1e-17 is out of double precision's reach; without the floor
        # at P's roundoff bound, 152 of 240 attempts ended in no_convergence
        verdict = check_minimal_codim1(
            parse("z1^4*conj(z2)^3", 4), 1, 0, 3, samples=8, tol=1e-12, rng_seed=3,
            cross_check=True,
        )
        sampling = verdict.diagnostics["sampling"]
        assert sampling["no_convergence"] <= 8
        assert sampling["attempts"] < 240
        assert verdict.samples == 8
        assert verdict.max_residual < 1e-12

    def test_real_polynomial_rejected(self):
        with pytest.raises(NotAnEigenfunction):
            check_minimal_codim1(parse("x1 + x2", 4), 1, 0, 3)

    def test_zero_line(self):
        with pytest.raises(ZeroLine):
            check_minimal_codim1(quadric(), 0, 0, 3)

    def test_vanishing_pullback(self):
        # constant i is a valid flat eigenfunction with Re = 0
        with pytest.raises(ZeroPolynomial):
            check_minimal_codim1(parse("i", 4), 1, 0, 3)

    def test_scale_invariant_status(self):
        f = lawson_polynomial(1, 1)
        base = check_minimal_codim1(f, 2, 3, 3)
        for t in (2, Fraction(1, 3), Fraction(7, 5)):
            again = check_minimal_codim1(f, 2 * t, 3 * t, 3)
            assert again.status == base.status
            assert again.certificate == base.certificate

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            check_minimal_codim1(quadric(), 1, 0, 3, samples=0, cross_check=True)

    @pytest.mark.parametrize("check", [
        lambda F, **kw: check_minimal_codim1(F, 1, 0, 3, **kw),
        lambda F, **kw: check_minimal_codim2(F, 3, **kw),
    ], ids=["codim1", "codim2"])
    @pytest.mark.parametrize("F", [lawson_polynomial(3, 2), r_squared(4)],
                             ids=["exact-certificate", "not-eigen"])
    def test_sample_count_checked_first(self, check, F):
        # refused before the eigen gate, a certificate or any attempt
        with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
            check(F, samples=0)

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_constant_has_empty_fiber(self, monkeypatch, cross_check):
        monkeypatch.setattr(minimality, "_quota", None)  # no attempt may run
        with pytest.raises(EmptyFiber):
            check_minimal_codim1(Polynomial.constant(4, 1), 1, 0, 3, cross_check=cross_check)

    @pytest.mark.parametrize("tol, reject, named", BAD_THRESHOLDS)
    def test_bad_thresholds_rejected(self, tol, reject, named):
        with pytest.raises(ValueError, match=named):
            check_minimal_codim1(quadric(), 1, 0, 3, tol=tol, reject=reject)

    def test_json_shape(self):
        verdict = check_minimal_codim1(quadric(), 1, 0, 3)
        payload = verdict.to_json()
        assert payload["status"] == "ExactMinimal"
        assert payload["certificate"] == "8"
        assert "witness" not in payload

    def test_json_keeps_set_fields_in_declaration_order(self):
        # the cross-check of a linear pullback samples Q = 0: max_residual 0.0
        # is a set value and must not be dropped like an unset one
        verdict = check_minimal_codim1(parse("z1", 4), 1, 0, 3, samples=5, cross_check=True)
        assert list(verdict.to_json().items()) == [
            ("status", EXACT_MINIMAL), ("certificate", "Q ≡ 0"), ("samples", 5),
            ("max_residual", 0.0), ("diagnostics", verdict.diagnostics),
        ]
        bare = MinimalityVerdict(INCONCLUSIVE, samples=0, reason="")
        assert list(bare.to_json().items()) == [
            ("status", INCONCLUSIVE), ("samples", 0), ("reason", "")]


class TestCheckMinimalCodim2:
    def test_quadric_fiber(self):
        verdict = check_minimal_codim2(quadric(), 3, samples=100, rng_seed=1)
        assert verdict.status == NUMERIC_MINIMAL
        assert verdict.samples >= 100
        assert verdict.max_residual < 1e-8
        assert verdict.diagnostics["kappa_zero"] is True
        assert verdict.diagnostics["max_radial_error"] < 1e-8
        assert verdict.diagnostics["fiber_dimension"] == 1

    def test_great_circle(self):
        verdict = check_minimal_codim2(parse("z1", 4), 3, samples=60, rng_seed=2)
        assert verdict.status == NUMERIC_MINIMAL
        assert verdict.max_residual < 1e-8

    def test_harmonic_non_isotropic_member(self):
        # 3*x1 - i*x2 is harmonic with kappa(F,F) = 8 != 0; its fiber is the
        # great circle {x1 = x2 = 0}, still minimal: the verifier must measure
        # this rather than assume it from the isotropy flag
        f = parse("3*x1 - i*x2", 4)
        assert not kappa(f, f).is_zero()
        verdict = check_minimal_codim2(f, 3, samples=60, rng_seed=3)
        assert verdict.status == NUMERIC_MINIMAL
        assert verdict.diagnostics["kappa_zero"] is False

    def test_flat_sections(self):
        verdict = check_minimal_codim2(parse("z1^3 + z2^3", 5), 4, samples=80, rng_seed=4)
        assert verdict.status == NUMERIC_MINIMAL
        assert verdict.diagnostics["flat_section_max_residual"] < 1e-8
        assert verdict.diagnostics["fiber_dimension"] == 2
        assert verdict.diagnostics["max_radial_error"] < 1e-8

    def test_real_polynomial_singular(self):
        with pytest.raises(SingularFiber):
            check_minimal_codim2(parse("x1", 4), 3, samples=20)

    def test_one_curvature_call_per_newton_chunk(self, monkeypatch):
        calls = {"newton": 0, "curvature": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(geometry, "_newton_batch", counted("newton", geometry._newton_batch))
        monkeypatch.setattr(minimality, "_curvature_components",
                            counted("curvature", minimality._curvature_components))
        verdict = check_minimal_codim2(quadric(), 3, samples=200, rng_seed=1)
        assert verdict.status == NUMERIC_MINIMAL
        assert verdict.samples == 200
        assert 1 <= calls["curvature"] <= calls["newton"]

    def test_no_values_only_svd_outside_newton(self, monkeypatch):
        # Newton's stop already took the smallest singular value of every
        # kept point, so the measure repeats no SVD
        callers = []
        svd = geometry.np.linalg.svd

        def recorded(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True):
                callers.append(sys._getframe(1).f_code.co_name)
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(geometry.np.linalg, "svd", recorded)
        verdict = check_minimal_codim2(quadric(), 3, samples=200, rng_seed=1)
        assert verdict.samples == 200
        assert callers and set(callers) == {"_newton_batch"}
        # the guarded entry point still takes its own
        spec = VarietySpec(4, list(quadric().real_imag_parts()))
        mean_curvature(spec, geometry.sample(spec, 3, rng_seed=1).points)
        assert callers[-1] == "mean_curvature"

    def test_attempt_bookkeeping_quota_fills(self):
        # the quota fills after attempts that converge to singular points
        verdict = check_minimal_codim2(parse("z1^3*conj(z2)^2", 4), 3, samples=4, rng_seed=0)
        assert verdict.diagnostics["sampling"] == {
            "converged": 4, "no_convergence": 0, "singular": 5}
        assert verdict.samples == 4
        assert verdict.witness is None

    @pytest.mark.parametrize("kept", [(5,), (3, 17)], ids=["below-half", "half"])
    def test_attempt_bookkeeping_shortfall(self, monkeypatch, kept):
        # every draw but those of the kept attempts is zero, so the other
        # attempts fail and the 10*samples attempts run out
        zero_draws(monkeypatch, lambda attempt: attempt not in kept)
        verdict = check_minimal_codim2(quadric(), 3, samples=4, rng_seed=1)
        failed = 40 - len(kept)
        assert verdict.diagnostics["sampling"] == {
            "converged": len(kept), "no_convergence": failed, "singular": 0}
        assert verdict.samples == len(kept)
        assert verdict.status == "Inconclusive"
        assert verdict.reason == (
            f"only {len(kept)} of 4 requested points converged in 40 attempts "
            f"(no_convergence={failed}, singular=0)"
        )

    def test_non_harmonic_rejected(self):
        with pytest.raises(NotAnEigenfunction) as exc:
            check_minimal_codim2(r_squared(4), 3)
        assert exc.value.report.failure.condition == "laplacian_P"
        assert exc.value.report.failure.residual == Polynomial.constant(4, 8)

    def test_constant_has_empty_fiber(self, monkeypatch):
        monkeypatch.setattr(minimality, "_quota", None)  # no attempt may run
        with pytest.raises(EmptyFiber):
            check_minimal_codim2(Polynomial.constant(4, GaussianRational(2, 1)), 3)

    @pytest.mark.parametrize("poly, part", [("x1", "imaginary"), ("i*x1", "real")])
    def test_one_part_zero_is_singular(self, monkeypatch, poly, part):
        monkeypatch.setattr(minimality, "_quota", None)  # no attempt may run
        with pytest.raises(SingularFiber, match=f"the {part} part of F vanishes"):
            check_minimal_codim2(parse(poly, 4), 3)

    @pytest.mark.parametrize("poly", ["(1+i)*x1", "(2-i)*(x1^2-x2^2)"])
    def test_proportional_parts_are_singular(self, monkeypatch, poly):
        monkeypatch.setattr(minimality, "_quota", None)  # no attempt may run
        with pytest.raises(SingularFiber, match="Re F and Im F are proportional"):
            check_minimal_codim2(parse(poly, 4), 3)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotAnEigenfunction) as exc:
            check_minimal_codim2(parse("z1 + z2^2", 4), 3)
        assert exc.value.report.failure.condition == "homogeneity"

    def test_dimension_guards(self):
        with pytest.raises(SphereDimensionTooSmall):
            check_minimal_codim2(parse("z1", 2), 1)
        with pytest.raises(DimensionMismatch):
            check_minimal_codim2(parse("z1", 4), 4)

    @pytest.mark.parametrize("tol, reject, named", BAD_THRESHOLDS)
    def test_bad_thresholds_rejected(self, tol, reject, named):
        with pytest.raises(ValueError, match=named):
            check_minimal_codim2(quadric(), 3, tol=tol, reject=reject)

    def test_json_shape(self):
        verdict = check_minimal_codim2(quadric(), 3, samples=30, rng_seed=5)
        payload = verdict.to_json()
        assert payload["status"] == "NumericMinimal"
        assert payload["samples"] == 30
        assert payload["max_residual"] < 1e-8


class TestHessianTableIsLazy:
    """Only codim-2's mean_curvature reads the Hessians, so only it builds them."""

    @pytest.fixture
    def hessian_calls(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return hessian_entries(p)

        monkeypatch.setattr(geometry, "hessian_entries", counting)
        return calls

    def test_sample_and_codim1_build_none(self, hessian_calls):
        geometry.sample(VarietySpec(4, [parse("x1*x2 - x3*x4", 4)]), 10, rng_seed=1)
        verdict = check_minimal_codim1(parse("z1^2*z2", 4), 1, 0, 3, samples=8, rng_seed=3,
                                       cross_check=True)
        assert verdict.diagnostics["sampling"]["converged"] >= 8
        assert hessian_calls == []

    def test_codim2_builds_one_per_equation(self, hessian_calls):
        verdict = check_minimal_codim2(quadric(), 3, samples=30, rng_seed=5)
        assert verdict.status == "NumericMinimal"
        # the sphere, Re F and Im F, once for every chunk of samples
        assert len(hessian_calls) == 3

# holomorphic cubics on S^5 and lines whose preimages are far from minimal,
# and a non-isotropic harmonic quadric whose zero fiber is (criteria >= 1)
CUBIC_WITNESS_CASES = [("z1^2*z2+z3^3", "1,0"), ("2*z1^2*z2+z3^3", "0,1"),
                       ("z1^2*z2+3*z3^3", "1,-1"), ("z1^2*z2+z3^3+z1*z3^2", "2,1")]
NONISOTROPIC_QUADRIC = "z1^2+z2^2+x5^2-x6^2"


class TestWitnessesAgainstAnIndependentEvaluation:
    @pytest.mark.parametrize("poly, line", CUBIC_WITNESS_CASES)
    def test_codim1_criterion(self, poly, line):
        a, b = (int(v) for v in line.split(","))
        verdict = check_minimal_codim1(parse(poly, 6), a, b, 5, samples=50, rng_seed=0)
        assert verdict.status == "NotMinimal"
        x = np.array(verdict.witness["point"])
        # Hess P(grad P, grad P)/|grad P|^3 entry by entry with Polynomial.evaluate,
        # not through hess_grad_grad or a compiled table
        P = line_pullback(parse(poly, 6), a, b)
        grad = np.array([g.evaluate(x).real for g in gradient(P)])
        hess = np.array([[h.evaluate(x).real for h in row] for row in hessian(P)])
        expected = grad @ hess @ grad / np.linalg.norm(grad) ** 3
        assert verdict.witness["criterion"] == pytest.approx(expected, rel=1e-9)
        assert abs(verdict.witness["criterion"]) == verdict.max_residual
        assert verdict.witness["residual"] <= 1e-12
        assert abs(P.evaluate(x)) <= 1e-12 and abs(x @ x - 1) <= 1e-12

    def test_codim2_criterion(self):
        F = parse(NONISOTROPIC_QUADRIC, 6)
        verdict = check_minimal_codim2(F, 5, samples=50, rng_seed=0)
        assert verdict.status == "NotMinimal"
        x = np.array(verdict.witness["point"])
        curvature = mean_curvature(VarietySpec(6, F.real_imag_parts()), x)
        expected = np.max(np.abs(curvature.normal_components))
        assert verdict.witness["criterion"] == pytest.approx(expected, rel=1e-9)
        assert verdict.witness["criterion"] == verdict.max_residual
        assert verdict.witness["residual"] <= 1e-12
        assert abs(F.evaluate(x)) <= 1e-12 and abs(x @ x - 1) <= 1e-12


def conformality_reference(F):
    """(difference, cross) from the three real kappa products of F = u + i*v."""
    u, v = F.real_imag_parts()
    return kappa(u, u) - kappa(v, v), kappa(u, v)


class TestConformality:
    def test_matches_three_kappa_reference(self, rng):
        lawson = [lawson_polynomial(n, m) for n in range(6) for m in range(6) if n or m]
        drawn = [random_poly(rng) for _ in range(40)]
        for f in lawson + drawn:
            report = conformality_diagnostics(f)
            assert (report.difference, report.cross) == conformality_reference(f)

    def test_lawson_examples(self):
        for n, m in ((1, 1), (2, 1), (2, 2)):
            report = conformality_diagnostics(lawson_polynomial(n, m))
            assert report.horizontally_conformal
            assert report.difference.is_zero()
            assert report.cross.is_zero()

    def test_quadric(self):
        assert conformality_diagnostics(quadric()).horizontally_conformal

    def test_anisotropic_counterexample(self):
        i = GaussianRational(0, 1)
        f = Polynomial.variable(2, 1) + 2 * Polynomial.constant(2, i) * Polynomial.variable(2, 2)
        report = conformality_diagnostics(f)
        assert report.difference == Polynomial.constant(2, -3)
        assert not report.horizontally_conformal

    def test_kappa_decomposition(self, rng):
        # kappa(F,F) = difference + 2i*cross identically
        i = Polynomial.constant(3, GaussianRational(0, 1))
        for _ in range(10):
            f = random_poly(rng)
            report = conformality_diagnostics(f)
            assert kappa(f, f) == report.difference + 2 * i * report.cross

    def test_conformal_harmonic_is_isotropic(self):
        # both diagnostics zero <=> kappa(F,F) = 0 exactly
        for n, m in ((1, 1), (3, 2)):
            f = lawson_polynomial(n, m)
            assert laplacian(f).is_zero()
            assert conformality_diagnostics(f).horizontally_conformal
            assert kappa(f, f).is_zero()


class TestClassifyLawson:
    def test_named_cases(self):
        assert classify_lawson(0, 5) is LawsonType.SPHERE
        assert classify_lawson(1, 3) is LawsonType.TORUS
        assert classify_lawson(2, 1) is LawsonType.KLEIN_BOTTLE

    def test_full_table(self):
        for n in range(7):
            for m in range(7):
                if n == 0 and m == 0:
                    continue
                got = classify_lawson(n, m)
                if n == 0 or m == 0:
                    assert got is LawsonType.SPHERE
                elif (n * m) % 2 == 1:
                    assert got is LawsonType.TORUS
                else:
                    assert got is LawsonType.KLEIN_BOTTLE

    def test_both_zero(self):
        with pytest.raises(BothZero):
            classify_lawson(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_lawson(-1, 2)


class TestLawsonSurface:
    @pytest.mark.parametrize("n, m, components, reduced_pair, reduced_type, circles", [
        (2, 2, 2, (1, 1), LawsonType.TORUS, 2),
        (2, 6, 2, (1, 3), LawsonType.TORUS, 2),
        (3, 0, 3, (1, 0), LawsonType.SPHERE, 1),
        (1, 0, 1, (1, 0), LawsonType.SPHERE, 0),
        (3, 2, 1, (3, 2), LawsonType.KLEIN_BOTTLE, 0),
    ])
    def test_components(self, n, m, components, reduced_pair, reduced_type, circles):
        surface = lawson_surface(n, m)
        # `type` keeps the parity rule, which reads (2, 2) as a Klein bottle
        assert surface.type is classify_lawson(n, m)
        assert surface.components == components
        assert surface.reduced_pair == reduced_pair
        assert surface.reduced_type is reduced_type
        assert surface.singular_circles == circles
        assert surface.to_json() == {
            "type": classify_lawson(n, m).value, "components": components,
            "reduced_pair": list(reduced_pair), "reduced_type": reduced_type.value,
            "singular_circles": circles}

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 6)])
    def test_two_components_factor(self, n, m):
        # Im(w^2) = 2 Re(w) Im(w) for w = z1^(n/2) conj(z2)^(m/2): two surfaces
        _, im = lawson_polynomial(n, m).real_imag_parts()
        re_w, im_w = lawson_polynomial(n // 2, m // 2).real_imag_parts()
        assert im == 2 * re_w * im_w

    def test_both_zero(self):
        with pytest.raises(BothZero):
            lawson_surface(0, 0)


class TestLawsonPolynomial:
    def test_expansion(self):
        assert lawson_polynomial(2, 1) == parse("z1^2 * conj(z2)", 4)
        assert lawson_polynomial(1, 0) == parse("z1", 4)

    def test_is_flat_eigen(self):
        for n, m in ((1, 1), (2, 1), (3, 2), (1, 3)):
            f = lawson_polynomial(n, m)
            assert laplacian(f).is_zero()
            assert kappa(f, f).is_zero()
            assert f.homogeneity() == n + m

    def test_both_zero(self):
        with pytest.raises(BothZero):
            lawson_polynomial(0, 0)
