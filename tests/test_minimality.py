"""Minimality decision procedures, conformality, and the surface classifier."""

from fractions import Fraction

import numpy as np
import pytest

from eigensphere.calculus import hess_grad_grad, kappa, laplacian
from eigensphere.errors import (
    BothZero,
    DimensionMismatch,
    NotAnEigenfunction,
    SingularFiber,
    SphereDimensionTooSmall,
    ZeroLine,
    ZeroPolynomial,
)
from eigensphere.minimality import (
    EXACT_MINIMAL,
    NUMERIC_MINIMAL,
    LawsonType,
    check_minimal_codim1,
    check_minimal_codim2,
    classify_lawson,
    conformality_diagnostics,
    lawson_polynomial,
    line_pullback,
)
from eigensphere.parsing import parse
from eigensphere.polynomial import GaussianRational, Polynomial, r_squared

from conftest import random_poly


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
        default_rng = np.random.default_rng

        class ZeroDraw:
            def standard_normal(self, size):
                return np.zeros(size)

        def zero_first_draw(seed):
            return ZeroDraw() if seed[1] == 0 else default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", zero_first_draw)
        verdict = check_minimal_codim1(
            quadric(), 1, 0, 3, samples=20, cross_check=True
        )
        sampling = verdict.diagnostics["sampling"]
        assert sampling["no_convergence"] == 1
        assert sampling["attempts"] == 21
        assert verdict.samples == 20
        assert verdict.max_residual < 1e-8

    @pytest.mark.parametrize("F, line, samples, tol, sampling, reliable", [
        # quota fills after failed and unreliable attempts
        pytest.param("z1^2*z2", (1, 0), 8, 1e-12, (15, 39, 0, 7, 54), 8, id="quota-fills"),
        # attempts run out with every converged sample unreliable
        pytest.param("z1^3*conj(z2)^2", (0, 1), 4, 1e-12, (39, 81, 0, 39, 120), None,
                     id="runs-out"),
    ])
    def test_cross_check_attempt_bookkeeping(self, F, line, samples, tol, sampling, reliable):
        verdict = check_minimal_codim1(
            parse(F, 4), *line, 3, samples=samples, tol=tol, rng_seed=3, cross_check=True
        )
        keys = ("converged", "no_convergence", "singular", "unreliable", "attempts")
        assert verdict.diagnostics["sampling"] == dict(zip(keys, sampling))
        assert verdict.samples == reliable

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

    def test_non_harmonic_rejected(self):
        with pytest.raises(NotAnEigenfunction):
            check_minimal_codim2(r_squared(4), 3)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotAnEigenfunction):
            check_minimal_codim2(parse("z1 + z2^2", 4), 3)

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


class TestConformality:
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
