"""Newton projection, sampling, curvature frames, projection, CSV export."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensphere.calculus import gradient, hessian
from eigensphere.errors import (
    DegeneratePoint,
    DimensionMismatch,
    InsufficientYield,
    NonConvergence,
    OffVariety,
    PoleSingularity,
    SingularJacobian,
)
from eigensphere.geometry import (
    PointCloud,
    VarietySpec,
    add_stereo,
    cone_mean_curvature,
    export_cloud,
    mean_curvature,
    newton_project,
    read_cloud,
    sample,
    sphere_constraint,
    stereographic,
)
from eigensphere.minimality import line_pullback
from eigensphere.parsing import parse
from eigensphere.polynomial import Polynomial

from conftest import random_poly


def clifford_spec():
    q = line_pullback(parse("z1^2 + z2^2", 4), 1, 0)
    return VarietySpec(4, [q]), q


def _per_entry(polys, x):
    """Reference: Polynomial.evaluate on every entry of a nested sequence."""
    return np.array([p.evaluate(x).real if isinstance(p, Polynomial) else _per_entry(p, x)
                     for p in polys])


class TestVarietySpec:
    def test_complex_constraint_rejected(self):
        with pytest.raises(ValueError):
            VarietySpec(2, [parse("z1", 2)])

    def test_dimension_budget(self):
        # sphere + constraints must leave a positive-dimensional target
        with pytest.raises(ValueError):
            VarietySpec(3, [parse("x1", 3), parse("x2", 3)])

    def test_mixed_nvars_rejected(self):
        with pytest.raises(DimensionMismatch):
            VarietySpec(4, [parse("x1", 3)])

    def test_point_shape_checked(self):
        spec, _q = clifford_spec()
        for bad in ([0.5], [0.5, 0.5, 0.5]):
            with pytest.raises(DimensionMismatch):
                spec.values(bad)

    @pytest.mark.parametrize("nvars", [3, 4, 5, 6])
    def test_compiled_matches_per_entry(self, nvars):
        """values/jacobian/hessian_at agree with Polynomial.evaluate entry by entry."""
        rng = np.random.default_rng(1000 + nvars)

        def real_polys(count, max_degree):
            return [random_poly(rng, nvars, max_degree, complex_coeffs=False) for _ in range(count)]

        cases = [
            (real_polys(nvars - 2, 4), True),
            (real_polys(2, 5), False),
            (real_polys(2, 1), False),  # all linear: the Hessian table is empty
        ]
        for constraints, include_sphere in cases:
            spec = VarietySpec(nvars, constraints, include_sphere=include_sphere)
            full = ([sphere_constraint(nvars)] if include_sphere else []) + constraints
            for _ in range(5):
                x = rng.standard_normal(nvars)
                pairs = [
                    (spec.values(x), _per_entry(full, x)),
                    (spec.jacobian(x), _per_entry([gradient(g) for g in full], x)),
                ] + [
                    (spec.hessian_at(x)[a], _per_entry(hessian(g), x))
                    for a, g in enumerate(full)
                ]
                for compiled, expected in pairs:
                    assert compiled.shape == expected.shape
                    scale = np.max(np.abs(expected), initial=0.0)
                    assert_allclose(compiled, expected, rtol=1e-12, atol=1e-12 * scale)


class TestNewtonProject:
    def test_radial_fixed_point(self):
        spec = VarietySpec(4, [])
        x = newton_project(spec, [2.0, 0.0, 0.0, 0.0])
        assert_allclose(x, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_clifford_landing(self):
        spec, q = clifford_spec()
        seed = np.array([0.9, 0.1, 0.6, 0.1])
        seed /= np.linalg.norm(seed)
        x = newton_project(spec, seed)
        assert abs(q.evaluate(x)) < 1e-12
        assert abs(np.dot(x, x) - 1.0) < 1e-12

    def test_inconsistent_constraints(self):
        spec = VarietySpec(
            4, [parse("x1", 4), parse("x1 - 1", 4)], include_sphere=False
        )
        with pytest.raises(NonConvergence):
            newton_project(spec, [0.5, 0.0, 0.0, 0.0])

    def test_idempotence(self):
        spec, _ = clifford_spec()
        seed = np.array([0.3, -0.8, 0.5, 0.1])
        seed /= np.linalg.norm(seed)
        x = newton_project(spec, seed, tol=1e-13)
        y = newton_project(spec, x, tol=1e-13)
        assert np.linalg.norm(x - y) < 1e-13

    def test_singular_at_convergence(self):
        # gradient of x1^4 vanishes on the fiber: regularity must be rejected
        spec = VarietySpec(3, [parse("x1^4", 3)])
        with pytest.raises(SingularJacobian):
            newton_project(spec, np.array([0.01, 0.7, 0.7]))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
    def test_tolerance_guard(self, tol):
        spec = VarietySpec(3, [])
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            newton_project(spec, [1.0, 0.0, 0.0], tol=tol)

    def test_seed_shape_guard(self):
        spec = VarietySpec(3, [])
        with pytest.raises(DimensionMismatch):
            newton_project(spec, [1.0, 0.0])


class TestSample:
    def test_clifford_identity(self):
        spec, _ = clifford_spec()
        cloud = sample(spec, 200, rng_seed=11)
        assert len(cloud) == 200
        vals = cloud.points[:, 0] ** 2 + cloud.points[:, 2] ** 2
        assert np.max(np.abs(vals - 0.5)) < 1e-10

    def test_codim2_fiber(self):
        f = parse("z1^2 + z2^2", 4)
        re_f, im_f = f.real_imag_parts()
        spec = VarietySpec(4, [re_f, im_f])
        cloud = sample(spec, 100, rng_seed=5)
        assert len(cloud) == 100
        for p in cloud.points:
            assert abs(f.evaluate(p)) < 1e-10

    def test_count_guard(self):
        spec = VarietySpec(3, [])
        with pytest.raises(ValueError):
            sample(spec, 0, rng_seed=0)

    def test_determinism(self):
        spec, _ = clifford_spec()
        a = sample(spec, 25, rng_seed=99)
        b = sample(spec, 25, rng_seed=99)
        assert np.array_equal(a.points, b.points)

    def test_diagnostics_recorded(self):
        spec, _ = clifford_spec()
        cloud = sample(spec, 30, rng_seed=2)
        assert np.all(cloud.residuals <= cloud.metadata["tol"])
        assert np.all(cloud.regularity >= cloud.metadata["eps_reg"])
        assert cloud.metadata["outcomes"]["converged"] == 30

    # seeded cases with failed attempts: (constraint in 3 variables, count,
    # seed, maxiter, attempts, outcomes, seed indices); the first fills its
    # quota, the other two run out of attempts (partial cloud, empty cloud)
    ATTEMPT_BOOKKEEPING = [
        pytest.param("x1^2*x2 - x3^3", 6, 0, 5, 21, (6, 15, 0), [7, 10, 12, 15, 17, 20],
                     id="quota-fills"),
        pytest.param("x1^2*x2 - x3^3", 6, 2, 4, 60, (5, 55, 0), [3, 7, 13, 31, 47],
                     id="runs-out-partial"),
        pytest.param("x1^4", 3, 0, 50, 30, (0, 8, 22), [], id="runs-out-empty"),
    ]

    @pytest.mark.parametrize(
        "constraint, count, seed, maxiter, attempts, outcomes, indices", ATTEMPT_BOOKKEEPING)
    def test_attempt_bookkeeping(self, constraint, count, seed, maxiter, attempts, outcomes,
                                 indices):
        spec = VarietySpec(3, [parse(constraint, 3)])
        try:
            cloud = sample(spec, count, rng_seed=seed, maxiter=maxiter)
        except InsufficientYield as err:
            cloud = err.cloud
        tallies = dict(zip(("converged", "no_convergence", "singular"), outcomes))
        assert cloud.metadata["attempts"] == attempts
        assert cloud.metadata["outcomes"] == tallies
        assert cloud.metadata["seed_indices"] == indices
        assert len(cloud) == len(indices)

    def test_insufficient_yield_carries_partial(self):
        spec = VarietySpec(
            4, [parse("x1", 4), parse("x1 - 1", 4)], include_sphere=False
        )
        with pytest.raises(InsufficientYield) as exc:
            sample(spec, 10, rng_seed=0, maxiter=8)
        assert len(exc.value.cloud) == 0


def _gram_schmidt_tracked(rows):
    """Orthonormalize rows, tracking nu_b = sum_a C[b,a] * rows[a].

    Modified Gram-Schmidt with one re-orthogonalization pass keeps the frame
    orthonormal to ~1e-14 even for moderately ill-conditioned inputs.
    """
    m, n = rows.shape
    frame = np.zeros((m, n))
    coeffs = np.zeros((m, m))
    for b in range(m):
        v = rows[b].copy()
        c = np.zeros(m)
        c[b] = 1.0
        for _pass in range(2):
            for a in range(b):
                overlap = frame[a] @ v
                v -= overlap * frame[a]
                c -= overlap * coeffs[a]
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            raise SingularJacobian("constraint gradients are numerically dependent")
        frame[b] = v / norm
        coeffs[b] = c / norm
    return frame, coeffs


def mean_curvature_reference(spec, x):
    """Reference: all components <H, nu_b>, b = 0..c, from a tracked Gram-Schmidt frame.

    Gram-Schmidt of the Jacobian rows gives the normals and the coefficients
    C, the SVD of the frame gives the tangent basis, and each component sums
    the Hessians one equation at a time.
    """
    jac = spec.jacobian(x)
    frame, coeffs = _gram_schmidt_tracked(jac)
    _u, _s, vt = np.linalg.svd(frame, full_matrices=True)
    tangent = vt[frame.shape[0]:]
    hessians = spec.hessian_at(x)
    components = np.zeros(spec.num_equations)
    for b in range(spec.num_equations):
        combined = sum(coeffs[b, a] * hessians[a] for a in range(spec.num_equations))
        components[b] = -float(np.einsum("in,nm,im->", tangent, combined, tangent))
    return components


def _real_parts(text, nvars):
    return list(parse(text, nvars).real_imag_parts())


# (nvars, real constraints, seed, minimal): codimension 1, 2 and 3 beyond the
# sphere; the non-minimal cases have O(1) normal components
FRAME_CASES = [
    pytest.param(4, [line_pullback(parse("z1^2 + z2^2", 4), 1, 0)], 1, True,
                 id="codim1-clifford"),
    pytest.param(4, [parse("x1^2 + 2*x2^2 - x3^2 - 3*x4^2", 4)], 2, False,
                 id="codim1-anisotropic"),
    pytest.param(6, _real_parts("z1^3 + z2^3 - z3^3", 6), 3, True, id="codim2-fermat"),
    pytest.param(6, _real_parts("z1*z2 + x5^2 - x6^2", 6), 4, False, id="codim2-mixed"),
    pytest.param(5, _real_parts("z1^2 + 2*z2^2 - x5^2 + x1*x5", 5), 5, False,
                 id="codim2-anisotropic"),
    pytest.param(6, _real_parts("z1^2 + z2^2 + z3^2", 6) + [parse("x1^2 + x3*x6 - 2*x5^2", 6)],
                 6, False, id="codim3"),
]


class TestFrameMatchesReference:
    @pytest.mark.parametrize("nvars, constraints, seed, minimal", FRAME_CASES)
    def test_components_match(self, nvars, constraints, seed, minimal):
        spec = VarietySpec(nvars, constraints)
        cloud = sample(spec, 20, rng_seed=seed)
        assert len(cloud) == 20
        largest_normal = 0.0
        for x in cloud.points:
            cs = mean_curvature(spec, x)
            expected = mean_curvature_reference(spec, x)
            actual = np.concatenate([[cs.radial_component], cs.normal_components])
            atol = 1e-13 * np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(actual - expected) <= atol), (actual, expected)
            assert cs.frame_condition == np.linalg.svd(spec.jacobian(x), compute_uv=False)[-1]
            largest_normal = max(largest_normal, float(np.max(np.abs(expected[1:]))))
        assert (largest_normal < 1e-10) if minimal else (largest_normal > 0.1)

    @pytest.mark.parametrize("eps_reg", [1e-8, 0.0])
    def test_dependent_constraints_rejected(self, eps_reg):
        spec = VarietySpec(5, [parse("x4", 5), parse("2*x4", 5)])
        with pytest.raises(SingularJacobian):
            mean_curvature(spec, np.array([1.0, 0.0, 0.0, 0.0, 0.0]), eps_reg=eps_reg)


class TestMeanCurvature:
    def test_clifford_quadric_point(self):
        spec, _ = clifford_spec()
        x = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        cs = mean_curvature(spec, x)
        assert abs(cs.normal_components[0]) < 1e-10
        assert abs(cs.radial_component - (-2.0)) < 1e-10

    def test_clifford_second_line_point(self):
        r = line_pullback(parse("z1^2 + z2^2", 4), 0, 1)
        spec = VarietySpec(4, [r])
        x = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        cs = mean_curvature(spec, x)
        assert abs(cs.normal_components[0]) < 1e-10
        assert abs(cs.radial_component - (-2.0)) < 1e-10

    def test_small_sphere_value(self):
        spec = VarietySpec(4, [parse("x4 - 1/2", 4)])
        cloud = sample(spec, 10, rng_seed=4)
        expected = 2.0 / math.sqrt(3.0)
        for p in cloud.points:
            cs = mean_curvature(spec, p)
            assert abs(abs(cs.normal_components[0]) - expected) < 1e-8

    def test_great_sphere_geodesic(self):
        spec = VarietySpec(4, [parse("x4", 4)])
        cloud = sample(spec, 10, rng_seed=6)
        for p in cloud.points:
            cs = mean_curvature(spec, p)
            assert abs(cs.normal_components[0]) < 1e-12

    def test_small_sphere_family_oracle(self):
        # geodesic sphere of radius rho in S^(N-1): |trace| = (N-2) * cot(rho)
        for nvars in (4, 5):
            for rho in (math.pi / 6, math.pi / 4, math.pi / 3):
                c = math.cos(rho)
                constraint = parse(f"x{nvars}", nvars) - Polynomial.constant(
                    nvars, 1
                ) * _rational_near(c)
                spec = VarietySpec(nvars, [constraint])
                cloud = sample(spec, 6, rng_seed=1, tol=1e-12)
                expected = (nvars - 2) / math.tan(rho)
                for p in cloud.points:
                    # re-center: the rational constant shifts cos(rho) slightly
                    actual_c = float(p[nvars - 1])
                    actual_rho = math.acos(actual_c)
                    target = (nvars - 2) / math.tan(actual_rho)
                    cs = mean_curvature(spec, p)
                    assert abs(abs(cs.normal_components[0]) - target) < 1e-6
                assert abs(expected - target) < 1e-2

    def test_radial_law(self):
        f = parse("z1^2 + z2^2", 4)
        re_f, im_f = f.real_imag_parts()
        cases = [
            (VarietySpec(4, []), 3),
            (VarietySpec(4, [parse("x4", 4)]), 2),
            (VarietySpec(4, [re_f, im_f]), 1),
        ]
        for spec, dim in cases:
            cloud = sample(spec, 8, rng_seed=9)
            for p in cloud.points:
                cs = mean_curvature(spec, p)
                assert abs(cs.radial_component - (-dim)) < 1e-8

    def test_off_variety_rejected(self):
        spec, _ = clifford_spec()
        with pytest.raises(OffVariety):
            mean_curvature(spec, np.array([1.0, 0.0, 0.0, 0.0]))


class TestConeMeanCurvature:
    def test_hyperplane(self):
        assert cone_mean_curvature(parse("x1", 3), [0.3, 0.4, 0.5]) == 0.0

    def test_clifford_zero_set(self):
        spec, q = clifford_spec()
        cloud = sample(spec, 20, rng_seed=12)
        for p in cloud.points:
            assert abs(cone_mean_curvature(q, p)) < 1e-10

    def test_lorentz_quadric_value(self):
        p = parse("x1^2 + x2^2 + x3^2 - x4^2", 4)
        value = cone_mean_curvature(p, [1.0, 0.0, 0.0, 0.0])
        assert abs(value - 1.0) < 1e-14

    def test_degenerate_point(self):
        with pytest.raises(DegeneratePoint):
            cone_mean_curvature(parse("x1^2", 3), [0.0, 1.0, 0.0])

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            cone_mean_curvature(parse("z1", 4), [0.5, 0.5, 0.5, 0.5])

    def test_matches_normal_component(self):
        # Simons cone reduction: for harmonic homogeneous P on its fiber the
        # sphere-intrinsic component is the negated Euclidean level-set value
        # (the frames orient the normal oppositely)
        for a, b in ((1, 0), (0, 1), (2, 3)):
            p = line_pullback(parse("z1^2 + z2^2", 4), a, b)
            spec = VarietySpec(4, [p])
            cloud = sample(spec, 15, rng_seed=21)
            for x in cloud.points:
                cs = mean_curvature(spec, x)
                cv = cone_mean_curvature(p, x)
                assert abs(cs.normal_components[0] + cv) < 1e-8


def _rational_near(value, denominator=10**12):
    from fractions import Fraction

    return Fraction(round(value * denominator), denominator)


class TestStereographic:
    def test_antipode_to_origin(self):
        assert_allclose(stereographic([0.0, 0.0, 0.0, -1.0], 4), [0.0, 0.0, 0.0])

    def test_equator_fixed(self):
        assert_allclose(stereographic([1.0, 0.0, 0.0, 0.0], 4), [1.0, 0.0, 0.0])

    def test_pole_rejected(self):
        with pytest.raises(PoleSingularity):
            stereographic([0.0, 0.0, 0.0, 1.0], 4)

    def test_pole_index_choice(self):
        y = stereographic([0.6, 0.8, 0.0, 0.0], 1)
        assert_allclose(y, [0.8 / 0.4, 0.0, 0.0])


class TestExport:
    def test_empty_cloud_header_only(self, tmp_path):
        cloud = PointCloud(
            points=np.zeros((0, 4)),
            residuals=np.zeros(0),
            regularity=np.zeros(0),
        )
        path = tmp_path / "empty.csv"
        export_cloud(cloud, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines == ["x1,x2,x3,x4,residual,regularity"]

    def test_roundtrip_bit_identical(self, tmp_path):
        spec, _ = clifford_spec()
        cloud = sample(spec, 3, rng_seed=8)
        path = tmp_path / "cloud.csv"
        export_cloud(cloud, str(path))
        back = read_cloud(str(path))
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.residuals, cloud.residuals)
        assert np.array_equal(back.regularity, cloud.regularity)

    def test_stereo_columns(self, tmp_path):
        spec, _ = clifford_spec()
        cloud = add_stereo(sample(spec, 5, rng_seed=8), pole=4)
        path = tmp_path / "stereo.csv"
        export_cloud(cloud, str(path))
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["x1", "x2", "x3", "x4", "s1", "s2", "s3", "residual", "regularity"]
        back = read_cloud(str(path))
        assert np.array_equal(back.stereo, cloud.stereo)
