"""Newton projection, sampling, curvature frames, projection, CSV export."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensphere.calculus import gradient, hess_grad_grad, hessian
from eigensphere.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InsufficientYield,
    NonConvergence,
    OffVariety,
    PoleSingularity,
    SingularJacobian,
)
from eigensphere import geometry
from eigensphere.geometry import (
    CompiledPolys,
    PointCloud,
    VarietySpec,
    _curvature_components,
    _quota,
    add_stereo,
    export_cloud,
    mean_curvature,
    newton_project,
    read_cloud,
    sample,
    sphere_constraint,
    stereographic,
)
from eigensphere.minimality import lawson_polynomial, line_pullback
from eigensphere.parsing import parse
from eigensphere.polynomial import Polynomial

from conftest import plant_draws, random_poly
from oracles import (
    DegeneratePoint,
    compiled_evaluate_reference,
    cone_mean_curvature,
    hessian_table_reference,
    min_norm_step_reference,
    newton_batch_reference,
)


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

        for constraints in (real_polys(nvars - 2, 4), real_polys(1, 5)):
            spec = VarietySpec(nvars, constraints)
            full = [sphere_constraint(nvars), *constraints]
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

    def test_batch_in_blocks_matches_rows(self, monkeypatch):
        polys = [random_poly(np.random.default_rng(7), 4, 4, complex_coeffs=False)
                 for _ in range(3)]
        compiled = CompiledPolys(4, polys, (3,))
        # blocks of 2 rows, the last one short
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", 2 * compiled.point_floats + 1)
        x = np.random.default_rng(8).standard_normal((41, 4))
        batch = compiled(x)
        assert batch.shape == (41, 3)
        assert_allclose(batch, [compiled(row) for row in x], rtol=1e-13, atol=1e-13)

    def test_batch_temporaries_are_bounded(self):
        # 462 monomials in 6 variables: one point's temporary is 2772 floats, so
        # 2000 points at once would allocate 44 MB
        compiled = CompiledPolys(6, [parse("(1 + x1 + x2 + x3 + x4 + x5 + x6)^5", 6)], ())
        x = np.random.default_rng(9).standard_normal((2000, 6)) / 6
        tracemalloc.start()
        try:
            compiled(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * geometry.CHUNK_FLOATS * 8

    def test_high_degree_table_matches_evaluate(self):
        # Q of the (5,3) Lawson line pullback has degree 20 and exponents up to
        # 15; with its gradient and x3^16 - 2 the table's monomials have 0 to 4
        # variables, so most rows are padded to the widest
        q = hess_grad_grad(line_pullback(lawson_polynomial(5, 3), 1, 0))
        polys = [q, *gradient(q), parse("x3^16 - 2", 4)]
        compiled = CompiledPolys(4, polys, (len(polys),))
        assert compiled.exponents.max() >= 15
        assert set(np.count_nonzero(compiled.exponents, axis=1)) == {0, 1, 2, 3, 4}
        x = np.random.default_rng(11).standard_normal((20, 4))
        x /= np.linalg.norm(x, axis=1)[:, None]
        batch = compiled(x)
        for row, point in zip(batch, x):
            expected = _per_entry(polys, point)
            assert_allclose(row, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))

    def test_empty_table(self):
        # the Hessians of linear constraints are all zero: no monomial at all
        linear = [parse("x1 - 2*x3", 4), parse("3*x2 + x4", 4)]
        compiled = CompiledPolys(4, [e for g in linear for row in hessian(g) for e in row],
                                 (2, 4, 4))
        assert compiled.exponents.shape == (0, 4)
        assert np.array_equal(compiled(np.ones(4)), np.zeros((2, 4, 4)))
        assert np.array_equal(compiled(np.ones((3, 4))), np.zeros((3, 2, 4, 4)))


@st.composite
def compiled_tables(draw):
    """A CompiledPolys of 1 to 3 random polynomials, whose monomials have 0 to
    4 variables with exponents up to 16, and a point (N,) or batch (B, N)."""
    nvars = draw(st.integers(1, 6))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            exps = [0] * nvars
            for v in draw(st.lists(st.integers(0, nvars - 1), max_size=4, unique=True)):
                exps[v] = draw(st.integers(1, 16))
            terms[tuple(exps)] = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 9)))
        polys.append(Polynomial(nvars, terms))
    batch = draw(st.sampled_from([None, 1, 7, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.5, 1.5, (nvars,) if batch is None else (batch, nvars))
    return CompiledPolys(nvars, polys, (len(polys),)), x


class TestCompiledMatchesReduce:
    """Column products give the bits of cumprod and multiply.reduce."""

    @staticmethod
    def assert_same_bits(compiled, x, block_points):
        with pytest.MonkeyPatch.context() as patch:
            if block_points is not None:
                patch.setattr(geometry, "CHUNK_FLOATS", block_points * compiled.point_floats)
            assert compiled(x).tobytes() == compiled_evaluate_reference(compiled, x).tobytes()

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hypothesis.given(compiled_tables(), st.sampled_from([None, 1, 3]))
    def test_random_tables(self, table, block_points):
        compiled, x = table
        self.assert_same_bits(compiled, x, block_points)

    @pytest.mark.parametrize("polys", [["0", "0"], ["3/2", "0"], ["0", "-2"]],
                             ids=["empty", "constant", "constant-second"])
    @pytest.mark.parametrize("batch", [None, 5])
    def test_width_zero_gives_ones(self, polys, batch):
        compiled = CompiledPolys(3, [parse(p, 3) for p in polys], (2,))
        assert compiled._factor_index.shape[1] == 0
        x = np.full((3,) if batch is None else (batch, 3), 0.5)
        self.assert_same_bits(compiled, x, None)

    def test_four_factor_monomials_in_blocks(self):
        compiled = CompiledPolys(5, [parse("x1^16*x2^3*x4^7*x5 - 3*x2*x3^9 + 1/7*x5^2", 5),
                                     parse("x1*x2*x3*x4 + 2", 5)], (2,))
        x = np.random.default_rng(12).uniform(-1.5, 1.5, (41, 5))
        for block_points in (None, 1, 4):
            self.assert_same_bits(compiled, x, block_points)
            self.assert_same_bits(compiled, x[0], block_points)


class TestHessianTable:
    def test_large_spec_matches_dense_table(self):
        spec = VarietySpec(1000, [parse("x1", 1000), parse("x2", 1000)])
        expected = hessian_table_reference(spec)
        assert np.array_equal(spec._hessians.exponents, expected.exponents)
        assert spec._hessians.coefficients.tobytes() == expected.coefficients.tobytes()
        assert spec._hessians.shape == expected.shape

    @pytest.mark.parametrize("nvars", [3, 4, 6])
    def test_random_specs_match_dense_table(self, nvars):
        rng = np.random.default_rng(2000 + nvars)
        for count in (1, nvars - 2):
            spec = VarietySpec(nvars, [random_poly(rng, nvars, 4, complex_coeffs=False)
                                       for _ in range(count)])
            expected = hessian_table_reference(spec)
            assert np.array_equal(spec._hessians.exponents, expected.exponents)
            assert spec._hessians.coefficients.tobytes() == expected.coefficients.tobytes()
            x = rng.standard_normal((4, nvars))
            assert spec.hessian_at(x).tobytes() == expected(x).tobytes()


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
        spec = VarietySpec(4, [parse("x1", 4), parse("x1 - 1", 4)])
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

    @pytest.mark.parametrize("setting, value", [
        pytest.param("tol", 0.0, id="0.0"), pytest.param("tol", -1e-12, id="-1e-12"),
        pytest.param("tol", math.inf, id="inf"), pytest.param("tol", math.nan, id="nan"),
        # a point on the variety converges in no step, yet maxiter 0 is refused
        pytest.param("maxiter", 0, id="maxiter-0"), pytest.param("maxiter", -3, id="maxiter--3"),
    ])
    def test_tolerance_guard(self, setting, value):
        spec = VarietySpec(3, [])
        with pytest.raises(ValueError, match=f"{setting}.*got {value!r}"):
            newton_project(spec, [1.0, 0.0, 0.0], **{setting: value})

    def test_seed_shape_guard(self):
        spec = VarietySpec(3, [])
        with pytest.raises(DimensionMismatch):
            newton_project(spec, [1.0, 0.0])

    def test_each_point_evaluated_once(self):
        # the values of an accepted candidate, or of the full step when the
        # line search fails, are carried to the next step, not evaluated again
        spec = VarietySpec(6, _real_parts("z1^3 + z2^3 + z3^3", 6))
        seeds = np.random.default_rng(12).standard_normal((200, 6))
        seeds /= np.linalg.norm(seeds, axis=1)[:, None]
        evaluated = []
        values = spec.values

        def recorded(x):
            evaluated.extend(map(tuple, np.atleast_2d(x)))
            return values(x)

        spec.values = recorded
        _points, outcomes, _residual, _sigma = geometry._newton_batch(
            spec, seeds, geometry.DEFAULT_TOL, geometry.DEFAULT_MAXITER)
        assert np.all(outcomes == "converged")
        assert len(set(evaluated)) == len(evaluated)


def _real_parts(text, nvars):
    return list(parse(text, nvars).real_imag_parts())


class TestSample:
    def test_count_bounded_before_any_draw(self, monkeypatch):
        # a kept point in 4 variables with 2 equations is counted at
        # 8 (5 * 4 + 2 * 2 + 4) + 56 = 280 bytes
        def no_draw(*_args):
            raise AssertionError("an attempt was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        spec, _ = clifford_spec()
        largest = geometry.MEMORY_BUDGET // 280
        with pytest.raises(BudgetExceeded, match=f"{largest + 1} samples .* budget"):
            sample(spec, largest + 1, rng_seed=0)
        with pytest.raises(AssertionError, match="drawn"):
            sample(spec, largest, rng_seed=0)

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
        # both come from the Newton step that converged: the same SVD of the
        # same point, and a batch evaluation that may differ in the last bits
        assert np.array_equal(cloud.regularity, [
            np.linalg.svd(spec.jacobian(x), compute_uv=False)[-1] for x in cloud.points])
        assert_allclose(cloud.residuals, np.max(np.abs(spec.values(cloud.points)), axis=1),
                        rtol=0, atol=1e-15)

    # seeded cases with failed attempts: (constraint in 3 variables, count,
    # seed, maxiter, attempts, outcomes, seed indices); the first fills its
    # quota, the other two run out of attempts (partial cloud, empty cloud)
    ATTEMPT_BOOKKEEPING = [
        pytest.param("x1^2*x2 - x3^3", 6, 0, 5, 24, (6, 18, 0), [4, 10, 11, 17, 19, 23],
                     id="quota-fills"),
        pytest.param("x1^2*x2 - x3^3", 6, 7, 4, 60, (5, 55, 0), [10, 17, 29, 45, 50],
                     id="runs-out-partial"),
        pytest.param("x1^4", 3, 0, 50, 30, (0, 3, 27), [], id="runs-out-empty"),
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
        spec = VarietySpec(4, [parse("x1", 4), parse("x1 - 1", 4)])
        with pytest.raises(InsufficientYield) as exc:
            sample(spec, 10, rng_seed=0, maxiter=8)
        assert len(exc.value.cloud) == 0


def newton_reference(spec, seed, tol=1e-12, maxiter=50, eps_reg=1e-8):
    """Reference: Newton projection of one point, one step at a time."""
    x = np.asarray(seed, dtype=float).copy()
    for _ in range(maxiter):
        values = spec.values(x)
        if np.max(np.abs(values)) < tol:
            if np.linalg.svd(spec.jacobian(x), compute_uv=False)[-1] < eps_reg:
                raise SingularJacobian("converged to a singular point")
            return x
        u, s, vt = np.linalg.svd(spec.jacobian(x), full_matrices=False)
        cutoff = max(eps_reg * 1e-4, s[0] * 1e-14)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        step = vt.T @ (inv * (u.T @ values))
        base = np.max(np.abs(values))
        scale = 1.0
        for _halving in range(25):
            candidate = x - scale * step
            if np.max(np.abs(spec.values(candidate))) < base:
                x = candidate
                break
            scale *= 0.5
        else:
            x = x - step
    raise NonConvergence("no convergence")


def one_at_a_time(project, spec, rng_seed, attempts, zeros=(), **newton_kwargs):
    """(outcome, point) of every attempt, each projected alone by project from
    its row of the stream of rng_seed; the attempts in zeros draw all zeros."""
    results = []
    stream = np.random.default_rng(rng_seed).standard_normal((attempts, spec.nvars))
    for attempt, draw in enumerate(stream):
        if attempt in zeros:
            draw[:] = 0.0
        norm = np.linalg.norm(draw)
        if norm < 1e-12:
            results.append(("no_convergence", None))
            continue
        try:
            results.append(("converged", project(spec, draw / norm, **newton_kwargs)))
        except NonConvergence:
            results.append(("no_convergence", None))
        except SingularJacobian:
            results.append(("singular", None))
    return results


# (nvars, constraints, seed, attempts, quota, Newton settings, attempts whose
# draw is planted as zero)
BATCH_CASES = [
    pytest.param(4, [line_pullback(parse("z1^2 + z2^2", 4), 1, 0)], 11, 60, 25, {}, (),
                 id="clifford"),
    pytest.param(4, _real_parts("z1^3*conj(z2)^2", 4), 0, 40, 4, {}, (),
                 id="codim2-singular-attempts"),
    pytest.param(6, _real_parts("z1^2*z2 + z3^3", 6), 2, 30, 10, {}, (), id="codim2"),
    pytest.param(3, [parse("x1^2*x2 - x3^3", 3)], 2, 60, 6, {"maxiter": 4}, (),
                 id="short-maxiter"),
    pytest.param(3, [parse("x1^4", 3)], 0, 30, 3, {}, (), id="singular-x1^4"),
    pytest.param(4, [parse("x1", 4), parse("x1 - 1", 4)], 0, 20, 10, {"maxiter": 8}, (),
                 id="inconsistent"),
    pytest.param(4, [line_pullback(parse("z1^2*z2", 4), 1, 0)], 3, 40, 8,
                 {"tol": 1e-13, "maxiter": 60}, (0, 1, 5, 6, 7, 20), id="zero-draws"),
]


def recording_measure():
    """A measure that rejects every point, and the list of the batches it saw."""
    calls = []

    def reject(points):
        calls.append(points.copy())
        return np.full(len(points), np.nan)

    return reject, calls


class TestBatchMatchesOneAtATime:
    @pytest.mark.parametrize("project", [newton_project, newton_reference],
                             ids=["newton_project", "reference"])
    @pytest.mark.parametrize(
        "nvars, constraints, seed, attempts, quota, newton_kwargs, zeros", BATCH_CASES)
    def test_same_outcomes_and_points(self, monkeypatch, nvars, constraints, seed, attempts,
                                      quota, newton_kwargs, zeros, project):
        plant_draws(monkeypatch, lambda attempt: 0.0 if attempt in zeros else None)
        spec = VarietySpec(nvars, constraints)
        expected = one_at_a_time(project, spec, seed, attempts, zeros, **newton_kwargs)
        # every point rejected: all attempts run, past the quota the chunks are sized for
        reject, calls = recording_measure()
        cloud, _values, _shortfall = _quota(spec, quota, seed, attempts, reject, **newton_kwargs)
        tallies = cloud.metadata["outcomes"]
        assert len(cloud) == 0
        assert tallies == {key: [outcome for outcome, _p in expected].count(key)
                           for key in ("converged", "no_convergence", "singular")}
        measured = np.concatenate(calls) if calls else np.zeros((0, nvars))
        converged = [point for outcome, point in expected if outcome == "converged"]
        assert len(measured) == len(converged)
        for point, reference in zip(measured, converged):
            assert np.max(np.abs(point - reference)) <= 1e-12


# (nvars, constraints, seed, count, max_attempts, Newton settings): the first
# mixes converged and singular attempts, the second converged and
# no_convergence ones
QUOTA_CASES = [
    pytest.param(4, _real_parts("z1^3*conj(z2)^2", 4), 0, 4, 40, {}, id="codim2-singular"),
    pytest.param(3, [parse("x1^2*x2 - x3^3", 3)], 0, 6, 60, {"maxiter": 5},
                 id="short-maxiter"),
]
QUOTA_FIELDS = "nvars, constraints, seed, count, max_attempts, newton_kwargs"


def converged_attempts(spec, seed, max_attempts, **newton_kwargs):
    return [attempt for attempt, (outcome, _point) in enumerate(
        one_at_a_time(newton_project, spec, seed, max_attempts, **newton_kwargs))
        if outcome == "converged"]


class TestQuotaMeasure:
    @pytest.mark.parametrize(QUOTA_FIELDS, QUOTA_CASES)
    def test_rejecting_measure_runs_every_attempt(self, nvars, constraints, seed, count,
                                                  max_attempts, newton_kwargs):
        spec = VarietySpec(nvars, constraints)
        reject, calls = recording_measure()
        cloud, _values, shortfall = _quota(spec, count, seed, max_attempts, reject,
                                           **newton_kwargs)
        tallies = cloud.metadata["outcomes"]
        assert len(cloud) == 0
        assert sum(tallies.values()) == max_attempts
        assert tallies["converged"] == sum(len(points) for points in calls)
        assert tallies["converged"] == len(
            converged_attempts(spec, seed, max_attempts, **newton_kwargs))
        assert shortfall.startswith(f"only 0 of {count} requested points converged "
                                    f"in {max_attempts} attempts")

    @pytest.mark.parametrize(QUOTA_FIELDS, QUOTA_CASES)
    def test_measure_sees_each_chunk_once(self, nvars, constraints, seed, count, max_attempts,
                                          newton_kwargs):
        spec = VarietySpec(nvars, constraints)
        calls = []

        def every_other(points):
            first = sum(len(batch) for batch in calls) + 1
            calls.append(points.copy())
            return np.array([n if n % 2 else np.nan for n in range(first, first + len(points))])

        cloud, values, shortfall = _quota(spec, count, seed, max_attempts, every_other,
                                          **newton_kwargs)
        tallies = cloud.metadata["outcomes"]
        reject, rejected = recording_measure()
        _quota(spec, count, seed, max_attempts, reject, **newton_kwargs)
        converged = converged_attempts(spec, seed, max_attempts, **newton_kwargs)
        assert shortfall is None
        # one (B, N) batch per chunk with a converged point, in attempt order; the
        # measure does not change the chunks, so the batches are those of a
        # measure that keeps nothing, cut at the chunk that fills the quota
        assert all(points.ndim == 2 and len(points) >= 1 for points in calls)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(calls, rejected))
        assert len(calls) <= len(rejected)
        # the quota fills at the (2*count - 1)-th converged attempt; later points
        # of its chunk are measured, but neither kept nor tallied
        assert sum(len(points) for points in calls) >= 2 * count - 1
        assert list(zip(cloud.metadata["seed_indices"], values.tolist())) == [
            (converged[i], i + 1) for i in range(0, 2 * count - 1, 2)]
        assert all(np.array_equal(point, np.concatenate(calls)[int(value) - 1])
                   for point, value in zip(cloud.points, values))
        assert tallies["converged"] == 2 * count - 1
        assert sum(tallies.values()) == converged[2 * count - 2] + 1

    def test_no_measure_keeps_every_converged_point(self):
        spec, _q = clifford_spec()
        cloud, values, shortfall = _quota(spec, 12, 3, 40)
        tallies = cloud.metadata["outcomes"]
        assert shortfall is None and len(cloud) == 12 == tallies["converged"]
        assert values is None


def quota_reference(spec, count, rng_seed, max_attempts, measure=None,
                    tol=geometry.DEFAULT_TOL, maxiter=geometry.DEFAULT_MAXITER, plans=None):
    """_quota as a per-attempt loop over each chunk: the kept (attempt, point,
    residual, regularity, row) tuples, the tallies and the shortfall message.

    Chunks, draws and Newton are _quota's own; a measured row with a nan is
    not kept.  When plans is a list, each chunk is appended to it as planned,
    before max_attempts cuts it.
    """
    cap = max(1, geometry.CHUNK_FLOATS
              // max(spec._values.point_floats, spec._jacobian.point_floats))
    generator = np.random.default_rng(rng_seed)
    tallies = {"converged": 0, "no_convergence": 0, "singular": 0}
    kept = []
    attempt = 0
    while attempt < max_attempts and len(kept) < count:
        rate = (tallies["converged"] + 1) / (attempt + 1)
        wanted = math.ceil(max(count - tallies["converged"], 1) / rate)
        plan = range(attempt, attempt + min(wanted, cap))
        if plans is not None:
            plans.append(plan)
        chunk = range(attempt, min(plan.stop, max_attempts))
        draws = generator.standard_normal((len(chunk), spec.nvars))
        norms = np.sqrt(draws[:, None, :] @ draws[:, :, None]).reshape(len(chunk))
        drawn = norms >= 1e-12
        outcomes = np.full(len(chunk), "no_convergence", dtype=object)
        points = np.zeros((len(chunk), spec.nvars))
        residuals, regularity = np.full((2, len(chunk)), np.nan)
        seeds = draws[drawn] / norms[drawn, None]
        points[drawn], outcomes[drawn], residuals[drawn], regularity[drawn] = (
            geometry._newton_batch(spec, seeds, tol, maxiter))
        values = [None] * len(chunk)
        converged = np.flatnonzero(outcomes == "converged")
        if measure is not None and converged.size:
            for i, row in zip(converged, measure(points[converged])):
                values[i] = None if np.isnan(row).any() else row
        for i, outcome in enumerate(outcomes):
            tallies[outcome] += 1
            if outcome == "converged" and (measure is None or values[i] is not None):
                kept.append((chunk[i], points[i], residuals[i], regularity[i], values[i]))
                if len(kept) == count:
                    break
        attempt = chunk.stop
    shortfall = None
    if len(kept) < count:
        shortfall = (
            f"only {len(kept)} of {count} requested points converged "
            f"in {max_attempts} attempts "
            f"(no_convergence={tallies['no_convergence']}, singular={tallies['singular']})"
        )
    return kept, tallies, shortfall


def nan_rows(salt, modulus, width):
    """A measure of rows (B, width), or values (B,) for width 0, that puts a
    nan in the rows of the points whose first coordinate's digits, shifted
    by salt, are divisible by modulus."""
    def measure(points):
        rows = points[:, :max(width, 1)].copy()
        dropped = (np.floor(np.abs(points[:, 0]) * 1e6).astype(int) + salt) % modulus == 0
        rows[dropped, -1] = np.nan
        return rows if width else rows[:, 0]
    return measure


# (spec, Newton settings): converged attempts only; converged and singular;
# converged and no_convergence
DIFFERENTIAL_SPECS = [
    (clifford_spec()[0], {}),
    (VarietySpec(4, _real_parts("z1^3*conj(z2)^2", 4)), {}),
    (VarietySpec(3, [parse("x1^2*x2 - x3^3", 3)]), {"maxiter": 5}),
]
# (spec, seed, count, max_attempts, salt, modulus, width), both with points
# the measure drops: the quota fills in the middle of a chunk; max_attempts
# cuts the last chunk short
MID_CHUNK_FILL = (1, 10, 4, 60, 0, 2, 2)
CUT_BY_MAX_ATTEMPTS = (1, 10, 4, 25, 0, 2, 2)


class TestQuotaMatchesPerAttemptLoop:
    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.integers(0, len(DIFFERENTIAL_SPECS) - 1), st.integers(0, 2**32 - 1),
                      st.integers(1, 12), st.integers(1, 60), st.integers(0, 6),
                      st.integers(2, 5), st.sampled_from([None, 0, 2]))
    @hypothesis.example(*MID_CHUNK_FILL)
    @hypothesis.example(*CUT_BY_MAX_ATTEMPTS)
    def test_same_kept_points_tallies_and_shortfall(self, spec_index, seed, count,
                                                    max_attempts, salt, modulus, width):
        spec, newton_kwargs = DIFFERENTIAL_SPECS[spec_index]
        measure = None if width is None else nan_rows(salt, modulus, width)
        cloud, values, shortfall = _quota(spec, count, seed, max_attempts, measure,
                                          **newton_kwargs)
        kept, tallies, expected_shortfall = quota_reference(
            spec, count, seed, max_attempts, measure, **newton_kwargs)
        assert cloud.metadata["seed_indices"] == [attempt for attempt, *_rest in kept]
        assert cloud.metadata["outcomes"] == tallies
        assert shortfall == expected_shortfall
        for column, got in zip((1, 2, 3), (cloud.points, cloud.residuals, cloud.regularity)):
            expected = np.array([entry[column] for entry in kept]).reshape(got.shape)
            assert np.array_equal(got, expected)
        if measure is None:
            assert values is None
        else:
            expected = np.array([entry[4] for entry in kept])
            assert np.array_equal(values, expected.reshape(values.shape))
            assert not np.isnan(values).any()

    @pytest.mark.parametrize("case", [MID_CHUNK_FILL, CUT_BY_MAX_ATTEMPTS],
                             ids=["mid-chunk-fill", "cut-by-max-attempts"])
    def test_examples_reach_their_edge(self, case):
        spec_index, seed, count, max_attempts, salt, modulus, width = case
        spec, newton_kwargs = DIFFERENTIAL_SPECS[spec_index]
        plans = []
        kept, tallies, _shortfall = quota_reference(
            spec, count, seed, max_attempts, nan_rows(salt, modulus, width),
            plans=plans, **newton_kwargs)
        assert tallies["converged"] > len(kept)
        if case is MID_CHUNK_FILL:
            # the quota fills before the last attempt of its chunk, and the
            # attempts after it are not tallied
            assert len(kept) == count
            assert sum(tallies.values()) == kept[-1][0] + 1 < min(plans[-1].stop, max_attempts)
        else:
            assert len(plans) >= 2 and plans[-1].stop > max_attempts
            assert sum(tallies.values()) == max_attempts


def svd_steps(jac, values, eps_reg=1e-8):
    """Reference: each row's minimum-norm step through its own SVD and cutoff."""
    steps = []
    for matrix, g in zip(jac, values):
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        cutoff = max(eps_reg * 1e-4, s[0] * 1e-14)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        steps.append(vt.T @ (inv * (u.T @ g)))
    return np.array(steps)


def svd_inputs(monkeypatch):
    """Record every stacked matrix that np.linalg.svd receives from now on."""
    seen, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def assert_close_steps(steps, expected):
    # a stacked SVD contracts in another order than a row's own, and the
    # truncated steps here are well conditioned
    assert np.all(np.linalg.norm(steps - expected, axis=1)
                  <= 1e-13 * np.linalg.norm(expected, axis=1)), (steps, expected)


STACK_KINDS = ("plain", "scaled", "nearly-dependent")


def jacobian_stack(m, n, kind, rows=40):
    rng = np.random.default_rng([m, n, STACK_KINDS.index(kind)])
    jac, values = rng.standard_normal((rows, m, n)), rng.standard_normal((rows, m))
    if kind == "scaled":  # the whole Jacobian, and each row apart
        jac *= 10.0 ** rng.integers(-4, 7, (rows, 1, 1)) * 10.0 ** rng.integers(-2, 3, (rows, m, 1))
    if kind == "nearly-dependent":  # the last row within 1e-2 .. 1e-6 of the first
        jac[:, -1] = jac[:, 0] + 10.0 ** rng.integers(-6, -1, (rows, 1)) * jac[:, -1]
    return jac, values


class TestNewtonSteps:
    @pytest.mark.parametrize("kind", STACK_KINDS)
    @pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in range(3, 9) if m < n])
    def test_qr_step_is_the_svd_step(self, monkeypatch, m, n, kind):
        jac, values = jacobian_stack(m, n, kind)
        expected = svd_steps(jac, values)
        seen = svd_inputs(monkeypatch)
        steps = geometry._newton_steps(jac, values)
        # every row's bound holds, so no row reaches the SVD
        assert seen == []
        # both steps are backward stable, so they agree to the Jacobian's
        # conditioning: 1e-13 up to condition 10, proportionally beyond
        cond = np.linalg.cond(jac)
        error = np.linalg.norm(steps - expected, axis=1) / np.linalg.norm(expected, axis=1)
        assert np.all(error <= 1e-13 * np.maximum(1.0, cond / 10)), (error / cond).max()

    def test_dependent_constraints_take_the_svd(self, monkeypatch):
        # rows x, e4 and 2 e4: rank 2 at every point
        spec = VarietySpec(5, [parse("x4", 5), parse("2*x4", 5)])
        x = np.random.default_rng(3).standard_normal((6, 5))
        jac, values = spec.jacobian(x), spec.values(x)
        expected = svd_steps(jac, values)
        seen = svd_inputs(monkeypatch)
        steps = geometry._newton_steps(jac, values)
        assert len(seen) == 1 and np.array_equal(seen[0], jac)
        assert_close_steps(steps, expected)

    @pytest.mark.parametrize("jac, by_svd", [
        # an exact zero pivot: the last row repeats the first
        (np.array([[[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]]]), True),
        # a zero Jacobian: ||R||_F^(m-1) is 0
        (np.zeros((1, 2, 4)), True),
        # entries whose ||R||_F overflows
        (1e160 * np.random.default_rng(5).standard_normal((1, 3, 5)), True),
        # |det R| overflows, and |det R| / ||R||_F^2 = 5 is far below the
        # cutoff 1e-14 sigma_max, which drops the third singular value
        (np.diag([9e153, 9e153, 10.0, 0.0])[None, :3], True),
        # ||R||_F is finite and ||R||_F^3 overflows; no singular value is near the cutoff
        (1e120 * np.random.default_rng(6).standard_normal((1, 4, 6)), False),
    ], ids=["zero-pivot", "zero", "frobenius-overflows", "determinant-overflows",
            "power-overflows"])
    def test_extreme_rows_without_warning(self, monkeypatch, jac, by_svd):
        # pyproject turns every RuntimeWarning into an error
        values = np.ones(jac.shape[:2])
        expected = svd_steps(jac, values)
        seen = svd_inputs(monkeypatch)
        steps = geometry._newton_steps(jac, values)
        assert len(seen) == by_svd
        assert_close_steps(steps, expected)

    def test_rows_split_between_the_branches(self, monkeypatch):
        jac, values = jacobian_stack(2, 5, "plain", rows=6)
        jac[[1, 4], 1] = 3 * jac[[1, 4], 0]
        expected = svd_steps(jac, values)
        seen = svd_inputs(monkeypatch)
        steps = geometry._newton_steps(jac, values)
        assert len(seen) == 1 and np.array_equal(seen[0], jac[[1, 4]])
        assert_close_steps(steps, expected)


EPS = np.finfo(float).eps
CONDITIONED_KINDS = ("graded", "intrinsic")


def conditioned_stack(m, n, log_cond, kind, rows=40):
    """A seeded (rows, m, n) stack of condition number about 10^log_cond, and
    each matrix scaled by 10^-3 .. 10^6 as a whole.  "graded" scales the rows
    of a Gaussian matrix apart, by factors spread over 10^log_cond;
    "intrinsic" is U diag(1 .. 10^-log_cond) V^T with U and V orthogonal."""
    rng = np.random.default_rng([m, n, log_cond, CONDITIONED_KINDS.index(kind)])
    scale = 10.0 ** rng.integers(-3, 7, (rows, 1, 1))
    if kind == "graded":
        spread = np.array([rng.permutation(m) for _ in range(rows)]) / max(m - 1, 1)
        return scale * 10.0 ** (log_cond * spread)[..., None] * rng.standard_normal((rows, m, n))
    u = np.linalg.qr(rng.standard_normal((rows, m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((rows, n, m)))[0]
    return scale * (u * np.logspace(0, -log_cond, m)) @ np.swapaxes(v, 1, 2)


CONDITIONED_CASES = [(m, n, log_cond) for m in (1, 2, 3, 4) for n in (m + 1, 8)
                     for log_cond in (0, 4, 8, 12)]


class TestThinQR:
    @pytest.mark.parametrize("kind", CONDITIONED_KINDS)
    @pytest.mark.parametrize("m, n, log_cond", CONDITIONED_CASES)
    def test_factors(self, m, n, log_cond, kind):
        jac = conditioned_stack(m, n, log_cond, kind)
        q, r = geometry._thin_qr(jac)
        # Gram-Schmidt twice: orthonormal rows, and J = R^T Q, row by row, to
        # a small multiple of the unit roundoff whatever the conditioning
        assert np.abs(q @ np.swapaxes(q, 1, 2) - np.eye(m)).max() <= 8 * EPS
        backward = np.swapaxes(r, 1, 2) @ q - jac
        assert np.all(np.linalg.norm(backward, axis=2) <= 8 * EPS * np.linalg.norm(jac, axis=2))
        assert np.all(np.tril(r, -1) == 0.0)
        assert np.all(np.diagonal(r, axis1=1, axis2=2) > 0.0)

    @pytest.mark.parametrize("kind", CONDITIONED_KINDS)
    @pytest.mark.parametrize("m, n, log_cond", CONDITIONED_CASES)
    def test_proved_steps_match_the_oracle(self, monkeypatch, m, n, log_cond, kind):
        jac = conditioned_stack(m, n, log_cond, kind)
        values = np.random.default_rng([m, n, log_cond]).standard_normal((len(jac), m))
        seen = svd_inputs(monkeypatch)
        steps = geometry._newton_steps(jac, values)
        by_svd = np.zeros(len(jac), dtype=bool)
        for stacked in seen:
            by_svd |= [any(np.array_equal(row, matrix) for matrix in stacked) for row in jac]
        proved = np.flatnonzero(~by_svd)
        # |det R| / ||R||_F^(m-1) undershoots sigma_min by the product of the
        # other singular values over ||R||_F, so from m = 3 on a spread of
        # 10^8 puts the bound below the cutoff and every row takes the SVD
        assert proved.size or (m >= 3 and log_cond >= 8)
        if not proved.size:
            return
        expected = np.array([min_norm_step_reference(jac[i], values[i]) for i in proved])
        error = (np.linalg.norm(steps[proved] - expected, axis=1)
                 / np.linalg.norm(expected, axis=1))
        # Gram-Schmidt and the triangular solve do not see the scales of the
        # rows, so a graded stack's steps are exact to 1e-13; the intrinsic
        # conditioning of the system is a limit of every method
        cond = np.linalg.cond(jac[proved]) if kind == "intrinsic" else np.ones(len(proved))
        assert np.all(error <= 1e-13 * np.maximum(1.0, cond / 10)), error.max()

    @pytest.mark.parametrize("bad, finite", [
        (np.zeros((3, 6)), True),  # a zero Jacobian: its step is zero
        (np.array([[1.0, 2, 0, 1, 0, 0], [0.0] * 6, [0, 1.0, 1, 0, 0, 1]]), True),  # a zero row
        (np.array([[1.0, 2, 0, 1, 0, 0], [0, np.inf, 0, 0, 0, 0], [0, 1.0, 1, 0, 0, 1]]), False),
        (np.full((3, 6), np.nan), False),
    ], ids=["zero", "zero-row", "inf", "nan"])
    def test_degenerate_rows_take_the_svd_branch(self, monkeypatch, bad, finite):
        jac, values = jacobian_stack(3, 6, "plain", rows=5)
        jac[2] = bad
        seen = svd_inputs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = geometry._newton_steps(jac, values)
        proved = [0, 1, 3, 4]
        assert_close_steps(steps[proved], np.array(
            [min_norm_step_reference(jac[i], values[i]) for i in proved]))
        if finite:  # the SVD of that row alone, with its cutoff
            assert len(seen) == 1 and np.array_equal(seen[0], jac[[2]])
            assert_close_steps(steps[[2]], svd_steps(jac[[2]], values[[2]]))
        else:  # no direction: its SVD would not converge, so it steps by nan
            assert seen == [] and np.isnan(steps[2]).all()


class TestNewtonBatchStop:
    # each case meets the outcomes it names
    @pytest.mark.parametrize("nvars, constraints, maxiter, met", [
        (4, _real_parts("z1^3*conj(z2)^2", 4), 50, {"converged", "singular"}),
        (3, [parse("x1^2*x2 - x3^3", 3)], 4, {"converged", "no_convergence"}),
        (3, [parse("x1^4", 3)], 50, {"singular", "no_convergence"}),
        (4, [parse("x1", 4), parse("x1 - 1", 4)], 8, {"no_convergence"}),
    ], ids=["codim2-singular", "short-maxiter", "singular-x1^4", "inconsistent"])
    def test_sigma_min_is_taken_at_the_stop(self, monkeypatch, nvars, constraints, maxiter, met):
        spec = VarietySpec(nvars, constraints)
        seeds = np.random.default_rng(nvars).standard_normal((60, nvars))
        seeds /= np.linalg.norm(seeds, axis=1)[:, None]
        calls, svd = [], np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append((np.array(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        points, outcomes, residual, sigma = geometry._newton_batch(
            spec, seeds, geometry.DEFAULT_TOL, maxiter)
        assert set(outcomes) == met
        stopped = outcomes != "no_convergence"
        # one values-only SVD, of the Jacobians at every stopped point
        values_only = [a for a, uv in calls if not uv]
        assert len(values_only) == (1 if stopped.any() else 0)
        if stopped.any():
            assert np.array_equal(values_only[0], spec.jacobian(points[stopped]))
        for point, outcome, res, smallest in zip(points, outcomes, residual, sigma):
            if outcome == "no_convergence":
                assert math.isnan(res) and math.isnan(smallest)
                continue
            expected = svd(spec.jacobian(point), compute_uv=False)[-1]
            assert smallest == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert outcome == ("singular" if smallest < geometry.EPS_REG else "converged")
            # one point alone is evaluated apart from the batch, to the last bits
            assert res == pytest.approx(np.max(np.abs(spec.values(point))), abs=1e-15)
            assert res < geometry.DEFAULT_TOL


def _newton_branches(spec, seeds, tol, maxiter):
    """_newton_batch's results, and the branches of its loop that they took.

    Every evaluation is recorded: the seeds' values, then per step the
    Jacobian of the running rows and the line search's candidates; a last
    Jacobian without candidates is the classifying SVD's.
    """
    events = []
    values, jacobian = spec.values, spec.jacobian
    spec.values = lambda x: (events.append(("v", len(x))), values(x))[1]
    spec.jacobian = lambda x: (events.append(("j", len(x))), jacobian(x))[1]
    try:
        result = geometry._newton_batch(spec, seeds, tol, maxiter)
    finally:
        del spec.values, spec.jacobian
    steps = []  # per step, the running rows and the rows of each candidate
    for kind, rows in events[1:]:
        if kind == "j":
            steps.append((rows, []))
        else:
            steps[-1][1].append(rows)
    steps = [(rows, trials) for rows, trials in steps if trials]
    outcomes = set(result[1])
    branches = {
        "full-step": all(len(trials) == 1 for _rows, trials in steps),
        "halving": any(len(trials) > 1 for _rows, trials in steps),
        "exhausted": any(len(trials) == 25 for _rows, trials in steps),
        "stops-differ": len({rows for rows, _trials in steps}) >= 3,
        "maxiter": "no_convergence" in outcomes and len(steps) == maxiter,
        "singular": "singular" in outcomes,
    }
    return result, {name for name, taken in branches.items() if taken}


def _unit_rows(count, nvars, seed):
    seeds = np.random.default_rng(seed).standard_normal((count, nvars))
    return seeds / np.linalg.norm(seeds, axis=1)[:, None]


class TestNewtonBatchMatchesReference:
    # (spec, seeds, maxiter, the branches the case must take)
    @pytest.mark.parametrize("spec, seeds, maxiter, branches", [
        # Newton on |x|^2 = 1 from radius r >= 1/sqrt(5) reduces the residual
        # by the full step every time
        pytest.param(VarietySpec(4, []),
                     _unit_rows(40, 4, 1) * np.linspace(0.6, 3.0, 40)[:, None], 50,
                     {"full-step", "stops-differ"}, id="full-step"),
        pytest.param(VarietySpec(3, [parse("x1^2*x2 - x3^3", 3)]), _unit_rows(60, 3, 2), 50,
                     {"halving", "stops-differ"}, id="halving"),
        pytest.param(VarietySpec(6, _real_parts("z1^3 + z2^3 + z3^3", 6)),
                     _unit_rows(200, 6, 12), 50, {"halving", "stops-differ"}, id="codim2"),
        # no step reduces |g|: every row halves 24 times, then keeps the full step
        pytest.param(VarietySpec(4, [parse("x1", 4), parse("x1 - 1", 4)]),
                     _unit_rows(20, 4, 3), 8, {"exhausted", "maxiter"}, id="exhausted"),
        pytest.param(VarietySpec(3, [parse("x1^2*x2 - x3^3", 3)]), _unit_rows(60, 3, 4), 4,
                     {"halving", "maxiter"}, id="short-maxiter"),
        pytest.param(VarietySpec(3, [parse("x1^4", 3)]), _unit_rows(30, 3, 5), 50,
                     {"singular"}, id="singular-x1^4"),
        pytest.param(VarietySpec(4, _real_parts("z1^3*conj(z2)^2", 4)), _unit_rows(40, 4, 6),
                     50, {"singular", "stops-differ"}, id="codim2-singular"),
    ])
    def test_bit_for_bit(self, spec, seeds, maxiter, branches):
        (points, outcomes, residual, sigma), taken = _newton_branches(
            spec, seeds, geometry.DEFAULT_TOL, maxiter)
        assert branches <= taken
        ref_points, ref_outcomes, ref_residual, ref_sigma = newton_batch_reference(
            spec, seeds, geometry.DEFAULT_TOL, maxiter)
        assert np.array_equal(points, ref_points)
        assert np.array_equal(outcomes, ref_outcomes)
        assert np.array_equal(residual, ref_residual, equal_nan=True)
        assert np.array_equal(sigma, ref_sigma, equal_nan=True)


# seeds of one to four uint32 words, one of four words plus a bit, and a
# numpy integer
DRAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3, np.uint64(2**63 + 7)]


class TestAttemptDraws:
    @pytest.mark.parametrize("rng_seed", DRAW_SEEDS)
    def test_draws_are_those_of_seed_and_attempt(self, monkeypatch, rng_seed):
        spec = VarietySpec(5, [parse("x1*x2 - x3^2", 5)])
        seeds = []

        def no_newton(_spec, batch, _tol, _maxiter):
            seeds.append(batch)
            return (batch, np.full(len(batch), "no_convergence", dtype=object),
                    *np.full((2, len(batch)), np.nan))

        monkeypatch.setattr(geometry, "_newton_batch", no_newton)
        cloud, _values, _shortfall = _quota(spec, 1, rng_seed, 41)
        assert cloud.metadata["outcomes"]["no_convergence"] == 41
        draws = np.random.default_rng(rng_seed).standard_normal((41, 5))
        expected = np.array([draw / np.linalg.norm(draw) for draw in draws])
        assert np.array_equal(np.concatenate(seeds), expected)

    def test_negative_or_float_seed_raises(self):
        spec, _q = clifford_spec()
        with pytest.raises(ValueError):
            _quota(spec, 1, -1, 5)
        with pytest.raises(ValueError):
            sample(spec, 1, rng_seed=-(2**40))
        with pytest.raises(TypeError):
            _quota(spec, 1, 1.5, 5)
        with pytest.raises(TypeError):
            sample(spec, 1, rng_seed=2.5)

    def test_quota_builds_one_generator(self, monkeypatch):
        spec, _q = clifford_spec()
        # one default_rng for the run, and no generator per attempt by either route
        built = []
        for name in ("default_rng", "Generator"):
            def counting(seed, build=getattr(np.random, name)):
                built.append(seed)
                return build(seed)

            monkeypatch.setattr(np.random, name, counting)
        reject, calls = recording_measure()
        cloud, _values, _shortfall = _quota(spec, 50, 4, 200, reject)
        assert sum(cloud.metadata["outcomes"].values()) == 200 and len(calls) > 1
        assert len(built) <= 1

    @pytest.mark.parametrize("cap", [1, 7])
    @pytest.mark.parametrize("spec_index", range(len(DIFFERENTIAL_SPECS)))
    def test_chunk_cap_changes_no_byte(self, monkeypatch, tmp_path, spec_index, cap):
        # the draws of a run are one stream taken a chunk at a time, so chunks
        # of at most cap attempts give the bytes of the default chunks
        spec, newton_kwargs = DIFFERENTIAL_SPECS[spec_index]
        chunks = []
        newton_batch = geometry._newton_batch

        def recorded(variety, seeds, *args):
            chunks.append(len(seeds))
            return newton_batch(variety, seeds, *args)

        monkeypatch.setattr(geometry, "_newton_batch", recorded)

        def run(name):
            cloud, values, shortfall = _quota(spec, 12, 5, 60, nan_rows(0, 3, 2),
                                              **newton_kwargs)
            try:
                sampled = sample(spec, 12, rng_seed=5, **newton_kwargs)
            except InsufficientYield as err:
                sampled = err.cloud
            export_cloud(add_stereo(sampled, 1), str(tmp_path / name))
            arrays = (cloud.points, cloud.residuals, cloud.regularity, values)
            return ([array.tobytes() for array in arrays], cloud.metadata, shortfall,
                    (tmp_path / name).read_bytes())

        default = run("default.csv")
        assert max(chunks) > cap
        chunks.clear()
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", cap * max(
            spec._values.point_floats, spec._jacobian.point_floats))
        assert run("capped.csv") == default
        assert max(chunks) == cap


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
        # one call on the whole cloud must match the per-point calls row by
        # row, though not bit for bit: stacked and single calls round apart
        batch = mean_curvature(spec, cloud.points)
        rows = np.column_stack([batch.radial_component, batch.normal_components])
        for x, row, batch_condition in zip(cloud.points, rows, batch.frame_condition):
            cs = mean_curvature(spec, x)
            expected = mean_curvature_reference(spec, x)
            actual = np.concatenate([[cs.radial_component], cs.normal_components])
            atol = 1e-13 * np.maximum(1.0, np.abs(expected))
            for components in (actual, row):
                assert np.all(np.abs(components - expected) <= atol), (components, expected)
            assert np.all(np.abs(row - actual) <= atol), (row, actual)
            assert cs.frame_condition == np.linalg.svd(spec.jacobian(x), compute_uv=False)[-1]
            assert batch_condition == pytest.approx(cs.frame_condition, rel=1e-13)
            largest_normal = max(largest_normal, float(np.max(np.abs(expected[1:]))))
        assert (largest_normal < 1e-10) if minimal else (largest_normal > 0.1)

    @pytest.mark.parametrize("poly", ["z1^3 + 2*z2^3 - z3^3", "z1^2 + z2^2 + x5^2 - x6^2"])
    def test_unguarded_components_on_quota_points(self, poly):
        # the measure codim 2 hands _quota: every chunk's converged points
        # give the components of mean_curvature bit for bit
        spec = VarietySpec(6, list(parse(poly, 6).real_imag_parts()))
        chunks = []

        def measure(points):
            chunks.append((points.copy(), _curvature_components(spec, points)))
            return chunks[-1][1]
        cloud, components, _shortfall = _quota(spec, 200, 1, 2000, measure)
        assert len(cloud) == 200 and len(chunks) >= 1
        for points, rows in chunks:
            curvature = mean_curvature(spec, points)
            expected = np.column_stack([curvature.radial_component, curvature.normal_components])
            assert rows.tobytes() == expected.tobytes()

    def test_dependent_constraints_rejected(self):
        spec = VarietySpec(5, [parse("x4", 5), parse("2*x4", 5)])
        with pytest.raises(SingularJacobian):
            mean_curvature(spec, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))


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

    def test_shapes(self):
        spec = VarietySpec(6, _real_parts("z1^3 + z2^3 - z3^3", 6))
        cloud = sample(spec, 5, rng_seed=3)
        single = mean_curvature(spec, cloud.points[0])
        assert single.normal_components.shape == (2,)
        assert type(single.radial_component) is float
        assert type(single.frame_condition) is float
        batch = mean_curvature(spec, cloud.points)
        assert batch.normal_components.shape == (5, 2)
        assert batch.radial_component.shape == (5,)
        assert batch.frame_condition.shape == (5,)
        for bad in (cloud.points[:, :5], cloud.points[None]):
            with pytest.raises(DimensionMismatch):
                mean_curvature(spec, bad)

    def test_one_off_variety_row_rejects_the_batch(self):
        spec, _ = clifford_spec()
        points = sample(spec, 6, rng_seed=1).points
        points[4] = [1.0, 0.0, 0.0, 0.0]
        with pytest.raises(OffVariety):
            mean_curvature(spec, points)

    def test_one_singular_row_rejects_the_batch(self):
        # the gradient of x1*x5 vanishes where x1 = x5 = 0, so there it
        # depends on that of x4; the first two rows are regular
        spec = VarietySpec(5, [parse("x4", 5), parse("x1*x5", 5)])
        points = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0, 0.0]])
        assert mean_curvature(spec, points[:2]).frame_condition.min() >= geometry.EPS_REG
        with pytest.raises(SingularJacobian):
            mean_curvature(spec, points)

    def test_batch_memory_is_blocked(self):
        # 64 variables: the Hessians of one point are 2 * 64 * 64 floats, so
        # an unblocked batch of 200 would hold about 200 times that
        spec = VarietySpec(64, [parse("x1^2 - x2^2 + x3*x4", 64)])
        points = sample(spec, 200, rng_seed=7).points

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_point = peak(lambda: [mean_curvature(spec, x) for x in points])
        batched = peak(lambda: mean_curvature(spec, points))
        assert batched <= 2 * per_point, (batched, per_point)


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

    def test_batch_matches_rows(self):
        spec, _ = clifford_spec()
        points = sample(spec, 20, rng_seed=3).points
        expected = [np.delete(x, 1) / (1.0 - x[1]) for x in points]
        assert np.array_equal(stereographic(points, 2), expected)
        assert stereographic(points[:0], 2).shape == (0, 3)

    def test_pole_in_batch_rejected(self):
        with pytest.raises(PoleSingularity):
            stereographic([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 4)

    @pytest.mark.parametrize("pole", [0, 5])
    def test_pole_index_out_of_range(self, pole):
        with pytest.raises(IndexOutOfRange):
            stereographic([0.6, 0.8, 0.0, 0.0], pole)


class _RecordedFile:
    """A file that records the text of every write."""

    def __init__(self, handle, writes):
        self.handle, self.writes = handle, writes

    def __enter__(self):
        self.handle.__enter__()
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def write(self, text):
        self.writes.append(text)
        return self.handle.write(text)


class TestExport:
    def test_empty_cloud_header_only(self, tmp_path):
        cloud = PointCloud(
            points=np.zeros((0, 4)),
            residuals=np.zeros(0),
            regularity=np.zeros(0),
        )
        path = tmp_path / "empty.csv"
        export_cloud(cloud, str(path))
        assert path.read_bytes() == b"x1,x2,x3,x4,residual,regularity\r\n"

    def test_bytes(self, tmp_path):
        # CRLF line ends and 17 significant digits, every column in header order
        cloud = PointCloud(
            points=np.array([[1 / 3, -2 / 3, 0.1, 1.0], [0.0, -0.0, 1e-300, 2.0**-52]]),
            residuals=np.array([1e-13, 0.0]),
            regularity=np.array([0.5, math.pi]),
            stereo=np.array([[0.25, -1.5, 7.0], [0.0, 1e20, -3.0]]),
        )
        path = tmp_path / "cloud.csv"
        export_cloud(cloud, str(path))
        assert path.read_bytes() == (
            b"x1,x2,x3,x4,s1,s2,s3,residual,regularity\r\n"
            b"0.33333333333333331,-0.66666666666666663,0.10000000000000001,1,"
            b"0.25,-1.5,7,1e-13,0.5\r\n"
            b"0,-0,1e-300,2.2204460492503131e-16,"
            b"0,1e+20,-3,0,3.1415926535897931\r\n"
        )

    def test_bytes_match_savetxt(self, tmp_path):
        # the format export_cloud has always written: np.savetxt's
        table = np.random.default_rng(13).standard_normal((40, 6)) * 10.0 ** np.arange(-3, 3)
        table[0, :3] = [np.inf, -np.inf, np.nan]
        cloud = PointCloud(points=table[:, :4], residuals=table[:, 4], regularity=table[:, 5])
        path, reference = tmp_path / "cloud.csv", tmp_path / "reference.csv"
        export_cloud(cloud, str(path))
        with open(reference, "w", newline="") as handle:
            np.savetxt(handle, table, fmt="%.17g", delimiter=",", newline="\r\n",
                       header="x1,x2,x3,x4,residual,regularity", comments="")
        assert path.read_bytes() == reference.read_bytes()

    def test_roundtrip_bit_identical(self, tmp_path):
        spec, _ = clifford_spec()
        cloud = sample(spec, 3, rng_seed=8)
        path = tmp_path / "cloud.csv"
        export_cloud(cloud, str(path))
        back = read_cloud(str(path))
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.residuals, cloud.residuals)
        assert np.array_equal(back.regularity, cloud.regularity)

    def test_blocks_write_the_bytes_of_one_block(self, monkeypatch, tmp_path):
        # a block is CHUNK_FLOATS // columns rows: 29 rows of 9 columns are
        # one block by default and ten blocks (3, ..., 3, 2) at 27 floats
        spec, _ = clifford_spec()
        cloud = add_stereo(sample(spec, 29, rng_seed=8), pole=4)
        whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
        export_cloud(cloud, str(whole))
        writes = []
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", 27)
        monkeypatch.setattr(geometry, "open", lambda *args, **kwargs: _RecordedFile(
            open(*args, **kwargs), writes), raising=False)
        export_cloud(cloud, str(blocks))
        assert [text.count("\r\n") for text in writes] == [1] + [3] * 9 + [2]
        assert blocks.read_bytes() == whole.read_bytes()

    def test_stereo_columns(self, tmp_path):
        spec, _ = clifford_spec()
        cloud = add_stereo(sample(spec, 5, rng_seed=8), pole=4)
        path = tmp_path / "stereo.csv"
        export_cloud(cloud, str(path))
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["x1", "x2", "x3", "x4", "s1", "s2", "s3", "residual", "regularity"]
        back = read_cloud(str(path))
        assert np.array_equal(back.stereo, cloud.stereo)
