"""Least-squares discovery of eigenfunction candidates and exact recovery."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigensphere import search
from eigensphere.calculus import kappa, laplacian
from eigensphere.eigen import verify_eigenfunction
from eigensphere.errors import BudgetExceeded
from eigensphere.parsing import parse
from eigensphere.search import (
    MEMORY_BUDGET,
    HarmonicSystem,
    ResidualSystem,
    monomial_basis,
    rationalize_and_verify,
    _levenberg_marquardt,
    search_eigen,
    search_memory_bytes,
)

from oracles import (
    coefficients_of, levenberg_marquardt_reference, polynomial_of, residual_norm_of)


def dense_kappa_forms(nvars, degree):
    """The (T, M, M) tensor of symmetric kappa forms, built one outer product
    per (i, mu, nu) as the search did before it kept a table of entries."""
    basis = monomial_basis(nvars, degree)
    index = {e: i for i, e in enumerate(basis)}
    mid_basis = monomial_basis(nvars, degree - 1)
    mid_index = {e: i for i, e in enumerate(mid_basis)}
    partials = []
    for i in range(nvars):
        d_i = np.zeros((len(mid_basis), len(basis)))
        for alpha, col in index.items():
            if alpha[i] >= 1:
                target = list(alpha)
                target[i] -= 1
                d_i[mid_index[tuple(target)], col] += alpha[i]
        partials.append(d_i)
    kap_basis = monomial_basis(nvars, 2 * degree - 2)
    kap_index = {e: i for i, e in enumerate(kap_basis)}
    forms = np.zeros((len(kap_basis), len(basis), len(basis)))
    for d_i in partials:
        for mu_row, mu in enumerate(mid_basis):
            for nu_row, nu in enumerate(mid_basis):
                gamma = tuple(a + b for a, b in zip(mu, nu))
                forms[kap_index[gamma]] += np.outer(d_i[mu_row], d_i[nu_row])
    return (forms + np.transpose(forms, (0, 2, 1))) / 2


class TestMonomialBasis:
    def test_counts(self):
        # C(n+d-1, d) monomials of degree d in n variables
        assert len(monomial_basis(4, 1)) == 4
        assert len(monomial_basis(4, 2)) == 10
        assert len(monomial_basis(3, 3)) == 10

    def test_descending_graded_lex(self):
        assert monomial_basis(3, 2)[0] == (2, 0, 0)
        for nvars, degree in itertools.product(range(1, 8), range(7)):
            basis = monomial_basis(nvars, degree)
            assert all(sum(e) == degree for e in basis)
            # strictly descending: sorted, with no tuple twice
            assert all(a > b for a, b in zip(basis, basis[1:]))
            assert len(basis) == math.comb(nvars + degree - 1, degree)

    def test_degree_zero(self):
        assert monomial_basis(3, 0) == ((0, 0, 0),)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            monomial_basis(3, -1)


class TestResidualSystem:
    def test_exact_solution_is_root(self):
        # residual of a normalized exact eigenfunction is < 1e-13
        system = ResidualSystem(4, 2)
        p = parse("z1^2 + z2^2", 4)
        coeffs = coefficients_of(p, system.basis)
        coeffs = coeffs / np.linalg.norm(coeffs)
        assert residual_norm_of(system, coeffs) < 1e-13

    def test_residual_detects_violations(self):
        system = ResidualSystem(4, 2)
        # r^2 is not harmonic: the Laplacian block must be nonzero
        r2 = parse("x1^2 + x2^2 + x3^2 + x4^2", 4)
        coeffs = coefficients_of(r2, system.basis) / 2.0
        assert residual_norm_of(system, coeffs) > 1e-2

    def test_residual_blocks_match_symbolic(self, rng):
        # the algebraic blocks must agree with the symbolic operators
        system = ResidualSystem(4, 2)
        coeffs = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
        coeffs = np.round(coeffs * 8) / 8  # exact binary fractions
        p = polynomial_of(system, coeffs)
        t = np.concatenate([coeffs.real, coeffs.imag])
        res = system.residual(t)
        lap_rows = system.lap_matrix.shape[0]
        lap = laplacian(p)
        lap_basis = monomial_basis(4, 0)
        lap_vec = coefficients_of(lap, lap_basis)
        assert_allclose(res[:lap_rows], lap_vec.real, atol=1e-12)
        assert_allclose(res[lap_rows:2 * lap_rows], lap_vec.imag, atol=1e-12)
        kap = kappa(p, p)
        kap_vec = coefficients_of(kap, monomial_basis(4, 2))
        q = len(kap_vec)
        assert_allclose(res[2 * lap_rows:2 * lap_rows + q], kap_vec.real, atol=1e-10)
        assert_allclose(res[2 * lap_rows + q:2 * lap_rows + 2 * q], kap_vec.imag, atol=1e-10)

    def test_jacobian_matches_finite_differences(self, rng):
        system = ResidualSystem(4, 2)
        t = rng.standard_normal(2 * system.size)
        analytic = system.jacobian(t)
        h = 1e-6
        for col in range(2 * system.size):
            bump = np.zeros_like(t)
            bump[col] = h
            fd = (system.residual(t + bump) - system.residual(t - bump)) / (2 * h)
            assert_allclose(analytic[:, col], fd, atol=1e-5, rtol=1e-5)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            ResidualSystem(2, 1)
        with pytest.raises(ValueError):
            ResidualSystem(4, 0)

    @pytest.mark.parametrize("nvars, degree", [(4, 2), (5, 3), (6, 3)])
    def test_matches_dense_reference(self, nvars, degree):
        system = ResidualSystem(nvars, degree)
        forms = dense_kappa_forms(nvars, degree)
        rng = np.random.default_rng([nvars, degree])
        for _ in range(3):
            t = rng.standard_normal(2 * system.size)
            u, v = system.split(t)
            bu, bv = forms @ u, forms @ v
            lap_u, lap_v = system.lap_matrix @ u, system.lap_matrix @ v
            gauge = u @ u + v @ v - 1.0
            expected = np.concatenate([lap_u, lap_v, bu @ u - bv @ v, 2 * (bu @ v), [gauge]])
            assert_allclose(system.residual(t), expected, rtol=1e-12)
            jac = system.jacobian(t)
            r, q, m = len(lap_u), len(forms), system.size
            assert_allclose(jac[2 * r:2 * r + q, :m], 2 * bu, rtol=1e-12)
            assert_allclose(jac[2 * r:2 * r + q, m:], -2 * bv, rtol=1e-12)
            assert_allclose(jac[2 * r + q:2 * r + 2 * q, :m], 2 * bv, rtol=1e-12)
            assert_allclose(jac[2 * r + q:2 * r + 2 * q, m:], 2 * bu, rtol=1e-12)

    @pytest.mark.parametrize("nvars, degree", [(3, 1), (4, 2), (5, 3), (6, 4)])
    def test_kappa_table(self, nvars, degree):
        table = ResidualSystem(nvars, degree).kappa_forms
        mid = len(monomial_basis(nvars, degree - 1))
        assert table.shape == (nvars * mid ** 2, 4)
        assert table.dtype == np.int64
        assert (table[:, 3] > 0).all()
        rows = {tuple(row) for row in table.tolist()}
        assert len({row[:3] for row in rows}) == len(table)  # no (t, a, b) twice
        assert rows == {(t, b, a, w) for t, a, b, w in rows}

    def test_kappa_table_is_small(self):
        assert ResidualSystem(6, 4).kappa_forms.nbytes < 1_000_000

    @pytest.mark.parametrize("nvars, degree", [(70, 1), (45, 2)])
    def test_many_variables(self, nvars, degree):
        # a positional code of these exponents in a base above the largest
        # exponent overflows int64 (2^69, 2 * 3^44 > 2^63), so exponent
        # lookup must not rely on one
        system = ResidualSystem(nvars, degree)
        root = coefficients_of(parse(f"z1^{degree}", nvars), system.basis)
        assert residual_norm_of(system, root / np.linalg.norm(root)) < 1e-13
        real = coefficients_of(parse(f"x1^{degree}", nvars), system.basis)
        assert residual_norm_of(system, real) > 0.5


def harmonic_dimension(nvars, degree):
    """dim H_d = C(n+d-1, d) - C(n+d-3, d-2), the harmonic degree-d polynomials."""
    lower = math.comb(nvars + degree - 3, degree - 2) if degree >= 2 else 0
    return math.comb(nvars + degree - 1, degree) - lower


class TestHarmonicSystem:
    @pytest.mark.parametrize("nvars", range(3, 8))
    def test_basis_spans_the_harmonic_polynomials(self, nvars):
        for degree in range(1, 6):
            system = ResidualSystem(nvars, degree)
            basis = HarmonicSystem(system).basis
            lap = system.lap_matrix
            assert basis.shape == (system.size, harmonic_dimension(nvars, degree))
            assert np.linalg.norm(lap @ basis) <= 1e-13 * np.linalg.norm(lap)
            assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-14

    def test_degree_one_is_the_identity(self):
        assert np.array_equal(HarmonicSystem(ResidualSystem(5, 1)).basis, np.eye(5))

    @pytest.mark.parametrize("nvars, degree", [(3, 1), (4, 2), (5, 3)])
    def test_residual_is_that_of_the_lift(self, nvars, degree, rng):
        system = ResidualSystem(nvars, degree)
        harmonic = HarmonicSystem(system)
        p = rng.standard_normal(2 * harmonic.dim)
        full = system.residual(harmonic.lift(p).reshape(-1))
        lap_rows = 2 * system.lap_matrix.shape[0]
        assert np.abs(full[:lap_rows]).max(initial=0.0) <= 1e-13
        assert_allclose(harmonic.residual(p), full[lap_rows:], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nvars, degree", [(3, 1), (4, 2), (5, 3)])
    def test_jacobian_matches_finite_differences(self, nvars, degree, rng):
        harmonic = HarmonicSystem(ResidualSystem(nvars, degree))
        p = rng.standard_normal(2 * harmonic.dim)
        analytic = harmonic.jacobian(p)
        h = 1e-6
        for col, bump in enumerate(h * np.eye(len(p))):
            fd = (harmonic.residual(p + bump) - harmonic.residual(p - bump)) / (2 * h)
            assert_allclose(analytic[:, col], fd, atol=1e-5, rtol=1e-5)

    def test_jacobian_into_a_buffer(self, rng):
        # a buffer filled at another point is wholly rewritten
        harmonic = HarmonicSystem(ResidualSystem(5, 3))
        first, second = rng.standard_normal((2, 2 * harmonic.dim))
        fresh = harmonic.jacobian(second)
        buffer = harmonic.jacobian(first)
        assert harmonic.jacobian(second, out=buffer) is buffer
        assert buffer.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("nvars, degree", [(4, 1), (5, 2), (5, 3), (6, 3)])
    def test_levenberg_marquardt_matches_reference_bit_for_bit(self, nvars, degree):
        harmonic = HarmonicSystem(ResidualSystem(nvars, degree))
        for attempt in range(3):
            p0 = harmonic.project(np.random.default_rng(
                [nvars * 10 + degree, attempt]).standard_normal(2 * harmonic.system.size))
            p, residual = _levenberg_marquardt(harmonic, p0, max_iters=25)
            p_ref, residual_ref = levenberg_marquardt_reference(harmonic, p0, max_iters=25)
            assert p.tobytes() == p_ref.tobytes()
            assert residual.hex() == residual_ref.hex()

    @pytest.mark.parametrize("nvars, degree, max_iters", [
        (4, 1, 5), (5, 2, 5), (5, 3, 5), (4, 1, 300), (5, 2, 300)])
    def test_levenberg_marquardt_rejected_step_matches_reference(self, nvars, degree,
                                                                 max_iters):
        # a rejected candidate raises lambda and solves again with the same
        # -grad; at 5 iterations the cap stops the loop, at 300 its own tests
        harmonic = HarmonicSystem(ResidualSystem(nvars, degree))
        events = []
        residual, jacobian = harmonic.residual, harmonic.jacobian
        harmonic.residual = lambda p: (events.append("r"), residual(p))[1]
        harmonic.jacobian = lambda p, out=None: (events.append("j"), jacobian(p, out=out))[1]
        rejected = 0
        for attempt in range(6):
            p0 = harmonic.project(np.random.default_rng(
                [nvars * 10 + degree, attempt]).standard_normal(2 * harmonic.system.size))
            events.clear()
            p, res = _levenberg_marquardt(harmonic, p0, max_iters=max_iters)
            # after each Jacobian, one residual per candidate
            rejected += max(map(len, "".join(events).split("j")[1:]), default=0) > 1
            p_ref, res_ref = levenberg_marquardt_reference(harmonic, p0, max_iters=max_iters)
            assert np.array_equal(p, p_ref)
            assert np.array_equal(res, res_ref)
        assert rejected

    @pytest.mark.parametrize("nvars, degree", [(4, 2), (5, 2), (5, 3)])
    def test_results_are_harmonic(self, nvars, degree):
        lap = ResidualSystem(nvars, degree).lap_matrix
        for result in search_eigen(nvars, degree, attempts=4, rng_seed=11):
            assert np.linalg.norm(lap @ result.coefficients.real) <= 1e-12
            assert np.linalg.norm(lap @ result.coefficients.imag) <= 1e-12

    def test_attempts_do_not_depend_on_their_number(self):
        few = {r.attempt: r for r in search_eigen(5, 2, attempts=3, rng_seed=4)}
        for r in search_eigen(5, 2, attempts=5, rng_seed=4):
            if r.attempt in few:
                assert r.coefficients.tobytes() == few[r.attempt].coefficients.tobytes()
                assert r.residual == few[r.attempt].residual

    def test_no_attempts_build_no_basis(self, monkeypatch):
        monkeypatch.setattr(search, "HarmonicSystem", None)
        assert search_eigen(6, 3, attempts=0) == []


class TestMemoryBudget:
    def test_refused_before_allocating(self):
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as err:
            ResidualSystem(8, 6)
        assert time.perf_counter() - started < 0.5
        assert isinstance(err.value, MemoryError)
        assert search_memory_bytes(8, 6) > MEMORY_BUDGET

    def test_within_budget_builds(self):
        assert search_memory_bytes(8, 5) < MEMORY_BUDGET
        system = ResidualSystem(8, 5)
        assert system.kappa_forms.shape == (8 * 330 ** 2, 4)

    @pytest.mark.parametrize("nvars, degree", [(5, 3), (6, 4)])
    def test_estimate_covers_allocation(self, nvars, degree):
        system = ResidualSystem(nvars, degree)
        jac = system.jacobian(np.ones(2 * system.size))
        assert search_memory_bytes(nvars, degree) >= system.kappa_forms.nbytes + jac.nbytes

    def test_estimate_covers_lm_peak(self):
        # at (12, 3) the Jacobian buffer is 16 MB, about half the estimate, so
        # the estimate holds only if each iteration's normal matrix is freed
        # before the buffer is refilled
        system = ResidualSystem(12, 3)
        t0 = np.random.default_rng(0).standard_normal(2 * system.size)
        tracemalloc.start()
        try:
            _levenberg_marquardt(system, t0 / np.linalg.norm(t0), max_iters=2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= search_memory_bytes(12, 3)

    @pytest.mark.parametrize("nvars, degree", [(12, 3), (14, 3)])
    def test_estimate_covers_both_phases(self, monkeypatch, nvars, degree):
        # refilling the Jacobian (B@u, B@v) is the larger phase at (14, 3),
        # the normal matrix with its factored copy at (12, 3); that copy is
        # made inside solve, outside tracemalloc, so it is added to the
        # traced memory at each solve
        system = ResidualSystem(nvars, degree)
        at_solve = []
        solve = np.linalg.solve

        def counted(a, b):
            at_solve.append(tracemalloc.get_traced_memory()[0] + a.nbytes)
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        t0 = np.random.default_rng(0).standard_normal(2 * system.size)
        tracemalloc.start()
        try:
            _levenberg_marquardt(system, t0 / np.linalg.norm(t0), max_iters=2)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = system.kappa_forms.nbytes + system._weight.nbytes + system._cell.nbytes
        assert at_solve
        assert table + max(peak, *at_solve) <= search_memory_bytes(nvars, degree)

    def test_boundaries(self):
        # the harmonic loop holds no more than the theta loop did at degree
        # 3, so the largest cubic search still runs; at degrees 1 and 2,
        # where ker L is nearly all of P_d, its basis (M^2) outweighs what
        # the smaller normal matrix saves, so (79, 2), (80, 2) and (3662, 1)
        # to (4095, 1), which the theta loop ran, are refused
        assert search_memory_bytes(21, 3) <= MEMORY_BUDGET < search_memory_bytes(22, 3)
        assert search_memory_bytes(78, 2) <= MEMORY_BUDGET < search_memory_bytes(79, 2)
        assert search_memory_bytes(3661, 1) <= MEMORY_BUDGET < search_memory_bytes(3662, 1)

    @pytest.mark.parametrize("nvars, degree", [(12, 3), (14, 3), (30, 2), (200, 1)])
    def test_estimate_covers_search(self, monkeypatch, nvars, degree):
        # search_eigen's own peak, over the harmonic coefficients, with two
        # iterations for its one attempt; solve's factored copy is added as
        # above.  At degrees 1 and 2 the basis is about M^2 and the vectors
        # of the unknowns' length are most of what is left.
        at_solve = []
        solve = np.linalg.solve
        lm = search._levenberg_marquardt

        def counted(a, b):
            at_solve.append(tracemalloc.get_traced_memory()[0] + a.nbytes)
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(search, "_levenberg_marquardt",
                            lambda system, t0: lm(system, t0, max_iters=2))
        tracemalloc.start()
        try:
            search_eigen(nvars, degree, attempts=1, rng_seed=0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert at_solve
        assert max(peak, *at_solve) <= search_memory_bytes(nvars, degree)


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("nvars, degree", [(4, 1), (5, 2), (5, 3), (6, 3)])
    def test_matches_reference_bit_for_bit(self, nvars, degree):
        # the loop refills one Jacobian buffer and damps the normal matrix in
        # place; the reference builds both afresh every time
        system = ResidualSystem(nvars, degree)
        for attempt in range(3):
            t0 = np.random.default_rng([nvars * 10 + degree, attempt]).standard_normal(
                2 * system.size)
            t0 /= np.linalg.norm(t0)
            t, residual = _levenberg_marquardt(system, t0, max_iters=25)
            t_ref, residual_ref = levenberg_marquardt_reference(system, t0, max_iters=25)
            assert t.tobytes() == t_ref.tobytes()
            assert residual.hex() == residual_ref.hex()

    @pytest.mark.parametrize("nvars, degree", [(4, 1), (5, 3)])
    def test_reused_jacobian_buffer(self, nvars, degree, rng):
        system = ResidualSystem(nvars, degree)
        first, second = rng.standard_normal((2, 2 * system.size))
        buffer = system.jacobian(first)
        refilled = system.jacobian(second, out=buffer)
        assert refilled is buffer
        assert refilled.tobytes() == system.jacobian(second).tobytes()


class TestRationalize:
    def test_perturbed_exact_recovered(self, rng):
        p = parse("z1^2 + z2^2", 4)
        basis = monomial_basis(4, 2)
        coeffs = coefficients_of(p, basis)
        noise = 1e-12 * (rng.standard_normal(len(coeffs)) + 1j * rng.standard_normal(len(coeffs)))
        got = rationalize_and_verify(coeffs + noise, 4, 2)
        assert got == p

    def test_random_coefficients_rejected(self, rng):
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert rationalize_and_verify(coeffs, 4, 2) is None

    def test_zero_rejected(self):
        assert rationalize_and_verify(np.zeros(10), 4, 2) is None

    def test_denominator_bound_matters(self):
        # a conj(z1)^2 perturbation of size 0.06 rounds away at bound 2
        # (recovering the eigenfunction) but survives at bound 16, where it
        # breaks the isotropy condition
        base = coefficients_of(parse("z1^2", 4), monomial_basis(4, 2))
        junk = coefficients_of(parse("conj(z1)^2", 4), monomial_basis(4, 2))
        coeffs = base + 0.06 * junk
        assert rationalize_and_verify(coeffs, 4, 2, denominator_bound=2) == parse("z1^2", 4)
        assert rationalize_and_verify(coeffs, 4, 2, denominator_bound=16) is None


class TestSearchEigen:
    def test_linear_four_vars(self):
        results = search_eigen(4, 1, attempts=20, rng_seed=0)
        assert results[0].residual < 1e-10
        exact = [r for r in results if r.exact is not None]
        assert exact, "no attempt recovered an exact linear eigenfunction"
        for r in exact:
            report = verify_eigenfunction(r.exact, 3)
            assert report.is_eigen and report.k == 1

    def test_quadratic_four_vars(self):
        results = search_eigen(4, 2, attempts=50, rng_seed=0)
        assert results[0].residual < 1e-10

    def test_linear_three_vars(self):
        results = search_eigen(3, 1, attempts=10, rng_seed=0)
        assert results[0].residual < 1e-10

    def test_determinism(self):
        a = search_eigen(4, 1, attempts=6, rng_seed=42)
        b = search_eigen(4, 1, attempts=6, rng_seed=42)
        assert [r.attempt for r in a] == [r.attempt for r in b]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.coefficients, rb.coefficients)
            assert ra.residual == rb.residual

    def test_sorted_by_residual(self):
        results = search_eigen(4, 1, attempts=8, rng_seed=5)
        residuals = [r.residual for r in results]
        assert residuals == sorted(residuals)

    def test_stored_residual_consistent(self):
        # stored residual must match recomputation on the stored coefficients
        system = ResidualSystem(4, 1)
        for r in search_eigen(4, 1, attempts=5, rng_seed=3):
            assert abs(residual_norm_of(system, r.coefficients) - r.residual) < 1e-14

    def test_exact_results_are_isotropic(self):
        for r in search_eigen(4, 1, attempts=12, rng_seed=7):
            if r.exact is None:
                continue
            assert laplacian(r.exact).is_zero()
            assert kappa(r.exact, r.exact).is_zero()

    def test_json_shape(self):
        result = search_eigen(4, 1, attempts=3, rng_seed=1)[0]
        payload = result.to_json()
        assert set(payload) == {"coefficients", "residual", "exact", "attempt"}
        assert len(payload["coefficients"]) == 4
