import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dpbtrf, dtbtrs

from tveff.errors import DataError, NumericalError
from tveff.series import _lagged
from tveff.synth import ScenarioSpec, gen_returns
from tveff.tvvar import (
    _FAST_COND_LIMIT,
    EfficiencyPath,
    _zeta_closed_form,
    _zeta_svd,
    build_stacked_system,
    solve_tvvar,
    tv_efficiency_path,
    zeta_from_coefficient_stack,
)
from tveff.var import efficiency_degree, fit_var

COND_LIMIT = 1e12


def svd_zeta(A_stack):
    """Reference zeta: singular values of I - sum A for the condition,
    then the largest singular value of inv(I - sum A) - I."""
    m, _, n, _ = A_stack.shape
    S = np.eye(n)[None, :, :] - A_stack.sum(axis=1)
    sv = np.linalg.svd(S, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    flagged = ~np.isfinite(cond) | (cond > COND_LIMIT)
    zeta = np.full(m, np.nan)
    ok = ~flagged
    if ok.any():
        dev = np.linalg.inv(S[ok]) - np.eye(n)[None, :, :]
        zeta[ok] = np.linalg.svd(dev, compute_uv=False)[:, 0]
    return zeta, flagged, cond


def dense_stacked_solution(X, q, lam):
    """Rectangular stacked least squares solved by QR-based lstsq.

    Observation rows carry (z_t, 1); penalty rows carry lam * (beta_t -
    beta_{t-1}) with zero targets.  Independent of the banded solver.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T, n = X.shape
    m, k = T - q, n * q
    Z = np.empty((m, k))
    for l in range(1, q + 1):
        Z[:, (l - 1) * n: l * n] = X[q - l: T - l]
    Y = X[q:]
    N = m * k
    D = np.zeros((m + (m - 1) * k, N + 1))
    for r in range(m):
        D[r, r * k: (r + 1) * k] = Z[r]
        D[r, N] = 1.0
    for r in range(m - 1):
        for a in range(k):
            D[m + r * k + a, r * k + a] = -lam
            D[m + r * k + a, (r + 1) * k + a] = lam
    nu = np.empty(n)
    beta = np.empty((N, n))
    for i in range(n):
        b = np.concatenate([Y[:, i], np.zeros((m - 1) * k)])
        sol, *_ = np.linalg.lstsq(D, b, rcond=None)
        beta[:, i] = sol[:N]
        nu[i] = sol[N]
    return nu, beta


def dense(system, equation=0):
    """The full bordered normal matrix and one equation's rhs of a system.

    Unknown order: beta_1 .. beta_m, then the intercept.  Read from the
    band, border and rhs before a solve overwrites the last two.
    """
    N = system.m * system.k
    M = np.zeros((N + 1, N + 1))
    for i in range(system.band.shape[0]):
        for j in range(N - i):
            M[j + i, j] = M[j, j + i] = system.band[i, j]
    M[:N, N] = M[N, :N] = system.border
    M[N, N] = system.m
    b = np.concatenate([system.rhs[:, equation], [system.rhs_border[equation]]])
    return M, b


def beta_matrix(fit):
    """(m*k, n) state matrix in the stacking order of the solver."""
    m, q, n, _ = fit.A_path.shape
    return np.transpose(fit.A_path, (0, 1, 3, 2)).reshape(m, q * n, n).reshape(m * q * n, n)


class TestBuildStackedSystem:
    def test_hand_assembled_four_by_four(self):
        X = np.array([1.0, 2.0, -1.0, 0.5])[:, None]
        system = build_stacked_system(X, 1, 1.0)
        M, b = dense(system, 0)
        Z = X[:3, 0]
        Y = X[1:, 0]
        H = np.zeros((4, 4))
        H[0, 0] = Z[0] ** 2 + 1.0
        H[1, 1] = Z[1] ** 2 + 2.0
        H[2, 2] = Z[2] ** 2 + 1.0
        H[0, 1] = H[1, 0] = H[1, 2] = H[2, 1] = -1.0
        H[:3, 3] = Z
        H[3, :3] = Z
        H[3, 3] = 3.0
        np.testing.assert_allclose(M, H, atol=1e-14)
        np.testing.assert_allclose(b, np.concatenate([Z * Y, [Y.sum()]]), atol=1e-14)

    def test_zero_data_zero_rhs(self):
        system = build_stacked_system(np.zeros((20, 2)), 1, 1.0)
        np.testing.assert_array_equal(system.rhs, 0.0)
        np.testing.assert_array_equal(system.rhs_border, 0.0)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(DataError, match="lambda"):
            build_stacked_system(np.random.default_rng(0).normal(size=(20, 1)), 1, 0.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 1e200, 10**200, 1e-200, -1.0])
    def test_lambda_with_no_finite_nonzero_square_rejected(self, lam):
        # lam^2 overflows to inf above about 1.3e154 and underflows to 0 below 1e-162
        with pytest.raises(DataError, match="lam"):
            build_stacked_system(np.random.default_rng(0).normal(size=(20, 1)), 1, lam)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1),
           st.sampled_from([None, "first", "second"]))
    def test_reassembled_system_equals_a_fresh_one(self, n, q, seed, zero_in):
        # a system solved on one sample and refilled from another is the
        # system built from the second, and solves to the same slopes
        rng = np.random.default_rng(seed)
        T = 5 * n * q + q + int(rng.integers(0, 8))
        a, b = rng.normal(size=(T, n)), rng.normal(size=(T, n))
        if zero_in is not None:  # an all-zero column anchors its regressors at zero
            (a if zero_in == "first" else b)[:, int(rng.integers(0, n))] = 0.0
        s = build_stacked_system(a, q, 0.8)
        s.solve()
        s.assemble(b)
        fresh = build_stacked_system(b, q, 0.8)
        for j in range(n):
            for got, want in zip(dense(s, j), dense(fresh, j)):
                np.testing.assert_array_equal(got, want)
        nu, _ = s.solve()
        nu_fresh, _ = fresh.solve()
        np.testing.assert_array_equal(nu, nu_fresh)
        np.testing.assert_array_equal(s.beta, fresh.beta)

    def test_band_matches_dense_blocks(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 2))
        system = build_stacked_system(X, 2, 0.7)
        M, _ = dense(system)
        N = system.m * system.k
        # dense() reflects the band; verify against explicit block assembly
        lam2 = 0.49
        Z = _lagged(X, 2)
        ref = np.zeros((N, N))
        k = system.k
        for r in range(system.m):
            blk = np.outer(Z[r], Z[r])
            c = 2.0 if 0 < r < system.m - 1 else 1.0
            ref[r * k:(r + 1) * k, r * k:(r + 1) * k] = blk + lam2 * c * np.eye(k)
            if r < system.m - 1:
                ref[r * k:(r + 1) * k, (r + 1) * k:(r + 2) * k] = -lam2 * np.eye(k)
                ref[(r + 1) * k:(r + 2) * k, r * k:(r + 1) * k] = -lam2 * np.eye(k)
        np.testing.assert_allclose(M[:N, :N], ref, atol=1e-12)


def row_major_system(values, q, lam):
    """The system assembled and solved row by row: the reference layout.

    (m, k) regressors from ``_lagged``, each band diagonal as one product
    of column slices, the right-hand sides by broadcasting.  The solve
    makes the same LAPACK calls on row-major copies: the lower factor,
    one forward solve over the right-hand sides and the border, the
    intercept bordered by an ``np.outer`` update, and the backward solve
    with L' read off a dense transpose of L.  ``StackedSystem`` runs the
    same operations along the period axis, so every output must be
    bit-identical.
    """
    T, n = values.shape
    m, k = T - q, n * q
    lam2 = float(lam) * float(lam)
    Z, Y = _lagged(values, q), values[q:]
    penalty_count = np.full(m, 2.0)
    penalty_count[[0, -1]] = 1.0
    band = np.zeros((k + 1, m * k), order="F")
    band[k, : (m - 1) * k] = -lam2
    rows = band.T.reshape(m, k, k + 1)
    diag = rows[:, :, 0]
    np.multiply(Z, Z, out=diag)
    diag += lam2 * penalty_count[:, None]
    zero_cols = ~np.any(Z != 0.0, axis=0)
    if zero_cols.any():
        diag[0, zero_cols] += lam * lam
    for i in range(1, k):
        np.multiply(Z[:, i:], Z[:, : k - i], out=rows[:, : k - i, i])
    columns = np.empty((m * k, n + 1), order="F")
    np.multiply(Z[:, :, None], Y[:, None, :], out=columns[:, :-1].reshape(m, k, -1))
    columns[:, -1] = Z.ravel()
    assembled = {"band": band, "rhs": columns[:, :-1].copy(), "border": columns[:, -1].copy(),
                 "rhs_border": np.sum(Y, axis=0)}

    factor, info = dpbtrf(np.ascontiguousarray(band), lower=1)
    assert info == 0
    forward, _ = dtbtrs(factor, np.ascontiguousarray(columns), uplo="L")
    F, f = forward[:, :-1], forward[:, -1]
    nu = (assembled["rhs_border"] - f @ F) / (m - float(f @ f))
    G = np.empty((m * k, n))
    np.subtract(F, np.outer(f, nu, out=G), out=G)
    N = m * k
    L = np.zeros((N, N))
    for i in range(k + 1):
        L[np.arange(i, N), np.arange(N - i)] = factor[i, : N - i]
    upper = np.zeros((k + 1, N))  # upper band storage: upper[k-i, j] = L'[j-i, j]
    for i in range(k + 1):
        upper[k - i, i:] = np.diagonal(L.T, i)
    beta, _ = dtbtrs(upper, G, uplo="U")
    return assembled, nu, beta


class TestRowMajorOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.one_of(st.floats(0.05, 50.0), st.integers(1, 4)),
           st.sampled_from([None, "first", "second"]))
    def test_bit_identical_to_row_major_route(self, n, q, seed, lam, zero_in):
        # built on one sample, then refilled from a second, as a bootstrap
        # replication does; an all-zero series takes the anchoring branch
        rng = np.random.default_rng(seed)
        T = 5 * n * q + q + int(rng.integers(0, 40))
        a, b = rng.normal(0, 0.02, size=(T, n)), rng.normal(0, 0.02, size=(T, n))
        if zero_in is not None:
            (a if zero_in == "first" else b)[:, int(rng.integers(0, n))] = 0.0
        system = build_stacked_system(a, q, lam)
        for values in (a, b):
            if values is b:
                system.assemble(b)
            assembled, nu_ref, beta_ref = row_major_system(values, q, lam)
            for name, want in assembled.items():
                np.testing.assert_array_equal(getattr(system, name), want, err_msg=name)
            nu, _ = system.solve()
            np.testing.assert_array_equal(nu, nu_ref)
            np.testing.assert_array_equal(system.beta, beta_ref)

    def test_slopes_are_a_live_view_of_beta(self):
        # the bootstrap takes zeta from ``slopes`` once and relies on each
        # solve rewriting it in place
        rng = np.random.default_rng(3)
        system = build_stacked_system(rng.normal(size=(40, 2)), 2, 1.0)
        slopes = system.slopes
        assert np.shares_memory(slopes, system.beta)
        system.solve()
        before = slopes.copy()
        system.assemble(rng.normal(size=(40, 2)))
        system.solve()
        assert not np.array_equal(slopes, before)
        np.testing.assert_array_equal(slopes, system.slopes)


class TestDenseOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.floats(0.3, 3.0), st.sampled_from([None, "first", "second"]))
    def test_solve_matches_dense_solve(self, n, q, seed, lam, zero_in):
        # intercepts and slopes against a dense solve of the bordered normal
        # equations, on a system built on one sample and refilled from a
        # second; an all-zero series takes the anchoring branch
        rng = np.random.default_rng(seed)
        T = 5 * n * q + q + int(rng.integers(0, 20))
        a, b = rng.normal(size=(T, n)), rng.normal(size=(T, n))
        if zero_in is not None:
            (a if zero_in == "first" else b)[:, int(rng.integers(0, n))] = 0.0
        system = build_stacked_system(a, q, lam)
        for values in (a, b):
            if values is b:
                system.assemble(b)
            equations = [dense(system, e) for e in range(n)]  # before solve overwrites rhs
            want = np.linalg.solve(equations[0][0], np.column_stack([r for _, r in equations]))
            nu, _ = system.solve()
            scale = np.abs(want).max()
            np.testing.assert_allclose(nu, want[-1], rtol=1e-9, atol=1e-9 * scale)
            np.testing.assert_allclose(system.beta, want[:-1], rtol=1e-9, atol=1e-9 * scale)


class TestSolveTvvar:
    def test_matches_dense_solver_small_instance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 0.01, size=(60, 2))
        fit = solve_tvvar(X, q=1, lam=1.0)
        nu_o, beta_o = dense_stacked_solution(X, 1, 1.0)
        np.testing.assert_allclose(fit.nu, nu_o, atol=1e-8)
        np.testing.assert_allclose(beta_matrix(fit), beta_o, atol=1e-8)

    def test_zero_data_gives_zero_fit(self):
        fit = solve_tvvar(np.zeros((100, 2)), q=1, lam=1.0)
        np.testing.assert_array_equal(fit.A_path, 0.0)
        np.testing.assert_array_equal(fit.nu, 0.0)

    def test_large_lambda_flattens_to_ols(self):
        A = np.array([[[0.3, 0.1], [0.05, 0.2]]])
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=800, n=2, q=1, seed=3, coeff=A))
        fit = solve_tvvar(X, q=1, lam=1e5)
        assert np.ptp(fit.A_path, axis=0).max() < 1e-6
        ols = fit_var(X, 1)
        assert np.abs(fit.A_path.mean(axis=0)[0] - ols.A[0]).max() < 1e-6

    def test_constant_coefficient_recovery(self):
        A = np.array([[[0.5]]])
        X, _ = gen_returns(ScenarioSpec(
            kind="constant-var", T=2000, n=1, q=1, sigma_eps=0.01, seed=0, coeff=A))
        fit = solve_tvvar(X, q=1, lam=1.0)
        err = np.linalg.norm(fit.A_path.mean(axis=0)[0] - 0.5)
        assert err < 0.05

    def test_smoothness_monotone_in_lambda(self):
        X, _ = gen_returns(ScenarioSpec(kind="sinusoidal-tv", T=300, n=1, q=1,
                                        sigma_eps=0.05, seed=4))
        prev = np.inf
        for lam in (0.5, 1.0, 2.0, 5.0, 20.0):
            fit = solve_tvvar(X, q=1, lam=lam)
            s = np.sum(np.diff(fit.A_path, axis=0) ** 2)  # squared coefficient increments
            assert s <= prev + 1e-15
            prev = s

    def test_deterministic_across_runs(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=200, n=2, seed=5))
        f1 = solve_tvvar(X, q=1, lam=1.0)
        f2 = solve_tvvar(X, q=1, lam=1.0)
        assert np.array_equal(f1.A_path, f2.A_path)
        assert np.array_equal(f1.nu, f2.nu)

    def test_sample_too_short(self):
        with pytest.raises(DataError, match="too short"):
            solve_tvvar(np.random.default_rng(0).normal(size=(12, 2)), q=2, lam=1.0)

    def test_collinear_columns_raise(self):
        # x2 = x1 or 2 * x1 over several seeds: the factorization alone fails
        # on some (seed 3) and returns a fit on others (seeds 0 and 1)
        for seed in range(4):
            col = np.random.default_rng(seed).normal(size=(100, 1))
            for X in (np.hstack([col, col]), np.hstack([col, 2.0 * col])):
                with pytest.raises(NumericalError, match="collinear with the intercept or each "
                                                         "other: 'x1' at lag 1, 'x2' at lag 1 "):
                    solve_tvvar(X, q=1, lam=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("q", [1, 2])
    def test_constant_combination_raises(self, seed, c, q):
        # x1 + x2 = c is collinear with the intercept though neither series
        # is constant; m - f'f is then rounding noise of either sign
        x1 = np.random.default_rng(seed).normal(0, 0.01, size=300)
        with pytest.raises(NumericalError, match="'x1' at lag 1, 'x2' at lag 1"):
            solve_tvvar(np.column_stack([x1, c - x1]), q=q, lam=1.0)

    def test_strongly_correlated_series_still_solve(self):
        # correlation 0.999 leaves a smallest singular value of about 0.03
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=2000)
        X = np.column_stack([x1, x1 + 0.045 * rng.normal(size=2000)])
        fit = solve_tvvar(X, q=2, lam=1.0)
        assert np.isfinite(fit.A_path).all() and np.isfinite(fit.nu).all()

    @pytest.mark.parametrize("n, value", [(2, 0.01), (1, 1.0), (2, 0.5)])
    def test_constant_return_column_raises(self, n, value):
        # a constant nonzero regressor is collinear with the intercept, so
        # the bordered system is singular whatever the sign of m - f'f
        X = np.random.default_rng(1).normal(0, 0.01, size=(300, n))
        X[:, 0] = value
        with pytest.raises(NumericalError,
                           match="series 'x1' is constant and nonzero at lag 1: collinear"):
            solve_tvvar(X, q=1, lam=1.0)

    def test_constant_lag_window_named(self):
        # x2 varies only at T-2, which its lag-2 window 0..T-3 leaves out
        X = np.random.default_rng(2).normal(0, 0.01, size=(200, 2))
        X[:, 1] = 0.02
        X[-2, 1] = 0.03
        with pytest.raises(NumericalError, match="series 'x2' is constant and nonzero at lag 2"):
            solve_tvvar(X, q=2, lam=1.0)

    @pytest.mark.parametrize("T", [200, 2000])
    def test_small_lambda_iid_still_solves(self, T):
        # (m - f'f)/m is 3.5e-13 (T=200) and 4.1e-13 (T=2000) here, below
        # the 2.1e-12 of a constant column: no threshold on it tells them apart
        X = np.random.default_rng(3).normal(0, 0.01, size=(T, 2))
        fit = solve_tvvar(X, q=2, lam=0.01 * 1e-6)
        assert np.isfinite(fit.A_path).all() and np.isfinite(fit.nu).all()

    def test_singular_normal_matrix_raises(self):
        # an all-zero series anchored by lam^2 = 1e-200 leaves a factor
        # diagonal of 1e-100 beside entries of order one
        X = np.random.default_rng(6).normal(0, 0.01, size=(100, 2))
        X[:, 1] = 0.0
        with pytest.raises(NumericalError, match="numerically singular"):
            solve_tvvar(X, q=1, lam=1e-100)

    def test_overflowing_right_hand_side_raises(self):
        # returns near 1e150 keep the normal matrix finite; the last one,
        # 1e300, times its lag overflows only on the right-hand side
        X = np.random.default_rng(0).normal(size=(300, 2)) * 1e150
        X[-1] = 1e300
        with pytest.raises(NumericalError, match="right-hand sides are not finite"):
            solve_tvvar(X, q=1, lam=1e150)

    def test_residuals_shape_and_diagnostics(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=150, n=2, seed=7))
        fit = solve_tvvar(X, q=2, lam=1.0)
        assert fit.A_path.shape == (148, 2, 2, 2)
        assert fit.diagnostics["condition_estimate"] >= 1.0


class TestEfficiencyPathOps:
    def test_zero_path_zero_zeta(self):
        fit = solve_tvvar(np.zeros((80, 2)), q=1, lam=1.0)
        path = tv_efficiency_path(fit)
        np.testing.assert_array_equal(path.zeta, 0.0)
        assert not path.flagged.any()

    def test_univariate_constant_half_analytic(self):
        # a path fixed at 0.5 must produce zeta == 1 at every period
        fit = solve_tvvar(np.zeros((60, 1)) + 0.0, q=1, lam=1.0)
        fit.A_path[:] = 0.5
        path = tv_efficiency_path(fit)
        np.testing.assert_allclose(path.zeta, 1.0, atol=1e-12)

    def test_matches_per_period_efficiency_degree(self):
        X, _ = gen_returns(ScenarioSpec(kind="sinusoidal-tv", T=250, n=2, q=1,
                                        sigma_eps=0.02, seed=8, amplitude=0.3,
                                        period=100.0, coeff=None))
        fit = solve_tvvar(X, q=1, lam=5.0)
        path = tv_efficiency_path(fit)
        for t in range(0, fit.nobs, 17):
            ref = efficiency_degree(list(fit.A_path[t]))
            assert abs(path.zeta[t] - ref) < 1e-12

    def test_matches_per_period_svd_oracle(self):
        X, _ = gen_returns(ScenarioSpec(kind="sinusoidal-tv", T=250, n=2, q=1,
                                        sigma_eps=0.02, seed=8, amplitude=0.3,
                                        period=100.0, coeff=None))
        fit = solve_tvvar(X, q=1, lam=5.0)
        path = tv_efficiency_path(fit)
        ref, flagged, _ = svd_zeta(fit.A_path)
        assert not flagged.any()
        np.testing.assert_allclose(path.zeta, ref, rtol=1e-12, atol=1e-14)

    def test_trivariate_fit_takes_closed_form_everywhere(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=2000, n=3, seed=0))
        fit = solve_tvvar(X, q=2, lam=1.0)
        A_sum = fit.A_path.sum(axis=1)
        closed, estimate = _zeta_closed_form(A_sum)
        assert (estimate < _FAST_COND_LIMIT).all()
        assert not np.isnan(closed).any()
        ref = _zeta_svd(np.eye(3)[None] - A_sum)
        ref_flagged = np.isnan(ref)
        assert not ref_flagged.any()
        path = tv_efficiency_path(fit)
        assert not path.flagged.any()
        np.testing.assert_allclose(path.zeta, ref, rtol=1e-12)

    def test_singular_period_flagged_not_fatal(self):
        fit = solve_tvvar(np.zeros((60, 1)), q=1, lam=1.0)
        fit.A_path[10] = 1.0  # I - A singular at one period
        path = tv_efficiency_path(fit)
        assert path.flagged[10]
        assert np.isnan(path.zeta[10])
        assert np.isfinite(path.zeta[[0, 5, 20]]).all()

    def test_constant_fit_path_equals_time_invariant_degree(self):
        A = np.array([[[0.3, 0.1], [0.05, 0.2]]])
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=900, n=2, q=1,
                                        sigma_eps=0.01, seed=9, coeff=A))
        fit = solve_tvvar(X, q=1, lam=1e5)
        path = tv_efficiency_path(fit)
        z0 = efficiency_degree(list(fit.A_path[0]))
        np.testing.assert_allclose(path.zeta, z0, atol=1e-8)

    def test_with_bands_flag_semantics(self):
        fit = solve_tvvar(np.zeros((60, 1)), q=1, lam=1.0)
        fit.A_path[:, 0, 0, 0] = np.linspace(0.0, 0.5, 59)
        path = tv_efficiency_path(fit)
        lower = np.full(59, 0.1)
        upper = np.full(59, 0.6)
        banded = path.with_bands(lower, upper)
        outside = (banded.zeta < lower) | (banded.zeta > upper)
        np.testing.assert_array_equal(banded.efficient_flag, ~outside)


class TestOracleEquivalenceSweep:
    def test_block_vs_dense_on_random_instances(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 8:
            T = int(rng.integers(40, 201))
            n = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            if T - q < 5 * n * q:
                continue
            lam = float(rng.uniform(0.5, 3.0))
            X = rng.normal(0, 0.02, size=(T, n))
            fit = solve_tvvar(X, q=q, lam=lam)
            nu_o, beta_o = dense_stacked_solution(X, q, lam)
            np.testing.assert_allclose(fit.nu, nu_o, atol=1e-8)
            np.testing.assert_allclose(beta_matrix(fit), beta_o, atol=1e-8)
            checked += 1


# The closed forms and the SVD invert I - sum A by different arithmetic, so
# near-singular periods legitimately differ by about cond * eps; the tight
# comparison is made where that is far below the tolerance.
WELL_CONDITIONED = 1e3


@st.composite
def coefficient_stacks(draw, n_values=(1, 2, 3, 4)):
    n = draw(st.sampled_from(n_values))
    m = draw(st.integers(1, 12))
    q = draw(st.integers(1, 3))
    return draw(hnp.arrays(np.float64, (m, q, n, n),
                           elements=st.floats(-1.0, 1.0, width=64)))


class TestZetaProperties:
    @settings(max_examples=200, deadline=None)
    @given(coefficient_stacks())
    def test_matches_svd_oracle(self, A):
        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        ref, ref_flagged, cond = svd_zeta(A)
        np.testing.assert_array_equal(flagged, ref_flagged)
        np.testing.assert_array_equal(np.isnan(zeta), np.isnan(ref))
        good = cond <= WELL_CONDITIONED
        np.testing.assert_allclose(zeta[good], ref[good], rtol=1e-12, atol=1e-12)
        rest = ~good & ~ref_flagged
        np.testing.assert_allclose(zeta[rest], ref[rest], rtol=cond[rest].max(initial=0) * 1e-14)

    @settings(max_examples=100, deadline=None)
    @given(coefficient_stacks(), st.randoms(use_true_random=False))
    def test_invariant_to_relabelling_and_transpose(self, A, rnd):
        n = A.shape[-1]
        perm = list(range(n))
        rnd.shuffle(perm)
        P = np.eye(n)[perm]
        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        _, _, cond = svd_zeta(A)
        good = cond <= WELL_CONDITIONED
        for B in (P @ A @ P.T, np.swapaxes(A, -1, -2)):
            z2 = zeta_from_coefficient_stack(B)
            f2 = np.isnan(z2)
            np.testing.assert_array_equal(f2[good], flagged[good])
            np.testing.assert_allclose(z2[good], zeta[good], rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(coefficient_stacks(), st.integers(1, 30))
    def test_constant_path_is_time_invariant_degree(self, A, m):
        A0 = A[0]
        _, flagged, _ = svd_zeta(A0[None])
        if flagged[0]:
            with pytest.raises(NumericalError, match="condition"):
                efficiency_degree(A0)
            return
        zeta = zeta_from_coefficient_stack(np.broadcast_to(A0, (m,) + A0.shape))
        flagged = np.isnan(zeta)
        assert not flagged.any()
        np.testing.assert_allclose(zeta, efficiency_degree(A0), rtol=1e-13, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_stacks(n_values=(2, 3)))
    def test_condition_estimate_bounds_svd_condition(self, A):
        # the estimate routes a period to the closed form only below
        # _FAST_COND_LIMIT, so it must not understate cond_2; in exact
        # arithmetic n = 2 gives cond + 1/cond.  Both sides round by about
        # cond * eps, the tolerance of test_matches_svd_oracle.  Periods past
        # COND_LIMIT are flagged by the SVD whatever the estimate says.
        _, estimate = _zeta_closed_form(A.sum(axis=1))
        with np.errstate(over="ignore"):  # cond of a subnormal s_min
            _, _, cond = svd_zeta(A)
        kept = cond <= COND_LIMIT
        assert (estimate[kept] >= cond[kept] * (1.0 - cond[kept] * 1e-14)).all()

    @settings(max_examples=100, deadline=None)
    @given(coefficient_stacks(), st.data())
    def test_same_bits_for_any_memory_layout(self, A, data):
        # periods on the SVD route: for n >= 2 condition about 4e9
        # (routed, not flagged) and 1.4e14 (flagged); exactly singular
        m, q, n, _ = A.shape
        A = A.copy()
        hard = []
        for k in (30, 45):
            S = np.eye(n)
            if n == 1:
                S[0, 0] = 2.0**-k
            else:
                S[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 2.0**-k]]
            hard.append(S)
        hard.append(np.zeros((n, n)))
        rows = data.draw(st.lists(st.integers(0, m - 1), max_size=3))
        for t, S in zip(rows, hard):
            A[t] = 0.0
            A[t, 0] = np.eye(n) - S  # the lag sum is exact
        want = zeta_from_coefficient_stack(np.ascontiguousarray(A))

        # as the bootstrap sees it: slopes viewed from a Fortran-order beta
        beta = np.asfortranarray(A.transpose(0, 1, 3, 2).reshape(m * q * n, n))
        from_beta = beta.reshape(m, q, n, n).transpose(0, 1, 3, 2)
        assert np.shares_memory(from_beta, beta)
        # a strided slice of a larger array
        big = np.full((m, 2 * q, n, 2 * n), np.nan)
        big[:, ::2, :, 1::2] = A
        sliced = big[:, ::2, :, 1::2]
        for stack in (from_beta, sliced):
            np.testing.assert_array_equal(zeta_from_coefficient_stack(stack), want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda m: st.tuples(*[
        hnp.arrays(np.float64, m, elements=st.floats(-2.0, 2.0) | st.just(np.nan))
        for _ in range(3)])))
    def test_efficient_flag_false_where_undefined(self, arrays):
        zeta, lower, upper = arrays
        path = EfficiencyPath(dates=np.arange(zeta.size), zeta=zeta).with_bands(lower, upper)
        undefined = np.isnan(zeta) | np.isnan(lower) | np.isnan(upper)
        assert not path.efficient_flag[undefined].any()


class TestZetaFlagBoundary:
    """Near-singular I - sum A on both sides of the closed-form cut-off.

    S = [[1, 1], [1, 1 + eps]] with eps a power of two has det S = eps
    exactly and condition about 4 / eps; for n = 1, S = eps; for n = 3 the
    2x2 S bordered by a unit diagonal entry, with the same det and
    condition and a Frobenius estimate of about 4.5 / eps.  The lag sum is
    split over two lags, exactly, so every S is represented exactly.
    """

    EXPONENTS = (21, 28, 35, 41)  # 2x2 condition ~8e6, 1e9, 1.4e11, 9e12

    @staticmethod
    def stack(S_list):
        S = np.array(S_list)
        A_sum = np.eye(S.shape[-1]) - S
        return np.stack([A_sum / 2, A_sum / 2], axis=1)

    def test_subnormal_smallest_singular_value_flags_without_warning(self):
        # s_max / s_min overflows to inf: the period is flagged, and the
        # suite's warning filter fails the test on an overflow warning
        A = np.array([[[[1.0, 2.2250738585072014e-311], [1.0, 1.0]]]])
        np.testing.assert_array_equal(zeta_from_coefficient_stack(A), [np.nan])
        _, flagged, _ = svd_zeta(A)
        np.testing.assert_array_equal(flagged, [True])

    def test_bivariate_matches_oracle(self):
        S = [[[1.0, 1.0], [1.0, 1.0 + 2.0**-k]] for k in self.EXPONENTS]
        S += [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]  # singular
        A = self.stack(S)
        ref, ref_flagged, cond = svd_zeta(A)
        np.testing.assert_allclose(cond[:4], [8.4e6, 1.07e9, 1.37e11, 8.8e12], rtol=0.01)
        np.testing.assert_array_equal(ref_flagged, [False, False, False, True, True, True])
        _, estimate = _zeta_closed_form(A.sum(axis=1))
        fast = estimate < _FAST_COND_LIMIT
        np.testing.assert_array_equal(fast, [True, False, False, False, False, False])

        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        np.testing.assert_array_equal(flagged, ref_flagged)
        np.testing.assert_allclose(zeta, ref, rtol=1e-12)  # NaN where flagged

    def test_univariate_matches_oracle(self):
        S = [[[2.0**-k]] for k in (23, 30, 37, 43)] + [[[0.0]]]
        A = self.stack(S)
        ref, ref_flagged, _ = svd_zeta(A)
        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        np.testing.assert_array_equal(flagged, [False, False, False, False, True])
        np.testing.assert_array_equal(flagged, ref_flagged)
        np.testing.assert_allclose(zeta, ref, rtol=1e-12)
        np.testing.assert_array_equal(zeta[:4], [2.0**k - 1 for k in (23, 30, 37, 43)])

    def test_trivariate_matches_oracle(self):
        S = [[[1.0, 1.0, 0.0], [1.0, 1.0 + 2.0**-k, 0.0], [0.0, 0.0, 1.0]]
             for k in self.EXPONENTS]
        S += [[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # singular
              np.zeros((3, 3)).tolist(),
              [[0.75, -0.5, 0.0], [0.0, 0.75, -0.125], [-0.5, 0.0, 0.875]]]
        A = self.stack(S)
        ref, ref_flagged, cond = svd_zeta(A)
        np.testing.assert_allclose(cond[:4], [8.4e6, 1.07e9, 1.37e11, 8.8e12], rtol=0.01)
        np.testing.assert_array_equal(ref_flagged, [False, False, False, True, True, True, False])
        _, estimate = _zeta_closed_form(A.sum(axis=1))
        assert (estimate[:4] >= cond[:4]).all()
        fast = estimate < _FAST_COND_LIMIT
        np.testing.assert_array_equal(fast, [True, False, False, False, False, False, True])

        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        np.testing.assert_array_equal(flagged, ref_flagged)
        np.testing.assert_allclose(zeta, ref, rtol=1e-12)  # NaN where flagged

    def test_trivariate_double_largest_eigenvalue_goes_to_svd(self):
        # Phi(1) - I has two equal largest singular values here, where the
        # trigonometric formula alone is off by about 1e-9 relative
        A = self.stack([[[0.7, -0.4, 0.0], [0.4, 0.7, 0.0], [0.0, 0.0, 0.8]]])
        closed, estimate = _zeta_closed_form(A.sum(axis=1))
        assert estimate[0] < _FAST_COND_LIMIT
        assert np.isnan(closed[0])
        ref, ref_flagged, _ = svd_zeta(A)
        zeta = zeta_from_coefficient_stack(A)
        flagged = np.isnan(zeta)
        assert not flagged[0] and not ref_flagged[0]
        np.testing.assert_allclose(zeta, ref, rtol=1e-12)
