
import numpy as np
import pytest
from scipy import integrate

import tveff.var
from tveff.errors import DataError, NumericalError
from tveff.synth import ScenarioSpec, gen_returns
from tveff.var import (
    _lc_quantiles,
    constancy_critical_values,
    efficiency_degree,
    fit_var,
    hansen_lc,
    newey_west_cov,
    select_lag_sbic,
)

TABLE2_A = np.array([[0.0072, 0.1740], [0.1343, 0.0188]])


# ---------------------------------------------------------------------------
# oracles


def oracle_var_normal_equations(X, q):
    """Joint system least squares via explicit normal equations."""
    T, n = X.shape
    rows = []
    for t in range(q, T):
        row = [1.0]
        for l in range(1, q + 1):
            row.extend(X[t - l])
        rows.append(row)
    W = np.asarray(rows)
    Y = X[q:]
    coef = np.linalg.solve(W.T @ W, W.T @ Y)
    return W, Y, coef


def oracle_sbic_table(X, q_max):
    T, n = X.shape
    out = []
    t_star = T - q_max
    for q in range(1, q_max + 1):
        rows, ys = [], []
        for t in range(q_max, T):
            row = [1.0]
            for l in range(1, q + 1):
                row.extend(X[t - l])
            rows.append(row)
            ys.append(X[t])
        W = np.asarray(rows)
        Y = np.asarray(ys)
        coef = np.linalg.solve(W.T @ W, W.T @ Y)
        E = Y - W @ coef
        sig = E.T @ E / t_star
        out.append(np.log(np.linalg.det(sig)) + (np.log(t_star) / t_star) * q * n * n)
    return np.asarray(out)


def oracle_hac(W, e, L):
    """Brute-force Bartlett double sum."""
    nobs, p = W.shape
    S = np.zeros((p, p))
    for t in range(nobs):
        S += e[t] ** 2 * np.outer(W[t], W[t])
    for l in range(1, L + 1):
        w = 1.0 - l / (L + 1.0)
        for t in range(l, nobs):
            cross = np.outer(W[t], W[t - l]) + np.outer(W[t - l], W[t])
            S += w * e[t] * e[t - l] * cross
    G = np.linalg.inv(W.T @ W)
    return G @ S @ G


def oracle_lc_cdf(x, dof):
    """Gil-Pelaez CDF of sum_j chi2_dof,j / (j pi)^2 by adaptive quadrature over t."""
    def integrand(t):
        w = np.sqrt(-2j * t)
        log_cf = -0.5 * dof * (w - np.log(2 * w) + np.log(-np.expm1(-2 * w)))
        return np.imag(np.exp(log_cf - 1j * t * x)) / t

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=2000, epsabs=1e-14, epsrel=1e-13)
    return 0.5 - val / np.pi


def oracle_lc(W, resid):
    """Direct cumulative-score statistic over pooled equation moments."""
    nobs = W.shape[0]
    blocks = []
    for j in range(resid.shape[1]):
        e = resid[:, j]
        s2 = np.mean(e**2)
        blocks.append(np.column_stack([W * e[:, None], e**2 - s2]))
    F = np.hstack(blocks)
    S = np.cumsum(F, axis=0)
    V = F.T @ F
    Vinv = np.linalg.inv(V)
    total = 0.0
    for t in range(nobs):
        total += S[t] @ Vinv @ S[t]
    return total / nobs


# ---------------------------------------------------------------------------


class TestSelectLagSbic:
    def test_var1_selected_and_matches_oracle(self):
        A = np.array([[[0.4, 0.15], [0.1, 0.35]]])
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=2000, n=2, q=1, seed=1, coeff=A))
        q = select_lag_sbic(X, 4)
        table = oracle_sbic_table(X.values, 4)
        assert q == 1 + int(np.argmin(table))
        assert q == 1

    def test_var2_with_strong_second_lag(self):
        A = np.zeros((2, 2, 2))
        A[0] = [[0.15, 0.0], [0.0, 0.15]]
        A[1] = [[0.45, 0.1], [0.1, 0.45]]
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=2000, n=2, q=2, seed=2, coeff=A))
        q = select_lag_sbic(X, 4)
        table = oracle_sbic_table(X.values, 4)
        assert q == 1 + int(np.argmin(table))
        assert q == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle_for_each_dimension(self, n):
        A = np.stack([0.15 * np.eye(n), 0.4 * np.eye(n)])
        for seed in range(3):
            X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=1000, n=n, q=2, seed=seed,
                                            coeff=A))
            q = select_lag_sbic(X, 4)
            assert q == 1 + int(np.argmin(oracle_sbic_table(X.values, 4)))
            assert q == 2

    def test_collinear_series_raise_numerical_error(self):
        col = np.random.default_rng(4).normal(size=(300, 1))
        with pytest.raises(NumericalError, match="rank-deficient"):
            select_lag_sbic(np.hstack([col, 2.0 * col]), 2)

    def test_sample_too_short(self):
        with pytest.raises(DataError, match="too short"):
            select_lag_sbic(np.random.default_rng(0).normal(size=(30, 2)), 5)


class TestFitVar:
    def test_zero_data_zero_fit(self):
        fit = fit_var(np.zeros((50, 2)), 1)
        np.testing.assert_array_equal(fit.nu, 0.0)
        np.testing.assert_array_equal(fit.A[0], 0.0)

    def test_noiseless_recursion_exact(self):
        x = np.empty(60)
        x[0] = 1.0
        for t in range(1, 60):
            x[t] = 0.5 * x[t - 1]
        fit = fit_var(x[:, None], 1)
        assert abs(fit.A[0][0, 0] - 0.5) < 1e-12
        assert abs(fit.nu[0]) < 1e-12

    def test_bivariate_matches_normal_equations_oracle(self):
        A = np.array([[[0.3, 0.1], [0.05, 0.2]]])
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=500, n=2, q=1, seed=3, coeff=A))
        fit = fit_var(X, 1)
        _, _, coef = oracle_var_normal_equations(X.values, 1)
        np.testing.assert_allclose(fit.nu, coef[0], atol=1e-10)
        np.testing.assert_allclose(fit.A[0], coef[1:3].T, atol=1e-10)

    def test_residual_means_near_zero(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=400, n=2, seed=4))
        fit = fit_var(X, 2)
        assert np.abs(fit.residuals.mean(axis=0)).max() < 1e-10

    def test_residuals_orthogonal_to_regressors(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=400, n=2, seed=5))
        fit = fit_var(X, 1)
        inner = fit.regressors.T @ fit.residuals
        scale = np.linalg.norm(fit.regressors) * np.linalg.norm(fit.residuals)
        assert np.abs(inner).max() / scale < 1e-8

    def test_a_list_length_is_q(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=400, n=2, seed=6))
        assert len(fit_var(X, 3).A) == 3


class TestNeweyWest:
    def test_auto_bandwidth_matches_double_sum_oracle(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=200, n=2, seed=8))
        fit = fit_var(X, 1)
        hac = newey_west_cov(fit)
        assert hac.bandwidth == 4  # floor(4 * 1.99^(2/9)): four lag terms
        for j in range(2):
            ref = oracle_hac(fit.regressors, fit.residuals[:, j], hac.bandwidth)
            np.testing.assert_allclose(hac.cov[j], ref, atol=1e-10)

    def test_psd(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=300, n=2, seed=9))
        fit = fit_var(X, 1)
        hac = newey_west_cov(fit)
        for j in range(2):
            eig = np.linalg.eigvalsh(hac.cov[j])
            assert eig.min() > -1e-18

    def test_auto_bandwidth_rule(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=301, n=1, seed=10))
        fit = fit_var(X, 1)
        nobs = fit.nobs
        assert newey_west_cov(fit).bandwidth == int(np.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))

    def test_bandwidth_bounds(self):
        # the rule keeps 1 <= L < nobs down to the smallest sample fit_var accepts
        rng = np.random.default_rng(11)
        for T in (4, 5, 100):
            fit = fit_var(rng.normal(size=(T, 1)), 1)
            assert 1 <= newey_west_cov(fit).bandwidth < fit.nobs

    def test_zero_column_left_out(self):
        # a zero return series: its coefficients' standard errors are 0, and the
        # other equation's match the VAR fitted without that series
        for seed in range(3):
            a = np.random.default_rng(seed).normal(0, 0.01, size=300)
            hac = newey_west_cov(fit_var(np.column_stack([a, np.zeros(300)]), 1))
            alone = newey_west_cov(fit_var(a[:, None], 1))
            np.testing.assert_allclose(hac.se[:2, 0], alone.se[:, 0], rtol=1e-12)
            np.testing.assert_allclose(hac.cov[0][:2, :2], alone.cov[0], rtol=1e-12)
            assert not hac.se[2].any() and not hac.cov[:, 2].any() and not hac.cov[:, :, 2].any()


class TestHansenLc:
    def test_stable_parameters_below_5pct_and_matches_oracle(self):
        A = np.array([[[0.3, 0.1], [0.05, 0.2]]])
        X, _ = gen_returns(ScenarioSpec(kind="constant-var", T=1000, n=2, q=1, seed=12, coeff=A))
        fit = fit_var(X, 1)
        lc = hansen_lc(fit)
        assert lc.lc_statistic < lc.critical_values["5%"]
        assert not lc.reject
        ref = oracle_lc(fit.regressors, fit.residuals)
        assert abs(lc.lc_statistic - ref) < 1e-8

    def test_scale_invariance(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=500, n=2, seed=13))
        lc1 = hansen_lc(fit_var(X.values, 1))
        lc2 = hansen_lc(fit_var(X.values * 40.0, 1))
        assert abs(lc1.lc_statistic - lc2.lc_statistic) < 1e-8

    def test_dof_counts_pooled_moments(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=500, n=2, seed=14))
        lc = hansen_lc(fit_var(X, 1))
        assert lc.dof == 2 * (1 + 2 + 1)

    def test_statistic_nonnegative(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=300, n=1, seed=15))
        assert hansen_lc(fit_var(X, 1)).lc_statistic >= 0.0

    def test_fewer_observations_than_moments_is_singular(self):
        # 7 rows and 8 pooled moments: V has rank 7 at most
        fit = fit_var(np.random.default_rng(0).normal(size=(8, 2)), 1)
        with pytest.raises(NumericalError, match="singular moment outer-product matrix"):
            hansen_lc(fit)

    def test_critical_values_monotone_in_dof(self):
        prev = 0.0
        for dof in range(1, 61):
            cv = constancy_critical_values(dof)
            assert cv["1%"] > cv["5%"] > cv["10%"]
            assert cv["5%"] > prev
            prev = cv["5%"]

    def test_dof_one_matches_published_cramer_von_mises_points(self):
        cv = constancy_critical_values(1)
        np.testing.assert_allclose([cv["10%"], cv["5%"], cv["1%"]],
                                   [0.347, 0.461, 0.743], atol=5e-4)

    @pytest.mark.parametrize("dof", [1, 8, 24, 72, 300])
    def test_critical_values_invert_the_limiting_cdf(self, dof):
        cv = constancy_critical_values(dof)
        for level, p in (("10%", 0.90), ("5%", 0.95), ("1%", 0.99)):
            assert abs(oracle_lc_cdf(cv[level], dof) - p) < 1e-9

    def test_monte_carlo_cross_check_at_dof_24(self):
        dof, terms, draws = 24, 200, 20_000
        scale = 1.0 / (np.arange(1, terms + 1) * np.pi) ** 2
        rng = np.random.default_rng(20240901)
        # truncated series plus the mean of its tail, sum_j 1/(j pi)^2 = 1/6
        q = rng.chisquare(dof, size=(draws, terms)) @ scale + dof * (1 / 6 - scale.sum())
        cv = constancy_critical_values(dof)
        for level, p in (("10%", 0.10), ("5%", 0.05), ("1%", 0.01)):
            assert abs(np.mean(q > cv[level]) - p) < 4 * np.sqrt(p * (1 - p) / draws)


class TestLcQuantiles:
    # the 10%/5%/1% points found by Brent's method (scipy's brentq, xtol
    # 1e-14) on the same discretised CDF
    BRENT = {
        3: (0.8411578068635277, 1.000178833168336, 1.358600594797077),
        12: (2.687412824964124, 2.9421892868712134, 3.473953339488194),
        24: (4.9660189195151965, 5.298795717820206, 5.9746824847663484),
        72: (13.65569653688257, 14.182842808641917, 15.220839917896019),
        300: (53.346741094412685, 54.35238061231029, 56.28602460990087),
        3000: (510.50366514052496, 513.537557186063, 519.2745016874196),
    }

    @pytest.mark.parametrize("dof", sorted(BRENT))
    def test_newton_matches_brent_roots(self, dof):
        np.testing.assert_allclose(_lc_quantiles(dof), self.BRENT[dof], rtol=1e-13, atol=0)

    def test_converges_at_every_hansen_lc_dof(self):
        # hansen_lc pools n * (p + 1) = n * (n q + 2) moments
        for dof in sorted({n * (n * q + 2) for n in range(1, 9) for q in range(1, 9)}):
            q10, q5, q1 = _lc_quantiles.__wrapped__(dof)  # uncached: every run converges
            assert 0.0 < q10 < q5 < q1

    def test_nan_in_the_quadrature_rejected(self, monkeypatch):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        weights[3] = np.nan
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda deg: (nodes, weights))
        with pytest.raises(NumericalError, match="dof=12"):
            _lc_quantiles.__wrapped__(12)


class TestEfficiencyDegree:
    def test_zero_is_zero(self):
        assert efficiency_degree(np.zeros((1, 2, 2))) == 0.0

    def test_univariate_half(self):
        assert abs(efficiency_degree(np.array([[0.5]])) - 1.0) < 1e-12

    def test_table2_value_matches_singular_value_oracle(self):
        # closed-form largest singular value of Phi(1) - I for the 2x2 case:
        # smax^2 = (||M||_F^2 + sqrt(||M||_F^4 - 4 det(M)^2)) / 2
        B = np.eye(2) - TABLE2_A
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        phi = np.array([[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]]) / det
        M = phi - np.eye(2)
        f = float(np.sum(M * M))
        d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        ref = np.sqrt((f + np.sqrt(f * f - 4 * d * d)) / 2.0)
        mine = efficiency_degree([TABLE2_A])
        assert abs(mine - ref) < 1e-10
        assert abs(mine - 0.2057002163771213) < 1e-12
        assert abs(mine - 0.206) < 5e-4

    def test_singular_sum_raises_with_condition(self):
        with pytest.raises(NumericalError, match="condition"):
            efficiency_degree(np.array([[1.0]]))

    def test_nonnegative_and_zero_iff_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            A = rng.normal(0, 0.1, size=(1, 2, 2))
            z = efficiency_degree(A)
            assert z >= 0.0
            if np.abs(A).max() > 0:
                assert z > 0.0

    def test_scale_invariance_of_argzero(self):
        # rescaling returns by a positive constant leaves the fitted
        # degree unchanged (slopes are scale free)
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=600, n=2, seed=18))
        f1 = fit_var(X.values, 1)
        f2 = fit_var(X.values * 7.5, 1)
        z1 = efficiency_degree(f1.A)
        z2 = efficiency_degree(f2.A)
        assert abs(z1 - z2) < 1e-10
