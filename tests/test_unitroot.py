import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tveff.errors import DataError
from tveff.unitroot import (CRITICAL_VALUES, _mbic_values, adf_gls, default_max_lag, gls_detrend,
                            mbic_lag_select)


# ---------------------------------------------------------------------------
# independent oracles, written against the documented conventions only


def oracle_detrend(y, model, c_bar):
    T = len(y)
    alpha = 1.0 + c_bar / T
    if model == "constant":
        z = np.ones((T, 1))
    else:
        z = np.column_stack([np.ones(T), np.arange(1, T + 1, dtype=float)])
    ya = np.concatenate([[y[0]], y[1:] - alpha * y[:-1]])
    za = np.vstack([z[0], z[1:] - alpha * z[:-1]])
    delta = np.linalg.solve(za.T @ za, za.T @ ya)
    return y - z @ delta


def oracle_adf_rows(yd, k, t_start):
    """Plain-loop ADF regression over rows t_start..T-1 (0-based)."""
    T = len(yd)
    rows = range(t_start, T)
    W, lhs = [], []
    for t in rows:
        lhs.append(yd[t] - yd[t - 1])
        row = [yd[t - 1]]
        for j in range(1, k + 1):
            row.append(yd[t - j] - yd[t - j - 1])
        W.append(row)
    W = np.asarray(W)
    lhs = np.asarray(lhs)
    coef = np.linalg.solve(W.T @ W, W.T @ lhs)
    resid = lhs - W @ coef
    rss = float(resid @ resid)
    dof = W.shape[0] - W.shape[1]
    se0 = np.sqrt(rss / dof * np.linalg.inv(W.T @ W)[0, 0])
    return coef, rss, se0


def oracle_mic_table(yd, k_max):
    T = len(yd)
    n_pen = T - k_max
    t_start = k_max + 1
    energy = sum(yd[t - 1] ** 2 for t in range(t_start, T))
    C = np.log(n_pen)
    table = []
    for k in range(k_max + 1):
        coef, rss, _ = oracle_adf_rows(yd, k, t_start)
        s2 = rss / n_pen
        tau = coef[0] ** 2 * energy / s2
        table.append(np.log(s2) + C * (tau + k) / n_pen)
    return np.asarray(table)


def ar1(T, a, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(T) * scale
    y = np.empty(T)
    y[0] = e[0]
    for t in range(1, T):
        y[t] = a * y[t - 1] + e[t]
    return y


# ---------------------------------------------------------------------------


class TestGlsDetrend:
    def test_zero_series(self):
        out = gls_detrend(np.zeros(50), model="constant")
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_constant_series_constant_model(self):
        out = gls_detrend(np.full(50, 3.7), model="constant")
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_matches_two_step_oracle_on_random_walk(self):
        rng = np.random.default_rng(2024)
        y = np.cumsum(rng.standard_normal(300))
        mine = gls_detrend(y, model="trend")
        ref = oracle_detrend(y, "trend", -13.5)
        np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_constant_shift_invariance(self):
        y = ar1(200, 0.4, seed=3)
        np.testing.assert_allclose(
            gls_detrend(y, "constant"), gls_detrend(y + 11.0, "constant"), atol=1e-10
        )

    def test_trend_shift_invariance(self):
        y = ar1(200, 0.4, seed=4)
        shifted = y + 5.0 + 0.7 * np.arange(1, 201)
        np.testing.assert_allclose(
            gls_detrend(y, "trend"), gls_detrend(shifted, "trend"), atol=1e-9
        )

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 10"):
            gls_detrend(np.arange(5.0), "constant")

    def test_unknown_model_rejected(self):
        with pytest.raises(DataError, match="model must be"):
            gls_detrend(np.arange(20.0), "quadratic")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("test", [gls_detrend, adf_gls])
    def test_non_finite_value_is_data_error(self, test, bad):
        # one bad draw must not reach LAPACK or come back as a NaN series
        y = np.random.default_rng(0).standard_normal(200)
        y[57] = bad
        with pytest.raises(DataError, match="non-finite"):
            test(y)


class TestMbicLagSelect:
    def test_iid_matches_exhaustive_oracle(self):
        yd = np.random.default_rng(77).standard_normal(500)
        k_max = 10
        mine = mbic_lag_select(yd, k_max)
        assert mine == int(np.argmin(oracle_mic_table(yd, k_max)))

    def test_ar_plus_ma_matches_oracle(self):
        rng = np.random.default_rng(88)
        e = rng.standard_normal(800)
        y = np.empty(800)
        y[0] = e[0]
        for t in range(1, 800):
            y[t] = 0.3 * y[t - 1] + e[t] - 0.7 * e[t - 1]
        yd = gls_detrend(y, "constant")
        k_max = 12
        mine = mbic_lag_select(yd, k_max)
        oracle = int(np.argmin(oracle_mic_table(yd, k_max)))
        assert mine == oracle
        assert mine > 0  # the MA part needs augmentation lags

    def test_scale_invariance(self):
        yd = np.random.default_rng(31).standard_normal(400)
        assert mbic_lag_select(yd, 9) == mbic_lag_select(yd * 1000.0, 9)

    def test_kmax_too_large(self):
        with pytest.raises(DataError, match="k_max"):
            mbic_lag_select(np.random.default_rng(0).standard_normal(30), 25)

    @pytest.mark.parametrize("k_max", [49, 80])
    def test_kmax_without_residual_dof(self, k_max):
        # T = 100: the largest candidate's 50 columns leave no degree of
        # freedom in the common sample's 100 - k_max - 1 rows
        with pytest.raises(DataError, match="too few observations"):
            mbic_lag_select(np.random.default_rng(0).standard_normal(100), k_max)

    # Scales are powers of two in the range of daily returns' SDs, so that
    # rescaling is exact.  The oracle solves the normal equations, which lose
    # about cond(W)^2 * eps relative to the terms of MBIC, ln(sigma2) and the
    # penalty, not to their sum; where the sum crosses zero (a 50-digit
    # reference put the oracle 1.6e-10 relative off at MBIC = -0.046, and the
    # QR route 4e-13), the tolerance is 1e-10 of the table's largest value.
    @settings(max_examples=100, deadline=None)
    @given(st.integers(40, 400), st.integers(0, 12), st.floats(-0.9, 0.98),
           st.floats(-0.9, 0.9), st.integers(-12, -2), st.integers(0, 2**32 - 1))
    def test_one_factorization_matches_exhaustive_oracle(self, T, k_max, a, theta, log2_sd, seed):
        # ARMA(1,1) data: the MA part calls for augmentation lags
        k_max = min(k_max, T - 20)
        e = np.random.default_rng(seed).standard_normal(T + 1) * 2.0**log2_sd
        y = np.empty(T)
        y[0] = e[1]
        for t in range(1, T):
            y[t] = a * y[t - 1] + e[t + 1] + theta * e[t]
        yd = gls_detrend(y, "constant")
        oracle = oracle_mic_table(yd, k_max)
        np.testing.assert_allclose(_mbic_values(yd, k_max), oracle, rtol=1e-10,
                                   atol=1e-10 * np.abs(oracle).max())
        assert mbic_lag_select(yd, k_max) == int(np.argmin(oracle))


class TestAdfGls:
    def test_pinned_trend_critical_value(self):
        assert CRITICAL_VALUES["trend"]["1%"] == -3.42
        res = adf_gls(ar1(200, 0.5, seed=1), model="trend")
        assert res.critical_values["1%"] == -3.42

    def test_stationary_ar_rejects_and_matches_oracle(self):
        y = ar1(1000, 0.5, seed=42)
        res = adf_gls(y, model="trend", k_max=7)
        assert res.statistic < -3.42
        yd = oracle_detrend(y, "trend", -13.5)
        k = int(np.argmin(oracle_mic_table(yd, 7)))
        coef, rss, se0 = oracle_adf_rows(yd, k, t_start=k + 1)
        assert res.selected_lag == k
        assert abs(res.statistic - coef[0] / se0) < 1e-8
        assert abs(res.phi_hat - float(np.sum(coef[1:]))) < 1e-10

    def test_random_walk_fails_to_reject(self):
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.standard_normal(1000))
        res = adf_gls(y, model="trend", k_max=7)
        assert res.statistic > -3.42
        assert not res.rejects_at("1%")

    def test_scale_invariance_of_statistic(self):
        y = ar1(500, 0.6, seed=11)
        r1 = adf_gls(y, model="trend", k_max=6)
        r2 = adf_gls(y * 250.0, model="trend", k_max=6)
        assert r1.selected_lag == r2.selected_lag
        assert abs(r1.statistic - r2.statistic) < 1e-8

    def test_degenerate_series_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            adf_gls(np.full(100, 2.5), model="constant")

    def test_perfect_trend_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            adf_gls(1.0 + 0.5 * np.arange(100.0), model="trend")

    def test_reject_flag_consistency(self):
        res = adf_gls(ar1(400, 0.5, seed=5), model="trend", k_max=5)
        assert res.rejects_at("1%") == (res.statistic < res.critical_values["1%"])

    @pytest.mark.parametrize("model, lag", [("constant", 2), ("trend", 3)])
    def test_two_level_bounce_is_data_error(self, model, lag):
        # returns bouncing between two levels repeat with period 2; once numpy's
        # LinAlgError from inverting a singular Gram matrix.  The trend's slope
        # adds a constant to every difference, one more independent regressor
        with pytest.raises(DataError, match=f"collinear: lagged difference {lag} "):
            adf_gls(0.01 * (-1.0) ** np.arange(600), model=model)

    def test_default_max_lag_rule(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(1000) == 21
