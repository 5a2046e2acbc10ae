"""GLS-detrended augmented Dickey-Fuller testing with modified-BIC lags.

The test statistic is the t-ratio on the lagged level in an ADF
regression run on a GLS-detrended series.  Detrending quasi-differences
the data at ``alpha = 1 + c/T`` (``c`` = -7.0 for the constant-only
model, -13.5 with a linear trend; ``C_BAR``), regresses the
quasi-differenced series on equally quasi-differenced deterministics,
and removes the fitted deterministic part in levels.

Lag order is chosen by the modified Bayesian information criterion of
Ng & Perron (2001) over a common estimation sample, so criterion values
are comparable across candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .series import _return_values

__all__ = [
    "AdfGlsResult",
    "gls_detrend",
    "mbic_lag_select",
    "adf_gls",
    "default_max_lag",
    "CRITICAL_VALUES",
]

C_BAR = {"constant": -7.0, "trend": -13.5}

# Asymptotic critical values of the detrended ADF t-ratio.  The
# constant-only case follows the no-deterministics Dickey-Fuller law;
# the trend-case 1% value is pinned at -3.42 (regression-tested).
CRITICAL_VALUES = {
    "constant": {"1%": -2.57, "5%": -1.94, "10%": -1.62},
    "trend": {"1%": -3.42, "5%": -2.89, "10%": -2.57},
}


@dataclass
class AdfGlsResult:
    """Outcome of the GLS-detrended ADF test on one series.

    ``phi_hat`` is the sum of the estimated coefficients on the lagged
    differences in the ADF regression (the short-run lag polynomial
    evaluated at one).  Reported as a size-distortion diagnostic; other
    conventions for this column exist, so treat it as descriptive only.
    """

    statistic: float
    selected_lag: int
    phi_hat: float
    model: str
    critical_values: dict[str, float]

    def rejects_at(self, level: str = "1%") -> bool:
        return self.statistic < self.critical_values[level]


def _deterministics(T: int, model: str) -> np.ndarray:
    if model == "constant":
        return np.ones((T, 1))
    if model == "trend":
        return np.column_stack([np.ones(T), np.arange(1, T + 1, dtype=np.float64)])
    raise DataError(f"model must be 'constant' or 'trend', got {model!r}")


def gls_detrend(y: np.ndarray, model: str = "trend") -> np.ndarray:
    """Remove GLS-fitted deterministics from ``y``.

    Quasi-differences ``y`` and the deterministic terms at
    ``alpha = 1 + C_BAR[model]/T``, estimates the deterministic
    coefficients on the quasi-differenced pair by least squares, and
    returns ``y - Z @ delta_hat`` in levels.  A NaN or infinite value in ``y``
    is a :class:`DataError`.
    """
    y = _return_values(y).ravel()
    T = y.shape[0]
    if T < 10:
        raise DataError(f"need at least 10 observations, got {T}")
    z = _deterministics(T, model)
    alpha = 1.0 + C_BAR[model] / T

    ya = np.empty(T)
    ya[0] = y[0]
    ya[1:] = y[1:] - alpha * y[:-1]
    za = np.empty_like(z)
    za[0] = z[0]
    za[1:] = z[1:] - alpha * z[:-1]

    delta, *_ = np.linalg.lstsq(za, ya, rcond=None)
    return y - z @ delta


def default_max_lag(T: int) -> int:
    """Schwert-style rule: floor(12 * (T/100)^(1/4))."""
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))


def _adf_regression(yd: np.ndarray, k: int, t_start: int) -> tuple[float, float, float, np.ndarray]:
    """ADF regression of d(yd) on yd lagged once and k lagged differences.

    Rows are 0-based positions ``t_start..T-1`` of ``yd``.  Returns
    (beta0, se_beta0, rss, b) with ``b`` the lagged-difference coefficients.
    """
    T = yd.shape[0]
    dy = np.diff(yd)
    rows = np.arange(t_start, T)
    lhs = dy[rows - 1]  # d(yd)_t for t in rows
    cols = [yd[rows - 1]]
    cols.extend(dy[rows - 1 - j] for j in range(1, k + 1))
    W = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(W, lhs, rcond=None)
    resid = lhs - W @ coef
    rss = float(resid @ resid)
    nobs, ncol = W.shape
    dof = nobs - ncol
    if dof <= 0:
        raise DataError("too few observations for the requested lag order")
    gram_inv = np.linalg.inv(W.T @ W)
    se0 = float(np.sqrt(rss / dof * gram_inv[0, 0]))
    return float(coef[0]), se0, rss, coef[1:]


def mbic_lag_select(y_detrended: np.ndarray, k_max: int) -> int:
    """Choose the ADF lag order by the modified BIC.

    All candidate regressions k = 0..k_max share the sample of the
    largest candidate (rows t = k_max+1 .. T-1, 0-based), so the
    criterion values are comparable.  With ``N = T - k_max``,

        MBIC(k) = ln(rss_k / N) + ln(N) * (tau(k) + k) / N,
        tau(k) = beta0_k^2 * sum(yd[t-1]^2) / (rss_k / N).
    """
    yd = np.asarray(y_detrended, dtype=np.float64).ravel()
    T = yd.shape[0]
    if k_max < 0:
        raise DataError("k_max must be nonnegative")
    if T - k_max < 20:
        raise DataError(f"k_max={k_max} too large for T={T} (need T - k_max >= 20)")
    n_pen = T - k_max
    t_start = k_max + 1
    rows = np.arange(t_start, T)
    level_energy = float(np.sum(yd[rows - 1] ** 2))
    if level_energy == 0.0 and not np.any(yd):
        raise DataError("detrended series is identically zero")

    penalty = float(np.log(n_pen))
    best_k, best_mic = 0, np.inf
    for k in range(k_max + 1):
        beta0, _, rss, _ = _adf_regression(yd, k, t_start)
        sigma2 = rss / n_pen
        if sigma2 <= 0:
            raise DataError("zero residual variance in lag-selection regression")
        tau = beta0 * beta0 * level_energy / sigma2
        mic = float(np.log(sigma2) + penalty * (tau + k) / n_pen)
        if mic < best_mic:
            best_mic, best_k = mic, k
    return best_k


def adf_gls(y: np.ndarray, model: str = "trend", k_max: int | None = None) -> AdfGlsResult:
    """GLS-detrended ADF test with automatic lag selection.

    After detrending and lag selection the final ADF regression uses the
    full sample available for the chosen lag (t = k+1 .. T-1, 0-based).
    A NaN or infinite value in ``y`` is a :class:`DataError`.
    """
    y = _return_values(y).ravel()
    T = y.shape[0]
    if k_max is None:
        k_max = default_max_lag(T)
    yd = gls_detrend(y, model=model)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected below
        energy = yd @ yd
    if not np.isfinite(energy):
        raise NumericalError("the sum of squares of the detrended series overflows")
    scale = float(np.max(np.abs(yd))) if yd.size else 0.0
    if scale == 0.0 or np.var(yd) < 1e-24 * max(1.0, scale) ** 2:
        raise DataError("degenerate input: no variation after GLS detrending")
    k = mbic_lag_select(yd, k_max=k_max)
    beta0, se0, rss, b = _adf_regression(yd, k, t_start=k + 1)
    if rss <= 0 or se0 == 0.0:
        raise DataError("degenerate input: zero residual variance in ADF regression")
    stat = beta0 / se0
    if not np.isfinite(stat):
        raise NumericalError("ADF t-ratio is not finite")
    return AdfGlsResult(
        statistic=float(stat),
        selected_lag=int(k),
        phi_hat=float(np.sum(b)),
        model=model,
        critical_values=dict(CRITICAL_VALUES[model]),
    )
