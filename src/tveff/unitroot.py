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
from .series import _qr_least_squares, _return_values

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

    p = z.shape[1]
    QtY, R_inv, _ = _qr_least_squares(np.column_stack([za, ya]), p)  # za is never collinear
    return y - z @ (R_inv @ QtY[:p, 0])


def default_max_lag(T: int) -> int:
    """Schwert-style rule: floor(12 * (T/100)^(1/4))."""
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))


def _adf_fit(yd: np.ndarray, k: int, t_start: int) -> tuple[np.ndarray, np.ndarray]:
    """QR of the regression of d(yd)_t on [yd_{t-1}, d(yd)_{t-1}, ..., d(yd)_{t-k}], t >= t_start.

    Returns ``b = Q' d(yd)_t`` (k + 2 entries, the last the residual's) and
    R^-1; a collinear column is a :class:`DataError` naming that lag.
    """
    T = yd.shape[0]
    dy = np.diff(yd)
    rows = np.arange(t_start, T)
    A = np.column_stack([yd[rows - 1], *(dy[rows - 1 - j] for j in range(1, k + 1)), dy[rows - 1]])
    QtY, R_inv, collinear = _qr_least_squares(A, k + 1)
    if collinear.any():
        j = int(np.argmax(collinear))
        what = "the lagged level" if j == 0 else f"lagged difference {j}"
        raise DataError(f"ADF-GLS lag design is collinear: {what} is a linear combination "
                        "of the regressors before it")
    return QtY[:, 0], R_inv


def _mbic_values(yd: np.ndarray, k_max: int) -> np.ndarray:
    """MBIC(k) for k = 0..k_max, every candidate from one QR of the largest design.

    Candidate k regresses on the first k + 1 columns of :func:`_adf_fit`'s
    design for k_max.  Its residual sum of squares is ``sum_{i>k} b_i^2``,
    and its level coefficient ``sum_{i<=k} (R^-1)_{0i} b_i``, since the
    leading block of R^-1 inverts the leading block of R.
    """
    T = yd.shape[0]
    n_pen = T - k_max
    if not np.any(yd):
        raise DataError("detrended series is identically zero")
    b, R_inv = _adf_fit(yd, k_max, k_max + 1)
    rss = np.cumsum((b * b)[::-1])[::-1][1:]  # sum_{i>k} b_i^2
    if not rss.min() > 0:
        raise DataError("zero residual variance in lag-selection regression")
    level = yd[k_max: T - 1]  # yd_{t-1} over the common sample
    beta0 = np.cumsum(R_inv[0] * b[:-1])
    sigma2 = rss / n_pen
    tau = beta0 * beta0 * float(level @ level) / sigma2
    return np.log(sigma2) + np.log(n_pen) * (tau + np.arange(k_max + 1)) / n_pen


def mbic_lag_select(y_detrended: np.ndarray, k_max: int) -> int:
    """Choose the ADF lag order by the modified BIC.

    All candidate regressions k = 0..k_max share the sample of the
    largest candidate (rows t = k_max+1 .. T-1, 0-based), so the
    criterion values are comparable.  With ``N = T - k_max``,

        MBIC(k) = ln(rss_k / N) + ln(N) * (tau(k) + k) / N,
        tau(k) = beta0_k^2 * sum(yd[t-1]^2) / (rss_k / N).

    The smallest k attaining the minimum is chosen.
    """
    yd = np.asarray(y_detrended, dtype=np.float64).ravel()
    T = yd.shape[0]
    if k_max < 0:
        raise DataError("k_max must be nonnegative")
    if T - k_max < 20:
        raise DataError(f"k_max={k_max} too large for T={T} (need T - k_max >= 20)")
    if T - k_max - 1 <= k_max + 1:  # the largest candidate has no residual degree of freedom
        raise DataError("too few observations for the requested lag order")
    return int(np.argmin(_mbic_values(yd, k_max)))


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
    b, R_inv = _adf_fit(yd, k, t_start=k + 1)
    coef = R_inv @ b[:-1]
    rss = float(b[-1] ** 2)
    # (W'W)^-1_00 is the squared norm of row 0 of R^-1; mbic_lag_select left dof > 0
    se0 = float(np.sqrt(rss / (T - 2 * k - 2) * (R_inv[0] @ R_inv[0])))
    if rss <= 0 or se0 == 0.0:
        raise DataError("degenerate input: zero residual variance in ADF regression")
    stat = coef[0] / se0
    if not np.isfinite(stat):
        raise NumericalError("ADF t-ratio is not finite")
    return AdfGlsResult(
        statistic=float(stat),
        selected_lag=int(k),
        phi_hat=float(np.sum(coef[1:])),
        model=model,
        critical_values=dict(CRITICAL_VALUES[model]),
    )
