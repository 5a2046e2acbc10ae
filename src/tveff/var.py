"""Time-invariant VAR estimation, robust inference and the efficiency degree.

The market-efficiency degree of a fitted VAR is the spectral norm of
``Phi(1) - I`` where ``Phi(1) = (I - A_1 - ... - A_q)^{-1}`` cumulates the
impulse response.  It is zero exactly when every slope matrix vanishes,
i.e. when returns are unpredictable from their own past.

Also provides Schwarz-criterion lag selection over a common sample,
Bartlett-kernel HAC standard errors, and a cumulative-score test of
parameter constancy against random-walk drift, whose critical values are
exact quantiles of its limiting law (Hansen 1992), found by inverting the
law's characteristic function (Imhof 1961).

The three quantiles are found together by Newton's method on the
discretised CDF, whose derivative comes from the same quadrature; the
iteration starts at the law's mean, where the density is not small.  No
``scipy.optimize`` import is needed, which would cost start-up time on
every ``tveff`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DataError, NumericalError
from .series import ReturnMatrix, _coerce_values, _lagged, _qr_least_squares
from .tvvar import zeta_from_coefficient_stack

__all__ = [
    "VarFit",
    "ConstancyTest",
    "HacCovariance",
    "select_lag_sbic",
    "fit_var",
    "newey_west_cov",
    "hansen_lc",
    "efficiency_degree",
    "constancy_critical_values",
]


@dataclass
class VarFit:
    """Equation-by-equation least-squares VAR estimate.

    ``A[l]`` is the coefficient matrix on lag l+1 with rows indexing
    equations; ``sigma`` divides by the number of residual rows.  The
    regressor matrix W and the inverse of its QR triangle, with
    (W'W)^-1 = R^-1 R^-T and zeros at all-zero regressors, are retained
    for downstream covariance and constancy computations.
    """

    q: int
    nu: np.ndarray  # (n,)
    A: list[np.ndarray]  # q matrices, each (n, n)
    residuals: np.ndarray  # (T-q, n)
    sigma: np.ndarray  # (n, n)
    labels: tuple[str, ...]
    adj_r2: np.ndarray  # (n,)
    regressors: np.ndarray = field(repr=False)  # (T-q, 1+n*q)
    r_inv: np.ndarray = field(repr=False)  # (1+n*q, 1+n*q), upper triangular

    @property
    def n_series(self) -> int:
        return self.nu.shape[0]

    @property
    def nobs(self) -> int:
        return self.residuals.shape[0]


@dataclass
class ConstancyTest:
    """Cumulative-score test of constant parameters vs random-walk drift."""

    lc_statistic: float
    dof: int
    critical_values: dict[str, float]
    level: str
    reject: bool


@dataclass
class HacCovariance:
    """Bartlett-kernel HAC coefficient covariances, one block per equation."""

    se: np.ndarray  # (p, n): rows follow regressor order, columns equations
    cov: np.ndarray  # (n, p, p)
    bandwidth: int


def _var_qr(values: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR of the design ``W = (1, x'_{t-1}, ..., x'_{t-q})`` of rows t >= q, targets x_t appended.

    Returns ``(W, active, QtY, R_inv)``, the QR taken over the active
    columns, those not identically zero.  A collinear active column is a
    :class:`NumericalError`, and so are returns whose products overflow,
    with (max |x| * T)^2 not finite, which bounds every sum of products
    that the fit, its HAC covariance and the constancy test form, or
    underflow, with an active column's sum of squares not a normal float.
    """
    T, n = values.shape
    with np.errstate(over="ignore"):  # an overflowing bound is rejected below
        bound = (np.abs(values).max() * T) ** 2
    if not np.isfinite(bound):
        raise NumericalError("the products of the returns overflow")
    p = 1 + n * q
    A = np.empty((T - q, p + n))  # [W | x_t]
    A[:, 0] = 1.0
    A[:, 1:p] = _lagged(values, q)
    A[:, p:] = values[q:]
    W = A[:, :p]
    active = np.any(W != 0.0, axis=0)
    if (np.einsum("ij,ij->j", W, W)[active] < np.finfo(np.float64).tiny).any():
        raise NumericalError("the products of the returns underflow")
    k = int(active.sum())
    QtY, R_inv, collinear = _qr_least_squares(
        A if k == p else A[:, np.append(active, [True] * n)], k)
    if collinear.any():
        raise NumericalError(f"rank-deficient regressor matrix (rank {k - collinear.sum()} < {k})")
    return W, active, QtY, R_inv


def select_lag_sbic(X: ReturnMatrix | np.ndarray, q_max: int) -> int:
    """Schwarz-criterion VAR order over a common estimation sample.

    All candidates q = 1..q_max are fit on the rows available at
    ``q_max`` so criterion values are comparable:

        SBIC(q) = ln det(Sigma_q) + (ln T* / T*) * q * n^2,   T* = T - q_max.

    Only slope parameters are penalized; intercept and covariance terms
    are constant across q and cancel from the argmin.  Candidate q's
    regressors lead the q_max design, so one QR of it gives every
    candidate's residual cross products.
    """
    values, _, _ = _coerce_values(X)
    T, n = values.shape
    if q_max < 1:
        raise DataError("q_max must be >= 1")
    t_star = T - q_max
    if t_star < 10 * (1 + n * q_max):
        raise DataError(f"sample too short for q_max={q_max} (T*={t_star})")

    _, active, QtY, _ = _var_qr(values, q_max)
    ends = np.cumsum(active)[n * np.arange(1, q_max + 1)]  # active columns of each candidate
    best_q, best_crit = 1, np.inf
    for q, end in enumerate(ends, start=1):
        E = QtY[end:]  # the residual triangle of candidate q
        sign, logdet = np.linalg.slogdet(E.T @ E / t_star)
        if sign <= 0:
            raise NumericalError(f"singular residual covariance at q={q}")
        crit = float(logdet + (np.log(t_star) / t_star) * q * n * n)
        if crit < best_crit:
            best_crit, best_q = crit, q
    return best_q


def fit_var(X: ReturnMatrix | np.ndarray, q: int) -> VarFit:
    """Least-squares VAR(q) with intercept, equation by equation.

    Identical regressors make per-equation least squares equal to the
    joint system estimate.
    """
    values, labels, _ = _coerce_values(X)
    T, n = values.shape
    if q < 1:
        raise DataError("q must be >= 1")
    p = 1 + n * q
    if T <= q + p:
        raise DataError(f"T={T} too small for VAR({q}) with {n} series")

    W, active, QtY, R_inv = _var_qr(values, q)
    k = R_inv.shape[0]
    coef = np.zeros((p, n))
    coef[active] = R_inv @ QtY[:k]
    r_inv = np.zeros((p, p))
    r_inv[np.ix_(active, active)] = R_inv
    resid = values[q:] - W @ coef
    nobs = W.shape[0]
    # residual cross products from the QR: of the full fit, and of the intercept alone
    sigma = QtY[k:].T @ QtY[k:] / nobs
    tss, rss = np.einsum("ij,ij->j", QtY[1:], QtY[1:]), np.diagonal(sigma) * nobs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tss > 0, rss / tss, 0.0)
    adj_r2 = 1.0 - ratio * (nobs - 1) / (nobs - p)

    A = [coef[1 + (l - 1) * n: 1 + l * n].T.copy() for l in range(1, q + 1)]
    return VarFit(q=q, nu=coef[0].copy(), A=A, residuals=resid, sigma=sigma, labels=labels,
                  adj_r2=adj_r2, regressors=W, r_inv=r_inv)


def newey_west_cov(fit: VarFit) -> HacCovariance:
    """Bartlett-kernel HAC covariance of the VAR coefficients, per equation.

    The bandwidth is L = floor(4 * (T/100)^(2/9)) on the estimation
    sample, which is at least 1 and below T.  No small-sample
    degrees-of-freedom adjustment is applied.  The sandwich
    (W'W)^-1 S (W'W)^-1 is R^-1 S_u R^-T, with S_u the Bartlett sum over
    u_t = R^-T w_t e_t, which stays on the scale of the squared returns.
    An all-zero regressor's standard error and covariances are 0.
    """
    W = fit.regressors
    nobs, p = W.shape
    L = int(np.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))

    n = fit.n_series
    cov = np.empty((n, p, p))
    for j in range(n):
        U = (W * fit.residuals[:, j][:, None]) @ fit.r_inv
        S = U.T @ U
        for l in range(1, L + 1):
            weight = 1.0 - l / (L + 1.0)
            Sl = U[l:].T @ U[:-l]
            S += weight * (Sl + Sl.T)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite cov is rejected below
            cov[j] = fit.r_inv @ S @ fit.r_inv.T
    if not np.isfinite(cov).all():
        raise NumericalError("the HAC covariance overflows: the regressors' scales differ too much")
    se = np.sqrt(np.maximum(np.einsum("jpp->jp", cov), 0.0)).T  # (p, n)
    return HacCovariance(se=se, cov=cov, bandwidth=L)


@cache
def _lc_quantiles(dof: int) -> tuple[float, float, float]:
    """Exact 10%/5%/1% upper points of the dof-dimensional limiting law.

    Q = sum_j chi2_dof,j / (j pi)^2 has characteristic function
    E e^{itQ} = (sinh w / w)^(-dof/2), w = sqrt(-2it).  Its CDF is the
    Gil-Pelaez inversion over t = u^2, where the integrand decays like
    e^(-dof u / 2), on 400 fixed 16-node Gauss-Legendre panels: at the
    returned points it is within 1e-12 of adaptive quadrature for every
    dof 1..600 and 4e-13 at dof 3000.  The characteristic function is
    evaluated once per dof; Newton steps on all three levels at once stop
    when every step is within 1e-12 relative.  An iterate that is not
    finite or leaves (0, hi], or no convergence in 50 steps, is a
    ``NumericalError``.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 80.0 / dof + 10.0, 401)
    half = np.diff(edges)[:, None] / 2.0
    u = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    weight = (half * weights).ravel() * 2.0 / (np.pi * u)
    w = u * (1.0 - 1.0j)
    # log(sinh w / w), continuous along the path since Re w > 0
    cf = np.exp(-0.5 * dof * (w - np.log(2.0 * w) + np.log(-np.expm1(-2.0 * w))))
    hi = dof / 6.0 + 12.0 * np.sqrt(dof / 45.0) + 1.0  # Q: mean dof/6, variance dof/45
    p = np.array([0.90, 0.95, 0.99])
    # start at the mean: from hi or well below it the density F' underflows
    x = np.full(3, dof / 6.0)
    for _ in range(50):
        e = np.exp(-1j * np.outer(x, u * u)) * cf
        # F(x) = 0.5 - e.imag @ weight, F'(x) = e.real @ (weight u^2)
        step = (p - 0.5 + e.imag @ weight) / (e.real @ (weight * u * u))
        x = x + step
        if not np.all(np.isfinite(x) & (x > 0.0) & (x <= hi)):
            raise NumericalError(f"Lc quantiles at dof={dof}: Newton iterate {x} "
                                 f"is not in (0, {hi:.6g}]")
        if np.all(np.abs(step) <= 1e-12 * x):
            return tuple(x.tolist())
    raise NumericalError(f"Lc quantiles at dof={dof}: no convergence in 50 Newton steps")


def constancy_critical_values(dof: int) -> dict[str, float]:
    """10%/5%/1% critical values for the constancy statistic at ``dof``.

    Exact quantiles of the limiting law, computed once per dof and process.
    """
    if dof < 1:
        raise DataError("dof must be >= 1")
    q10, q5, q1 = _lc_quantiles(dof)
    return {"10%": q10, "5%": q5, "1%": q1}


def hansen_lc(fit: VarFit) -> ConstancyTest:
    """Joint cumulative-score constancy test over all VAR equations, at 5%.

    Per equation the moment sequence stacks the regressor-residual
    products and the centered squared residual; pooling equations gives
    dof = n * (p + 1) moment conditions.  With cumulative sums s_t and
    outer-product matrix V = sum_t f_t f_t',

        Lc = (1/T*) * sum_t s_t' V^{-1} s_t = ||S R^-1||_F^2 / T*,

    where F = QR stacks the f_t' and S the s_t', since V = R'R.  A
    collinear column of F makes V singular.
    """
    W, E = fit.regressors, fit.residuals
    nobs = W.shape[0]
    # equation j's block of F: the products w_t e_tj, then e_tj^2 - sigma_jj
    centred = E * E - np.diagonal(fit.sigma)
    F = np.concatenate([W[:, None, :] * E[..., None], centred[..., None]], axis=2).reshape(nobs, -1)
    _, R_inv, collinear = _qr_least_squares(F, F.shape[1])
    if collinear.any():
        raise NumericalError("singular moment outer-product matrix")
    lc = float(np.sum(np.square(np.cumsum(F, axis=0) @ R_inv)) / nobs)
    dof = F.shape[1]
    crit = constancy_critical_values(dof)
    return ConstancyTest(lc_statistic=lc, dof=dof, critical_values=crit, level="5%",
                         reject=lc > crit["5%"])


def efficiency_degree(A: list[np.ndarray] | np.ndarray) -> float:
    """Spectral norm of ``Phi(1) - I``: zero iff every slope matrix is zero.

    One period of :func:`tveff.tvvar.zeta_from_coefficient_stack`.
    Raises :class:`NumericalError` carrying the condition number where
    that routine flags ``I - sum A`` as numerically singular.
    """
    if isinstance(A, np.ndarray) and A.ndim < 3:
        A = [A]  # one slope matrix
    stack = np.stack([np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in A])
    zeta = float(zeta_from_coefficient_stack(stack[None])[0])
    if np.isnan(zeta):
        cond = float(np.linalg.cond(np.eye(stack.shape[1]) - stack.sum(axis=0)))
        raise NumericalError(f"I - sum(A) is numerically singular (condition number {cond:.3e})")
    return zeta
