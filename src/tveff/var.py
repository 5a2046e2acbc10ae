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

The quantiles are roots found by :func:`_brentq`, a line-for-line port of
scipy's ``brentq`` that returns the same bits.  It is written out here
because importing ``scipy.optimize`` costs start-up time on every
``tveff`` command; the package needs only ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DataError, NumericalError
from .series import ReturnMatrix, _coerce_values, _lagged
from .tvvar import _COND_LIMIT, zeta_from_coefficient_stack

__all__ = [
    "VarFit",
    "LongRunMultiplier",
    "ConstancyTest",
    "HacCovariance",
    "select_lag_sbic",
    "fit_var",
    "newey_west_cov",
    "hansen_lc",
    "long_run_multiplier",
    "efficiency_degree",
    "constancy_critical_values",
]


@dataclass
class VarFit:
    """Equation-by-equation least-squares VAR estimate.

    ``A[l]`` is the coefficient matrix on lag l+1 with rows indexing
    equations; ``sigma`` divides by the number of residual rows.  The
    regressor matrix is retained for downstream covariance and
    constancy computations.
    """

    q: int
    nu: np.ndarray  # (n,)
    A: list[np.ndarray]  # q matrices, each (n, n)
    residuals: np.ndarray  # (T-q, n)
    sigma: np.ndarray  # (n, n)
    labels: tuple[str, ...]
    adj_r2: np.ndarray  # (n,)
    regressors: np.ndarray = field(repr=False)  # (T-q, 1+n*q)

    @property
    def n_series(self) -> int:
        return self.nu.shape[0]

    @property
    def nobs(self) -> int:
        return self.residuals.shape[0]


@dataclass
class LongRunMultiplier:
    """Cumulated impulse-response matrix ``(I - sum A_l)^{-1}``."""

    phi1: np.ndarray
    condition: float


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


def select_lag_sbic(X: ReturnMatrix | np.ndarray, q_max: int) -> int:
    """Schwarz-criterion VAR order over a common estimation sample.

    All candidates q = 1..q_max are fit on the rows available at
    ``q_max`` so criterion values are comparable:

        SBIC(q) = ln det(Sigma_q) + (ln T* / T*) * q * n^2,   T* = T - q_max.

    Only slope parameters are penalized; intercept and covariance terms
    are constant across q and cancel from the argmin.  Each candidate is
    the :func:`fit_var` of the rows from ``q_max - q`` on.
    """
    values, _, _ = _coerce_values(X)
    T, n = values.shape
    if q_max < 1:
        raise DataError("q_max must be >= 1")
    t_star = T - q_max
    if t_star < 10 * (1 + n * q_max):
        raise DataError(f"sample too short for q_max={q_max} (T*={t_star})")

    best_q, best_crit = 1, np.inf
    for q in range(1, q_max + 1):
        sign, logdet = np.linalg.slogdet(fit_var(values[q_max - q:], q).sigma)
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

    W = np.column_stack([np.ones(T - q), _lagged(values, q)])  # (1, x'_{t-1}, ..., x'_{t-q})
    Y = values[q:]
    # identically-zero regressor columns get zero coefficients; any other
    # rank deficiency is a genuine collinearity problem
    active = np.any(W != 0.0, axis=0)
    coef = np.zeros((p, n))
    sub, _, rank, _ = np.linalg.lstsq(W[:, active], Y, rcond=None)
    if rank < int(active.sum()):
        raise NumericalError(
            f"rank-deficient regressor matrix (rank {rank} < {int(active.sum())})"
        )
    coef[active] = sub
    resid = Y - W @ coef
    nobs = W.shape[0]
    sigma = resid.T @ resid / nobs

    tss = np.sum((Y - Y.mean(axis=0)) ** 2, axis=0)
    rss = np.sum(resid**2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tss > 0, rss / tss, 0.0)
    adj_r2 = 1.0 - ratio * (nobs - 1) / (nobs - p)

    A = [coef[1 + (l - 1) * n: 1 + l * n].T.copy() for l in range(1, q + 1)]
    return VarFit(
        q=q,
        nu=coef[0].copy(),
        A=A,
        residuals=resid,
        sigma=sigma,
        labels=labels,
        adj_r2=adj_r2,
        regressors=W,
    )


def newey_west_cov(fit: VarFit, bandwidth: int | str = "auto") -> HacCovariance:
    """Bartlett-kernel HAC covariance of the VAR coefficients, per equation.

    ``bandwidth="auto"`` uses floor(4 * (T/100)^(2/9)) on the estimation
    sample; bandwidth 0 collapses to the White heteroskedasticity-robust
    estimator.  No small-sample degrees-of-freedom adjustment is applied.
    """
    W = fit.regressors
    nobs, p = W.shape
    if bandwidth == "auto":
        L = int(np.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))
    else:
        L = int(bandwidth)
    if L < 0 or L >= nobs:
        raise DataError(f"bandwidth must be in [0, {nobs - 1}], got {L}")

    gram_inv = np.linalg.inv(W.T @ W)
    n = fit.n_series
    cov = np.empty((n, p, p))
    for j in range(n):
        e = fit.residuals[:, j]
        We = W * e[:, None]
        S = We.T @ We
        for l in range(1, L + 1):
            weight = 1.0 - l / (L + 1.0)
            Sl = We[l:].T @ We[:-l]
            S += weight * (Sl + Sl.T)
        cov[j] = gram_inv @ S @ gram_inv
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
    evaluated once per dof.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 80.0 / dof + 10.0, 401)
    half = np.diff(edges)[:, None] / 2.0
    u = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    weight = (half * weights).ravel() * 2.0 / (np.pi * u)
    w = u * (1.0 - 1.0j)
    # log(sinh w / w), continuous along the path since Re w > 0
    cf = np.exp(-0.5 * dof * (w - np.log(2.0 * w) + np.log(-np.expm1(-2.0 * w))))

    def cdf(x: float) -> float:
        return 0.5 - float(weight @ np.imag(np.exp(-1j * u * u * x) * cf))

    hi = dof / 6.0 + 12.0 * np.sqrt(dof / 45.0) + 1.0  # Q: mean dof/6, variance dof/45
    return tuple(_brentq(lambda x, p=p: cdf(x) - p, 0.0, hi, xtol=1e-14)
                 for p in (0.90, 0.95, 0.99))


_BRENT_RTOL = 4 * 2.0**-52  # scipy's brentq rtol, 4 eps


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method (inverse quadratic steps).

    A line-for-line port of ``brentq.c`` from scipy (BSD-3-Clause;
    Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers)
    with scipy's rtol = 4 eps and 100 iterations: it returns the same
    bits as ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)``.  A bracket
    without a sign change, a NaN value of ``f`` and no convergence are a
    ``NumericalError``.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalError(f"root search: f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2  # the tolerance is 2 delta
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericalError(f"root search: no convergence in 100 iterations in [{xa!r}, {xb!r}]")



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

        Lc = (1/T*) * sum_t s_t' V^{-1} s_t.
    """
    W = fit.regressors
    nobs, p = W.shape
    n = fit.n_series
    blocks = []
    for j in range(n):
        e = fit.residuals[:, j]
        sigma2 = float(e @ e) / nobs
        blocks.append(np.column_stack([W * e[:, None], e**2 - sigma2]))
    F = np.hstack(blocks)  # (nobs, n*(p+1))
    S = np.cumsum(F, axis=0)
    V = F.T @ F
    try:
        VS = np.linalg.solve(V, S.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular moment outer-product matrix") from exc
    lc = float(np.sum(S.T * VS) / nobs)
    dof = F.shape[1]
    crit = constancy_critical_values(dof)
    return ConstancyTest(
        lc_statistic=lc,
        dof=dof,
        critical_values=crit,
        level="5%",
        reject=lc > crit["5%"],
    )


def long_run_multiplier(A: list[np.ndarray] | np.ndarray) -> LongRunMultiplier:
    """Invert ``I - sum_l A_l``; rejects near-singular systems.

    Raises :class:`NumericalError` carrying the condition number when the
    sum of slope matrices is too close to unity.
    """
    mats = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in _as_matrix_list(A)]
    n = mats[0].shape[0]
    B = np.eye(n) - sum(mats)
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise _singular_error(cond)
    phi1 = np.linalg.inv(B)
    return LongRunMultiplier(phi1=phi1, condition=cond)


def _singular_error(cond: float) -> NumericalError:
    return NumericalError(f"I - sum(A) is numerically singular (condition number {cond:.3e})")


def _as_matrix_list(A) -> list[np.ndarray]:
    if isinstance(A, np.ndarray) and A.ndim == 3:
        return list(A)
    if isinstance(A, np.ndarray) and A.ndim <= 2:
        return [np.atleast_2d(A)]
    return list(A)


def efficiency_degree(A: list[np.ndarray] | np.ndarray) -> float:
    """Spectral norm of ``Phi(1) - I``: zero iff every slope matrix is zero.

    One period of :func:`tveff.tvvar.zeta_from_coefficient_stack`.
    Raises :class:`NumericalError` carrying the condition number where
    that routine flags ``I - sum A`` as numerically singular.
    """
    stack = np.stack([np.atleast_2d(np.asarray(a, dtype=np.float64))
                      for a in _as_matrix_list(A)])
    zeta = float(zeta_from_coefficient_stack(stack[None])[0])
    if np.isnan(zeta):
        B = np.eye(stack.shape[1]) - stack.sum(axis=0)
        raise _singular_error(float(np.linalg.cond(B)))
    return zeta
