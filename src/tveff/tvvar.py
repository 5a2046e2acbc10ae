"""Time-varying VAR estimated as one penalized least-squares problem.

Slope coefficients follow independent random walks while the intercept
stays constant, so each equation solves

    min over (nu, beta_{1..m})  sum_t (y_t - nu - z_t' beta_t)^2
                                + lam^2 * sum_t ||beta_t - beta_{t-1}||^2

with z_t the stacked lagged returns and ``lam`` the ratio of observation
to coefficient-innovation noise.  The normal equations are block
tridiagonal with k = n*q sized blocks; they are factorized as a banded
Cholesky M = L L' in O(m * k^3) time and O(m * k^2) memory, shared by
every equation.  The intercept is folded in through Schur-complement
bordering, which needs only forward solves: one pass with L over every
equation's right-hand side and the intercept's border column yields the
intercepts, and one backward pass with L' per equation the slopes.  The
first period carries no extra prior, so initialization is diffuse: the
first smoothness term simply couples periods one and two.

Regressor components that are identically zero over the whole sample are
anchored at zero (a lam^2 weight on their initial state), which keeps the
system positive definite and yields the natural all-zero path for them.

The per-period efficiency degree zeta_t = ||Phi_t(1) - I||_2, with
Phi_t(1) = (I - sum_l A_{t,l})^{-1}, is computed in closed form for
n <= 3: |a / (1 - a)| for a univariate lag sum a; for n = 2 the
adjugate inverse with the exact 2x2 largest-singular-value formula; for
n = 3 the adjugate by cofactors and the largest eigenvalue of a 3x3
Gram matrix by the trigonometric formula.  For n >= 4, at any n <= 3
period whose estimated condition number of I - sum_l A_l is not finite
or at least 1e8 (for n = 3 a Frobenius-norm bound, never below the true
condition), and at n = 3 periods where that Gram matrix has a nearly
double largest eigenvalue, zeta comes from batched singular value
decompositions, which also decide which periods are flagged singular
(condition above 1e12).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .errors import DataError, NumericalError
from .series import ReturnMatrix, _coerce_values

__all__ = [
    "StackedSystem",
    "TvVarFit",
    "EfficiencyPath",
    "build_stacked_system",
    "solve_tvvar",
    "tv_efficiency_path",
]

_COND_LIMIT = 1e12
# Closed-form periods whose estimated condition reaches this go to the SVD
# route.  Below it the closed forms' rounding (about cond * eps relative)
# is negligible, and it sits far below _COND_LIMIT, so every flag is
# decided by the SVD.
_FAST_COND_LIMIT = 1e8
# The n = 3 closed form hands a period to the SVD route when 1 + r of the
# trigonometric eigenvalue formula is below this; above it the formula's
# rounding stays within about 1e-13 relative.
_DOUBLE_ROOT_MARGIN = 1e-6


@dataclass
class StackedSystem:
    """Per-equation normal equations in banded-plus-border form, and their solver.

    ``band`` stores the lower band of the block-tridiagonal matrix M
    (scipy layout: band[i, j] = M[j+i, j]); ``border`` is the column
    coupling the states to the shared intercept, whose own diagonal
    entry is m.  Right-hand sides are per equation.

    The system is its own workspace: ``assemble`` refills every
    data-dependent entry from a sample of the same shape, and ``solve``
    writes the slopes into ``beta``, so a refit allocates no band,
    factor, right-hand sides or slopes.  ``band`` is never overwritten
    (it is factored in a copy); ``rhs`` and ``border`` hold their forward
    solutions L^-1 rhs and L^-1 border after ``solve`` until ``assemble``
    refills them.  ``band`` is in Fortran order, and ``rhs`` and
    ``border`` are the columns of one Fortran-order (m*k, n+1) array, so
    LAPACK factors and solves them in place; the data-free parts (the
    smoothness penalty on the diagonal, the -lam^2 cross row) are
    written once.

    Every per-refit pass runs along the period axis.  The sample is kept
    as a (n*(q+1), m) buffer with one contiguous row per series and lag:
    row l*n + j is series j at lag l, so rows 0..n-1 are the targets and
    rows n.. are the k regressor components.  Each band entry and each
    right-hand side is one length-m product of two such rows.  ``beta`` is in Fortran order, one
    contiguous column per equation, and ``slopes`` is a live view of it.
    """

    band: np.ndarray  # (k+1, m*k), Fortran order
    rhs_border: np.ndarray  # (n,)
    m: int
    k: int
    lam: float
    _lags: np.ndarray = field(repr=False)  # (n*(q+1), m): row l*n + j is series j at lag l
    beta: np.ndarray = field(repr=False)  # (m*k, n), Fortran order: slopes of each equation
    _columns: np.ndarray = field(repr=False)  # (m*k, n+1): rhs, then border
    _penalty: np.ndarray = field(repr=False)  # (m, 1): lam^2 times each period's penalty count
    _factor: np.ndarray = field(repr=False)  # band-shaped: L, then L' in upper band storage
    _row: np.ndarray = field(repr=False)  # (m*k,): one band row in transit

    @property
    def rhs(self) -> np.ndarray:  # (m*k, n)
        return self._columns[:, :-1]

    @property
    def border(self) -> np.ndarray:  # (m*k,)
        return self._columns[:, -1]

    @property
    def slopes(self) -> np.ndarray:
        """``beta`` viewed as (m, q, n, n): period, lag, equation, regressor."""
        n = self.beta.shape[1]
        return self.beta.reshape(self.m, self.k // n, n, n).transpose(0, 1, 3, 2)

    def assemble(self, values: np.ndarray) -> None:
        """Fill every data-dependent entry from ``values`` (T, n), in place.

        The one assembly routine: ``build_stacked_system`` runs it on the
        sample, the bootstrap on each pseudo-sample of the same shape.
        """
        m, k = self.m, self.k
        T, n = values.shape
        q = T - m
        lags = self._lags
        for l in range(q + 1):
            lags[l * n: (l + 1) * n] = values[q - l: T - l].T
        Y, Z = lags[:n], lags[n:]

        rows = self.band.T.reshape(m, k, k + 1)  # rows[t, j, i] = band[i, t*k + j]
        for j in range(k):
            np.multiply(Z[j], Z[j], out=rows[:, j, 0])
            for i in range(1, k - j):
                np.multiply(Z[j + i], Z[j], out=rows[:, j, i])
        rows[:, :, 0] += self._penalty
        zero_cols = ~np.any(Z != 0.0, axis=1)
        if zero_cols.any():
            rows[0, zero_cols, 0] += self.lam * self.lam  # anchor data-free components at zero

        for e in range(n):
            rhs = self.rhs[:, e].reshape(m, k)
            for j in range(k):
                np.multiply(Z[j], Y[e], out=rhs[:, j])
        self.border.reshape(m, k)[:] = Z.T
        np.sum(values[q:], axis=0, out=self.rhs_border)

    def solve(self) -> tuple[np.ndarray, float]:
        """Slopes into ``beta``; return the intercepts and a condition estimate.

        With M = L L' the banded Cholesky factorization of the band, one
        forward solve over the right-hand sides R and the border c gives
        [F | f] = L^-1 [R | c].  Bordering needs nothing more, since
        c'M^-1 c = f'f and c'M^-1 R = f'F: the intercepts are
        nu = (rhs_border - F'f) / (m - f'f), and one backward solve with
        L' over the n columns of F - f nu' gives the slopes, so a solve
        makes n+1 forward and n backward triangular passes.  Between
        them the factor is rearranged in place into L' in upper band
        storage, on which the backward passes run faster than on L read
        transposed.

        A sample with T-q < 5*n*q is rejected first.  Finiteness is
        checked only on failure: a band that overflowed fails the
        factorization or its condition estimate, and a right-hand side
        that overflowed makes the intercepts non-finite.
        """
        m, k = self.m, self.k
        if m < 5 * k:
            raise DataError(f"sample too short for TV-VAR: T-q={m} < 5*n*q={5 * k}")
        np.copyto(self._factor, self.band)
        factor, info = dpbtrf(self._factor, lower=1, overwrite_ab=1)
        with np.errstate(all="ignore"):  # a non-finite estimate fails below
            cond_est = float((factor[0].max() / factor[0].min()) ** 2)
        if info != 0 or not cond_est <= 1e30:  # NaN included
            if not np.isfinite(self.band).all():
                raise NumericalError("normal equations are not finite: the products of the "
                                     "returns overflow")
            if info != 0:
                raise NumericalError(
                    "normal matrix is not positive definite "
                    f"(m={m}, k={k}, lam={self.lam}); regressors may be collinear")
            raise NumericalError(f"normal matrix numerically singular (cond~{cond_est:.3e})")

        dtbtrs(factor, self._columns, uplo="L", overwrite_b=1)
        F, f = self.rhs, self.border
        with np.errstate(all="ignore"):  # a non-finite right-hand side fails below
            denom = m - float(f @ f)
            nu = (self.rhs_border - f @ F) / denom
        if denom <= 0:
            raise NumericalError("intercept Schur complement is not positive")
        if not np.isfinite(nu).all():
            raise NumericalError("right-hand sides are not finite: the products of the "
                                 "returns overflow")
        beta = self.beta
        for e in range(nu.shape[0]):  # F - outer(f, nu) into beta, one column at a time
            np.multiply(f, nu[e], out=beta[:, e])
            np.subtract(F[:, e], beta[:, e], out=beta[:, e])
        # L' into upper band storage, in place: row d of the lower band,
        # L[j+d, j] at column j, becomes row k-d shifted right by d
        row, N = self._row, m * k
        for d in range(k // 2 + 1):  # rows d and k-d trade places
            e = k - d
            row[: N - d] = factor[d, : N - d]
            if e != d:
                factor[d, e:] = factor[e, : N - e]
            factor[e, d:] = row[: N - d]
        dtbtrs(factor, beta, uplo="U", overwrite_b=1)
        return nu, cond_est


@dataclass
class TvVarFit:
    """Per-period VAR slopes with a constant intercept.

    ``A_path[t, l]`` is the lag-(l+1) coefficient matrix for fitted row
    t (rows start at the q+1-th observation), rows of each matrix
    indexing equations.
    """

    nu: np.ndarray  # (n,)
    A_path: np.ndarray  # (m, q, n, n)
    labels: tuple[str, ...]
    dates: np.ndarray | None  # (m,) datetime64 or None
    diagnostics: dict = field(default_factory=dict)

    @property
    def nobs(self) -> int:
        return self.A_path.shape[0]


@dataclass
class EfficiencyPath:
    """Efficiency-degree series with optional bootstrap bands.

    ``zeta`` is NaN at periods flagged numerically singular, and NaN is
    the only record of that: ``flagged`` and ``efficient_flag`` are
    derived from ``zeta`` and the bands.
    """

    dates: np.ndarray  # (m,) datetime64 or integer positions
    zeta: np.ndarray  # (m,)
    band_lower: np.ndarray | None = None
    band_upper: np.ndarray | None = None

    def __len__(self) -> int:
        return self.zeta.shape[0]

    @property
    def flagged(self) -> np.ndarray:
        """Numerically singular periods: where zeta is NaN."""
        return np.isnan(self.zeta)

    @property
    def has_bands(self) -> bool:
        return self.band_lower is not None and self.band_upper is not None

    @property
    def efficient_flag(self) -> np.ndarray | None:
        """Where zeta lies in [band_lower, band_upper]; None without bands.

        Flagged periods are False: they certify nothing.
        """
        if not self.has_bands:
            return None
        return (self.zeta >= self.band_lower) & (self.zeta <= self.band_upper)

    def with_bands(self, lower: np.ndarray, upper: np.ndarray) -> "EfficiencyPath":
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.shape != self.zeta.shape or upper.shape != self.zeta.shape:
            raise DataError("band shapes do not match the path")
        return replace(self, band_lower=lower, band_upper=upper)


def build_stacked_system(X: ReturnMatrix | np.ndarray, q: int, lam: float) -> StackedSystem:
    """Assemble the penalized normal equations for every equation at once.

    The regressors are shared across equations, so a single band and
    border serve all right-hand sides.
    """
    values, _, _ = _coerce_values(X)
    T, n = values.shape
    if q < 1:
        raise DataError("q must be >= 1")
    lam2 = float(lam) * float(lam)  # in floats: an int's exact square never exceeds inf
    if not (lam > 0 and 0.0 < lam2 < np.inf):
        raise DataError(f"lam (lambda) must be positive with a finite nonzero square, got {lam}")
    m = T - q
    if m < 2:
        raise DataError(f"need at least q+2 observations, got T={T}")
    k = n * q

    penalty_count = np.full(m, 2.0)
    penalty_count[0] = 1.0
    penalty_count[-1] = 1.0
    band = np.zeros((k + 1, m * k), order="F")
    band[k, : (m - 1) * k] = -lam2  # cross row: each period's coupling to the next

    system = StackedSystem(
        band=band,
        rhs_border=np.empty(n),
        m=m,
        k=k,
        lam=lam,
        _lags=np.empty((n * (q + 1), m)),
        beta=np.empty((m * k, n), order="F"),
        _columns=np.empty((m * k, n + 1), order="F"),
        _penalty=lam2 * penalty_count[:, None],
        _factor=np.empty_like(band),
        _row=np.empty(m * k),
    )
    with np.errstate(over="ignore"):  # solve() rejects normal equations that overflowed
        system.assemble(values)
    return system


def solve_tvvar(X: ReturnMatrix | np.ndarray, q: int, lam: float = 1.0) -> TvVarFit:
    """Fit the time-varying VAR by banded Cholesky with intercept bordering.

    Output is deterministic: identical inputs give bit-identical paths
    regardless of caller threading.
    """
    values, labels, dates = _coerce_values(X)
    system = build_stacked_system(values, q, lam)
    nu, cond_est = system.solve()
    return TvVarFit(
        nu=nu,
        A_path=system.slopes.copy(),
        labels=labels,
        dates=None if dates is None else dates[q:].copy(),
        diagnostics={"condition_estimate": cond_est},
    )


def _zeta_svd(S: np.ndarray) -> np.ndarray:
    """Zeta of each ``S = I - sum_l A_l`` by SVD, NaN where S is singular.

    cond = s_max / s_min of S decides singularity (not finite or above
    ``_COND_LIMIT``); zeta is s_max of ``inv(S) - I`` elsewhere.
    """
    m, n, _ = S.shape
    sv = np.linalg.svd(S, compute_uv=False)  # (m, n), descending
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    zeta = np.full(m, np.nan)
    ok = np.isfinite(cond) & (cond <= _COND_LIMIT)
    if ok.any():
        phi = np.linalg.inv(S[ok])
        dev = phi - np.eye(n)[None, :, :]
        zeta[ok] = np.linalg.svd(dev, compute_uv=False)[:, 0]
    return zeta


def _sigma_max_2x2(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]], elementwise."""
    return 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))


def _zeta_closed_form(A_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeta and a condition estimate of ``I - A_sum`` for n <= 3.

    Uses ``Phi(1) - I = S^{-1} A_sum`` with ``S = I - A_sum``, so a small
    lag sum is not lost to cancellation in ``S^{-1} - I``.  n = 1:
    zeta = |a / (1 - a)| and the condition is 1 (NaN when S is zero or
    not finite).  n = 2: adjugate inverse, and cond = s_max^2 / |det S|
    since s_max * s_min = |det S|.  n = 3: adjugate by cofactors, the
    Frobenius bound cond_F = ||S||_F ||adj S||_F / |det S| >= cond_2,
    and s_max of M = adj(S) A_sum as the square root of the largest
    eigenvalue of M'M by the trigonometric formula for symmetric 3x3
    matrices (Smith 1961, CACM 4:168); zeta = s_max(M) / |det S|, or NaN
    where that eigenvalue is nearly double (see ``_DOUBLE_ROOT_MARGIN``).
    """
    n = A_sum.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            a = A_sum[:, 0, 0]
            s = 1.0 - a
            return np.abs(a / s), np.abs(s) / np.abs(s)
        if n == 2:
            e, f, g, h = A_sum[:, 0, 0], A_sum[:, 0, 1], A_sum[:, 1, 0], A_sum[:, 1, 1]
            a, b, c, d = 1.0 - e, -f, -g, 1.0 - h  # S = [[a, b], [c, d]]
            det = np.abs(a * d - b * c)
            cond = _sigma_max_2x2(a, b, c, d) ** 2 / det
            # adj(S) @ A_sum, divided by |det S| after the singular value
            zeta = _sigma_max_2x2(d * e - b * g, d * f - b * h,
                                  a * g - c * e, a * h - c * f) / det
            return zeta, cond
        A = [[A_sum[:, i, j] for j in range(3)] for i in range(3)]
        S = [[float(i == j) - A[i][j] for j in range(3)] for i in range(3)]
        # signed cofactors by cyclic indices: C[i][j] = (-1)^(i+j) minor
        C = [[S[(i + 1) % 3][(j + 1) % 3] * S[(i + 2) % 3][(j + 2) % 3]
              - S[(i + 1) % 3][(j + 2) % 3] * S[(i + 2) % 3][(j + 1) % 3]
              for j in range(3)] for i in range(3)]
        det = np.abs(S[0][0] * C[0][0] + S[0][1] * C[0][1] + S[0][2] * C[0][2])
        frob2_S, frob2_C = (sum(x * x for row in X for x in row) for X in (S, C))
        cond = np.sqrt(frob2_S * frob2_C) / det
        # M = adj(S) @ A_sum with adj(S)[i][j] = C[j][i]; G = M'M
        M = [[C[0][i] * A[0][k] + C[1][i] * A[1][k] + C[2][i] * A[2][k]
              for k in range(3)] for i in range(3)]
        g00, g11, g22, g01, g02, g12 = (
            M[0][i] * M[0][j] + M[1][i] * M[1][j] + M[2][i] * M[2][j]
            for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
        q = (g00 + g11 + g22) / 3.0
        d0, d1, d2 = g00 - q, g11 - q, g22 - q
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                     + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
        # B = (G - qI) / p, symmetric; r = det(B) / 2
        b00, b11, b22, b01, b02, b12 = (x / p for x in (d0, d1, d2, g01, g02, g12))
        r = np.clip((b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
                     + b02 * (b01 * b12 - b11 * b02)) / 2.0, -1.0, 1.0)
        # r near -1 means the two largest eigenvalues nearly coincide, where
        # the formula keeps only about half the digits (error ~ eps / sqrt(1 + r));
        # those periods are left NaN for the SVD route
        lam_max = np.where(1.0 + r > _DOUBLE_ROOT_MARGIN,
                           q + 2.0 * p * np.cos(np.arccos(r) / 3.0), np.nan)
        return np.sqrt(np.where(p > 0, lam_max, q)) / det, cond


def zeta_from_coefficient_stack(A_stack: np.ndarray) -> np.ndarray:
    """Efficiency degree per period from a (m, q, n, n) coefficient stack.

    Periods where ``I - sum_l A_l`` is numerically singular (condition
    number above ``_COND_LIMIT`` or not finite) are NaN instead of
    aborting the whole path.

    For n <= 3 zeta comes from exact closed forms (see
    ``_zeta_closed_form``); any period whose condition estimate (an upper
    bound on cond_2 for n = 3) is not finite or at least
    ``_FAST_COND_LIMIT``, or whose closed-form zeta is NaN, is handed to
    the singular value route, which serves every period for n >= 4.
    Flagging is therefore decided by singular values alone.
    """
    m, q, n, _ = A_stack.shape
    # lag by lag into a period-contiguous (n, n, m) buffer: the same
    # additions in the same order as .sum(axis=1), and every later pass
    # over an entry of the lag sum runs along contiguous periods
    lags = A_stack.transpose(1, 2, 3, 0)  # (q, n, n, m)
    summed = np.copy(lags[0], order="C")
    for l in range(1, q):
        summed += lags[l]
    A_sum = summed.transpose(2, 0, 1)  # (m, n, n)
    if n > 3:
        return _zeta_svd(np.eye(n)[None, :, :] - A_sum)
    zeta, cond = _zeta_closed_form(A_sum)
    slow = ~(cond < _FAST_COND_LIMIT) | np.isnan(zeta)  # NaN estimates included
    if slow.any():
        zeta[slow] = _zeta_svd(np.eye(n)[None, :, :] - A_sum[slow])
    return zeta


def tv_efficiency_path(fit: TvVarFit) -> EfficiencyPath:
    """Per-period efficiency degree of a fitted time-varying VAR."""
    dates = fit.dates if fit.dates is not None else np.arange(fit.nobs)
    return EfficiencyPath(dates=dates, zeta=zeta_from_coefficient_stack(fit.A_path))
