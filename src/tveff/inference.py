"""Residual-bootstrap confidence bands and efficiency classification.

Bands are built under the null that every time-varying slope is zero:
pseudo-samples add the sample mean back to return vectors resampled
jointly with replacement (joint resampling keeps the contemporaneous
cross-correlation intact).  Each replication re-runs the full
time-varying fit, intercept included, and the per-period efficiency
degrees are reduced to equal-tail empirical quantiles.

One ``StackedSystem`` and one pseudo-sample buffer serve every
replication: each overwrites them in place through the same
``assemble`` and ``solve`` as ``solve_tvvar``, so the replicated zeta
equal those of full refits bit for bit.

A band is an order statistic, so no (B, m) array of replicated zeta is
kept.  The rows stream through one buffer of a few tails' worth of rows,
and whenever it fills, one in-place partition keeps only the k_lo
smallest and B - k_hi + 1 largest values of each period.  Every value
that can be a band survives each step, so the bands are the exact order
statistics of all B replications.

Replication b draws from the b-th stream spawned off the master seed, so
its zeta do not depend on any other replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import ReturnMatrix, _coerce_values, _parse_date, _return_values
from .tvvar import (
    EfficiencyPath,
    build_stacked_system,
    solve_tvvar,
    tv_efficiency_path,
    zeta_from_coefficient_stack,
)

__all__ = [
    "BootstrapSpec",
    "RegimeSummary",
    "Segment",
    "bootstrap_bands",
    "classify_segments",
    "regime_volatility",
]


@dataclass
class BootstrapSpec:
    """Settings for the efficiency-degree bootstrap.

    Whole return vectors are the resampling unit.  Memory grows with
    ``replications`` only through the band tails: at most
    tail + max(2 * tail, 64) rows of m float64 are kept, where tail =
    2 * k_lo + 1 for k_lo of ``band_order_statistics``.  ``seed`` must be
    non-negative.
    """

    replications: int = 5000
    coverage: float = 0.95
    seed: int = 0
    lam: float = 1.0
    q: int = 1

    def __post_init__(self) -> None:
        if self.replications < 100:
            raise DataError(f"replications must be >= 100, got {self.replications}")
        if not 0.0 < self.coverage < 1.0:
            raise DataError(f"coverage must be in (0, 1), got {self.coverage}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not (self.lam > 0 and 0.0 < float(self.lam) * float(self.lam) < np.inf):
            raise DataError(f"lam must be positive with a finite nonzero square, got {self.lam}")
        if self.q < 1:
            raise DataError("q must be >= 1")

    def band_order_statistics(self) -> tuple[int, int]:
        """1-based order statistics (lower, upper) of the per-period bands.

        With B replications and tail mass a = (1-coverage)/2 these are
        floor(B*a) and B - floor(B*a); B*a must be at least 5 so the
        requested tails are resolvable.  B*a is rounded to 9 decimals
        first, so round-off in 1-coverage cannot move it below an integer.
        """
        tail = round(self.replications * (1.0 - self.coverage) / 2.0, 9)
        if tail < 5.0:
            raise DataError(
                "too few replications for the requested coverage: "
                f"B*(1-coverage)/2 = {tail:.3f} < 5"
            )
        k_lo = int(np.floor(tail))
        return k_lo, self.replications - k_lo


@dataclass
class Segment:
    """One maximal run of equal efficiency classification."""

    start: object  # date label of the first period
    end: object  # date label of the last period (inclusive)
    label: str  # "efficient" | "inefficient"
    start_index: int
    end_index: int
    mean_zeta: float


@dataclass
class RegimeSummary:
    """Volatility of the efficiency degree inside breakpoint-defined regimes."""

    starts: list
    ends: list
    sd: np.ndarray  # sample SD of zeta per regime
    efficient_share: np.ndarray
    counts: np.ndarray


def _replicated_zeta(values: np.ndarray, spec: BootstrapSpec):
    """Yield the efficiency degrees of the B null replications in order.

    One ``StackedSystem`` and one pseudo-sample buffer serve them all;
    replication b draws from ``SeedSequence(spec.seed,
    spawn_key=(b,))``, the b-th child that ``SeedSequence(spec.seed)``
    spawns.  Each yielded row is a fresh array.
    """
    T = values.shape[0]
    mean = values.mean(axis=0)
    centered = values - mean
    system = build_stacked_system(values, spec.q, spec.lam)
    pseudo = np.empty_like(values)
    A_stack = system.slopes  # a view: every solve rewrites it in place
    for b in range(spec.replications):
        stream = np.random.SeedSequence(spec.seed, spawn_key=(b,))
        idx = np.random.default_rng(stream).integers(0, T, size=T)
        np.take(centered, idx, axis=0, out=pseudo)
        pseudo += mean
        _return_values(pseudo)  # rejects a non-finite pseudo-sample
        system.assemble(pseudo)
        system.solve()
        yield zeta_from_coefficient_stack(A_stack)


def _keep_tails(rows: np.ndarray, k_lo: int, n_hi: int) -> np.ndarray:
    """The ``k_lo`` smallest and ``n_hi`` largest of ``rows`` per column.

    Partitions ``rows`` in place along axis 0, NaN last as in ``np.sort``,
    and returns its first ``k_lo + n_hi`` rows: the ``k_lo`` smallest,
    their largest in row ``k_lo - 1``, then the ``n_hi`` largest, their
    smallest in row ``k_lo``.  Fewer rows than that come back untouched.
    The tails of a union are the tails of the union of its parts' tails,
    so rows can be reduced one buffer at a time.
    """
    filled, tail = rows.shape[0], k_lo + n_hi
    if filled < tail:
        return rows
    rows.partition([k_lo - 1, filled - n_hi], axis=0)
    rows[k_lo:tail] = rows[filled - n_hi:]
    return rows[:tail]


def _null_bands(values: np.ndarray, spec: BootstrapSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper band: order statistics k_lo and k_hi of the B replicated paths.

    The rows stream through one buffer of tail + max(2 * tail, 64) rows,
    reduced to its tails whenever it fills.
    """
    k_lo, k_hi = spec.band_order_statistics()
    n_hi = spec.replications - k_hi + 1
    tail = k_lo + n_hi
    m = values.shape[0] - spec.q
    buffer = np.empty((min(tail + max(2 * tail, 64), spec.replications), m))
    filled = 0
    for zeta in _replicated_zeta(values, spec):
        if filled == buffer.shape[0]:
            filled = _keep_tails(buffer, k_lo, n_hi).shape[0]
        buffer[filled] = zeta
        filled += 1
    tails = _keep_tails(buffer[:filled], k_lo, n_hi)
    return tails[k_lo - 1].copy(), tails[k_lo].copy()


def bootstrap_bands(
    X: ReturnMatrix | np.ndarray,
    spec: BootstrapSpec,
    *,
    path: EfficiencyPath | None = None,
) -> EfficiencyPath:
    """Efficiency path of ``X`` with equal-tail null bands attached.

    A zero-variance input yields the degenerate all-zero path with
    zero-width bands rather than an error.  A caller that already holds
    ``tv_efficiency_path(solve_tvvar(X, spec.q, spec.lam))`` passes it as
    ``path`` and the bands are attached to it instead of solving the
    original sample again.
    """
    spec.band_order_statistics()  # rejects too few replications before any solve

    values, _, _ = _coerce_values(X)
    if path is None:
        path = tv_efficiency_path(solve_tvvar(X, q=spec.q, lam=spec.lam))
    elif len(path) != values.shape[0] - spec.q:
        raise DataError(
            f"path has {len(path)} periods, expected T-q={values.shape[0] - spec.q}"
        )

    return path.with_bands(*_null_bands(values, spec))


def classify_segments(path: EfficiencyPath, min_run: int = 20) -> list[Segment]:
    """Maximal efficient/inefficient runs with short runs absorbed.

    One left-to-right pass over the runs of ``efficient_flag``: a first
    run shorter than ``min_run`` takes its right neighbour's label, and
    a later run that is short, or has the label of the run before it,
    extends that run.  Flagged (NaN) periods count as not-efficient.
    ``mean_zeta`` averages every finite zeta of the segment.
    """
    flags = path.efficient_flag
    if flags is None:
        raise DataError("path has no bands; run bootstrap_bands first")
    if min_run < 1:
        raise DataError("min_run must be >= 1")
    if flags.size == 0:
        return []

    bounds = (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist()
    runs: list[list] = []  # [flag, start, stop] with stop exclusive
    for start, stop in zip([0, *bounds], [*bounds, flags.size]):
        flag = bool(flags[start])
        if len(runs) == 1 and runs[0][2] - runs[0][1] < min_run:
            runs[0][0], runs[0][2] = flag, stop
        elif runs and (stop - start < min_run or flag == runs[-1][0]):
            runs[-1][2] = stop
        else:
            runs.append([flag, start, stop])

    segments = []
    for flag, start, stop in runs:
        zeta_slice = path.zeta[start:stop]
        finite = zeta_slice[np.isfinite(zeta_slice)]
        segments.append(
            Segment(
                start=path.dates[start],
                end=path.dates[stop - 1],
                label="efficient" if flag else "inefficient",
                start_index=start,
                end_index=stop - 1,
                mean_zeta=float(finite.mean()) if finite.size else float("nan"),
            )
        )
    return segments


def _regimes(dates: np.ndarray, breakpoints: list) -> tuple[np.ndarray, int]:
    """Regime of each date and the regime count, with :func:`regime_volatility`'s rules.

    Only dates are read, so ``run_pipeline`` checks breakpoints before any solve.
    """
    dates = np.asarray(dates)
    if dates.dtype.kind == "M":
        bps = np.array([_parse_date(str(b)) for b in breakpoints], dtype="datetime64[D]")
    else:
        bps = np.asarray(breakpoints, dtype=dates.dtype)
    if not (np.diff(bps) > 0).all():
        raise DataError("breakpoints must be strictly increasing")
    for b in bps:
        if b < dates[0] or b > dates[-1]:
            raise DataError(f"breakpoint {b} outside the sample")
    inner = bps[bps > dates[0]]
    regime = np.searchsorted(inner, dates, side="right")
    empty = np.flatnonzero(np.bincount(regime, minlength=inner.size + 1) == 0)
    if empty.size:
        raise DataError(f"regime {empty[0] + 1} is empty")
    return regime, inner.size + 1


def regime_volatility(path: EfficiencyPath, breakpoints: list) -> RegimeSummary:
    """Sample SD of the efficiency degree between breakpoints.

    A breakpoint date starts a new regime; regimes partition the sample
    as [start, b1), [b1, b2), ..., [bk, end].  A breakpoint at the very
    first date simply starts regime one there, so k breakpoints name k
    regimes; otherwise the stretch before b1 is its own regime.  Empty
    regimes are rejected.  The SD takes every finite zeta of the regime.
    """
    dates = np.asarray(path.dates)
    regime, n_regimes = _regimes(dates, breakpoints)
    efficient = path.efficient_flag
    starts, ends, sds, shares, counts = [], [], [], [], []
    for r in range(n_regimes):
        sel = regime == r
        zeta = path.zeta[sel]
        finite = zeta[np.isfinite(zeta)]
        if finite.size == 0:
            raise DataError(f"regime {r + 1} has no defined efficiency values")
        sds.append(float(finite.std(ddof=1)) if finite.size > 1 else 0.0)
        shares.append(float(np.mean(efficient[sel])) if efficient is not None else float("nan"))
        counts.append(int(sel.sum()))
        starts.append(dates[sel][0])
        ends.append(dates[sel][-1])
    return RegimeSummary(
        starts=starts,
        ends=ends,
        sd=np.asarray(sds),
        efficient_share=np.asarray(shares),
        counts=np.asarray(counts),
    )
