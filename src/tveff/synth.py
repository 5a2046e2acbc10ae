"""Seeded synthetic return generators with known coefficient paths.

Every scenario simulates the VAR recursion forward with Gaussian
innovations, discards a fixed burn-in of 200 periods (coefficients held
at their first value during burn-in), and returns both the data and the
ground-truth coefficient path so estimators can be scored against an
analytic efficiency-degree series.

Coefficient paths are kept away from instability: the companion-matrix
spectral radius must stay below 0.98 at every period, with random paths
resampled up to 100 times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import ReturnMatrix, _coerce_values
from .tvvar import zeta_from_coefficient_stack

__all__ = ["ScenarioSpec", "gen_returns", "true_zeta_path", "SCENARIO_KINDS"]

SCENARIO_KINDS = ("iid", "constant-var", "sinusoidal-tv", "randomwalk-tv")

BURN_IN = 200
RADIUS_LIMIT = 0.98
MAX_RESAMPLE = 100
_BASE_DATE = np.datetime64("2000-01-03", "D")


@dataclass
class ScenarioSpec:
    """Parameters of one synthetic scenario.

    ``coeff`` supplies the constant slope matrices (shape (q, n, n)); for
    sinusoidal paths it is the peak coefficient scaled by a sine wave of
    the given period, defaulting to ``amplitude * I`` on the first lag.
    Random-walk paths start at ``coeff`` (default zero) with innovation
    scale ``sigma_v``.
    """

    kind: str
    T: int
    n: int = 1
    q: int = 1
    sigma_eps: float = 1.0
    seed: int = 0
    coeff: np.ndarray | None = None
    amplitude: float = 0.4
    period: float = 500.0
    sigma_v: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise DataError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if self.T < 1 or self.n < 1 or self.q < 1:
            raise DataError("T, n and q must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.sigma_eps < np.inf:
            raise DataError(f"sigma_eps must be positive and finite, got {self.sigma_eps}")
        if not 0.0 <= self.sigma_v < np.inf:
            raise DataError(f"sigma_v must be finite and >= 0, got {self.sigma_v}")
        if not 0.0 < self.period < np.inf:
            raise DataError(f"period must be positive and finite, got {self.period}")
        if not np.isfinite(self.amplitude):
            raise DataError(f"amplitude must be finite, got {self.amplitude}")
        if self.coeff is not None:
            self.coeff = np.asarray(self.coeff, dtype=np.float64)
            if self.coeff.shape != (self.q, self.n, self.n):
                raise DataError(
                    f"coeff must have shape {(self.q, self.n, self.n)}, "
                    f"got {self.coeff.shape}"
                )
            if not np.isfinite(self.coeff).all():
                raise DataError("coeff must be finite")


def _max_radius(path: np.ndarray) -> float:
    """Largest spectral radius of the companion matrices of a (T, q, n, n) path."""
    T, q, n, _ = path.shape
    comp = np.zeros((T, n * q, n * q))
    comp[:, :n] = path.transpose(0, 2, 1, 3).reshape(T, n, n * q)
    if q > 1:
        comp[:, n:, : n * (q - 1)] = np.eye(n * (q - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _coefficient_path(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Ground-truth (T, q, n, n) path; raises if it cannot be kept stable."""
    T, n, q = spec.T, spec.n, spec.q
    if spec.kind == "iid":
        return np.zeros((T, q, n, n))

    if spec.kind == "constant-var":
        if spec.coeff is None:
            raise DataError("constant-var scenarios require coeff matrices")
        path = np.broadcast_to(spec.coeff, (T, q, n, n)).copy()
        if _max_radius(path[:1]) >= RADIUS_LIMIT:
            raise DataError("coeff matrices are explosive (companion radius >= 0.98)")
        return path

    if spec.kind == "sinusoidal-tv":
        base = spec.coeff
        if base is None:
            base = np.zeros((q, n, n))
            base[0] = spec.amplitude * np.eye(n)
        wave = np.sin(2.0 * np.pi * np.arange(1, T + 1) / spec.period)
        path = wave[:, None, None, None] * base[None, :, :, :]
        if _max_radius(path) >= RADIUS_LIMIT:
            raise DataError("sinusoidal path is explosive (companion radius >= 0.98)")
        return path

    # randomwalk-tv: resample whole paths until the radius stays bounded
    start = spec.coeff if spec.coeff is not None else np.zeros((q, n, n))
    for _ in range(MAX_RESAMPLE):
        steps = rng.normal(0.0, spec.sigma_v, size=(T, q, n, n))
        steps[0] = 0.0
        path = start[None] + np.cumsum(steps, axis=0)
        if _max_radius(path) < RADIUS_LIMIT:
            return path
    raise DataError(
        f"could not draw a stable random-walk path in {MAX_RESAMPLE} attempts "
        f"(sigma_v={spec.sigma_v}, T={spec.T})"
    )


def gen_returns(spec: ScenarioSpec) -> tuple[ReturnMatrix, np.ndarray]:
    """Simulate one scenario; returns (data, true coefficient path).

    The path has shape (T, q, n, n): entry [t, l] multiplies the lag
    l+1 observation when generating row t of the data.
    """
    rng = np.random.default_rng(spec.seed)
    path = _coefficient_path(spec, rng)
    T, n, q = spec.T, spec.n, spec.q

    total = BURN_IN + T
    shocks = spec.sigma_eps * rng.standard_normal((total, n))
    x = np.zeros((total + q, n))  # q zero pre-sample rows
    for t in range(total):
        A_t = path[0] if t < BURN_IN else path[t - BURN_IN]
        acc = shocks[t].copy()
        for l in range(q):
            acc += A_t[l] @ x[t + q - 1 - l]
        x[t + q] = acc

    values, labels, _ = _coerce_values(x[q + BURN_IN:])
    return ReturnMatrix(dates=_BASE_DATE + np.arange(T), values=values, labels=labels), path


def true_zeta_path(path: np.ndarray) -> np.ndarray:
    """Analytic efficiency degree of a ground-truth coefficient path.

    Singular periods come back as NaN, mirroring the estimator's
    flagged-missing policy.
    """
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 4:
        raise DataError("path must have shape (T, q, n, n)")
    return zeta_from_coefficient_stack(path)
