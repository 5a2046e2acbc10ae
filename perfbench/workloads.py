"""Workload definitions and the seeded input generator.

Each workload is one gappy price CSV made by ``tveff.synth.gen_returns``
plus the `tveff run` config a user would pass with it. The generator is the
only source of inputs: the same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tveff.synth import ScenarioSpec, gen_returns

SIGMA_EPS = 0.01  # daily-return scale
SIGMA_V = 0.002  # keeps SBIC on q=2 for paper-n2 over 200 tested seeds
GAP_SHARE = 0.01  # share of interior price cells left blank
Q_MAX = 8


@dataclass(frozen=True)
class Workload:
    """One workload; README.md gives the reason for each."""

    name: str
    T: int  # return rows; the CSV has T+1 price rows
    n: int
    start: tuple  # (q_data, n, n) starting slope matrices of the random walk
    q: int | None  # fixed VAR order; None selects by SBIC up to Q_MAX
    replications: int


_PAPER_START = (((0.25, 0.05), (0.0, 0.2)), ((0.2, 0.0), (0.05, 0.2)))
_DIAG3 = ((0.1, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.1))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-n2", T=2000, n=2, start=_PAPER_START, q=None, replications=1000),
        Workload("trivariate-lc", T=2000, n=3, start=(_DIAG3,), q=2, replications=300),
    )
}


@dataclass
class Inputs:
    config: Path  # `tveff run` config
    sha256: str


def write_prices(path: Path, w: Workload, seed: int) -> None:
    """Write the workload's gappy price CSV."""
    start = np.asarray(w.start, dtype=np.float64)
    spec = ScenarioSpec(kind="randomwalk-tv", T=w.T, n=w.n, q=start.shape[0],
                        sigma_eps=SIGMA_EPS, seed=seed, coeff=start, sigma_v=SIGMA_V)
    returns, _ = gen_returns(spec)
    levels = 100.0 * np.exp(np.concatenate(
        [np.zeros((1, w.n)), np.cumsum(returns.values, axis=0)]))
    dates = np.datetime64("1999-12-31", "D") + np.arange(w.T + 1)
    gaps = np.random.default_rng([seed, 1]).random(levels.shape) < GAP_SHARE
    gaps[0] = gaps[-1] = False  # spline repair does not extrapolate
    lines = ["date," + ",".join(returns.labels)]
    for i in range(w.T + 1):
        # float(): numpy 2 reprs np.float64 as "np.float64(...)", which
        # load_csv would read as a missing cell
        cells = ("" if gaps[i, j] else repr(float(levels[i, j])) for j in range(w.n))
        lines.append(f"{dates[i]}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    prices = workdir / "prices.csv"
    write_prices(prices, w, seed)
    config = {
        "input_path": str(prices),
        "output_dir": str(workdir / "out"),
        "q_max": Q_MAX,
        "replications": w.replications,
        "seed": seed,
        "workers": 1,
    }
    if w.q is not None:
        config["q"] = w.q
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    digest = hashlib.sha256(prices.read_bytes()).hexdigest()
    return Inputs(config=cfg_path, sha256=digest)


def command(inputs: Inputs, out: Path) -> list[str]:
    """The `tveff` arguments of one iteration: one `run` process."""
    return ["run", "--config", str(inputs.config), "--output-dir", str(out)]
