"""Output checks of one workload iteration.

On every seed:
- ``lower <= upper`` wherever both bands are defined;
- ``efficient_flag`` is true exactly where zeta is defined and in band;
- the pipeline's zeta equals the benchmark's own direct
  ``tv_efficiency_path(solve_tvvar(...))`` on the pipeline's
  ``returns.csv`` and q, to ``DIRECT_RTOL``;
- in a traced run, the traced process's zeta and bands equal the
  untraced ones exactly (tracing changes no result).

On the default seed, additionally against ``reference.json``: the input
bytes (sha256), the chosen q, the segment count, and zeta/lower/upper at
every ``STRIDE``-th period plus their sums over all periods, to
``REF_RTOL``. The tolerance admits rounding-level changes such as a
closed-form zeta (about 5e-16 relative) and nothing an estimator change
would leave. Lc critical values are deliberately not checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from tveff.pipeline import read_returns_csv
from tveff.tvvar import solve_tvvar, tv_efficiency_path

DEFAULT_SEED = 0
STRIDE = 10
REF_RTOL = 1e-8
DIRECT_RTOL = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def read_zeta(path: Path) -> dict[str, np.ndarray]:
    """zeta_path.csv / tvvar_zeta.csv columns; empty cells read as NaN."""
    with path.open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["date", "zeta", "lower", "upper", "efficient_flag"]:
        raise ValueError(f"{path.name}: unexpected header {rows[0]}")
    body = rows[1:]

    def col(i: int) -> np.ndarray:
        return np.array([float(r[i]) if r[i] else math.nan for r in body])

    return {
        "zeta": col(1),
        "lower": col(2),
        "upper": col(3),
        "flag": np.array([r[4] == "true" for r in body]),
    }


def summarize(out: Path, sha256: str) -> dict:
    """What the reference stores for one iteration's artifacts."""
    z = read_zeta(out / "zeta_path.csv")
    with (out / "segments.csv").open(encoding="utf-8") as f:
        segments = sum(1 for _ in f) - 1
    summary = {
        "input_sha256": sha256,
        "q": json.loads((out / "table2.json").read_text(encoding="utf-8"))["q"],
        "segments": segments,
        "periods": int(z["zeta"].size),
        "stride": STRIDE,
    }
    for name in ("zeta", "lower", "upper"):
        v = z[name]
        summary[name] = [None if math.isnan(x) else x for x in v[::STRIDE].tolist()]
        summary[f"{name}_sum"] = math.fsum(v[np.isfinite(v)].tolist())
        summary[f"{name}_nan"] = int(np.isnan(v).sum())
    return summary


def _close(a, b) -> bool:
    a = np.array([math.nan if x is None else x for x in np.atleast_1d(a)], dtype=float)
    b = np.array([math.nan if x is None else x for x in np.atleast_1d(b)], dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=REF_RTOL, atol=0.0, equal_nan=True))


def check_iteration(out: Path, workload: str, seed: int, sha256: str, lam: float,
                    use_reference: bool) -> list[str]:
    """Problems found in one finished iteration's artifacts (empty if correct)."""
    try:
        return _check_iteration(out, workload, seed, sha256, lam, use_reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"]


def _check_iteration(out: Path, workload: str, seed: int, sha256: str, lam: float,
                     use_reference: bool) -> list[str]:
    missing = [p for p in ("returns.csv", "zeta_path.csv", "segments.csv", "table2.json",
                           "report.txt")
               if not (out / p).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    problems = []
    z = read_zeta(out / "zeta_path.csv")
    lo, up, zeta = z["lower"], z["upper"], z["zeta"]
    both = np.isfinite(lo) & np.isfinite(up)
    if (lo[both] > up[both]).any():
        problems.append(f"lower > upper at {int((lo[both] > up[both]).sum())} periods")
    with np.errstate(invalid="ignore"):
        in_band = np.isfinite(zeta) & (zeta >= lo) & (zeta <= up)
    if (in_band != z["flag"]).any():
        problems.append(f"efficient_flag disagrees with the bands at "
                        f"{int((in_band != z['flag']).sum())} periods")
    problems += _against_direct(out, zeta, lam)
    if use_reference and seed == DEFAULT_SEED:
        problems += _against_reference(summarize(out, sha256), workload)
    return problems


def _against_reference(got: dict, workload: str) -> list[str]:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)
    if ref is None:
        return [f"no reference for {workload}"]
    problems = []
    for key in ("input_sha256", "q", "segments", "periods",
                "zeta_nan", "lower_nan", "upper_nan"):
        if got[key] != ref[key]:
            problems.append(f"{key}: {got[key]!r} != reference {ref[key]!r}")
    for key in ("zeta", "lower", "upper", "zeta_sum", "lower_sum", "upper_sum"):
        if not _close(got[key], ref[key]):
            problems.append(f"{key} differs from the reference beyond rtol {REF_RTOL}")
    return problems


def _against_direct(out: Path, zeta: np.ndarray, lam: float) -> list[str]:
    q = json.loads((out / "table2.json").read_text(encoding="utf-8"))["q"]
    direct = tv_efficiency_path(solve_tvvar(read_returns_csv(out / "returns.csv"), q=q, lam=lam))
    if direct.zeta.shape != zeta.shape or not np.allclose(
            direct.zeta, zeta, rtol=DIRECT_RTOL, atol=0.0, equal_nan=True):
        return ["pipeline zeta differs from a direct tv_efficiency_path(solve_tvvar(...))"]
    return []


def check_traced_same(untraced: Path, traced: Path) -> list[str]:
    """The traced process's zeta path is the untraced one, bit for bit."""
    try:
        a = (untraced / "zeta_path.csv").read_bytes()
        b = (traced / "zeta_path.csv").read_bytes()
    except OSError as exc:
        return [f"unreadable zeta files: {exc!r}"]
    return [] if a == b else ["traced zeta_path.csv differs from the untraced one"]


def write_reference(out: Path, workload: str, sha256: str) -> None:
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    refs[workload] = summarize(out, sha256)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
