"""End-to-end orchestration: config, stages, artifacts, reports, plot data.

The pipeline runs ingest -> interpolate -> returns -> stats -> unit-root
tests -> lag selection -> VAR with robust errors and the constancy test
-> time-varying VAR -> efficiency path -> bootstrap bands -> segments ->
regime summaries, writing each product as CSV/JSON into one output
directory plus a manifest that reproduces the run bit-for-bit.

Each stage is one ``*_stage`` function from the config, the output
directory and its upstream values to ``(value, written paths)``.
:func:`run_pipeline` chains them; each ``tveff`` stage subcommand calls
the same function on artifacts read back from disk.

Every CSV artifact is written by :func:`_write_csv` under one cell rule,
:func:`_cell`: floats in shortest round-trip form, empty for NaN, flags as
``true``/``false``, RFC 4180 quoting, ``\n`` line ends.  Artifacts read back
exactly, through the CSV reader and date parser of :mod:`tveff.series`, and
re-runs compare byte-identically; JSON uses sorted keys and NaN as null.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import scipy

from . import __version__
from .errors import DataError, NumericalError
from .inference import (BootstrapSpec, Segment, _regimes, bootstrap_bands, classify_segments,
                        regime_volatility)
from .series import (ReturnMatrix, StatsSummary, _parse_date, _parse_rows, _read_csv,
                     descriptive_stats, interpolate_missing, load_csv, log_returns)
from .tvvar import EfficiencyPath, solve_tvvar, tv_efficiency_path
from .unitroot import AdfGlsResult, adf_gls
from .var import ConstancyTest, fit_var, hansen_lc, newey_west_cov, select_lag_sbic

__all__ = [
    "PipelineConfig",
    "StageError",
    "run_pipeline",
    "resolve_q",
    "ingest_stage", "stats_stage", "unitroot_stage", "var_stage",
    "tvvar_stage", "bootstrap_stage", "segments_stage",
    "emit_report",
    "plot_data",
    "write_returns_csv",
    "read_returns_csv",
    "write_zeta_csv",
    "read_zeta_csv",
]

class StageError(RuntimeError):
    """Failure inside a named pipeline stage."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage {stage!r} failed: {original}")
        self.original = original


def _has_type(value, declared) -> bool:
    """Whether ``value`` is of type ``declared``; an int is a float, a bool is neither."""
    if get_origin(declared) is UnionType:
        return any(_has_type(value, t) for t in get_args(declared))
    if get_origin(declared) is list:
        return isinstance(value, list) and all(_has_type(v, *get_args(declared)) for v in value)
    if declared in (int, float):
        return isinstance(value, {int: Integral, float: Real}[declared]) and not isinstance(value, bool)
    return isinstance(value, declared)


@dataclass
class PipelineConfig:
    """Resolved settings for one pipeline run.

    ``q=None`` selects the VAR order by the Schwarz criterion up to
    ``q_max``.  Breakpoints are ISO dates defining regime boundaries for
    the volatility summary.  Each value's type (an int passes as a
    float), the breakpoint dates and their order, ``unitroot_k_max`` and
    the bootstrap settings are checked here, so a bad config fails before
    any stage runs.  ``workers`` must be 1: the bootstrap runs serially.
    """

    input_path: str
    output_dir: str
    date_column: str = "date"
    price_columns: list[str] | None = None
    date_format: str = "%Y-%m-%d"
    interpolate: bool = True
    unitroot_model: str = "trend"
    unitroot_k_max: int | None = None
    q: int | None = None
    q_max: int = 8
    lam: float = 1.0
    replications: int = 5000
    coverage: float = 0.95
    seed: int = 0
    workers: int = 1
    min_run: int = 20
    breakpoints: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        hints = get_type_hints(PipelineConfig)
        for f in fields(self):  # f.type: the annotation as written
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise DataError(f"config key {f.name!r} must be {f.type}, got {value!r}")
        try:
            dates = [_parse_date(b) for b in self.breakpoints]
        except ValueError as exc:
            raise DataError(f"config key 'breakpoints': {exc}") from exc
        if any(a >= b for a, b in zip(dates, dates[1:])):
            raise DataError("config key 'breakpoints' must be strictly increasing")
        if self.unitroot_k_max is not None and self.unitroot_k_max < 0:
            raise DataError("config key 'unitroot_k_max' must be >= 0")
        if self.unitroot_model not in ("constant", "trend"):
            raise DataError("unitroot_model must be 'constant' or 'trend'")
        if self.q is not None and self.q < 1:
            raise DataError("q must be >= 1")
        if self.q_max < 1:
            raise DataError("q_max must be >= 1")
        if self.min_run < 1:
            raise DataError("min_run must be >= 1")
        if self.workers != 1:
            raise DataError(f"config key 'workers' must be 1, got {self.workers}")
        self.bootstrap_spec(1).band_order_statistics()

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        if "config" in raw and isinstance(raw["config"], dict):
            raw = raw["config"]  # accept a run manifest
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        missing = {"input_path", "output_dir"} - set(raw)
        if missing:
            raise DataError(f"config missing required keys: {sorted(missing)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        raw = _read_json(path)
        if not isinstance(raw, dict):
            raise DataError(f"{path}: config must be a JSON object, got {json.dumps(raw)[:40]}")
        return cls.from_dict(raw)

    def bootstrap_spec(self, q: int) -> BootstrapSpec:
        return BootstrapSpec(
            replications=self.replications,
            coverage=self.coverage,
            seed=self.seed,
            lam=self.lam,
            q=q,
        )


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; empty string for NaN."""
    return repr(float(x)) if math.isfinite(x) else ""


def _cell(x) -> str:
    """The cell rule of every CSV artifact."""
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as one CSV artifact, each cell by :func:`_cell`."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def _write_records(path: Path, records: list[dict]) -> None:
    """Records sharing one key order, written under their keys as the header."""
    _write_csv(path, list(records[0]), (r.values() for r in records))


def _write_dated_csv(path: Path, dates: np.ndarray, values: np.ndarray,
                     labels: tuple[str, ...]) -> None:
    """A ``date`` column and one column per label: the price and returns format."""
    _write_csv(path, ["date", *labels],
               ([d, *row] for d, row in zip(dates.tolist(), values.tolist())))


def _jsonable(x):
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, np.ndarray):
        return x.astype(str).tolist() if x.dtype.kind in "Mm" else _jsonable(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc


def _read_table(path: Path, header: list[str], parse) -> list:
    """Parsed rows of an artifact CSV that must carry exactly ``header``."""
    found, rows = _read_csv(path)
    if found != header:
        raise DataError(f"{path}: header is not {','.join(header)}")
    return _parse_rows(path, header, rows, parse)


def _num(cell: str) -> float:
    """A float cell; empty means NaN."""
    return float(cell) if cell else np.nan


def write_returns_csv(path: Path, returns: ReturnMatrix) -> None:
    _write_dated_csv(path, returns.dates, returns.values, returns.labels)


def read_returns_csv(path: str | Path) -> ReturnMatrix:
    path = Path(path)
    header, rows = _read_csv(path)
    if not header or header[0] != "date":
        raise DataError(f"{path}: expected a returns CSV with a 'date' first column")
    dates, values = zip(*_parse_rows(path, header, rows,
                                     lambda rec: (_parse_date(rec[0]), [float(v) for v in rec[1:]])))
    return ReturnMatrix(dates=dates, values=values, labels=tuple(header[1:]))


_ZETA_HEADER = ["date", "zeta", "lower", "upper", "efficient_flag"]
_SEGMENT_HEADER = ["start", "end", "label", "mean_zeta"]
_REGIME_HEADER = ["regime", "start", "end", "sd_zeta", "efficient_share", "count"]


def write_zeta_csv(path: Path, ep: EfficiencyPath) -> None:
    bands = (ep.band_lower, ep.band_upper, ep.efficient_flag)
    _write_csv(path, _ZETA_HEADER, zip(ep.dates.tolist(), ep.zeta.tolist(), *(
        [None] * len(ep) if col is None else col.tolist() for col in bands)))


def read_zeta_csv(path: str | Path) -> EfficiencyPath:
    path = Path(path)
    dates, zeta, lower, upper, flags = zip(*_read_table(
        path, _ZETA_HEADER, lambda rec: (_parse_date(rec[0]), *[_num(v) for v in rec[1:4]], rec[4])))
    ep = EfficiencyPath(dates=np.array(dates, dtype="datetime64[D]"), zeta=np.asarray(zeta))
    # a banded path has every flag cell filled; empty band cells stay NaN
    return ep.with_bands(np.asarray(lower), np.asarray(upper)) if any(flags) else ep


def _stats_rows(stats: StatsSummary) -> list[dict]:
    """One record per column: series, Mean, SD, Max, Min, N."""
    return [
        {"series": lab, "mean": stats.mean[j], "sd": stats.sd[j],
         "max": stats.maximum[j], "min": stats.minimum[j], "n": stats.count}
        for j, lab in enumerate(stats.labels)
    ]


def _term_names(labels: tuple[str, ...], q: int) -> list[str]:
    names = ["const"]
    for l in range(1, q + 1):
        names.extend(f"{lab}_lag{l}" for lab in labels)
    return names


# ---------------------------------------------------------------------------
# stages: each computes before it writes, so a data or numerical failure
# leaves none of that stage's artifacts behind


def resolve_q(config: PipelineConfig, returns: ReturnMatrix) -> int:
    """The configured VAR order, or the SBIC choice up to ``config.q_max``."""
    return config.q if config.q is not None else select_lag_sbic(returns, config.q_max)


def ingest_stage(config: PipelineConfig, out: Path) -> tuple[ReturnMatrix, list[Path]]:
    """Load ``config.input_path``, repair gaps, write clean prices and returns."""
    prices = load_csv(config.input_path, date_column=config.date_column,
                      price_columns=config.price_columns, date_format=config.date_format)
    if config.interpolate:
        prices = interpolate_missing(prices)
    elif prices.missing_mask.any():
        raise DataError("input has missing prices and interpolation is disabled")
    returns = log_returns(prices)
    p_prices, p_returns = out / "prices_clean.csv", out / "returns.csv"
    _write_dated_csv(p_prices, prices.dates, prices.prices, prices.labels)
    write_returns_csv(p_returns, returns)
    return returns, [p_prices, p_returns]


def stats_stage(out: Path, returns: ReturnMatrix) -> tuple[StatsSummary, list[Path]]:
    """Descriptive statistics of the returns."""
    stats = descriptive_stats(returns)
    rows = _stats_rows(stats)
    p_csv, p_json = out / "stats.csv", out / "stats.json"
    _write_records(p_csv, rows)
    _write_json(p_json, {"sd_denominator": "sample (N-1)", "columns": rows})
    return stats, [p_csv, p_json]


def unitroot_stage(config: PipelineConfig, out: Path,
                   returns: ReturnMatrix) -> tuple[list[AdfGlsResult], list[Path]]:
    """ADF-GLS test per column; writes Table 1 with the descriptive statistics."""
    tests = [
        adf_gls(returns.values[:, j], model=config.unitroot_model, k_max=config.unitroot_k_max)
        for j in range(returns.n_columns)
    ]
    rows = _stats_rows(descriptive_stats(returns))
    for row, t in zip(rows, tests):  # N stays the last column
        row.update(adf_gls=t.statistic, lags=t.selected_lag, phi_hat=t.phi_hat, n=row.pop("n"))
    p_csv, p_json = out / "table1.csv", out / "table1.json"
    _write_records(p_csv, rows)
    _write_json(p_json, {
        "columns": rows,
        "model": tests[0].model,
        "critical_values": tests[0].critical_values,
    })
    return tests, [p_csv, p_json]


def var_stage(out: Path, returns: ReturnMatrix, q: int) -> tuple[ConstancyTest, list[Path]]:
    """VAR(q) with HAC errors and the Lc constancy test; writes Table 2."""
    fit = fit_var(returns, q)
    se = newey_west_cov(fit).se
    lc = hansen_lc(fit)
    terms = _term_names(fit.labels, fit.q)
    # coefficient matrix in regressor order: (p, n)
    stacked = np.vstack([fit.nu[None, :]] + [A.T for A in fit.A])
    rows = []
    for i, term in enumerate(terms):
        rows.append([term, *stacked[i]])
        rows.append([f"{term} (se)", *se[i]])
    rows.append(["adj_r2", *fit.adj_r2])
    rows.append(["Lc", lc.lc_statistic, *[None] * (fit.n_series - 1)])
    p_csv, p_json = out / "table2.csv", out / "table2.json"
    _write_csv(p_csv, ["term", *fit.labels], rows)
    _write_json(p_json, {
        "q": fit.q,
        "labels": list(fit.labels),
        "terms": terms,
        "coefficients": stacked,
        "standard_errors": se,
        "adj_r2": fit.adj_r2,
        "lc_statistic": lc.lc_statistic,
        "lc_dof": lc.dof,
        "lc_critical_values": lc.critical_values,
        "lc_reject": lc.reject,
        "lc_level": lc.level,
    })
    return lc, [p_csv, p_json]


def tvvar_stage(config: PipelineConfig, out: Path, returns: ReturnMatrix, q: int,
                coef_out: str | Path | None = None) -> tuple[EfficiencyPath, list[Path]]:
    """Unbanded TV-VAR(q) efficiency path; ``coef_out`` adds a long CSV of coefficients."""
    fit = solve_tvvar(returns, q=q, lam=config.lam)
    path = tv_efficiency_path(fit)
    p_tv = out / "tvvar_zeta.csv"
    write_zeta_csv(p_tv, path)
    if coef_out is None:
        return path, [p_tv]
    dates = fit.dates.tolist()
    p_coef = Path(coef_out)
    _write_csv(p_coef, ["date", "lag", "equation", "regressor", "value"], (
        (dates[t], l + 1, fit.labels[i], fit.labels[j], value)
        for (t, l, i, j), value in zip(np.ndindex(fit.A_path.shape), fit.A_path.ravel().tolist())
    ))
    return path, [p_tv, p_coef]


def bootstrap_stage(config: PipelineConfig, out: Path, returns: ReturnMatrix, q: int,
                    path: EfficiencyPath | None = None) -> tuple[EfficiencyPath, list[Path]]:
    """Banded efficiency path and its plot data; ``path`` is the solved original sample."""
    ep = bootstrap_bands(returns, config.bootstrap_spec(q), path=path)
    plots = plot_data(ep, out)
    p_csv, p_json = out / "zeta_path.csv", out / "zeta_path.json"
    write_zeta_csv(p_csv, ep)
    _write_json(p_json, {
        "dates": ep.dates,
        "zeta": ep.zeta,
        "lower": ep.band_lower,
        "upper": ep.band_upper,
        "efficient": ep.efficient_flag,
        "flagged": ep.flagged,
    })
    return ep, [p_csv, p_json, *plots]


def segments_stage(config: PipelineConfig, out: Path,
                   ep: EfficiencyPath) -> tuple[list[Segment], list[Path]]:
    """Efficient/inefficient segments and the per-regime volatility of ζ."""
    segments = classify_segments(ep, min_run=config.min_run)
    summary = regime_volatility(ep, config.breakpoints)
    p_seg, p_reg = out / "segments.csv", out / "regimes.csv"
    _write_csv(p_seg, _SEGMENT_HEADER, ((s.start, s.end, s.label, s.mean_zeta) for s in segments))
    _write_csv(p_reg, _REGIME_HEADER, zip(
        range(1, len(summary.sd) + 1), summary.starts, summary.ends,
        summary.sd, summary.efficient_share, summary.counts,
    ))
    return segments, [p_seg, p_reg]


# ---------------------------------------------------------------------------
# plot emission


def plot_data(ep: EfficiencyPath, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the efficiency path as long-format CSV plus a static SVG.

    The SVG records its exact data ranges in ``data-y-min``/``data-y-max``
    attributes; the y range is the extremum over the path and both bands,
    so it encloses [min(lower), max(upper)].
    """
    if not ep.has_bands:
        raise DataError("path has no bands; nothing to plot")
    out_dir = Path(out_dir)
    svg = _svg_chart(ep)  # raises before anything is written
    dates = ep.dates.tolist()
    p_csv = out_dir / "zeta_plot.csv"
    _write_csv(p_csv, ["date", "series", "value"], (
        (d, name, v)
        for name, arr in (("zeta", ep.zeta), ("lower", ep.band_lower), ("upper", ep.band_upper))
        for d, v in zip(dates, arr.tolist())
    ))
    p_svg = out_dir / "zeta_plot.svg"
    p_svg.write_text(svg, encoding="utf-8")
    return p_csv, p_svg


def _svg_chart(ep: EfficiencyPath) -> str:
    width, height, margin = 800, 400, 50
    finite = np.concatenate([
        ep.zeta[np.isfinite(ep.zeta)],
        ep.band_lower[np.isfinite(ep.band_lower)],
        ep.band_upper[np.isfinite(ep.band_upper)],
    ])
    if finite.size == 0:
        raise DataError("no finite values to plot")
    y_min, y_max = float(finite.min()), float(finite.max())
    span = (y_max - y_min) or 1.0
    m = len(ep)
    inner_w, inner_h = width - 2 * margin, height - 2 * margin

    def x_px(i: int) -> float:
        return margin + (inner_w * i / max(m - 1, 1))

    def y_px(v: float) -> float:
        return margin + inner_h * (1.0 - (v - y_min) / span)

    def polyline(arr: np.ndarray, style: str) -> str:
        pts = " ".join(
            f"{x_px(i):.2f},{y_px(arr[i]):.2f}" for i in range(m) if np.isfinite(arr[i])
        )
        return f'<polyline fill="none" {style} points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" data-y-min="{_fmt(y_min)}" data-y-max="{_fmt(y_max)}" '
        f'data-x-start="{ep.dates[0]}" data-x-end="{ep.dates[-1]}">',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        polyline(ep.band_lower, 'stroke="red" stroke-width="1" stroke-dasharray="6,4"'),
        polyline(ep.band_upper, 'stroke="red" stroke-width="1" stroke-dasharray="6,4"'),
        polyline(ep.zeta, 'stroke="black" stroke-width="1.5"'),
        f'<text x="{margin}" y="{margin - 8}" font-size="12">{_fmt(y_max)}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="12">{ep.dates[0]}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="12" '
        f'text-anchor="end">{ep.dates[-1]}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# report rendering


def _fmt4(x: float | None) -> str:
    if x is None or not np.isfinite(x):
        return "--"
    return f"{x:.4f}"


def _table1_lines(data: dict) -> list[str]:
    """Descriptive statistics and unit-root tests from ``table1.json``."""
    wl = max(8, max(len(r["series"]) for r in data["columns"]) + 2)
    lines = ["Descriptive statistics and unit root tests", "-" * 60,
             f"{'':{wl}s}{'Mean':>10s}{'SD':>10s}{'Max':>10s}{'Min':>10s}"
             f"{'ADF-GLS':>10s}{'Lags':>6s}{'phi':>9s}{'N':>7s}"]
    for r in data["columns"]:
        lines.append(
            f"{r['series']:<{wl}s}{_fmt4(r['mean']):>10s}{_fmt4(r['sd']):>10s}"
            f"{_fmt4(r['max']):>10s}{_fmt4(r['min']):>10s}"
            f"{_fmt4(r['adf_gls']):>10s}{r['lags']:>6d}{_fmt4(r['phi_hat']):>9s}{r['n']:>7d}"
        )
    cv = data["critical_values"]["1%"]
    return [*lines, f"  (model: {data['model']}; 1% critical value {_fmt4(cv)})", ""]


def _table2_lines(data: dict) -> list[str]:
    """The time-invariant VAR and the Lc test from ``table2.json``."""
    labels = data["labels"]
    wt = max(10, max(len(t) for t in data["terms"]) + 2)
    wc = max(12, max(len(lab) for lab in labels) + 2)
    lines = [f"Time-invariant VAR({data['q']}) estimates", "-" * 60,
             f"{'':{wt}s}" + "".join(f"{lab:>{wc}s}" for lab in labels)]
    for term, coefs, ses in zip(data["terms"], data["coefficients"], data["standard_errors"],
                                strict=True):
        lines.append(f"{term:<{wt}s}" + "".join(f"{_fmt4(c):>{wc}s}" for c in coefs))
        lines.append(f"{'':{wt}s}" + "".join(f"{'[' + _fmt4(s) + ']':>{wc}s}" for s in ses))
    lines.append(f"{'adj R2':<{wt}s}" + "".join(f"{_fmt4(v):>{wc}s}" for v in data["adj_r2"]))
    lines.append(f"{'Lc':<{wt}s}{_fmt4(data['lc_statistic']):>{wc}s}   "
                 f"(dof {data['lc_dof']}, 5% cv {_fmt4(data['lc_critical_values']['5%'])}, "
                 f"reject={data['lc_reject']})")
    return [*lines, ""]


def emit_report(artifact_dir: str | Path) -> str:
    """Render the fixed-width text report from written artifacts."""
    out = Path(artifact_dir)
    if not out.is_dir():
        raise DataError(f"artifact directory {out} does not exist")

    lines: list[str] = ["Market efficiency analysis", "=" * 60, ""]

    for name, render in (("table1.json", _table1_lines), ("table2.json", _table2_lines)):
        p = out / name
        if p.exists():
            data = _read_json(p)
            try:
                lines.extend(render(data))
            except (LookupError, TypeError, ValueError) as exc:
                raise DataError(f"{p}: missing or malformed field: {exc!r}") from exc

    lines += ["Time-varying efficiency degree", "-" * 60]
    zp = out / "zeta_path.csv"
    if not zp.exists():
        return "\n".join([*lines, "no TV-VAR run", ""])
    ep = read_zeta_csv(zp)
    finite = ep.zeta[np.isfinite(ep.zeta)]
    if finite.size:
        lines.append(f"{'min zeta':<20s}{_fmt4(float(finite.min())):>12s}")
        lines.append(f"{'max zeta':<20s}{_fmt4(float(finite.max())):>12s}")
    if ep.efficient_flag is not None:
        share = float(np.mean(ep.efficient_flag))
        lines.append(f"{'share efficient':<20s}{_fmt4(share):>12s}")
    reg = out / "regimes.csv"
    if reg.exists():
        lines += ["", "Regime volatility of the efficiency degree",
                  f"{'regime':<8s}{'start':<14s}{'end':<14s}{'SD':>10s}{'eff. share':>12s}"]
        for regime, start, end, sd, share in _read_table(
                reg, _REGIME_HEADER, lambda rec: (*rec[:3], _num(rec[3]), _num(rec[4]))):
            lines.append(f"{regime:<8s}{start:<14s}{end:<14s}{_fmt4(sd):>10s}{_fmt4(share):>12s}")
    seg = out / "segments.csv"
    if seg.exists():
        lines += ["", "Efficiency segments"]
        for start, end, label, mz in _read_table(
                seg, _SEGMENT_HEADER, lambda rec: (*rec[:3], _num(rec[3]))):
            lines.append(f"  {start} .. {end}  {label:<12s} mean zeta {_fmt4(mz)}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the pipeline


@dataclass
class PipelineResult:
    """Artifacts and headline objects of a completed run."""

    artifacts: list[Path]
    q: int
    segments: list[Segment]


def _versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tveff": __version__,
    }


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every stage, writing artifacts into ``config.output_dir``.

    On a stage failure all artifacts written by this run are removed and
    a :class:`StageError` naming the stage is raised.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def track(result):
        value, paths = result
        written.extend(paths)
        return value

    stage = "ingest"
    try:
        returns = track(ingest_stage(config, out))
        stage = "stats"
        track(stats_stage(out, returns))
        stage = "unitroot"
        track(unitroot_stage(config, out, returns))
        stage = "var"
        q = resolve_q(config, returns)
        stage = "segments"
        _regimes(returns.dates[q:], config.breakpoints)  # dates alone: fail before any solve
        stage = "var"
        track(var_stage(out, returns, q))
        stage = "tvvar"
        raw_path = track(tvvar_stage(config, out, returns, q))
        stage = "bootstrap"
        ep = track(bootstrap_stage(config, out, returns, q, path=raw_path))
        stage = "segments"
        segments = track(segments_stage(config, out, ep))

        stage = "report"
        p_rep = out / "report.txt"
        p_rep.write_text(emit_report(out), encoding="utf-8")
        written.append(p_rep)
        p_man = out / "run_manifest.json"
        _write_json(p_man, {"config": asdict(config), "versions": _versions()})
        written.append(p_man)
    except (DataError, NumericalError, OSError) as exc:
        for p in written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        raise StageError(stage, exc) from exc

    return PipelineResult(artifacts=written, q=q, segments=segments)
