"""Price ingestion, gap repair, log returns and descriptive statistics.

CSV input expects a header row with one date column (ISO-8601 by default)
and one or more price columns.  Empty, unparseable or NaN price cells
are treated as missing and later filled by natural cubic spline interpolation
over the integer observation index; trading-day spacing, not calendar
distance, is the metric, so weekend/holiday gaps carry no special weight.
Dates are otherwise opaque ordered labels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DataError

__all__ = [
    "CsvSchema",
    "PriceSeries",
    "ReturnMatrix",
    "StatsSummary",
    "load_csv",
    "interpolate_missing",
    "log_returns",
    "descriptive_stats",
]


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for price CSV files.

    ``price_columns=None`` means every non-date column, in file order.
    """

    date_column: str = "date"
    price_columns: tuple[str, ...] | None = None
    date_format: str = "%Y-%m-%d"


@dataclass
class PriceSeries:
    """Dated multivariate price observations with missing-value flags.

    ``prices`` holds NaN exactly where ``missing_mask`` is True.  Dates are
    strictly increasing; every observed price is positive.
    """

    dates: np.ndarray  # datetime64[D], shape (T,)
    prices: np.ndarray  # float64, shape (T, n)
    missing_mask: np.ndarray  # bool, shape (T, n)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.prices = np.atleast_2d(np.asarray(self.prices, dtype=np.float64))
        self.missing_mask = np.atleast_2d(np.asarray(self.missing_mask, dtype=bool))
        if self.prices.shape != self.missing_mask.shape:
            raise DataError("prices and missing_mask shapes differ")
        if self.prices.shape[0] != self.dates.shape[0]:
            raise DataError("dates and prices lengths differ")
        if self.prices.shape[1] != len(self.labels):
            raise DataError("labels do not match the number of price columns")
        if self.dates.size > 1 and not (np.diff(self.dates) > np.timedelta64(0, "D")).all():
            raise DataError("dates must be strictly increasing with no duplicates")
        observed = self.prices[~self.missing_mask]
        if observed.size and not (observed > 0).all():
            raise DataError("non-missing prices must be positive")

    @property
    def n_columns(self) -> int:
        return self.prices.shape[1]

    def __len__(self) -> int:
        return self.prices.shape[0]


@dataclass
class ReturnMatrix:
    """Log returns aligned to the later of each observation pair."""

    dates: np.ndarray  # datetime64[D], shape (T-1,)
    values: np.ndarray  # float64, shape (T-1, n)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.values.shape[0] != self.dates.shape[0]:
            raise DataError("dates and values lengths differ")
        if not np.isfinite(self.values).all():
            raise DataError("returns contain non-finite values")

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class StatsSummary:
    """Per-column descriptive statistics in Mean, SD, Max, Min order."""

    labels: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    maximum: np.ndarray
    minimum: np.ndarray
    count: int


def _parse_date(raw: str, fmt: str, row: int) -> np.datetime64:
    try:
        if fmt == "%Y-%m-%d":
            parsed = date.fromisoformat(raw.strip())
        else:
            parsed = datetime.strptime(raw.strip(), fmt).date()
    except ValueError as exc:
        raise DataError(f"row {row}: unparseable date {raw!r}") from exc
    return np.datetime64(parsed, "D")


def load_csv(path: str | Path, schema: CsvSchema | None = None) -> PriceSeries:
    """Read a dated price CSV into a :class:`PriceSeries`.

    Rows are sorted by date.  Empty, unparseable or NaN price cells
    become missing entries; an infinite, zero or negative price is
    rejected with its row number and column.  Duplicate dates are
    rejected.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (header row required)")
        fields = [f.strip() for f in reader.fieldnames]
        if schema.date_column not in fields:
            raise DataError(f"{path}: date column {schema.date_column!r} not found")
        if schema.price_columns is None:
            price_cols = tuple(f for f in fields if f != schema.date_column)
        else:
            missing_cols = [c for c in schema.price_columns if c not in fields]
            if missing_cols:
                raise DataError(f"{path}: price columns not found: {missing_cols}")
            price_cols = tuple(schema.price_columns)
        if not price_cols:
            raise DataError(f"{path}: no price columns")

        dates: list[np.datetime64] = []
        rows: list[list[float]] = []
        mask_rows: list[list[bool]] = []
        for i, record in enumerate(reader, start=2):  # header is line 1
            record = {(k.strip() if k else k): v for k, v in record.items()}
            dates.append(_parse_date(record[schema.date_column] or "", schema.date_format, i))
            vals: list[float] = []
            miss: list[bool] = []
            for col in price_cols:
                try:
                    value = float((record.get(col) or "").strip())
                except ValueError:  # empty or unparseable
                    value = np.nan
                if math.isnan(value):
                    vals.append(np.nan)
                    miss.append(True)
                    continue
                if math.isinf(value):
                    raise DataError(f"row {i}: infinite price {value!r} in column {col!r}")
                if value <= 0:
                    raise DataError(f"row {i}: non-positive price {value!r} in column {col!r}")
                vals.append(value)
                miss.append(False)
            rows.append(vals)
            mask_rows.append(miss)

    if not rows:
        raise DataError(f"{path}: no data rows")

    date_arr = np.array(dates, dtype="datetime64[D]")
    uniq, counts = np.unique(date_arr, return_counts=True)
    if (counts > 1).any():
        dup = uniq[counts > 1][0]
        raise DataError(f"duplicate date {dup}")
    order = np.argsort(date_arr, kind="stable")
    return PriceSeries(
        dates=date_arr[order],
        prices=np.asarray(rows, dtype=np.float64)[order],
        missing_mask=np.asarray(mask_rows, dtype=bool)[order],
        labels=price_cols,
    )


def interpolate_missing(s: PriceSeries) -> PriceSeries:
    """Fill interior missing cells by natural cubic spline in observation index.

    Knots are the non-missing observations of each column; boundary
    observations must be present (no extrapolation) and at least four
    support points are required per column.  Non-missing cells are
    returned unchanged bit-for-bit.
    """
    if not s.missing_mask.any():
        return PriceSeries(s.dates.copy(), s.prices.copy(),
                           np.zeros_like(s.missing_mask), s.labels)

    filled = s.prices.copy()
    idx = np.arange(len(s), dtype=np.float64)
    for j in range(s.n_columns):
        col_missing = s.missing_mask[:, j]
        if not col_missing.any():
            continue
        if col_missing[0] or col_missing[-1]:
            raise DataError(
                f"column {s.labels[j]!r}: missing value at series boundary "
                "(interpolation does not extrapolate)"
            )
        support = ~col_missing
        if support.sum() < 4:
            raise DataError(
                f"column {s.labels[j]!r}: needs >= 4 observed points, "
                f"got {int(support.sum())}"
            )
        spline = CubicSpline(idx[support], s.prices[support, j], bc_type="natural")
        filled[col_missing, j] = spline(idx[col_missing])
        if (filled[col_missing, j] <= 0).any():
            raise DataError(
                f"column {s.labels[j]!r}: spline produced a non-positive price"
            )
    return PriceSeries(s.dates.copy(), filled, np.zeros_like(s.missing_mask), s.labels)


def log_returns(s: PriceSeries) -> ReturnMatrix:
    """First difference of the natural log of prices.

    Output row t is ``ln p[t+1] - ln p[t]`` dated at the later observation.
    """
    if s.missing_mask.any():
        raise DataError("series has missing values; run interpolate_missing first")
    if len(s) < 2:
        raise DataError("need at least two observations for returns")
    values = np.diff(np.log(s.prices), axis=0)
    return ReturnMatrix(dates=s.dates[1:].copy(), values=values, labels=s.labels)


def descriptive_stats(r: ReturnMatrix) -> StatsSummary:
    """Mean, sample SD (N-1 denominator), max, min and N per return column."""
    if len(r) < 2:
        raise DataError("need at least two return observations")
    return StatsSummary(
        labels=r.labels,
        mean=r.values.mean(axis=0),
        sd=r.values.std(axis=0, ddof=1),
        maximum=r.values.max(axis=0),
        minimum=r.values.min(axis=0),
        count=len(r),
    )
