"""Input: price and artifact CSVs, return arrays; gap repair, log returns, statistics.

Every CSV is read by one reader and one date parser, so a ragged row or a
bad cell is a ``DataError`` that names the file and line.  Every return
array passes one rule, :func:`_coerce_values`: a :class:`ReturnMatrix` as
it is, an array as ``x1..xn`` with no dates, a non-finite value rejected.

A price CSV has a header row with one date column (ISO-8601 by default)
and one or more price columns.  Blank or NaN price cells are treated as
missing and later filled by natural cubic spline interpolation over the
integer observation index; any other cell that is not a float is a
``DataError``.  Trading-day spacing, not calendar distance, is the
metric, so weekend/holiday gaps carry no special weight.  Dates are
otherwise opaque ordered labels.

The spline is :func:`_natural_spline`, a step-for-step copy of scipy's
``CubicSpline(x, y, bc_type="natural")`` that returns the same bits.  It
is written out here because importing ``scipy.interpolate`` (which also
loads ``scipy.optimize`` and ``scipy.special``) was about half of every
``tveff`` command's start-up time; the package needs only ``scipy.linalg``.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from .errors import DataError, NumericalError

__all__ = [
    "PriceSeries",
    "ReturnMatrix",
    "StatsSummary",
    "load_csv",
    "interpolate_missing",
    "log_returns",
    "descriptive_stats",
]


@dataclass
class PriceSeries:
    """Dated multivariate price observations; a missing price is NaN.

    NaN is the only record of a gap: ``missing_mask`` is derived from
    ``prices``.  Dates are strictly increasing; every observed price is
    positive and finite.
    """

    dates: np.ndarray  # datetime64[D], shape (T,)
    prices: np.ndarray  # float64, shape (T, n)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.prices = np.atleast_2d(np.asarray(self.prices, dtype=np.float64))
        if self.prices.shape[0] != self.dates.shape[0]:
            raise DataError("dates and prices lengths differ")
        if self.prices.shape[1] != len(self.labels):
            raise DataError("labels do not match the number of price columns")
        if self.dates.size > 1 and not (np.diff(self.dates) > np.timedelta64(0, "D")).all():
            raise DataError("dates must be strictly increasing with no duplicates")
        valid = self.missing_mask | ((self.prices > 0) & (self.prices < np.inf))
        bad_columns = np.flatnonzero(~valid.all(axis=0))
        if bad_columns.size:
            raise DataError(f"column {self.labels[bad_columns[0]]!r}: "
                            "non-finite or non-positive observed price")

    @property
    def missing_mask(self) -> np.ndarray:
        """Missing cells: where ``prices`` is NaN, shape (T, n)."""
        return np.isnan(self.prices)

    @property
    def n_columns(self) -> int:
        return self.prices.shape[1]

    def __len__(self) -> int:
        return self.prices.shape[0]


def _return_values(values) -> np.ndarray:
    """``values`` as a 2-D float64 matrix; a non-finite entry is a DataError."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if not np.isfinite(values).all():
        raise DataError("returns contain non-finite values")
    return values


@dataclass
class ReturnMatrix:
    """Log returns aligned to the later of each observation pair."""

    dates: np.ndarray  # datetime64[D], shape (T-1,)
    values: np.ndarray  # float64, shape (T-1, n)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.values = _return_values(self.values)
        if self.values.shape[0] != self.dates.shape[0]:
            raise DataError("dates and values lengths differ")

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


def _read_csv(path: Path) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """Header and the non-blank rows, with their line numbers, of a CSV file."""
    try:  # streamed, not copied whole into memory
        with path.open(encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            return header, [(reader.line_num, rec) for rec in reader if rec]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse_rows(path: Path, header: list[str], rows: list[tuple[int, list[str]]], parse) -> list:
    """``parse`` of each row; a ragged or unparsable row is a DataError naming its line."""
    out = []
    for line, rec in rows:
        if len(rec) != len(header):
            raise DataError(f"{path}: line {line}: {len(rec)} cells, header has {len(header)}")
        try:
            out.append(parse(rec))
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from exc
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def _parse_date(cell: str, fmt: str = "%Y-%m-%d") -> np.datetime64:
    """One date cell, stripped; ``ValueError`` unless ``strptime(cell, fmt)`` accepts it.

    Only a ``YYYY-MM-DD`` cell under the default format takes the faster
    ``date.fromisoformat``, which accepts other forms too from Python 3.11.
    """
    text = cell.strip()
    try:
        if fmt == "%Y-%m-%d" and _ISO_DATE.fullmatch(text):
            parsed = date.fromisoformat(text)
        else:
            parsed = datetime.strptime(text, fmt).date()
    except ValueError as exc:
        raise ValueError(f"unparseable date {cell!r}") from exc
    return np.datetime64(parsed, "D")


def _parse_price(cell: str, column: str) -> float:
    """One price cell: NaN when blank or NaN; otherwise only a positive finite float passes."""
    if not cell.strip():
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable price {cell!r} in column {column!r}") from None
    if math.isinf(value):
        raise ValueError(f"infinite price {value!r} in column {column!r}")
    if value <= 0:
        raise ValueError(f"non-positive price {value!r} in column {column!r}")
    return value


def load_csv(path: str | Path, *, date_column: str = "date",
             price_columns: Sequence[str] | None = None,
             date_format: str = "%Y-%m-%d") -> PriceSeries:
    """Read a dated price CSV into a :class:`PriceSeries`.

    ``price_columns=None`` means every column but ``date_column``, in
    file order; ``date_format`` is a ``strptime`` format.
    Rows are sorted by date.  Blank or NaN price cells become missing
    entries.  A row whose cell count differs from the header's, an
    unparseable date, and an unparseable, infinite, zero or negative
    price are rejected with the file name and line number (the column
    too, for a price); so are duplicate dates, and a date or price
    column name that the header or ``price_columns`` repeats.
    """
    path = Path(path)
    header, rows = _read_csv(path)
    if header is None:
        raise DataError(f"{path}: empty file (header row required)")
    fields = [f.strip() for f in header]
    if date_column not in fields:
        raise DataError(f"{path}: date column {date_column!r} not found")
    if price_columns is None:
        price_cols = tuple(f for f in fields if f != date_column)
    else:
        missing_cols = [c for c in price_columns if c not in fields]
        if missing_cols:
            raise DataError(f"{path}: price columns not found: {missing_cols}")
        price_cols = tuple(price_columns)
    if not price_cols:
        raise DataError(f"{path}: no price columns")
    used = (date_column, *price_cols)
    for names, where in ((fields, "header"), (price_cols, "price columns")):
        repeated = [c for c in used if names.count(c) > 1]
        if repeated:
            raise DataError(f"{path}: column {repeated[0]!r} appears twice in the {where}")
    at_date = fields.index(date_column)
    at_price = [fields.index(c) for c in price_cols]

    def parse(rec: list[str]) -> tuple[np.datetime64, list[float]]:
        return (_parse_date(rec[at_date], date_format),
                [_parse_price(rec[j], fields[j]) for j in at_price])

    dates, prices = zip(*_parse_rows(path, header, rows, parse))
    date_arr = np.array(dates, dtype="datetime64[D]")
    uniq, counts = np.unique(date_arr, return_counts=True)
    if (counts > 1).any():
        raise DataError(f"{path}: duplicate date {uniq[counts > 1][0]}")
    order = np.argsort(date_arr, kind="stable")
    return PriceSeries(dates=date_arr[order], prices=np.asarray(prices, dtype=np.float64)[order],
                       labels=price_cols)


def _coerce_values(X: ReturnMatrix | np.ndarray) -> tuple[np.ndarray, tuple[str, ...], np.ndarray | None]:
    """Values, labels and dates of a return input: the one rule for array input.

    A :class:`ReturnMatrix` passes through unchanged.  An array becomes a
    2-D float64 matrix labelled ``x1..xn`` with no dates; a non-finite
    value is rejected as :class:`ReturnMatrix` rejects it.
    """
    if isinstance(X, ReturnMatrix):
        return X.values, X.labels, X.dates
    values = _return_values(X)
    return values, tuple(f"x{j + 1}" for j in range(values.shape[1])), None


def _lagged(values: np.ndarray, q: int) -> np.ndarray:
    """Lagged regressors (x'_{t-1}, ..., x'_{t-q}) of rows t >= q, shape (T - q, n*q)."""
    T, n = values.shape
    Z = np.empty((T - q, n * q))
    for l in range(1, q + 1):
        Z[:, (l - 1) * n: l * n] = values[q - l: T - l]
    return Z


def _natural_spline(x: np.ndarray, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Natural cubic spline through the knots ``(x, y)``, evaluated at ``xi``.

    Follows scipy's ``CubicSpline(x, y, bc_type="natural")(xi)`` step by
    step, so the result is the same bits: the same (3, n) tridiagonal
    system for the knot slopes, solved by ``solve_banded``; the same
    Hermite coefficients; PPoly's power-sum evaluation order
    ((c3 + c2 d) + c1 d^2) + c0 d^3.  Points outside [x[0], x[-1]]
    extend the end pieces.  Unlike CubicSpline it checks nothing: the
    knots must be at least two, finite and strictly increasing, and the
    values finite, as :func:`interpolate_missing` guarantees.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, x.size))  # rows: upper diagonal, diagonal, lower diagonal
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    A[1, 0], A[0, 1] = 2 * dx[0], dx[0]  # zero second derivative at both ends
    A[1, -1], A[-1, -2] = 2 * dx[-1], dx[-1]
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = 3 * (y[1] - y[0])
    b[-1] = 3 * (y[-1] - y[-2])
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1 = t / dx, (slope - s[:-1]) / dx - t
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, x.size - 2)
    d = xi - x[i]
    return ((y[i] + s[i] * d) + c1[i] * (d * d)) + c0[i] * (d * d * d)


def interpolate_missing(s: PriceSeries) -> PriceSeries:
    """Fill interior missing cells by natural cubic spline in observation index.

    Knots are the non-missing observations of each column, which
    :class:`PriceSeries` holds positive and finite; boundary
    observations must be present (no extrapolation), and at least four
    support points are required per column.  Non-missing cells are
    returned unchanged bit-for-bit.
    """
    filled = s.prices.copy()
    idx = np.arange(len(s), dtype=np.float64)
    missing = s.missing_mask
    for j in range(s.n_columns):
        col_missing = missing[:, j]
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
        filled[col_missing, j] = _natural_spline(idx[support], s.prices[support, j],
                                                 idx[col_missing])
        if (filled[col_missing, j] <= 0).any():
            raise DataError(
                f"column {s.labels[j]!r}: spline produced a non-positive price"
            )
    return PriceSeries(s.dates.copy(), filled, s.labels)


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
    with np.errstate(over="ignore"):  # an overflowing SD is rejected below
        sd = r.values.std(axis=0, ddof=1)
    for label, value in zip(r.labels, sd):
        if not np.isfinite(value):
            raise NumericalError(f"the SD of return column {label!r} overflows")
    return StatsSummary(
        labels=r.labels,
        mean=r.values.mean(axis=0),
        sd=sd,
        maximum=r.values.max(axis=0),
        minimum=r.values.min(axis=0),
        count=len(r),
    )
