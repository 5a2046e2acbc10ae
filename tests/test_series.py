import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

from tveff.errors import DataError
from tveff.inference import BootstrapSpec, bootstrap_bands
from tveff.pipeline import stats_stage
from tveff.series import (
    PriceSeries,
    ReturnMatrix,
    descriptive_stats,
    interpolate_missing,
    load_csv,
    log_returns,
)
from tveff.tvvar import solve_tvvar
from tveff.var import fit_var, select_lag_sbic


def write_csv(tmp_path, text, name="prices.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def make_series(prices):
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    if prices.shape[0] == 1:
        prices = prices.T
    dates = np.datetime64("2020-01-01") + np.arange(prices.shape[0])
    labels = tuple(f"p{j}" for j in range(prices.shape[1]))
    return PriceSeries(dates=dates, prices=prices, labels=labels)


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-01,100\n2020-01-02,101\n2020-01-03,102\n")
        s = load_csv(p)
        assert len(s) == 3
        assert not s.missing_mask.any()
        assert s.labels == ("a",)
        np.testing.assert_allclose(s.prices[:, 0], [100, 101, 102])

    def test_empty_cell_becomes_missing(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-01,100\n2020-01-02,\n2020-01-03,102\n")
        s = load_csv(p)
        assert s.missing_mask[1, 0]
        assert not s.missing_mask[0, 0]
        assert np.isnan(s.prices[1, 0])

    def test_unparseable_cell_becomes_missing(self, tmp_path):
        # it does not: only a blank or NaN cell is a gap, so a typo is not
        # silently repaired by the spline
        for cell in ("n/a", "10O.5"):
            p = write_csv(tmp_path, f"date,a,b\n2020-01-01,100,5\n2020-01-02,{cell},6\n")
            with pytest.raises(DataError, match=re.escape(f"{p}: line 3: unparseable price "
                                                          f"{cell!r} in column 'a'")):
                load_csv(p)

    @pytest.mark.parametrize("cell", ["NaN", "nan", "-nan"])
    def test_nan_cell_becomes_missing(self, tmp_path, cell):
        p = write_csv(tmp_path, f"date,a,b\n2020-01-01,100,5\n2020-01-02,{cell},6\n"
                                "2020-01-03,102,7\n")
        s = load_csv(p)
        np.testing.assert_array_equal(s.missing_mask, [[False, False], [True, False],
                                                       [False, False]])
        assert np.isnan(s.prices[1, 0])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_price_rejected_with_row_and_column(self, tmp_path, cell):
        p = write_csv(tmp_path, f"date,a,b\n2020-01-01,100,5\n2020-01-02,101,{cell}\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: line 3: infinite price ") + ".* column 'b'"):
            load_csv(p)

    def test_duplicate_date_rejected_naming_it(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-01,100\n2020-01-01,101\n")
        with pytest.raises(DataError, match="2020-01-01"):
            load_csv(p)

    @pytest.mark.parametrize("header,price_columns,name,where", [
        ("date,a,a", None, "a", "header"),
        ("date,date,a", None, "date", "header"),
        ("date,a,b", ("a", "b", "a"), "a", "price columns"),
    ], ids=["price-in-header", "date-in-header", "price-columns"])
    def test_duplicate_column_name_rejected_naming_it(self, tmp_path, header, price_columns,
                                                      name, where):
        p = write_csv(tmp_path, f"{header}\n2020-01-01,1,5\n2020-01-02,2,6\n2020-01-03,3,7\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: column {name!r} appears twice "
                                                      f"in the {where}")):
            load_csv(p, price_columns=price_columns)

    def test_duplicate_unused_column_ignored(self, tmp_path):
        p = write_csv(tmp_path, "date,a,a,b\n2020-01-01,1,5,7\n2020-01-02,2,6,8\n")
        s = load_csv(p, price_columns=("b",))
        np.testing.assert_allclose(s.prices[:, 0], [7, 8])

    def test_negative_price_rejected_with_row(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-01,100\n2020-01-02,-5\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: line 3")):
            load_csv(p)

    @pytest.mark.parametrize("row", ["2020-01-02,101", "2020-01-02,101,6,7"],
                             ids=["short-row", "long-row"])
    def test_ragged_row_rejected_with_file_and_line(self, tmp_path, row):
        p = write_csv(tmp_path, f"date,a,b\n2020-01-01,100,5\n{row}\n2020-01-03,102,7\n")
        with pytest.raises(DataError, match=re.escape(f"{p}: line 3: ")):
            load_csv(p)

    def test_unsorted_rows_sorted_by_date(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-03,102\n2020-01-01,100\n2020-01-02,101\n")
        s = load_csv(p)
        np.testing.assert_allclose(s.prices[:, 0], [100, 101, 102])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("cell,iso", [
        ("20000103", None), ("2000-W01-2", None), ("2000-1-3", "2000-01-03"),
    ])
    def test_default_date_format_reads_as_strptime(self, tmp_path, cell, iso):
        # the same on every Python: date.fromisoformat accepts the first two
        # from Python 3.11 on and rejects the third
        p = write_csv(tmp_path, f"date,a\n{cell},100\n2000-01-05,101\n")
        if iso is None:
            with pytest.raises(DataError, match=re.escape(f"{p}: line 2: unparseable date")):
                load_csv(p)
        else:
            assert load_csv(p).dates[0] == np.datetime64(iso)

    def test_schema_selects_columns(self, tmp_path):
        p = write_csv(tmp_path, "day,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
        s = load_csv(p, date_column="day", price_columns=("b",))
        assert s.labels == ("b",)
        np.testing.assert_allclose(s.prices[:, 0], [2, 4])


class TestPriceSeries:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 0.0, -1.5])
    def test_observed_price_must_be_positive_and_finite(self, bad):
        # in a column without gaps, which the spline never inspects
        prices = _walk(10, 3)
        prices[4, 2] = bad
        with pytest.raises(DataError, match=r"column 'p2': non-finite or non-positive"):
            make_series(prices)

    def test_missing_cells_are_not_checked(self):
        prices = _walk(10, 2)
        prices[4, 1] = np.nan
        assert make_series(prices).missing_mask.sum() == 1


class TestInterpolate:
    def test_identity_when_no_missing(self):
        s = make_series([100.0, 101.0, 102.0, 103.0])
        out = interpolate_missing(s)
        np.testing.assert_array_equal(out.prices, s.prices)
        assert not out.missing_mask.any()

    def test_collinear_gap_filled_linearly(self):
        # natural cubic spline of collinear data is the line itself
        s = make_series([100.0, np.nan, 102.0, 103.0, 104.0])
        out = interpolate_missing(s)
        assert abs(out.prices[1, 0] - 101.0) < 1e-12

    def test_quadratic_knots_match_tridiagonal_oracle(self):
        # (1, 4, ?, 16, 25) at indices 0..4: natural spline through the
        # four knots; the frozen 8.875 comes from an independent
        # tridiagonal second-derivative solve over those knots
        s = make_series([1.0, 4.0, np.nan, 16.0, 25.0])
        out = interpolate_missing(s)
        assert abs(out.prices[2, 0] - 8.875) < 1e-12

    def test_non_missing_cells_bit_identical(self):
        rng = np.random.default_rng(5)
        prices = 100 + rng.random((30, 2)) * 10
        mask = np.zeros_like(prices, dtype=bool)
        mask[7, 0] = mask[15, 1] = mask[16, 1] = True
        with_nan = prices.copy()
        with_nan[mask] = np.nan
        s = PriceSeries(
            dates=np.datetime64("2020-01-01") + np.arange(30),
            prices=with_nan, labels=("a", "b"),
        )
        out = interpolate_missing(s)
        np.testing.assert_array_equal(out.prices[~mask], prices[~mask])

    def test_boundary_missing_rejected(self):
        s = make_series([np.nan, 101.0, 102.0, 103.0, 104.0])
        with pytest.raises(DataError, match="boundary"):
            interpolate_missing(s)

    def test_too_few_support_points(self):
        s = make_series([100.0, np.nan, np.nan, 103.0])
        with pytest.raises(DataError, match=">= 4"):
            interpolate_missing(s)

    def test_idempotent_on_random_masked_series(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            T = int(rng.integers(10, 40))
            prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=(T, 2)), axis=0))
            mask = rng.random((T, 2)) < 0.2
            mask[0] = mask[-1] = False
            for j in range(2):
                if (~mask[:, j]).sum() < 4:
                    mask[:, j] = False
            with_nan = prices.copy()
            with_nan[mask] = np.nan
            s = PriceSeries(
                dates=np.datetime64("2020-01-01") + np.arange(T),
                prices=with_nan, labels=("a", "b"),
            )
            once = interpolate_missing(s)
            twice = interpolate_missing(once)
            np.testing.assert_array_equal(once.prices, twice.prices)


def _gap_mask(T, gaps):
    """(T, len(gaps)) mask with True at each column's listed row indices."""
    mask = np.zeros((T, len(gaps)), dtype=bool)
    for j, rows in enumerate(gaps):
        mask[list(rows), j] = True
    return mask


def _walk(T, n, seed=0):
    return 100 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0, 0.02, (T, n)), axis=0))


@st.composite
def gappy_prices(draw):
    """Positive prices and a gap mask that ``interpolate_missing`` accepts."""
    T, n = draw(st.integers(5, 60)), draw(st.integers(1, 3))
    prices = draw(hnp.arrays(np.float64, (T, n), elements=st.floats(1e-3, 1e6)))
    mask = draw(hnp.arrays(np.bool_, (T, n)))
    mask[0] = mask[-1] = False
    mask[:, (~mask).sum(axis=0) < 4] = False
    return prices, mask


class TestSplineOracle:
    """``interpolate_missing`` against scipy's natural CubicSpline: the same bits."""

    @settings(max_examples=300, deadline=None)
    @given(case=gappy_prices())
    @example(case=(_walk(9, 1), _gap_mask(9, [range(1, 6)])))  # exactly 4 support points
    @example(case=(_walk(40, 2, 1), _gap_mask(40, [[17], []])))  # one gap, in one column only
    @example(case=(_walk(500, 2, 2),  # long runs of gaps
                   _gap_mask(500, [range(3, 240), [*range(1, 150), *range(300, 499)]])))
    @example(case=(_walk(30, 3, 3), _gap_mask(30, [[], [], range(2, 28, 2)])))  # long alternating run
    def test_matches_scipy_cubic_spline(self, case):
        prices, mask = case
        with_nan = np.where(mask, np.nan, prices)
        idx = np.arange(len(prices), dtype=np.float64)
        expected = prices.copy()
        for j in range(prices.shape[1]):
            if mask[:, j].any():
                support = ~mask[:, j]
                expected[mask[:, j], j] = CubicSpline(idx[support], prices[support, j],
                                                      bc_type="natural")(idx[mask[:, j]])
        s = make_series(with_nan)
        if (expected[mask] <= 0).any():
            with pytest.raises(DataError, match="non-positive"):
                interpolate_missing(s)
            return
        assert np.array_equal(interpolate_missing(s).prices, expected)

    def test_infinite_observed_price_rejected(self):
        # rejected where the series is built, before the spline sees it
        prices = _walk(12, 2)
        prices[3, 1], prices[6, 1] = np.inf, np.nan
        with pytest.raises(DataError, match=r"column 'p1'.*non-finite"):
            interpolate_missing(make_series(prices))


class TestLogReturns:
    def test_constant_prices_zero_return(self):
        s = make_series([100.0, 100.0])
        r = log_returns(s)
        assert r.values[0, 0] == 0.0

    def test_exact_one_percent(self):
        s = make_series([100.0, 100.0 * np.exp(0.01)])
        r = log_returns(s)
        assert abs(r.values[0, 0] - 0.01) < 1e-15

    def test_length_is_t_minus_one(self):
        s = make_series(np.linspace(100, 110, 7))
        assert len(log_returns(s)) == 6

    def test_dates_align_to_later_observation(self):
        s = make_series([100.0, 101.0, 102.0])
        r = log_returns(s)
        np.testing.assert_array_equal(r.dates, s.dates[1:])

    def test_missing_rejected(self):
        s = make_series([100.0, np.nan, 102.0, 103.0, 104.0])
        with pytest.raises(DataError, match="interpolate"):
            log_returns(s)

    def test_round_trip_exp_cumsum(self):
        rng = np.random.default_rng(12)
        r = rng.normal(0, 0.01, size=(50, 2))
        prices = 100 * np.exp(np.vstack([np.zeros(2), np.cumsum(r, axis=0)]))
        s = PriceSeries(
            dates=np.datetime64("2020-01-01") + np.arange(51),
            prices=prices, labels=("a", "b"),
        )
        back = log_returns(s)
        np.testing.assert_allclose(back.values, r, atol=1e-12)


class TestDescriptiveStats:
    def test_simple_column(self):
        r = ReturnMatrix(
            dates=np.datetime64("2020-01-01") + np.arange(3),
            values=np.array([[1.0], [2.0], [3.0]]), labels=("a",),
        )
        st = descriptive_stats(r)
        assert st.mean[0] == 2.0 and st.maximum[0] == 3.0 and st.minimum[0] == 1.0
        assert st.count == 3

    def test_constant_column_sd_zero(self):
        r = ReturnMatrix(
            dates=np.datetime64("2020-01-01") + np.arange(4),
            values=np.full((4, 1), 0.5), labels=("a",),
        )
        assert descriptive_stats(r).sd[0] == 0.0

    def test_table_shape_column_order(self, tmp_path):
        # the stats artifact follows Mean, SD, Max, Min order with N
        r = ReturnMatrix(
            dates=np.datetime64("2020-01-01") + np.arange(3),
            values=np.array([[1.0], [2.0], [3.0]]), labels=("a",),
        )
        _, (p_csv, _) = stats_stage(tmp_path, r)
        assert p_csv.read_text(encoding="utf-8").splitlines()[0] == "series,mean,sd,max,min,n"

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(40, 2))
        dates = np.datetime64("2020-01-01") + np.arange(40)
        st1 = descriptive_stats(ReturnMatrix(dates=dates, values=vals, labels=("a", "b")))
        perm = rng.permutation(40)
        st2 = descriptive_stats(ReturnMatrix(dates=dates, values=vals[perm], labels=("a", "b")))
        np.testing.assert_allclose(st1.mean, st2.mean)
        np.testing.assert_allclose(st1.maximum, st2.maximum)
        np.testing.assert_allclose(st1.minimum, st2.minimum)
        np.testing.assert_allclose(st1.sd, st2.sd)

    def test_column_relabel_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(40, 2))
        dates = np.datetime64("2020-01-01") + np.arange(40)
        st1 = descriptive_stats(ReturnMatrix(dates=dates, values=vals, labels=("a", "b")))
        st2 = descriptive_stats(ReturnMatrix(dates=dates, values=vals[:, ::-1], labels=("b", "a")))
        np.testing.assert_allclose(st1.mean, st2.mean[::-1])


class TestArrayInput:
    """Every public estimator takes an ndarray by the same rule as a ReturnMatrix."""

    @pytest.mark.parametrize("call", [
        lambda X: fit_var(X, 1),
        lambda X: select_lag_sbic(X, 2),
        lambda X: solve_tvvar(X, q=1, lam=1.0),
        lambda X: bootstrap_bands(X, BootstrapSpec(replications=120, coverage=0.9, q=1)),
    ], ids=["fit_var", "select_lag_sbic", "solve_tvvar", "bootstrap_bands"])
    def test_nan_cell_is_a_data_error(self, call):
        X = np.random.default_rng(5).normal(0, 0.01, size=(80, 2))
        X[40, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            call(X)
