import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tveff.cli import main
from tveff.errors import DataError, NumericalError
from tveff.inference import classify_segments
from tveff.pipeline import (
    PipelineConfig,
    _cell,
    _write_columns,
    _write_dated_csv,
    _write_json,
    emit_report,
    plot_data,
    read_returns_csv,
    read_zeta_csv,
    run_pipeline,
    write_returns_csv,
    write_zeta_csv,
)
from tveff.series import ReturnMatrix, load_csv
from tveff.synth import ScenarioSpec, gen_returns, true_zeta_path
from tveff.tvvar import EfficiencyPath, solve_tvvar
from tveff.unitroot import adf_gls


def synth_prices(tmp_path, name="prices.csv", **kw):
    args = dict(kind="sinusoidal-tv", T=300, n=2, q=1, sigma_eps=0.02, seed=5,
                amplitude=0.3, period=150.0)
    args.update(kw)
    spec = ScenarioSpec(**args)
    returns, _ = gen_returns(spec)
    levels = 100.0 * np.exp(np.concatenate(
        [np.zeros((1, returns.n_columns)), np.cumsum(returns.values, axis=0)]))
    dates = np.concatenate([[returns.dates[0] - np.timedelta64(1, "D")], returns.dates])
    rows = ["date," + ",".join(returns.labels)]
    for i in range(levels.shape[0]):
        rows.append(str(dates[i]) + "," + ",".join(repr(float(v)) for v in levels[i]))
    p = tmp_path / name
    p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return p, returns


def small_config(tmp_path, prices, **overrides):
    cfg = dict(
        input_path=str(prices),
        output_dir=str(tmp_path / "out"),
        q=1,
        lam=1.0,
        replications=120,
        coverage=0.9,
        seed=7,
        min_run=5,
    )
    cfg.update(overrides)
    return PipelineConfig.from_dict(cfg)


# column labels a CSV must carry intact: commas, quotes, spaces, any printable text
LABELS = st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=8)


def same_cell(cell, value):
    """A CSV cell against its JSON companion value, bit for bit after parsing."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, int):
        return int(cell) == value
    if isinstance(value, float):
        return float(cell).hex() == value.hex()
    return cell == value


class TestRoundTrips:
    def test_returns_csv_round_trip_exact(self, tmp_path):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=50, n=2, sigma_eps=0.01, seed=1))
        p = tmp_path / "r.csv"
        write_returns_csv(p, X)
        back = read_returns_csv(p)
        assert np.array_equal(back.values, X.values)
        assert np.array_equal(back.dates, X.dates)
        assert back.labels == X.labels

    def test_zeta_csv_round_trip_with_nan(self, tmp_path):
        m = 20
        zeta = np.linspace(0, 1, m)
        zeta[3] = np.nan
        nan_band = np.ones(m)
        nan_band[4] = np.nan  # one empty band cell keeps the other bands
        for upper in (np.ones(m), nan_band):
            ep = EfficiencyPath(
                dates=np.datetime64("2020-01-01") + np.arange(m),
                zeta=zeta,
            ).with_bands(np.zeros(m), upper)
            p = tmp_path / "z.csv"
            write_zeta_csv(p, ep)
            back = read_zeta_csv(p)
            np.testing.assert_array_equal(np.isnan(back.zeta), np.isnan(ep.zeta))
            ok = np.isfinite(ep.zeta)
            assert np.array_equal(back.zeta[ok], ep.zeta[ok])
            np.testing.assert_array_equal(back.band_upper, ep.band_upper)
            assert np.array_equal(back.efficient_flag, ep.efficient_flag)
            assert [(s.start_index, s.end_index, s.label) for s in classify_segments(back, 1)] \
                == [(s.start_index, s.end_index, s.label) for s in classify_segments(ep, 1)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_returns_csv_round_trip_property(self, tmp_path_factory, data):
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        X = ReturnMatrix(
            dates=np.array(data.draw(st.lists(st.dates(), min_size=m, max_size=m)),
                           dtype="datetime64[D]"),
            values=data.draw(hnp.arrays(np.float64, (m, n), elements=st.floats(
                allow_nan=False, allow_infinity=False))),
            labels=tuple(data.draw(st.lists(LABELS, min_size=n, max_size=n))),
        )
        p = tmp_path_factory.mktemp("returns") / "r.csv"
        write_returns_csv(p, X)
        back = read_returns_csv(p)
        assert back.labels == X.labels
        assert np.array_equal(back.dates, X.dates)
        assert back.values.tobytes() == X.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_price_csv_round_trip_property(self, tmp_path_factory, data):
        # load_csv strips header cells and takes "date" as the date column
        labels = st.lists(LABELS.map(str.strip).filter(lambda s: s and s != "date"),
                          min_size=1, max_size=3, unique=True)
        labels = tuple(data.draw(labels))
        m = data.draw(st.integers(1, 12))
        dates = np.array(sorted(data.draw(st.lists(st.dates(), min_size=m, max_size=m,
                                                   unique=True))), dtype="datetime64[D]")
        prices = data.draw(hnp.arrays(np.float64, (m, len(labels)), elements=st.floats(
            min_value=0, exclude_min=True, allow_infinity=False) | st.just(np.nan)))
        p = tmp_path_factory.mktemp("prices") / "p.csv"
        _write_dated_csv(p, dates, prices, labels)
        back = load_csv(p)
        assert back.labels == labels
        assert np.array_equal(back.dates, dates)
        assert back.prices.tobytes() == prices.tobytes()
        assert np.array_equal(back.missing_mask, np.isnan(prices))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_zeta_csv_round_trip_property(self, tmp_path_factory, data):
        m = data.draw(st.integers(1, 12))
        cells = st.floats(allow_infinity=False)  # NaN included: an empty cell
        zeta = data.draw(hnp.arrays(np.float64, m, elements=st.floats(0, 1e6) | st.just(np.nan)))
        ep = EfficiencyPath(
            dates=np.array(data.draw(st.lists(st.dates(), min_size=m, max_size=m)),
                           dtype="datetime64[D]"),
            zeta=zeta,
        )
        if data.draw(st.booleans(), label="banded"):
            ep = ep.with_bands(data.draw(hnp.arrays(np.float64, m, elements=cells)),
                               data.draw(hnp.arrays(np.float64, m, elements=cells)))
        p = tmp_path_factory.mktemp("zeta") / "z.csv"
        write_zeta_csv(p, ep)
        back = read_zeta_csv(p)
        assert np.array_equal(back.dates, ep.dates)
        assert np.array_equal(back.zeta, ep.zeta, equal_nan=True)
        assert np.array_equal(back.flagged, ep.flagged)
        for name in ("band_lower", "band_upper", "efficient_flag"):
            got, want = getattr(back, name), getattr(ep, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), name


# cells the old per-row writer saw: every float class, flags, absent cells, text
FLOAT_CELLS = (st.floats(width=64) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324])
               | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))


@st.composite
def csv_columns(draw):
    """Columns of one length, each as an array or a list of Python objects."""
    m = draw(st.integers(0, 8))
    kinds = {
        "float": hnp.arrays(np.float64, m, elements=FLOAT_CELLS),
        "day": hnp.arrays("datetime64[D]", m, elements=st.dates().map(np.datetime64)
                          | st.just(np.datetime64("NaT"))),
        "bool": hnp.arrays(np.bool_, m),
        "int": hnp.arrays(np.int64, m),
        "float32": hnp.arrays(np.float32, m),
        "seconds": hnp.arrays("datetime64[s]", m),
        "text": hnp.arrays(np.dtype("U8"), m, elements=LABELS),
        "objects": st.lists(FLOAT_CELLS | st.booleans() | st.none() | st.integers() | LABELS
                            | st.dates(), min_size=m, max_size=m),
    }
    return draw(st.lists(st.sampled_from(sorted(kinds)).flatmap(kinds.get), min_size=1,
                         max_size=5))


def write_rows(path, header, rows):
    """The per-row writer every CSV artifact once went through: ``_cell`` on each cell."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


class TestColumnWriter:
    @settings(max_examples=200, deadline=None)
    @given(csv_columns())
    def test_same_bytes_as_the_row_writer(self, tmp_path_factory, columns):
        out = tmp_path_factory.mktemp("columns")
        header = [f"c{j}" for j in range(len(columns))]
        _write_columns(out / "columns.csv", header, columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        write_rows(out / "rows.csv", header, rows)
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


class TestPipeline:
    def test_full_run_artifacts(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        result = run_pipeline(config)
        out = Path(config.output_dir)
        for name in ("prices_clean.csv", "returns.csv", "stats.csv", "stats.json",
                     "table1.csv", "table1.json", "table2.csv", "table2.json",
                     "tvvar_zeta.csv", "zeta_path.csv", "zeta_path.json",
                     "segments.csv", "regimes.csv", "zeta_plot.csv",
                     "zeta_plot.svg", "report.txt", "run_manifest.json"):
            assert (out / name).exists(), name
        assert result.q == 1

    def test_reruns_byte_identical(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        c1 = small_config(tmp_path, prices, output_dir=str(tmp_path / "a"))
        c2 = small_config(tmp_path, prices, output_dir=str(tmp_path / "b"))
        run_pipeline(c1)
        run_pipeline(c2)
        names = [p.name for p in (tmp_path / "a").iterdir()
                 if p.name != "run_manifest.json"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_manifest_reproduces_run(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        run_pipeline(config)
        out = Path(config.output_dir)
        manifest = json.loads((out / "run_manifest.json").read_text())
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rerun = PipelineConfig.from_dict(manifest)
        run_pipeline(rerun)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_missing_input_fails_in_ingest_with_no_artifacts(self, tmp_path):
        config = small_config(tmp_path, tmp_path / "missing.csv")
        with pytest.raises(DataError, match="stage 'ingest' failed"):
            run_pipeline(config)
        out = Path(config.output_dir)
        assert not any(out.iterdir())

    def test_numerical_failure_keeps_its_type_and_cause(self, tmp_path, monkeypatch):
        def solve_tvvar(*args, **kwargs):
            raise NumericalError("normal matrix is not positive definite")

        monkeypatch.setattr("tveff.pipeline.solve_tvvar", solve_tvvar)
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        with pytest.raises(NumericalError) as info:
            run_pipeline(config)
        assert str(info.value) == "stage 'tvvar' failed: normal matrix is not positive definite"
        assert type(info.value.__cause__) is NumericalError
        assert str(info.value.__cause__) == "normal matrix is not positive definite"
        assert not any(Path(config.output_dir).iterdir())

    def test_any_failure_removes_artifacts_and_propagates_unchanged(self, tmp_path, monkeypatch):
        error = RuntimeError("not a data, numerical or file error")

        def fit_var(*args, **kwargs):
            raise error

        monkeypatch.setattr("tveff.pipeline.fit_var", fit_var)
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        with pytest.raises(RuntimeError) as info:
            run_pipeline(config)
        assert info.value is error
        assert not any(Path(config.output_dir).iterdir())

    def test_breakpoints_make_regime_rows(self, tmp_path):
        prices, returns = synth_prices(tmp_path)
        mid = str(returns.dates[150])
        config = small_config(tmp_path, prices, breakpoints=[mid])
        run_pipeline(config)
        text = (Path(config.output_dir) / "regimes.csv").read_text()
        assert len(text.strip().splitlines()) == 3  # header + 2 regimes

    def test_csv_matches_json_companion(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        run_pipeline(config)
        out = Path(config.output_dir)

        def read(name):
            return list(csv.reader(io.StringIO((out / name).read_text(encoding="utf-8"))))

        for name in ("stats", "table1"):
            header, *rows = read(f"{name}.csv")
            columns = json.loads((out / f"{name}.json").read_text())["columns"]
            assert len(rows) == len(columns)
            for rec, col in zip(rows, columns):
                assert sorted(header) == sorted(col)
                assert all(same_cell(c, col[k]) for k, c in zip(header, rec)), (name, rec)
        header, *rows = read("zeta_path.csv")
        path = json.loads((out / "zeta_path.json").read_text())
        keys = {"date": "dates", "efficient_flag": "efficient"}
        assert len(rows) == len(path["dates"])
        for i, rec in enumerate(rows):
            assert all(same_cell(c, path[keys.get(k, k)][i]) for k, c in zip(header, rec)), rec

    def test_json_dates_are_iso_strings(self, tmp_path):
        p = tmp_path / "d.json"
        _write_json(p, {"dates": np.array(["2000-01-03", "1921-12-31"], dtype="datetime64[D]")})
        assert json.loads(p.read_text()) == {"dates": ["2000-01-03", "1921-12-31"]}

    def test_unknown_config_key_rejected(self):
        with pytest.raises(DataError, match="unknown config keys"):
            PipelineConfig.from_dict({"input_path": "x", "output_dir": "y", "qq": 3})


class TestReport:
    def test_report_without_tvvar_artifacts(self, tmp_path):
        text = emit_report(tmp_path)
        assert "no TV-VAR run" in text

    def test_report_renders_tables(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        config = small_config(tmp_path, prices)
        run_pipeline(config)
        text = (Path(config.output_dir) / "report.txt").read_text()
        assert "Descriptive statistics and unit root tests" in text
        assert "Time-invariant VAR(1) estimates" in text
        assert re.search(r"\[\d\.\d{4}\]", text)  # bracketed SEs at 4 decimals
        assert "share efficient" in text


class TestPlotData:
    def make_banded_path(self, m=40):
        rng = np.random.default_rng(3)
        zeta = rng.random(m)
        ep = EfficiencyPath(
            dates=np.datetime64("2020-01-01") + np.arange(m),
            zeta=zeta,
        )
        return ep.with_bands(zeta - 0.1, zeta + 0.1)

    def test_long_csv_has_three_rows_per_period(self, tmp_path):
        ep = self.make_banded_path(25)
        p_csv, _ = plot_data(ep, tmp_path)
        reader = csv.reader(io.StringIO(p_csv.read_text()))
        rows = list(reader)[1:]
        assert len(rows) == 3 * 25

    def test_svg_ranges_enclose_band_extrema(self, tmp_path):
        ep = self.make_banded_path(30)
        p_csv, p_svg = plot_data(ep, tmp_path)
        txt = p_svg.read_text()
        y_min = float(re.search(r'data-y-min="([^"]+)"', txt).group(1))
        y_max = float(re.search(r'data-y-max="([^"]+)"', txt).group(1))
        # recompute extrema from the CSV per series
        vals = {"zeta": [], "lower": [], "upper": []}
        for rec in list(csv.reader(io.StringIO(p_csv.read_text())))[1:]:
            if rec[2]:
                vals[rec[1]].append(float(rec[2]))
        assert y_min <= min(vals["lower"])
        assert y_max >= max(vals["upper"])
        every = np.concatenate([vals["zeta"], vals["lower"], vals["upper"]])
        assert y_min == every.min() and y_max == every.max()

    def test_svg_points_match_per_point_arithmetic(self, tmp_path):
        # the pixel formulas applied one period at a time, as scalars
        ep = self.make_banded_path(57)
        ep.zeta[[0, 9, 10]] = np.nan
        ep.band_upper[30] = np.inf
        _, p_svg = plot_data(ep, tmp_path)
        finite = np.concatenate([a[np.isfinite(a)] for a in (ep.zeta, ep.band_lower,
                                                              ep.band_upper)])
        y_min, y_max = float(finite.min()), float(finite.max())
        m = len(ep)
        want = [" ".join(f"{50 + (700 * i / (m - 1)):.2f},"
                         f"{50 + 300 * (1.0 - (arr[i] - y_min) / (y_max - y_min)):.2f}"
                         for i in range(m) if np.isfinite(arr[i]))
                for arr in (ep.band_lower, ep.band_upper, ep.zeta)]
        assert re.findall(r'points="([^"]*)"', p_svg.read_text()) == want

    def test_constant_zero_path_flat_lines(self, tmp_path):
        m = 10
        ep = EfficiencyPath(
            dates=np.datetime64("2020-01-01") + np.arange(m),
            zeta=np.zeros(m),
        ).with_bands(np.zeros(m), np.zeros(m))
        _, p_svg = plot_data(ep, tmp_path)
        assert p_svg.exists()
        assert p_svg.read_text().count("<polyline") == 3


def run_cli(*args):
    return main(list(args))


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bogus-command")
        assert exc.value.code == 1

    def test_missing_input_exit_code_2(self, tmp_path, capsys):
        cfg = {"input_path": str(tmp_path / "nope.csv"),
               "output_dir": str(tmp_path / "out"), "replications": 120,
               "coverage": 0.9}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(p)) == 2
        err = capsys.readouterr().err
        assert "ingest" in err

    def test_prices_bouncing_between_two_levels_exit_code_2(self, tmp_path, capsys):
        # returns of "a" repeat with period 2, so its ADF lag design is
        # collinear; the random walk "b" beside it is ordinary
        rng = np.random.default_rng(4)
        returns = np.column_stack([0.01 * (-1.0) ** np.arange(600),
                                   0.01 * rng.standard_normal(600)])
        levels = 100.0 * np.exp(np.vstack([np.zeros((1, 2)), np.cumsum(returns, axis=0)]))
        prices = tmp_path / "prices.csv"
        _write_dated_csv(prices, np.datetime64("2000-01-03") + np.arange(601), levels, ("a", "b"))
        message = ("series 'a': ADF-GLS lag design is collinear: lagged difference 3 is a "
                   "linear combination of the regressors before it")
        assert run_cli("ingest", "-i", str(prices), "-o", str(tmp_path / "ing")) == 0
        assert run_cli("unitroot", "--returns", str(tmp_path / "ing" / "returns.csv"),
                       "-o", str(tmp_path / "ur")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any((tmp_path / "ur").iterdir())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input_path": str(prices), "output_dir": str(tmp_path / "run"),
                                   "q": 1, "replications": 120, "coverage": 0.9}))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: stage 'unitroot' failed: {message}\n"
        assert not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("body", [
        "2000-01-03,0.1,\n", "2000-01-03,0.1\n", "2000-13-03,0.1,0.2\n", ",0.1,0.2\n",
    ], ids=["empty-cell", "ragged-row", "bad-date", "empty-date"])
    def test_malformed_returns_csv_exit_code_2(self, tmp_path, capsys, body):
        p = tmp_path / "returns.csv"
        p.write_text("date,a,b\n2000-01-02,0.3,0.4\n" + body, encoding="utf-8")
        assert run_cli("var", "--returns", str(p), "-o", str(tmp_path / "out")) == 2
        assert f"{p}: line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "2000-13-03,0.1,0.0,1.0,true\n", "2000-01-03,0.1,0.0,1.0\n",
        "2000-01-03,x,0.0,1.0,true\n",
    ], ids=["bad-date", "ragged-row", "bad-number"])
    def test_malformed_zeta_csv_exit_code_2(self, tmp_path, capsys, body):
        p = tmp_path / "zeta_path.csv"
        p.write_text("date,zeta,lower,upper,efficient_flag\n"
                     "2000-01-02,0.3,0.0,1.0,true\n" + body, encoding="utf-8")
        assert run_cli("segments", "--zeta", str(p), "-o", str(tmp_path / "out")) == 2
        assert f"{p}: line 3:" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text,message", [
        ("segments.csv", "start,end,label,mean_zeta\n2000-01-02,2000-01-02,efficient\n",
         "line 2:"),
        ("regimes.csv", "regime,start,end,sd_zeta,efficient_share,count\n"
         "1,2000-01-02,2000-01-02,x,1.0,1\n", "line 2:"),
        ("table1.json", "{", "invalid JSON"),
        ("table2.json", "[1,", "invalid JSON"),
        ("table1.json", "{}", "KeyError('columns')"),
        ("table2.json", "{}", "KeyError('labels')"),
    ], ids=["segments-ragged-row", "regimes-bad-number", "table1-bad-json", "table2-bad-json",
            "table1-no-keys", "table2-no-keys"])
    def test_malformed_report_artifact_exit_code_2(self, tmp_path, capsys, name, text, message):
        (tmp_path / "zeta_path.csv").write_text(
            "date,zeta,lower,upper,efficient_flag\n2000-01-02,0.3,0.0,1.0,true\n",
            encoding="utf-8")
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        assert run_cli("report", "--artifacts", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(p) in err and message in err

    def test_report_from_missing_directory_exit_code_2(self, tmp_path, capsys):
        missing = tmp_path / "nodir"
        assert run_cli("report", "--artifacts", str(missing)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("text", ["5", "null", "true", '"abc"', "[1, 2]"])
    def test_config_not_a_json_object_exit_code_2(self, tmp_path, capsys, text):
        p = tmp_path / "c.json"
        p.write_text(text, encoding="utf-8")
        assert run_cli("run", "--config", str(p)) == 2
        err = capsys.readouterr().err
        assert f"{p}: config must be a JSON object" in err and err.count("\n") == 1

    def test_report_into_missing_directory_exit_code_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "r.txt"
        assert run_cli("report", "--artifacts", str(tmp_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    @pytest.mark.parametrize("row", ["2000-01-04,1.1", "2000-01-04,1.1,2.2,3.3"],
                             ids=["short-row", "long-row"])
    def test_ragged_price_row_exit_code_2(self, tmp_path, capsys, row):
        p = tmp_path / "prices.csv"
        p.write_text("date,a,b\n2000-01-03,1.0,2.0\n" + row + "\n2000-01-05,1.2,2.1\n",
                     encoding="utf-8")
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path / "out")) == 2
        assert f"{p}: line 3:" in capsys.readouterr().err

    def test_price_column_named_twice_exit_code_2(self, tmp_path, capsys):
        p = tmp_path / "prices.csv"
        p.write_text("date,a,b\n2000-01-03,1.0,2.0\n2000-01-04,1.1,2.1\n", encoding="utf-8")
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path / "out"),
                       "--price-columns", "a", "b", "a") == 2
        assert f"{p}: column 'a' appears twice in the price columns" in capsys.readouterr().err

    def test_ingest_date_format(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text("date,a\n03/01/2000,100\n04/01/2000,101\n05/01/2000,103\n",
                     encoding="utf-8")
        iso = np.array(["2000-01-03", "2000-01-04", "2000-01-05"], dtype="datetime64[D]")
        np.testing.assert_array_equal(load_csv(p, date_format="%d/%m/%Y").dates, iso)
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path / "out"),
                       "--date-format", "%d/%m/%Y") == 0
        np.testing.assert_array_equal(read_returns_csv(tmp_path / "out" / "returns.csv").dates,
                                      iso[1:])

    def test_ingest_accepts_a_leading_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8": a BOM, then CRLF line ends
        text = "date,a\r\n2000-01-03,100\r\n2000-01-04,101\r\n2000-01-05,103\r\n"
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.csv").write_bytes(prefix + text.encode("utf-8"))
            assert run_cli("ingest", "-i", str(tmp_path / f"{name}.csv"),
                           "-o", str(tmp_path / name)) == 0
        for artifact in ("prices_clean.csv", "returns.csv"):
            assert (tmp_path / "bom" / artifact).read_bytes() == \
                (tmp_path / "plain" / artifact).read_bytes(), artifact

    @pytest.mark.parametrize("command, order", [
        ("stats", []), ("unitroot", []), ("var", []), ("var", ["--q", "1"]),
        ("tvvar", ["--q", "1"]), ("bootstrap", ["--q", "1"])],
        ids=["stats", "unitroot", "var", "var-q1", "tvvar", "bootstrap"])
    def test_overflowing_returns_exit_code_3(self, tmp_path, capsys, command, order):
        # finite returns whose squares and products overflow to inf; the
        # one error line is all a command prints (warnings fail the suite)
        values = np.random.default_rng(0).normal(size=(300, 2)) * 1e160
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(300),
                                              values=values, labels=("a", "b")))
        assert run_cli(command, "--returns", str(p_ret), *order,
                       "-o", str(tmp_path / "out")) == 3
        message = {
            "stats": "the SD of return column 'a' overflows",
            "unitroot": "series 'a': the sum of squares of the detrended series overflows",
            "var": "the products of the returns overflow",
        }.get(command, "normal equations are not finite: the products of the returns overflow")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any((tmp_path / "out").iterdir())

    def test_overflowing_right_hand_side_exit_code_3(self, tmp_path, capsys):
        # the normal matrix is finite, but the last return times its lag overflows
        values = np.random.default_rng(0).normal(size=(300, 2)) * 1e150
        values[-1] = 1e300
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(300),
                                              values=values, labels=("a", "b")))
        assert run_cli("tvvar", "--returns", str(p_ret), "--q", "1", "--lam", "1e150",
                       "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == ("error: right-hand sides are not finite: "
                                           "the products of the returns overflow\n")
        assert not any((tmp_path / "out").iterdir())

    def test_overflowing_spline_fill_exit_code_3(self, tmp_path, capsys):
        # finite prices near the float limit whose spline through a gap overflows
        a = ["1e307" if t % 2 == 0 else "1.7e308" for t in range(60)]
        a[30] = ""
        p = tmp_path / "prices.csv"
        p.write_text("date,a,b\n" + "".join(
            f"{np.datetime64('2000-01-03') + t},{a[t]},{100 + t % 7}\n" for t in range(60)),
            encoding="utf-8")
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == \
            "error: column 'a': the spline through its prices overflows\n"
        assert not (tmp_path / "out" / "returns.csv").exists()

    def test_constant_combination_exit_code_3(self, tmp_path, capsys):
        # b = 0.5 - a: neither series is constant, their sum is
        x1 = np.random.default_rng(0).normal(0, 0.01, size=300)
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(300),
                                              values=np.column_stack([x1, 0.5 - x1]),
                                              labels=("a", "b")))
        assert run_cli("tvvar", "--returns", str(p_ret), "--q", "1",
                       "-o", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: lagged returns are collinear") and err.count("\n") == 1
        assert "'a' at lag 1, 'b' at lag 1" in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("case", ["outside-sample", "empty-regime"])
    def test_breakpoints_fail_before_bootstrap(self, tmp_path, capsys, monkeypatch, case):
        def bootstrap_bands(*args, **kwargs):
            pytest.fail("the bootstrap ran before the breakpoints were checked")

        monkeypatch.setattr("tveff.pipeline.bootstrap_bands", bootstrap_bands)
        prices, _ = synth_prices(tmp_path)
        if case == "outside-sample":
            breakpoints, message = ["2030-01-01"], "breakpoint 2030-01-01 outside the sample"
        else:  # both fall on non-trading days between the same two trading days
            lines = prices.read_text(encoding="utf-8").splitlines(keepends=True)
            breakpoints = [lines.pop(150).split(",")[0] for _ in range(2)]
            prices.write_text("".join(lines), encoding="utf-8")
            message = "regime 2 is empty"
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"input_path": str(prices), "output_dir": str(tmp_path / "out"),
                                 "q": 1, "replications": 120, "coverage": 0.9,
                                 "breakpoints": breakpoints}))
        assert run_cli("run", "--config", str(p)) == 2
        assert capsys.readouterr().err == f"error: stage 'segments' failed: {message}\n"
        assert not any((tmp_path / "out").iterdir())

    def test_stats_csv_quotes_label_with_comma(self, tmp_path):
        rows = [f"2020-01-{d:02d},{100 + d},{50 + d * d}" for d in range(1, 9)]
        p = tmp_path / "prices.csv"
        p.write_text('date,"osaka, rice",b\n' + "\n".join(rows) + "\n", encoding="utf-8")
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path)) == 0
        assert run_cli("stats", "--returns", str(tmp_path / "returns.csv"),
                       "-o", str(tmp_path)) == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "stats.csv").read_text(encoding="utf-8"))))
        assert [len(r) for r in rows] == [6, 6, 6]
        assert [r[0] for r in rows] == ["series", "osaka, rice", "b"]

    @pytest.mark.parametrize("lam", ["inf", "nan", "1e200", "1e-200"])
    def test_lambda_with_no_finite_nonzero_square_exit_code_2(self, tmp_path, capsys, lam):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=60, n=2, sigma_eps=0.01, seed=1))
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, X)
        assert run_cli("tvvar", "--returns", str(p_ret), "--q", "1", "--lam", lam,
                       "-o", str(tmp_path / "tv")) == 2
        assert "lam" in capsys.readouterr().err
        prices, _ = synth_prices(tmp_path)
        p_cfg = tmp_path / "c.json"
        p_cfg.write_text(json.dumps({"input_path": str(prices), "replications": 120,
                                     "coverage": 0.9, "output_dir": str(tmp_path / "run"),
                                     "lam": float(lam)}))  # json writes NaN and Infinity
        assert run_cli("run", "--config", str(p_cfg)) == 2
        err = capsys.readouterr().err
        assert "lam" in err and "ingest" not in err  # rejected before any stage
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["run-flag", "run-config", "bootstrap", "synth"])
    def test_negative_seed_exit_code_2(self, tmp_path, capsys, command):
        prices, returns = synth_prices(tmp_path)
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, returns)
        cfg = {"input_path": str(prices), "output_dir": str(tmp_path / "run"),
               "replications": 120, "coverage": 0.9}
        p_cfg = tmp_path / "c.json"
        p_cfg.write_text(json.dumps({**cfg, "seed": -1} if command == "run-config" else cfg))
        argv = {
            "run-flag": ["run", "--config", str(p_cfg), "--seed", "-1"],
            "run-config": ["run", "--config", str(p_cfg)],
            "bootstrap": ["bootstrap", "--returns", str(p_ret), "--q", "1",
                          "--replications", "120", "--coverage", "0.9", "--seed", "-1",
                          "-o", str(tmp_path / "boot")],
            "synth": ["synth", "--kind", "iid", "--T", "50", "--seed", "-1",
                      "--out", str(tmp_path / "synth.csv")],
        }[command]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "synth.csv").exists()

    def test_synth_true_zeta_csv(self, tmp_path):
        p_zeta = tmp_path / "true_zeta.csv"
        assert run_cli("synth", "--kind", "randomwalk-tv", "--T", "80", "--n", "2",
                       "--seed", "4", "--out", str(tmp_path / "p.csv"),
                       "--true-zeta", str(p_zeta)) == 0
        returns, path = gen_returns(ScenarioSpec(kind="randomwalk-tv", T=80, n=2, seed=4))
        header, *rows = csv.reader(io.StringIO(p_zeta.read_text(encoding="utf-8")))
        assert header == ["date", "zeta"]
        assert [r[0] for r in rows] == [str(d) for d in returns.dates]
        np.testing.assert_array_equal([float(r[1]) for r in rows], true_zeta_path(path))

    def test_synth_creates_both_output_directories(self, tmp_path):
        p_prices, p_zeta = tmp_path / "d1" / "p.csv", tmp_path / "d2" / "z.csv"
        assert run_cli("synth", "--kind", "iid", "--T", "40", "--out", str(p_prices),
                       "--true-zeta", str(p_zeta)) == 0
        assert p_prices.is_file() and p_zeta.is_file()

    def test_tvvar_coef_out_csv(self, tmp_path):
        X, _ = gen_returns(ScenarioSpec(kind="sinusoidal-tv", T=60, n=2, sigma_eps=0.02,
                                        seed=2, period=30.0))
        p_ret, p_coef = tmp_path / "returns.csv", tmp_path / "coef.csv"
        write_returns_csv(p_ret, X)
        assert run_cli("tvvar", "--returns", str(p_ret), "--q", "2", "--coef-out", str(p_coef),
                       "-o", str(tmp_path / "out")) == 0
        fit = solve_tvvar(read_returns_csv(p_ret), q=2, lam=1.0)
        header, *rows = csv.reader(io.StringIO(p_coef.read_text(encoding="utf-8")))
        assert header == ["date", "lag", "equation", "regressor", "value"]
        assert len(rows) == fit.nobs * 2 * 2 * 2
        assert rows[1][:4] == [str(fit.dates[0]), "1", "x1", "x2"]
        values = np.array([float(r[4]) for r in rows]).reshape(fit.A_path.shape)
        np.testing.assert_array_equal(values, fit.A_path)

    def test_synth_ingest_round_trip(self, tmp_path):
        prices = tmp_path / "p.csv"
        assert run_cli("synth", "--kind", "iid", "--T", "60", "--n", "2",
                       "--sigma-eps", "0.01", "--seed", "3",
                       "--out", str(prices)) == 0
        assert run_cli("ingest", "-i", str(prices), "-o", str(tmp_path / "ing")) == 0
        back = read_returns_csv(tmp_path / "ing" / "returns.csv")
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=60, n=2, sigma_eps=0.01, seed=3))
        np.testing.assert_allclose(back.values, X.values, atol=1e-12)

    def test_ingest_repairs_nan_cell_by_spline(self, tmp_path):
        # collinear prices, so the natural spline fills the NaN with the line
        rows = [f"2020-01-{d:02d},{100 + d},{50 + 2 * d}" for d in range(1, 9)]
        text = "date,a,b\n" + "\n".join(rows) + "\n"
        p_nan, p_empty = tmp_path / "nan.csv", tmp_path / "empty.csv"
        p_nan.write_text(text.replace("2020-01-04,104", "2020-01-04,NaN"), encoding="utf-8")
        p_empty.write_text(text.replace("2020-01-04,104", "2020-01-04,"), encoding="utf-8")
        assert run_cli("ingest", "-i", str(p_nan), "-o", str(tmp_path / "nan")) == 0
        assert run_cli("ingest", "-i", str(p_empty), "-o", str(tmp_path / "empty")) == 0
        clean = (tmp_path / "nan" / "prices_clean.csv").read_text(encoding="utf-8")
        assert clean == (tmp_path / "empty" / "prices_clean.csv").read_text(encoding="utf-8")
        repaired = list(csv.reader(io.StringIO(clean)))[4]
        assert repaired[0] == "2020-01-04"
        assert abs(float(repaired[1]) - 104.0) < 1e-9

    def test_ingest_no_interpolate(self, tmp_path, capsys):
        rows = [f"2020-01-{d:02d},{100 + d},{50 + 2 * d}" for d in range(1, 9)]
        text = "date,a,b\n" + "\n".join(rows) + "\n"
        p_full, p_gap = tmp_path / "full.csv", tmp_path / "gap.csv"
        p_full.write_text(text, encoding="utf-8")
        p_gap.write_text(text.replace("2020-01-04,104", "2020-01-04,"), encoding="utf-8")
        assert run_cli("ingest", "-i", str(p_gap), "-o", str(tmp_path / "gap"),
                       "--no-interpolate") == 2
        assert capsys.readouterr().err == (
            "error: input has missing prices and interpolation is disabled\n")
        assert not list((tmp_path / "gap").glob("*"))
        # without gaps the flag changes nothing
        assert run_cli("ingest", "-i", str(p_full), "-o", str(tmp_path / "off"),
                       "--no-interpolate") == 0
        assert run_cli("ingest", "-i", str(p_full), "-o", str(tmp_path / "on")) == 0
        for artifact in ("prices_clean.csv", "returns.csv"):
            assert (tmp_path / "off" / artifact).read_bytes() == \
                (tmp_path / "on" / artifact).read_bytes(), artifact

    def test_unitroot_constant_model(self, tmp_path):
        prices, _ = synth_prices(tmp_path)
        assert run_cli("ingest", "-i", str(prices), "-o", str(tmp_path / "ing")) == 0
        p_ret = tmp_path / "ing" / "returns.csv"
        assert run_cli("unitroot", "--returns", str(p_ret), "--model", "constant",
                       "-o", str(tmp_path / "out")) == 0
        table1 = json.loads((tmp_path / "out" / "table1.json").read_text(encoding="utf-8"))
        assert table1["model"] == "constant"
        assert table1["critical_values"]["1%"] == -2.57
        returns = read_returns_csv(p_ret)
        for j, row in enumerate(table1["columns"]):
            oracle = adf_gls(returns.values[:, j], model="constant")
            assert (row["adf_gls"], row["lags"]) == (oracle.statistic, oracle.selected_lag)

    def test_var_with_a_zero_return_column_exit_code_3(self, tmp_path, capsys):
        # a constant price is an all-zero return column: the HAC covariance leaves
        # it out, and the constancy test's moment matrix is singular
        a = 100.0 * np.exp(np.cumsum(np.random.default_rng(0).normal(0, 0.01, size=300)))
        dates = np.datetime64("2000-01-03") + np.arange(300)
        p = tmp_path / "prices.csv"
        p.write_text("date,a,b\n" + "".join(f"{d},{float(v)!r},100.0\n" for d, v in zip(dates, a)),
                     encoding="utf-8")
        assert run_cli("ingest", "-i", str(p), "-o", str(tmp_path / "ing")) == 0
        assert run_cli("var", "--returns", str(tmp_path / "ing" / "returns.csv"), "--q", "1",
                       "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == "error: singular moment outer-product matrix\n"
        assert not list((tmp_path / "out").glob("table2.*"))

    def test_var_near_collinear_lags_exit_code_3(self, tmp_path, capsys):
        # b = 3a up to 1e-11 noise: the lag design is collinear to working
        # precision, as the TV-VAR's check finds too, so Table 2 is not written
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.01, size=300)
        values = np.column_stack([a, 3.0 * a + 1e-11 * rng.normal(size=300)])
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(300),
                                              values=values, labels=("a", "b")))
        assert run_cli("var", "--returns", str(p_ret), "--q", "1",
                       "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == "error: rank-deficient regressor matrix (rank 2 < 3)\n"
        assert not list((tmp_path / "out").glob("table2.*"))
        assert run_cli("tvvar", "--returns", str(p_ret), "--q", "1",
                       "-o", str(tmp_path / "tv")) == 3
        assert capsys.readouterr().err.startswith("error: lagged returns are collinear")

    def test_var_overflowing_standard_error_exit_code_3(self, tmp_path, capsys):
        # returns near 1e150 beside returns of scale 1e-20: the fit is finite,
        # but the standard error of the small series' coefficient is not
        base = np.random.default_rng(0).normal(0, 0.01, size=(300, 2))
        p_ret = tmp_path / "returns.csv"
        write_returns_csv(p_ret, ReturnMatrix(dates=np.datetime64("2000-01-03") + np.arange(300),
                                              values=base * [1e152, 2.0**-60], labels=("a", "b")))
        assert run_cli("var", "--returns", str(p_ret), "--q", "1",
                       "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == ("error: the HAC covariance overflows: the regressors' "
                                           "scales differ too much\n")
        assert not any((tmp_path / "out").iterdir())

    def test_chained_equals_single_shot(self, tmp_path):
        prices, _ = synth_prices(tmp_path, T=200, period=100.0)
        # explicit order and settings, then q by SBIC with lam/min_run at their defaults
        for case, explicit in (("q1", {"q": 1, "lam": 1.0, "min_run": 5}), ("defaults", {})):
            single, chain = tmp_path / f"single_{case}", tmp_path / f"chain_{case}"
            cfg = {"input_path": str(prices), "output_dir": str(single),
                   "replications": 120, "coverage": 0.9, "seed": 7, **explicit}
            cfg_file = tmp_path / f"cfg_{case}.json"
            cfg_file.write_text(json.dumps(cfg))
            assert run_cli("run", "--config", str(cfg_file)) == 0

            flags = {k: ["--" + k.replace("_", "-"), str(v)] for k, v in explicit.items()}
            order, lam = flags.get("q", []), flags.get("lam", [])
            returns = ["--returns", str(chain / "returns.csv"), "-o", str(chain)]
            assert run_cli("ingest", "-i", str(prices), "-o", str(chain)) == 0
            assert run_cli("stats", *returns) == 0
            assert run_cli("unitroot", *returns) == 0
            assert run_cli("var", *returns, *order) == 0
            assert run_cli("tvvar", *returns, *order, *lam) == 0
            assert run_cli("bootstrap", *returns, *order, *lam, "--replications", "120",
                           "--coverage", "0.9", "--seed", "7") == 0
            assert run_cli("segments", "--zeta", str(chain / "zeta_path.csv"),
                           *flags.get("min_run", []), "-o", str(chain)) == 0
            assert run_cli("report", "--artifacts", str(chain),
                           "--out", str(chain / "report.txt")) == 0
            for p in single.iterdir():
                if p.name == "run_manifest.json":
                    continue
                assert p.read_bytes() == (chain / p.name).read_bytes(), (case, p.name)

    def test_bootstrap_settings_fail_before_any_stage(self, tmp_path, capsys):
        cfg = {"input_path": str(tmp_path / "prices.csv"),
               "output_dir": str(tmp_path / "out"), "replications": 100, "coverage": 0.95}
        with pytest.raises(DataError, match="too few replications"):
            PipelineConfig.from_dict(cfg)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(p)) == 2
        assert "too few replications" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("q", "2"), ("q", True), ("q_max", 8.0), ("lam", "1"), ("interpolate", 1),
        ("breakpoints", "2000-01-05"), ("price_columns", ["a", 1]), ("input_path", 3),
        ("breakpoints", ["2000-01-05", "2000-01-03"]), ("unitroot_k_max", -1),
    ])
    def test_config_value_type_fails_before_any_stage(self, tmp_path, capsys, key, value):
        cfg = {"input_path": str(tmp_path / "prices.csv"),
               "output_dir": str(tmp_path / "out"), "replications": 120, "coverage": 0.9,
               key: value}
        with pytest.raises(DataError, match=f"config key '{key}'"):
            PipelineConfig.from_dict(cfg)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(p)) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_other_than_one_rejected_before_any_stage(self, tmp_path, capsys):
        prices, _ = synth_prices(tmp_path)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"input_path": str(prices), "output_dir": str(tmp_path / "out"),
                                 "replications": 120, "coverage": 0.9, "workers": 4}))
        assert run_cli("run", "--config", str(p)) == 2
        assert capsys.readouterr().err == "error: config key 'workers' must be 1, got 4\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "bootstrap"])
    def test_workers_flag_is_a_usage_error(self, tmp_path, command):
        source = ["--config", str(tmp_path / "c.json")] if command == "run" else \
            ["--returns", str(tmp_path / "returns.csv")]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *source, "--workers", "2")
        assert exc.value.code == 1

    def test_int_accepted_where_float_declared(self):
        config = PipelineConfig.from_dict({"input_path": "p.csv", "output_dir": "out",
                                           "lam": 2, "coverage": 0.9})
        assert config.lam == 2

    def test_flag_overrides_beat_config(self, tmp_path):
        prices, _ = synth_prices(tmp_path, T=200, period=100.0)
        cfg = {"input_path": str(prices), "output_dir": str(tmp_path / "o1"),
               "q": 1, "replications": 120, "coverage": 0.9, "seed": 1, "min_run": 5}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(cfg_file),
                       "--output-dir", str(tmp_path / "o2"), "--seed", "2") == 0
        manifest = json.loads((tmp_path / "o2" / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == 2
        assert not (tmp_path / "o1").exists()

    def test_script_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "tveff.cli", "--version"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "tveff" in out.stdout
