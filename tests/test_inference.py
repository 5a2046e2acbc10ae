import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tveff.inference
from tveff.errors import DataError
from tveff.inference import (
    BootstrapSpec,
    bootstrap_bands,
    classify_segments,
    regime_volatility,
)
from tveff.synth import ScenarioSpec, gen_returns
from tveff.tvvar import (
    EfficiencyPath,
    solve_tvvar,
    tv_efficiency_path,
    zeta_from_coefficient_stack,
)


# cells of replicated zeta: every class the total order must place
CELLS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                  st.floats(-10.0, 10.0))


def make_path(zeta, flags=None, dates=None):
    """A path dated from 2020-01-01; ``flags`` sets bands holding zeta exactly where True."""
    zeta = np.asarray(zeta, dtype=float)
    if dates is None:
        dates = np.datetime64("2020-01-01") + np.arange(zeta.shape[0])
    path = EfficiencyPath(dates=dates, zeta=zeta)
    if flags is None:
        return path
    path = path.with_bands(np.where(flags, zeta - 1.0, zeta + 1.0), zeta + 1.0)
    assert np.array_equal(path.efficient_flag, np.asarray(flags, dtype=bool))
    return path


def reference_merge(flags, min_run):
    """Spelled-out run merger: leftmost short run absorbs into its left
    neighbour (first run absorbs rightward), coalesce, repeat."""
    runs = []
    start = 0
    for i in range(1, len(flags)):
        if flags[i] != flags[start]:
            runs.append([flags[start], start, i - 1])
            start = i
    runs.append([flags[start], start, len(flags) - 1])
    while len(runs) > 1:
        short = None
        for i, (_, s, e) in enumerate(runs):
            if e - s + 1 < min_run:
                short = i
                break
        if short is None:
            break
        if short > 0:
            runs[short - 1][2] = runs[short][2]
            del runs[short]
        else:
            runs[1][1] = runs[0][1]
            del runs[0]
        i = 0
        while i + 1 < len(runs):
            if runs[i][0] == runs[i + 1][0]:
                runs[i][2] = runs[i + 1][2]
                del runs[i + 1]
            else:
                i += 1
    return [(bool(f), s, e) for f, s, e in runs]


class TestBootstrapSpec:
    def test_band_order_statistics_5000(self):
        spec = BootstrapSpec(replications=5000, coverage=0.95, seed=0)
        assert spec.band_order_statistics() == (125, 4875)

    def test_band_order_statistics_299(self):
        spec = BootstrapSpec(replications=299, coverage=0.95, seed=0)
        k_lo, k_hi = spec.band_order_statistics()
        assert (k_lo, k_hi) == (7, 292)

    @pytest.mark.parametrize("replications, expected", [
        (1000, (50, 950)), (300, (15, 285)), (100, (5, 95)),
    ])
    def test_band_order_statistics_exact_tail(self, replications, expected):
        # B*(1-0.9)/2 is an integer that floating point puts just below it
        spec = BootstrapSpec(replications=replications, coverage=0.9, seed=0)
        assert spec.band_order_statistics() == expected

    def test_too_few_replications_for_coverage(self):
        spec = BootstrapSpec(replications=150, coverage=0.95, seed=0)
        with pytest.raises(DataError, match="too few replications"):
            spec.band_order_statistics()

    def test_minimum_replications(self):
        with pytest.raises(DataError, match=">= 100"):
            BootstrapSpec(replications=99)

    def test_coverage_bounds(self):
        with pytest.raises(DataError, match="coverage"):
            BootstrapSpec(coverage=1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0"):
            BootstrapSpec(seed=-1)


class TestBootstrapBands:
    def test_reproducible_and_thread_invariant(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=120, n=2, sigma_eps=0.01, seed=1))
        spec = BootstrapSpec(replications=120, coverage=0.9, seed=9, q=1)
        ep1 = bootstrap_bands(X, spec)
        ep1b = bootstrap_bands(X, BootstrapSpec(replications=120, coverage=0.9,
                                                seed=9, q=1))
        assert np.array_equal(ep1.band_lower, ep1b.band_lower)
        assert np.array_equal(ep1.band_upper, ep1b.band_upper)

    def test_given_path_gets_the_same_bands(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=120, n=2, sigma_eps=0.01, seed=7))
        spec = BootstrapSpec(replications=120, coverage=0.9, seed=3, q=2)
        for data in (X, X.values):  # an array's path is dated by position on both routes
            own = bootstrap_bands(data, spec)
            path = tv_efficiency_path(solve_tvvar(data, q=2, lam=spec.lam))
            given = bootstrap_bands(data, spec, path=path)
            for name in ("dates", "zeta", "band_lower", "band_upper", "efficient_flag"):
                assert np.array_equal(getattr(given, name), getattr(own, name)), name
        np.testing.assert_array_equal(own.dates, np.arange(len(own)))
        with pytest.raises(DataError, match="periods"):
            bootstrap_bands(X, BootstrapSpec(replications=120, coverage=0.9, seed=3, q=1),
                            path=path)

    def test_given_path_on_a_too_short_sample_rejected(self):
        # the replications' own solves reject the sample when no solve_tvvar runs first
        X = np.random.default_rng(4).normal(size=(12, 2))  # T-q = 10 < 5*n*q = 20
        path = EfficiencyPath(dates=np.arange(10), zeta=np.zeros(10))
        with pytest.raises(DataError, match="too short"):
            bootstrap_bands(X, BootstrapSpec(replications=100, coverage=0.9, q=2), path=path)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 1e200, 10**200, 1e-200])
    def test_spec_rejects_lambda_with_no_finite_nonzero_square(self, lam):
        with pytest.raises(DataError, match="lam"):
            BootstrapSpec(replications=100, coverage=0.9, lam=lam)

    def test_band_monotonicity_in_coverage(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=150, n=1, sigma_eps=0.01, seed=2))
        wide = bootstrap_bands(X, BootstrapSpec(replications=2000, coverage=0.99,
                                                seed=3, q=1))
        narrow = bootstrap_bands(X, BootstrapSpec(replications=2000, coverage=0.95,
                                                  seed=3, q=1))
        assert (wide.band_lower <= narrow.band_lower + 1e-15).all()
        assert (wide.band_upper >= narrow.band_upper - 1e-15).all()

    def test_degenerate_zero_input(self):
        ep = bootstrap_bands(np.zeros((100, 2)),
                             BootstrapSpec(replications=120, coverage=0.9, seed=0, q=1))
        np.testing.assert_array_equal(ep.zeta, 0.0)
        np.testing.assert_array_equal(ep.band_lower, 0.0)
        np.testing.assert_array_equal(ep.band_upper, 0.0)
        assert ep.efficient_flag.all()

    def test_efficient_flag_two_sided(self):
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=200, n=1, sigma_eps=0.01, seed=5))
        ep = bootstrap_bands(X, BootstrapSpec(replications=200, coverage=0.9,
                                              seed=6, q=1))
        outside = (ep.zeta < ep.band_lower) | (ep.zeta > ep.band_upper)
        np.testing.assert_array_equal(ep.efficient_flag, ~outside)

    def test_zeta_once_per_replication(self, monkeypatch):
        # the replication loop calls zeta through this module global, where
        # the benchmark's per-layer trace times it
        calls = []

        def counted(A_stack):
            calls.append(A_stack.shape)
            return zeta_from_coefficient_stack(A_stack)

        monkeypatch.setattr(tveff.inference, "zeta_from_coefficient_stack", counted)
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=120, n=2, sigma_eps=0.01, seed=8))
        spec = BootstrapSpec(replications=100, coverage=0.9, seed=2, q=2)
        path = tv_efficiency_path(solve_tvvar(X, q=2, lam=spec.lam))
        bootstrap_bands(X, spec, path=path)
        assert calls == [(118, 2, 2, 2)] * 100

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_band_order_statistics_match_full_sort(self, data):
        # the replicated rows streamed through the tail buffer give the
        # order statistics of the full (B, m) array; NaN orders after +inf,
        # as in np.sort
        B = data.draw(st.integers(100, 300))
        m = data.draw(st.integers(1, 3))
        coverage = data.draw(st.sampled_from([0.9, 0.6, 0.02]))
        zstar = data.draw(hnp.arrays(np.float64, (B, m), elements=CELLS, fill=st.nothing()))
        spec = BootstrapSpec(replications=B, coverage=coverage, q=1)
        k_lo, k_hi = spec.band_order_statistics()
        full = np.sort(zstar, axis=0)
        path = EfficiencyPath(dates=np.arange(m), zeta=np.zeros(m))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tveff.inference, "_replicated_zeta",
                       lambda values, spec: iter(zstar.copy()))
            ep = bootstrap_bands(np.zeros((m + 1, 1)), spec, path=path)
        assert np.array_equal(ep.band_lower, full[k_lo - 1], equal_nan=True)
        assert np.array_equal(ep.band_upper, full[k_hi - 1], equal_nan=True)

    def test_peak_memory_below_a_quarter_of_the_replication_array(self):
        # the replicated zeta are never held as one (B, m) array
        B, m = 2000, 500
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=m + 1, n=2, sigma_eps=0.01, seed=4))
        spec = BootstrapSpec(replications=B, coverage=0.95, seed=1, q=1)
        path = tv_efficiency_path(solve_tvvar(X, q=1, lam=spec.lam))
        tracemalloc.start()
        try:
            bootstrap_bands(X, spec, path=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < B * m * 8 / 4, peak  # measured: 1.4 MB


class TestKeepTails:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_chunks_match_full_sort(self, data):
        # rows fed through the reducer in chunks of random sizes and order
        # keep exactly the k_lo smallest and B - k_hi + 1 largest per column
        B = data.draw(st.integers(100, 400))
        m = data.draw(st.integers(1, 3))
        # 0.001: 2 * k_lo + 1 is B or B - 1, so the tails are nearly all rows
        coverage = data.draw(st.one_of(st.sampled_from([0.9, 0.001]),
                                       st.floats(1e-4, 0.9)))
        zstar = data.draw(hnp.arrays(np.float64, (B, m), elements=CELLS, fill=st.nothing()))
        sizes = data.draw(st.lists(st.integers(1, 150), min_size=1, max_size=12))
        edges = [0]
        while edges[-1] < B:
            edges.append(min(B, edges[-1] + sizes[(len(edges) - 1) % len(sizes)]))
        order = data.draw(st.permutations(range(len(edges) - 1)))
        k_lo, k_hi = BootstrapSpec(replications=B, coverage=coverage).band_order_statistics()
        n_hi = B - k_hi + 1
        kept = zstar[:0]
        for c in order:
            kept = tveff.inference._keep_tails(
                np.concatenate([kept, zstar[edges[c]:edges[c + 1]]]), k_lo, n_hi)
        full = np.sort(zstar, axis=0)
        assert kept.shape == (k_lo + n_hi, m)
        assert np.array_equal(kept[k_lo - 1], full[k_lo - 1], equal_nan=True)
        assert np.array_equal(kept[k_lo], full[k_hi - 1], equal_nan=True)
        assert np.array_equal(np.sort(kept[:k_lo], axis=0), full[:k_lo], equal_nan=True)
        assert np.array_equal(np.sort(kept[k_lo:], axis=0), full[k_hi - 1:], equal_nan=True)


def null_pseudo_sample(values, stream):
    """The pseudo-sample a replication draws from ``stream``, spelled out."""
    mean = values.mean(axis=0)
    idx = np.random.default_rng(stream).integers(0, values.shape[0], size=values.shape[0])
    return mean[None, :] + (values - mean)[idx]


class TestNullReplications:
    @pytest.mark.parametrize("seed,b", [(0, 0), (0, 999), (7, 3), (12345, 4999), (2**40, 17)])
    def test_stream_on_demand_equals_spawned_child(self, seed, b):
        spawned = np.random.SeedSequence(seed).spawn(b + 1)[b]
        direct = np.random.SeedSequence(seed, spawn_key=(b,))
        assert np.array_equal(direct.generate_state(8), spawned.generate_state(8))
        assert np.array_equal(np.random.default_rng(direct).integers(0, 2**62, size=16),
                              np.random.default_rng(spawned).integers(0, 2**62, size=16))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])  # n = 4 takes the SVD route
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("zero_series", [False, True])  # True: the anchor branch
    def test_rows_equal_full_refits(self, n, q, zero_series):
        T = 5 * n * q + q + 25
        values = 0.01 * np.random.default_rng([n, q]).standard_normal((T, n))
        if zero_series:
            values[:, -1] = 0.0
        spec = BootstrapSpec(replications=100, seed=n + 10 * q, lam=0.7, q=q)
        streams = np.random.SeedSequence(spec.seed).spawn(spec.replications)
        rows = list(tveff.inference._replicated_zeta(values, spec))
        assert len(rows) == spec.replications
        for b, stream in enumerate(streams):
            fit = solve_tvvar(null_pseudo_sample(values, stream), q, spec.lam)
            assert np.array_equal(rows[b], zeta_from_coefficient_stack(fit.A_path),
                                  equal_nan=True), b


class TestClassifySegments:
    def test_all_efficient_single_segment(self):
        path = make_path(np.full(30, 0.1), flags=np.ones(30, bool))
        segs = classify_segments(path, min_run=5)
        assert len(segs) == 1
        assert segs[0].label == "efficient"
        assert segs[0].start_index == 0 and segs[0].end_index == 29

    def test_min_run_one_keeps_all_runs(self):
        flags = [True, True, False, True, True]
        path = make_path(np.full(5, 0.1), flags=flags)
        segs = classify_segments(path, min_run=1)
        assert [s.label for s in segs] == ["efficient", "inefficient", "efficient"]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 9)), max_size=14),
           st.integers(1, 130))
    @example([], 1)  # no periods
    @example([(True, 12)], 5)  # all equal
    @example([(False, 3), (False, 4)], 2)
    @example([(True, 2), (False, 3), (True, 1)], 10)  # min_run above m
    @example([(False, 1), (True, 1), (False, 1), (True, 6), (False, 2)], 3)
    def test_matches_reference_merger_on_random_flags(self, runs, min_run):
        flags = [flag for flag, length in runs for _ in range(length)]
        path = make_path(np.linspace(0.0, 1.0, len(flags)), flags=flags)
        got = [(s.label == "efficient", s.start_index, s.end_index)
               for s in classify_segments(path, min_run=min_run)]
        assert got == (reference_merge(flags, min_run) if flags else [])

    def test_alternating_with_min_run_three(self):
        flags = [True, False, True, False, True, True, True, False, False, False]
        path = make_path(np.linspace(0, 1, 10), flags=flags)
        segs = classify_segments(path, min_run=3)
        ref = reference_merge(flags, 3)
        got = [(s.label == "efficient", s.start_index, s.end_index) for s in segs]
        assert got == ref

    def test_requires_bands(self):
        path = make_path(np.full(10, 0.1))
        with pytest.raises(DataError, match="bands"):
            classify_segments(path, min_run=2)

    def test_mean_zeta_per_segment(self):
        zeta = np.array([0.1, 0.2, 0.3, 1.0, 1.2, 1.4])
        flags = [True, True, True, False, False, False]
        segs = classify_segments(make_path(zeta, flags=flags), min_run=2)
        assert abs(segs[0].mean_zeta - 0.2) < 1e-14
        assert abs(segs[1].mean_zeta - 1.2) < 1e-14


class TestRegimeVolatility:
    def test_constant_path_zero_sd(self):
        path = make_path(np.full(40, 0.25), flags=np.ones(40, bool))
        summary = regime_volatility(path, [str(path.dates[20])])
        np.testing.assert_allclose(summary.sd, 0.0, atol=1e-15)

    def test_two_regimes_hand_values(self):
        zeta = np.array([0.0, 0.0, 0.0, 1.0, 3.0])
        path = make_path(zeta, flags=np.ones(5, bool))
        summary = regime_volatility(path, [str(path.dates[3])])
        assert abs(summary.sd[0] - 0.0) < 1e-15
        assert abs(summary.sd[1] - np.sqrt(2.0)) < 1e-15

    def test_four_interior_breakpoints_five_regimes(self):
        rng = np.random.default_rng(12)
        path = make_path(rng.random(100), flags=np.ones(100, bool))
        bps = [str(path.dates[i]) for i in (20, 40, 60, 80)]
        summary = regime_volatility(path, bps)
        assert summary.sd.shape == (5,)
        assert summary.counts.sum() == 100

    def test_four_breakpoints_from_start_four_regimes(self):
        # a breakpoint on the first date starts regime one, so four
        # breakpoints render exactly four regime rows
        rng = np.random.default_rng(15)
        path = make_path(rng.random(100), flags=np.ones(100, bool))
        bps = [str(path.dates[i]) for i in (0, 30, 60, 85)]
        summary = regime_volatility(path, bps)
        assert summary.sd.shape == (4,)
        assert summary.counts.sum() == 100

    def test_breakpoint_outside_sample(self):
        path = make_path(np.random.default_rng(13).random(10), flags=np.ones(10, bool))
        with pytest.raises(DataError, match="outside"):
            regime_volatility(path, ["2030-01-01"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=25, unique=True),
           st.lists(st.integers(0, 40), max_size=6, unique=True))
    @example([0, 1, 2, 3, 4, 5], [0, 5])  # on the first and on the last date
    @example(list(range(10)), [3, 4, 5])  # on consecutive dates
    @example([0], [0])
    @example([0, 5, 10], [2, 3])  # two breakpoints between neighbouring dates
    @example([0, 5, 10], [10])
    def test_counts_match_date_comparisons(self, offsets, picks):
        base = np.datetime64("2020-01-01")
        dates = base + np.array(sorted(offsets))
        bps = base + np.array(sorted(p for p in picks if min(offsets) <= p <= max(offsets)), int)
        path = make_path(np.random.default_rng(len(offsets)).random(len(dates)),
                         flags=np.ones(len(dates), bool), dates=dates)
        # regime r runs from its start up to the next start; a breakpoint
        # on the first date starts regime one instead of an empty regime
        starts = [dates[0], *(b for b in bps if b > dates[0])]
        stops = [*starts[1:], dates[-1] + 1]
        expected = [int(((dates >= lo) & (dates < hi)).sum()) for lo, hi in zip(starts, stops)]
        if 0 in expected:
            with pytest.raises(DataError, match=f"regime {expected.index(0) + 1} is empty"):
                regime_volatility(path, [str(b) for b in bps])
            return
        summary = regime_volatility(path, [str(b) for b in bps])
        assert summary.counts.tolist() == expected
        assert summary.counts.sum() == len(dates)
        assert summary.starts == [dates[dates >= lo][0] for lo in starts]
        assert summary.ends == [dates[dates < hi][-1] for hi in stops]
        np.testing.assert_array_equal(summary.efficient_share, 1.0)

    def test_regimes_partition_path(self):
        rng = np.random.default_rng(14)
        path = make_path(rng.random(50), flags=np.ones(50, bool))
        summary = regime_volatility(path, [str(path.dates[17])])
        assert summary.counts.tolist() == [17, 33]
