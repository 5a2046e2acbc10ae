import numpy as np
import pytest

from tveff.cli import main
from tveff.errors import DataError
from tveff.synth import ScenarioSpec, gen_returns, true_zeta_path

TABLE2_A = np.array([[0.0072, 0.1740], [0.1343, 0.0188]])


class TestScenarioSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            ScenarioSpec(kind="garch", T=100)

    def test_coeff_shape_checked(self):
        with pytest.raises(DataError, match="shape"):
            ScenarioSpec(kind="constant-var", T=100, n=2, q=1,
                         coeff=np.zeros((1, 3, 3)))

    def test_explosive_constant_rejected(self):
        with pytest.raises(DataError, match="explosive"):
            gen_returns(ScenarioSpec(kind="constant-var", T=100, n=1, q=1,
                                     coeff=np.array([[[1.2]]])))

    @pytest.mark.parametrize("key,value", [
        ("sigma_v", -1.0), ("sigma_v", np.nan), ("sigma_v", np.inf),
        ("period", 0.0), ("period", -5.0), ("period", np.nan), ("period", np.inf),
        ("amplitude", np.nan), ("amplitude", np.inf),
        ("sigma_eps", 0.0), ("sigma_eps", np.nan), ("sigma_eps", np.inf),
        ("coeff", [[[np.nan]]]), ("coeff", [[[np.inf]]]),
    ])
    def test_parameter_out_of_range_rejected(self, key, value):
        with pytest.raises(DataError, match=key):
            ScenarioSpec(kind="sinusoidal-tv", T=100, **{key: value})

    @pytest.mark.parametrize("args", [
        ("--kind", "randomwalk-tv", "--sigma-v", "-1"),
        ("--kind", "randomwalk-tv", "--sigma-v", "nan"),
        ("--kind", "sinusoidal-tv", "--period", "0"),
        ("--kind", "sinusoidal-tv", "--amplitude", "nan"),
    ])
    def test_cli_exit_code_2_names_the_parameter(self, tmp_path, capsys, args):
        out = tmp_path / "p.csv"
        assert main(["synth", "--T", "300", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert args[2].removeprefix("--").replace("-", "_") in err
        assert not out.exists()


    @pytest.mark.filterwarnings("error")  # no numpy overflow warning either
    def test_cli_overflowing_price_levels_rejected(self, tmp_path, capsys):
        # 1e300-sized returns: exp of their cumulative sum is 0 or inf
        out = tmp_path / "p.csv"
        assert main(["synth", "--kind", "sinusoidal-tv", "--T", "300",
                     "--sigma-eps", "1e300", "--out", str(out)]) == 2
        assert "sigma_eps" in capsys.readouterr().err
        assert not out.exists()


class TestGenReturns:
    def test_iid_truth_is_zero(self):
        X, path = gen_returns(ScenarioSpec(kind="iid", T=200, n=2, seed=0))
        np.testing.assert_array_equal(path, 0.0)
        np.testing.assert_array_equal(true_zeta_path(path), 0.0)
        assert len(X) == 200

    def test_constant_univariate_truth(self):
        spec = ScenarioSpec(kind="constant-var", T=150, n=1, q=1,
                            coeff=np.array([[[0.5]]]), seed=1)
        _, path = gen_returns(spec)
        np.testing.assert_allclose(true_zeta_path(path), 1.0, atol=1e-12)

    def test_sinusoidal_truth_analytic(self):
        spec = ScenarioSpec(kind="sinusoidal-tv", T=1000, n=1, q=1, seed=2,
                            amplitude=0.4, period=500.0)
        _, path = gen_returns(spec)
        a_t = 0.4 * np.sin(2 * np.pi * np.arange(1, 1001) / 500.0)
        ref = np.abs(a_t / (1.0 - a_t))
        np.testing.assert_allclose(true_zeta_path(path), ref, atol=1e-12)
        assert abs(ref.max() - 2.0 / 3.0) < 1e-3  # peak ~ 0.667

    def test_determinism_and_seed_sensitivity(self):
        spec = ScenarioSpec(kind="iid", T=300, n=2, seed=42)
        X1, _ = gen_returns(spec)
        X2, _ = gen_returns(ScenarioSpec(kind="iid", T=300, n=2, seed=42))
        assert np.array_equal(X1.values, X2.values)
        X3, _ = gen_returns(ScenarioSpec(kind="iid", T=300, n=2, seed=43))
        assert not np.array_equal(X1.values, X3.values)

    def test_iid_innovation_covariance(self):
        T = 4000
        X, _ = gen_returns(ScenarioSpec(kind="iid", T=T, n=2, sigma_eps=1.0, seed=3))
        cov = X.values.T @ X.values / T
        np.testing.assert_allclose(cov, np.eye(2), atol=3.0 / np.sqrt(T))

    def test_randomwalk_paths_stay_stable(self):
        spec = ScenarioSpec(kind="randomwalk-tv", T=500, n=2, q=1,
                            sigma_v=0.01, seed=4)
        _, path = gen_returns(spec)
        for t in range(0, 500, 50):
            comp = path[t, 0]
            assert np.max(np.abs(np.linalg.eigvals(comp))) < 0.98

    def test_randomwalk_explosive_resampling_exhausted(self):
        spec = ScenarioSpec(kind="randomwalk-tv", T=2000, n=2, q=1,
                            sigma_v=0.5, seed=5)
        with pytest.raises(DataError, match="100 attempts"):
            gen_returns(spec)

    def test_path_shape(self):
        _, path = gen_returns(ScenarioSpec(kind="iid", T=100, n=3, q=2, seed=6))
        assert path.shape == (100, 2, 3, 3)


class TestTrueZetaPath:
    def test_zero_and_half(self):
        assert true_zeta_path(np.zeros((5, 1, 1, 1)))[0] == 0.0
        z = true_zeta_path(np.full((5, 1, 1, 1), 0.5))
        np.testing.assert_allclose(z, 1.0, atol=1e-12)

    def test_table2_matrix_constant_path(self):
        path = np.broadcast_to(TABLE2_A, (10, 1, 2, 2)).copy()
        z = true_zeta_path(path)
        np.testing.assert_allclose(z, 0.2057002163771213, atol=1e-10)

    def test_singular_period_flagged_nan(self):
        path = np.zeros((5, 1, 1, 1))
        path[2] = 1.0
        z = true_zeta_path(path)
        assert np.isnan(z[2]) and np.isfinite(z[[0, 1, 3, 4]]).all()

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError, match="shape"):
            true_zeta_path(np.zeros((5, 2, 2)))
