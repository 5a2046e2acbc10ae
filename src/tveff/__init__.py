"""Time-varying market efficiency measurement for multivariate returns.

Estimates a vector autoregression whose slope coefficients follow
independent random walks and summarizes predictability per period as the
spectral norm of the deviation of the long-run impulse response from the
identity.  Residual-bootstrap bands under the no-predictability null
classify each period as efficient or not.
"""

__version__ = "0.1.0"

from .errors import DataError, NumericalError
from .series import (
    PriceSeries,
    ReturnMatrix,
    StatsSummary,
    descriptive_stats,
    interpolate_missing,
    load_csv,
    log_returns,
)
from .unitroot import AdfGlsResult, adf_gls, gls_detrend, mbic_lag_select
from .var import (
    ConstancyTest,
    HacCovariance,
    VarFit,
    efficiency_degree,
    fit_var,
    hansen_lc,
    newey_west_cov,
    select_lag_sbic,
)
from .tvvar import (
    EfficiencyPath,
    StackedSystem,
    TvVarFit,
    build_stacked_system,
    solve_tvvar,
    tv_efficiency_path,
)
from .inference import (
    BootstrapSpec,
    RegimeSummary,
    Segment,
    bootstrap_bands,
    classify_segments,
    regime_volatility,
)
from .synth import ScenarioSpec, gen_returns, true_zeta_path
from .pipeline import PipelineConfig, emit_report, plot_data, run_pipeline

__all__ = [
    "__version__",
    "DataError",
    "NumericalError",
    "PriceSeries",
    "ReturnMatrix",
    "StatsSummary",
    "descriptive_stats",
    "interpolate_missing",
    "load_csv",
    "log_returns",
    "AdfGlsResult",
    "adf_gls",
    "gls_detrend",
    "mbic_lag_select",
    "ConstancyTest",
    "HacCovariance",
    "VarFit",
    "efficiency_degree",
    "fit_var",
    "hansen_lc",
    "newey_west_cov",
    "select_lag_sbic",
    "EfficiencyPath",
    "StackedSystem",
    "TvVarFit",
    "build_stacked_system",
    "solve_tvvar",
    "tv_efficiency_path",
    "BootstrapSpec",
    "RegimeSummary",
    "Segment",
    "bootstrap_bands",
    "classify_segments",
    "regime_volatility",
    "ScenarioSpec",
    "gen_returns",
    "true_zeta_path",
    "PipelineConfig",
    "emit_report",
    "plot_data",
    "run_pipeline",
]
