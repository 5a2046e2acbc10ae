"""The full CSV-to-report pipeline, including gap repair.

Everything here is also reachable from the command line; the equivalent
subcommands are shown in comments.  The run manifest written at the end
reproduces every artifact byte-for-byte.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from tveff.pipeline import PipelineConfig, emit_report, run_pipeline
from tveff.series import descriptive_stats, interpolate_missing, load_csv, log_returns
from tveff.synth import ScenarioSpec, gen_returns
from tveff.unitroot import adf_gls

workdir = Path(tempfile.mkdtemp(prefix="tveff_demo_"))

###############################################################################
# Fabricate a dated price CSV with a few interior gaps, the shape the
# ingest step expects.  (CLI: tveff synth --kind sinusoidal-tv ...)

returns, _ = gen_returns(ScenarioSpec(kind="sinusoidal-tv", T=600, n=2, q=1,
                                      sigma_eps=0.02, seed=21,
                                      amplitude=0.3, period=300.0))
levels = 100.0 * np.exp(np.vstack([np.zeros(2), np.cumsum(returns.values, axis=0)]))
dates = np.concatenate([[returns.dates[0] - np.timedelta64(1, "D")], returns.dates])

rng = np.random.default_rng(0)
gaps = set(map(int, rng.integers(5, len(dates) - 5, size=12)))
rows = ["date,second_nearest,deferred"]
for i in range(levels.shape[0]):
    cells = [repr(float(levels[i, j])) if (i not in gaps or j != i % 2) else ""
             for j in range(2)]
    rows.append(f"{dates[i]},{cells[0]},{cells[1]}")
prices_csv = workdir / "prices.csv"
prices_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
print("wrote", prices_csv)

###############################################################################
# Ingest by hand first: spline gap repair, log returns, unit-root check.
# (CLI: tveff ingest / stats / unitroot)

series = load_csv(prices_csv)
print(f"loaded {len(series)} rows, {int(series.missing_mask.sum())} missing cells")
series = interpolate_missing(series)
X = log_returns(series)
stats = descriptive_stats(X)
for j, lab in enumerate(stats.labels):
    t = adf_gls(X.values[:, j], model="trend", k_max=8)
    print(f"{lab}: mean {stats.mean[j]:+.5f} sd {stats.sd[j]:.5f}  "
          f"unit-root stat {t.statistic:.2f} (lags {t.selected_lag}) "
          f"-> {'stationary' if t.rejects_at('1%') else 'cannot reject unit root'}")

###############################################################################
# Or let the orchestrator run every stage and write the artifacts.
# (CLI: tveff run --config config.json)

config = PipelineConfig.from_dict({
    "input_path": str(prices_csv),
    "output_dir": str(workdir / "out"),
    "unitroot_k_max": 8,
    "q": 1,
    "replications": 200,
    "coverage": 0.95,
    "seed": 9,
    "min_run": 15,
})
result = run_pipeline(config)
print(f"\npipeline wrote {len(result.artifacts)} artifacts, "
      f"{len(result.segments)} efficiency segments")

manifest = json.loads((workdir / "out" / "run_manifest.json").read_text())
print("manifest seed/replications:", manifest["config"]["seed"],
      manifest["config"]["replications"])

###############################################################################
# The text report renders the descriptive table, the VAR table and the
# efficiency summary.  (CLI: tveff report --artifacts out/)

print("\n" + emit_report(workdir / "out"))
