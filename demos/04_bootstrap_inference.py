"""Confidence bands for the efficiency path, and what they classify.

The null of an efficient market fixes every slope at zero, so null
pseudo-samples are just re-drawn demeaned return vectors.  Refitting the
time-varying VAR on each replication maps out how large a fitted degree
pure noise produces; the band quantiles then classify each period.
"""

import numpy as np

from tveff.inference import BootstrapSpec, bootstrap_bands, classify_segments, regime_volatility
from tveff.synth import ScenarioSpec, gen_returns

###############################################################################
# A market that drifts in and out of efficiency.

spec = ScenarioSpec(kind="sinusoidal-tv", T=1200, n=1, q=1,
                    sigma_eps=0.03, seed=11, amplitude=0.4, period=600.0)
X, _ = gen_returns(spec)

###############################################################################
# 499 replications, 95% equal-tail bands, reproducible from one seed.

bs = BootstrapSpec(replications=499, coverage=0.95, seed=42, lam=1.0, q=1)
ep = bootstrap_bands(X, bs)

share_eff = float(np.mean(ep.efficient_flag))
print(f"share of periods classified efficient: {share_eff:.3f}")
print(f"band width around the median period:  "
      f"[{np.median(ep.band_lower):.4f}, {np.median(ep.band_upper):.4f}]")

###############################################################################
# Maximal efficient/inefficient runs; blips shorter than min_run merge
# into their neighbour.

segments = classify_segments(ep, min_run=20)
print(f"\n{len(segments)} segments:")
for s in segments:
    print(f"  {s.start} .. {s.end}  {s.label:<12s} mean zeta {s.mean_zeta:.4f}")

###############################################################################
# Volatility of the degree by sub-period: pass breakpoints that start
# each regime (four breakpoints -> four rows).

dates = ep.dates
bps = [str(dates[0]), str(dates[300]), str(dates[600]), str(dates[900])]
summary = regime_volatility(ep, bps)
print("\nregime SDs of the efficiency degree:")
for r in range(summary.sd.shape[0]):
    print(f"  regime {r + 1}: {summary.starts[r]} .. {summary.ends[r]}  "
          f"sd {summary.sd[r]:.4f}  efficient share {summary.efficient_share[r]:.2f}")
