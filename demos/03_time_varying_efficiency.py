"""Tracking a moving efficiency degree with the time-varying VAR.

The slope coefficients follow independent random walks; estimating them
all at once is a single banded least-squares problem, so the whole path
comes out of one factorization.  Here the true predictability oscillates
and the fitted path follows it.
"""

import numpy as np

from tveff.synth import ScenarioSpec, gen_returns, true_zeta_path
from tveff.tvvar import solve_tvvar, tv_efficiency_path

###############################################################################
# Returns whose AR(1) coefficient swings between -0.4 and 0.4 every 250
# observations.  The true degree |a/(1-a)| peaks at 0.667.

spec = ScenarioSpec(kind="sinusoidal-tv", T=1500, n=1, q=1,
                    sigma_eps=0.03, seed=3, amplitude=0.4, period=500.0)
X, path = gen_returns(spec)
zeta_true = true_zeta_path(path)[spec.q:]

###############################################################################
# One banded solve per equation; lam is the ratio of observation noise
# to coefficient-innovation noise (bigger = smoother path).

fit = solve_tvvar(X, q=1, lam=1.0)
ep = tv_efficiency_path(fit)
print("solver diagnostics:", {k: round(v, 3) if isinstance(v, float) else v
                              for k, v in fit.diagnostics.items()})

corr = np.corrcoef(ep.zeta, zeta_true)[0, 1]
print(f"correlation between fitted and true efficiency path: {corr:.3f}")

###############################################################################
# A coarse text chart: fitted (*) against truth (.) every 30 periods.

scale = 40
print("\n     t  fitted path (*) vs truth (.)")
for t in range(0, len(ep), 30):
    line = [" "] * (scale + 1)
    jt = min(scale, int(zeta_true[t] * scale))
    jf = min(scale, int(ep.zeta[t] * scale))
    line[jt] = "."
    line[jf] = "*"
    print(f"{t:6d}  |{''.join(line)}|")

###############################################################################
# Smoothness is monotone in lam: more weight on the random-walk penalty
# can only flatten the fitted coefficient path.

for lam in (0.5, 1.0, 5.0, 50.0):
    A_path = solve_tvvar(X, q=1, lam=lam).A_path
    s = np.sum(np.diff(A_path, axis=0) ** 2)
    print(f"lam = {lam:5.1f} -> sum of squared coefficient increments = {s:.6f}")
