"""Preliminary time-invariant analysis of a simulated return panel.

Selects the VAR order by the Schwarz criterion, fits the VAR, attaches
Bartlett-kernel HAC standard errors, and asks whether the coefficients
were stable at all — the cumulative-score constancy test against
random-walk drift is the motivation for moving to a time-varying model.
"""

import numpy as np

from tveff.synth import ScenarioSpec, gen_returns
from tveff.var import efficiency_degree, fit_var, hansen_lc, newey_west_cov, select_lag_sbic

###############################################################################
# Simulate a bivariate return panel whose slope coefficients drift as
# random walks -- the kind of instability the constancy test detects.

spec = ScenarioSpec(kind="randomwalk-tv", T=2000, n=2, q=1,
                    sigma_eps=0.01, sigma_v=0.0002, seed=7)
X, true_path = gen_returns(spec)
print(f"simulated {len(X)} observations of {X.n_columns} return series")

###############################################################################
# Lag order by the Schwarz criterion over a common sample.

q = select_lag_sbic(X, q_max=6)
print("selected lag order:", q)

###############################################################################
# Least-squares VAR with HAC standard errors, printed in the usual
# coefficient-over-bracketed-standard-error layout.

fit = fit_var(X, q)
hac = newey_west_cov(fit)
terms = ["const"] + [f"{lab}_lag{l}" for l in range(1, q + 1) for lab in fit.labels]
stacked = np.vstack([fit.nu[None, :]] + [Aq.T for Aq in fit.A])
print(f"\n{'':14s}" + "".join(f"{lab:>12s}" for lab in fit.labels))
for i, term in enumerate(terms):
    print(f"{term:<14s}" + "".join(f"{c:>12.4f}" for c in stacked[i]))
    print(f"{'':14s}" + "".join(f"{'[' + format(s, '.4f') + ']':>12s}" for s in hac.se[i]))
print(f"{'adj R2':<14s}" + "".join(f"{v:>12.4f}" for v in fit.adj_r2))

###############################################################################
# Parameter constancy: a large statistic says one fixed coefficient
# matrix cannot describe the whole sample.

lc = hansen_lc(fit)
print(f"\nconstancy statistic {lc.lc_statistic:.4f} with {lc.dof} moment conditions")
print(f"5% critical value {lc.critical_values['5%']:.3f} -> reject constancy: {lc.reject}")

###############################################################################
# The whole-sample efficiency degree hides the drift; the time-varying
# demos show what it averages over.

print("\nwhole-sample efficiency degree:", round(efficiency_degree(fit.A), 4))
