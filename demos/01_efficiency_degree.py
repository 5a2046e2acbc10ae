"""The market-efficiency degree from VAR slope matrices.

A return series that is unpredictable from its own past has zero slope
coefficients in a VAR, so the long-run impulse response Phi(1) equals
the identity.  The efficiency degree measures how far Phi(1) drifts
from the identity, as a spectral norm.
"""

import numpy as np

from tveff.var import efficiency_degree

###############################################################################
# An efficient market: every slope matrix is zero.

A_zero = np.zeros((1, 2, 2))
print("zero slopes           -> zeta =", efficiency_degree(A_zero))

###############################################################################
# A univariate AR(1) with coefficient 0.5.  The cumulated impulse
# response is 1/(1 - 0.5) = 2, so the degree is |2 - 1| = 1.

print("univariate a = 0.5    -> zeta =", efficiency_degree(np.array([[0.5]])))

###############################################################################
# A bivariate system with mild cross-predictability: each market's
# return loads on the other market's lag.

A = np.array([[0.0072, 0.1740],
              [0.1343, 0.0188]])
S = np.eye(2) - A  # Phi(1) is its inverse
print("\nbivariate slope matrix:\n", A)
print("long-run multiplier Phi(1):\n", np.round(np.linalg.inv(S), 4))
print("condition number     ->", round(np.linalg.cond(S), 3))
print("efficiency degree    -> zeta =", round(efficiency_degree([A]), 4))

###############################################################################
# The degree grows with predictability and explodes near a unit root.

for a in (0.0, 0.2, 0.5, 0.8, 0.95):
    print(f"a = {a:4.2f} -> zeta = {efficiency_degree(np.array([[a]])):8.4f}")
