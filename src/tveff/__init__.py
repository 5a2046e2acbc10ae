"""Time-varying market efficiency measurement for multivariate returns.

Estimates a vector autoregression whose slope coefficients follow
independent random walks and summarizes predictability per period as the
spectral norm of the deviation of the long-run impulse response from the
identity.  Residual-bootstrap bands under the no-predictability null
classify each period as efficient or not.
"""

__version__ = "0.1.0"
