"""Numerical tolerances shared by the implementation and its tests.

Kept in one place so an implementation change and its test cannot drift
apart silently.  All values are absolute unless the name says otherwise.
"""

# Hermiticity check: max |H - H^dagger| element allowed.
HERMITICITY_ATOL = 1e-10

# Eigenvalues in [PSD_CLAMP_FLOOR, 0] are clamped to 0; below it is an error.
PSD_CLAMP_FLOOR = -1e-10

# Density matrix validation.
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10

# Regularized incomplete gamma: relative accuracy and iteration budget.
GAMMA_RTOL = 1e-12
GAMMA_MAX_ITER = 10_000

# Golden-section interval tolerance for the Chernoff exponent search.
QCB_S_TOL = 1e-10

# Fidelity / Q may drift past 1 by at most this much before it is an error.
UNIT_INTERVAL_SLACK = 1e-9

# Increasing-function root solver: bracket width target and doubling budget.
ROOT_RTOL = 1e-9
ROOT_MAX_DOUBLINGS = 128
ROOT_MAX_BISECTIONS = 200

# Noncentral chi-square CDF: Poisson mixture tail mass dropped.
POISSON_TAIL = 1e-12

# Distribution file normalization slack.
DISTRIBUTION_SUM_ATOL = 1e-8

# Shot counts above this are reported as infeasible to schedule.
MAX_SCHEDULABLE_SHOTS = 2**63
