"""Shot-count planning for statistical verification of quantum programs.

The package answers one question in several statistical dialects: how many
measurement shots does it take to tell a program's output state apart from
the state it was supposed to produce, at a given error probability?  The
core quantity is the two-state discrimination exponent; around it sit the
fidelity and trace-distance shot formulas, planners for the concrete tests
one can actually run (inverse circuit, swap circuit, chi-square on measured
distributions, binomial success counting against a noise-calibrated
baseline), and an allocator that splits a whole-program infidelity budget
across circuit blocks in proportion to their hardware-derived error weight.

Everything analytic is backed by a seedable Monte Carlo layer so each
formula can be checked against simulated truth.
"""

from .errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    InvalidState,
    NoConvergence,
    ShotBudgetError,
    ZeroBudget,
    ZeroExpectedBin,
    ZeroWeight,
)
from .states import (
    DensityMatrix,
    PureState,
    QcbResult,
    bures_angle,
    fidelity,
    fidelity_pure,
    fuchs_van_de_graaf_bounds,
    inverse_success_probability,
    load_state,
    parse_state,
    q_bounds_mixed,
    qcb_q,
    swap_acceptance,
    trace_distance,
)
from .shot_estimators import (
    Formula,
    ShotBounds,
    ShotEstimate,
    estimate,
    shots_from_q,
    shots_inverse_ideal,
    shots_swap_ideal,
)
from .stat_power import (
    BinomialPlan,
    ChiSquarePlan,
    Distribution,
    binomial_cdf,
    binomial_decision,
    binomial_rejection_threshold,
    chi2_distance,
    chisq_validity,
    lambda_noncentral,
    load_distribution,
    parse_distribution,
    shots_chisq,
    two_proportion_shots,
    w2_fidelity_attaining,
    w2_small_discrepancy,
)
from .budget import (
    BlockAllocation,
    BlockSpec,
    BudgetReport,
    HardwareRates,
    ProgramSpec,
    allocate,
    allocate_program,
    load_program_spec,
    parse_program_spec,
)
from .montecarlo import (
    McConfig,
    McResult,
    simulate_binomial_detection,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    simulate_swap_miss_rate,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineNotAboveTarget",
    "BinomialPlan",
    "BlockAllocation",
    "BlockSpec",
    "BudgetReport",
    "ChiSquarePlan",
    "DegenerateStates",
    "DensityMatrix",
    "DimensionMismatch",
    "Distribution",
    "DomainError",
    "Formula",
    "HardwareRates",
    "InvalidState",
    "McConfig",
    "McResult",
    "NoConvergence",
    "ProgramSpec",
    "PureState",
    "QcbResult",
    "ShotBounds",
    "ShotBudgetError",
    "ShotEstimate",
    "ZeroBudget",
    "ZeroExpectedBin",
    "ZeroWeight",
    "allocate",
    "allocate_program",
    "binomial_cdf",
    "binomial_decision",
    "binomial_rejection_threshold",
    "bures_angle",
    "chi2_distance",
    "chisq_validity",
    "estimate",
    "fidelity",
    "fidelity_pure",
    "fuchs_van_de_graaf_bounds",
    "inverse_success_probability",
    "lambda_noncentral",
    "load_distribution",
    "load_program_spec",
    "load_state",
    "parse_distribution",
    "parse_program_spec",
    "parse_state",
    "q_bounds_mixed",
    "qcb_q",
    "shots_chisq",
    "shots_from_q",
    "shots_inverse_ideal",
    "shots_swap_ideal",
    "simulate_binomial_detection",
    "simulate_chisq_power",
    "simulate_inverse_miss_rate",
    "simulate_swap_miss_rate",
    "swap_acceptance",
    "trace_distance",
    "two_proportion_shots",
    "w2_fidelity_attaining",
    "w2_small_discrepancy",
]
