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

Importing the package loads no numpy.  The numpy-backed submodules `rng`,
`states` and `montecarlo` are lazy: their code runs on first attribute
access.  So is `budget`, which needs no numpy, but running it takes ~1.3 ms
that every command not budgeting would pay.  The public names resolve on
first access too (PEP 562), so the shot formulas, the chi-square and
binomial planners and the budget allocator run on the standard library alone.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors, shot_estimators, stat_power  # numpy-free, so imported eagerly

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": "BaselineNotAboveTarget DegenerateStates DimensionMismatch DomainError InvalidState "
              "NoConvergence ShotBudgetError ZeroBudget ZeroExpectedBin ZeroWeight",
    "states": "DensityMatrix PureState QcbResult fidelity fidelity_pure "
              "fuchs_van_de_graaf_bounds load_state parse_state q_bounds_mixed qcb_q trace_distance",
    "shot_estimators": "Formula ShotBounds ShotEstimate estimate shots_inverse_ideal shots_swap_ideal",
    "stat_power": "BinomialPlan ChiSquarePlan Distribution binomial_cdf binomial_decision "
                  "binomial_rejection_threshold chi2_distance chisq_noncentrality chisq_validity "
                  "lambda_noncentral load_distribution parse_distribution shots_chisq two_proportion_shots "
                  "w2_fidelity_attaining w2_small_discrepancy",
    "budget": "BlockAllocation BlockSpec BudgetReport HardwareRates ProgramSpec allocate "
              "allocate_program bures_angle load_program_spec parse_program_spec",
    "montecarlo": "McConfig McResult simulate_binomial_detection simulate_chisq_power "
                  "simulate_inverse_miss_rate simulate_swap_miss_rate",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOMES)


def _lazy(name: str):
    """Register submodule `name` in sys.modules without running its code;
    the first attribute access runs it."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rng, states, budget, montecarlo = map(_lazy, ("rng", "states", "budget", "montecarlo"))


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOMES[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
