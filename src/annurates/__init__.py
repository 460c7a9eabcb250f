"""Accumulated values of annuities-due under fixed and random annual rates.

The fixed module prices level, increasing, decreasing, arithmetic and
geometric payment patterns at a deterministic rate.  The moments module
gives the exact mean, second moment and variance of the accumulated value
when the annual rates are independent draws with a common mean and
variance, via both closed forms and recursions.  The oracle module checks
either against exact enumeration and Monte Carlo simulation.
"""

from .errors import (
    DomainError,
    EnumerationBudgetError,
    FormulaAuditError,
    NumericalFailureError,
    PaymentPositivityError,
    ShapeMismatchError,
)
from .fixed import (
    arithmetic_due,
    decreasing_due,
    geometric_due,
    growth_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .identities import (
    IdentityResult,
    fixed_identity_suite,
    run_identity_suites,
    specialization_suite,
    stochastic_identity_suite,
)
from .moments import (
    DecreasingMoments,
    GrowthMoments,
    IncreasingMoments,
    LevelMoments,
    MomentSeries,
    PaymentPlan,
    decreasing_moments,
    growth_moments,
    increasing_moments,
    level_moments,
    mean_closed,
    mean_series,
    mean_squared_closed,
    moment_series,
    second_moment_closed,
    second_moment_cross,
    second_moment_diagonal,
    second_moment_series,
    variance_closed,
    variance_series,
)
from .oracle import (
    ENUMERATION_MAX_HORIZON,
    EnumerationResult,
    MomentComparison,
    OracleReport,
    RateDistribution,
    SimConfig,
    SimulationResult,
    compare,
    enumerate_exact,
    enumerate_series,
    simulate,
)
from .rates import (
    SINGULARITY_EPS,
    FixedRate,
    GeometricAux,
    StochasticRateSpec,
    fixed_rate,
    geometric_aux,
    stochastic_rate,
)

__version__ = "0.1.0"

__all__ = [
    "DecreasingMoments",
    "DomainError",
    "ENUMERATION_MAX_HORIZON",
    "EnumerationBudgetError",
    "EnumerationResult",
    "FixedRate",
    "FormulaAuditError",
    "GeometricAux",
    "GrowthMoments",
    "IdentityResult",
    "IncreasingMoments",
    "LevelMoments",
    "MomentComparison",
    "MomentSeries",
    "NumericalFailureError",
    "OracleReport",
    "PaymentPlan",
    "PaymentPositivityError",
    "RateDistribution",
    "SINGULARITY_EPS",
    "ShapeMismatchError",
    "SimConfig",
    "SimulationResult",
    "StochasticRateSpec",
    "arithmetic_due",
    "compare",
    "decreasing_due",
    "decreasing_moments",
    "enumerate_exact",
    "enumerate_series",
    "fixed_identity_suite",
    "fixed_rate",
    "geometric_aux",
    "geometric_due",
    "growth_due",
    "growth_moments",
    "increasing_due",
    "increasing_moments",
    "increasing_squared_due",
    "level_due",
    "level_moments",
    "mean_closed",
    "mean_series",
    "mean_squared_closed",
    "moment_series",
    "run_identity_suites",
    "second_moment_closed",
    "second_moment_cross",
    "second_moment_diagonal",
    "second_moment_series",
    "simulate",
    "specialization_suite",
    "stochastic_identity_suite",
    "stochastic_rate",
    "variance_closed",
    "variance_series",
]
