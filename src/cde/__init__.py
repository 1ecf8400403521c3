"""Discrete-distribution estimation toolkit.

Classic smoothing estimators and oracle baselines, compared under expected
KL loss via exact small-instance enumeration and seeded Monte Carlo.
"""

from .distributions import (
    DistributionSpec,
    RngSeed,
    make_generator,
    parse_distribution,
    sample_dirichlet,
    step,
    uniform,
    validate_distribution,
    zipf,
)
from .divergence import cross_entropy, entropy, kl
from .errors import CapacityError, CdeError, InvalidParameterError
from .estimators import (
    EstimatorSpec,
    apply_estimator,
    parse_estimator,
)
from .oracle import (
    ExactResult,
    exact_class_regret,
    exact_expected_kl,
    exact_natural_regret,
)
from .profile import (
    SampleProfile,
    class_totals,
    profile_from_counts,
)
from .simulation import (
    ExperimentConfig,
    RegretRecord,
    monte_carlo_regret,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CdeError",
    "DistributionSpec",
    "EstimatorSpec",
    "ExactResult",
    "ExperimentConfig",
    "InvalidParameterError",
    "RegretRecord",
    "RngSeed",
    "SampleProfile",
    "apply_estimator",
    "class_totals",
    "cross_entropy",
    "entropy",
    "exact_class_regret",
    "exact_expected_kl",
    "exact_natural_regret",
    "kl",
    "make_generator",
    "monte_carlo_regret",
    "parse_distribution",
    "parse_estimator",
    "profile_from_counts",
    "run_experiment",
    "sample_dirichlet",
    "step",
    "uniform",
    "validate_distribution",
    "zipf",
]
