"""Discrete-distribution estimation toolkit.

Classic smoothing estimators and oracle baselines, compared under expected
KL loss via exact small-instance enumeration and seeded Monte Carlo.
"""

from .distributions import (
    DistributionSpec,
    RngSeed,
    Sample,
    draw_sample,
    make_generator,
    parse_distribution,
    sample_dirichlet,
    step,
    uniform,
    validate_distribution,
    zipf,
)
from .divergence import cross_entropy, entropy, kl
from .errors import (
    CapacityError,
    CdeError,
    ConfigurationError,
    InvalidParameterError,
    UndefinedEstimateError,
)
from .estimators import (
    EstimatorSpec,
    apply_estimator,
    braess_sauer_beta,
    kt_beta,
    laplace_beta,
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
    build_profile,
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
    "ConfigurationError",
    "DistributionSpec",
    "EstimatorSpec",
    "ExactResult",
    "ExperimentConfig",
    "InvalidParameterError",
    "RegretRecord",
    "RngSeed",
    "Sample",
    "SampleProfile",
    "UndefinedEstimateError",
    "apply_estimator",
    "braess_sauer_beta",
    "build_profile",
    "class_totals",
    "cross_entropy",
    "draw_sample",
    "entropy",
    "exact_class_regret",
    "exact_expected_kl",
    "exact_natural_regret",
    "kl",
    "kt_beta",
    "laplace_beta",
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
