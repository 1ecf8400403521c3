import cde

PUBLIC_NAMES = [
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


def test_public_surface():
    assert len(set(cde.__all__)) == len(cde.__all__)
    for name in cde.__all__:
        assert getattr(cde, name, None) is not None, name
    assert cde.__all__ == sorted(PUBLIC_NAMES)
    # class masses are plain arrays from class_totals; their wrappers are gone
    for name in ("CombinedMass", "combined_mass", "combined_kl"):
        assert name not in cde.__all__ and not hasattr(cde, name), name
