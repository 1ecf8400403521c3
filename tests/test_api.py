import contextlib
import io
import re
from pathlib import Path

import cde

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
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


def test_public_surface():
    assert len(set(cde.__all__)) == len(cde.__all__)
    for name in cde.__all__:
        assert getattr(cde, name, None) is not None, name
    assert cde.__all__ == sorted(PUBLIC_NAMES)
    # class masses are plain arrays from class_totals; their wrappers are gone
    for name in ("CombinedMass", "combined_mass", "combined_kl"):
        assert name not in cde.__all__ and not hasattr(cde, name), name
    # a sample enters only as a count vector; the symbol-sequence path is gone
    for name in ("Sample", "draw_sample", "build_profile"):
        assert name not in cde.__all__ and not hasattr(cde, name), name
    # an add-beta smoother is a (beta(0), beta(1), beta(t >= 2)) triple on its spec
    for name in ("laplace_beta", "kt_beta", "braess_sauer_beta"):
        assert name not in cde.__all__ and not hasattr(cde, name), name
    # one exception class per exit code: InvalidParameterError (3), CapacityError (4)
    for name in ("ConfigurationError", "UndefinedEstimateError"):
        assert name not in cde.__all__ and not hasattr(cde, name), name


def test_readme_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    quickstart = text[text.index("## Library quickstart") :]
    block = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert len(printed.getvalue().splitlines()) == 4
