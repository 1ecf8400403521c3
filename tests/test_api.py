import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

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


def _config(**changes):
    fields = dict(k=4, n_grid=(2,), trials=3, master_seed=0, distributions=("uniform",), estimators=("laplace",))
    return cde.ExperimentConfig(**{**fields, **changes})


_P = [0.5, 0.5]


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("n", lambda: _config(n_grid=(1.5,)), id="config-n"),
        pytest.param("k", lambda: _config(k=4.5), id="config-k"),
        pytest.param("k", lambda: _config(k=True), id="config-k-bool"),
        pytest.param("trials", lambda: _config(trials=2.0), id="config-trials"),
        pytest.param("k", lambda: cde.uniform(4.5), id="uniform-k"),
        pytest.param("n", lambda: cde.exact_expected_kl(_P, "laplace", 2.0), id="exact-n"),
        pytest.param("n", lambda: cde.exact_natural_regret(_P, 2.5), id="natural-regret-n"),
        pytest.param("n", lambda: cde.exact_class_regret(_P, "laplace", True), id="class-regret-n-bool"),
        pytest.param("n", lambda: cde.monte_carlo_regret(_P, "laplace", 2.5, 10, 0), id="monte-carlo-n"),
        pytest.param("trials", lambda: cde.monte_carlo_regret(_P, "laplace", 2, 1.5, 0), id="monte-carlo-trials"),
        pytest.param("trials", lambda: cde.monte_carlo_regret(_P, "laplace", 2, "10", 0), id="monte-carlo-trials-str"),
    ],
)
def test_sizes_must_be_whole_numbers(name, call):
    with pytest.raises(cde.InvalidParameterError, match=f"^{name} must be a whole number"):
        call()


def test_numpy_integer_sizes_are_stored_as_python_ints():
    config = _config(k=np.int64(4), n_grid=(np.int32(2), np.uint8(3)), trials=np.int64(3))
    assert [type(v) for v in (config.k, config.trials, *config.n_grid)] == [int] * 4
    record = cde.monte_carlo_regret(_P, "laplace", np.int64(2), np.int16(3), 0)
    assert type(record.n) is int and type(record.trials) is int
