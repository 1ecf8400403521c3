import math

import numpy as np
import pytest

import cde.simulation
from cde import (
    ConfigurationError,
    ExperimentConfig,
    InvalidParameterError,
    exact_expected_kl,
    monte_carlo_regret,
    run_experiment,
    uniform,
)

from support import random_distribution


def test_same_seed_gives_bit_identical_record():
    p = uniform(4)
    a = monte_carlo_regret(p, "competitive", 8, 300, 99)
    b = monte_carlo_regret(p, "competitive", 8, 300, 99)
    assert a == b
    c = monte_carlo_regret(p, "competitive", 8, 300, 100)
    assert c.mean_kl != a.mean_kl


def test_empirical_every_trial_infinite():
    record = monte_carlo_regret([0.5, 0.5], "empirical", 1, 50, 5)
    assert math.isinf(record.mean_kl)
    assert record.inf_trials == 50
    assert record.stderr == 0.0


def test_mean_infinite_iff_inf_trials():
    finite = monte_carlo_regret([0.5, 0.5], "laplace", 1, 50, 5)
    assert not math.isinf(finite.mean_kl)
    assert finite.inf_trials == 0
    assert finite.stderr >= 0.0


def test_monte_carlo_matches_exact_laplace():
    exact = exact_expected_kl([0.5, 0.5], "laplace", 1).expected_kl
    record = monte_carlo_regret([0.5, 0.5], "laplace", 1, 100_000, 7)
    # this cell has zero variance (both count vectors give the same loss),
    # so allow summation rounding on top of the stderr band
    assert abs(record.mean_kl - exact) <= 3 * record.stderr + 1e-12
    assert exact == pytest.approx(0.058891, abs=1e-6)


def test_monte_carlo_oracle_agreement_cells():
    rng = np.random.default_rng(1212)
    for case in range(3):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        name = ("laplace", "competitive", "best-natural")[case]
        p = random_distribution(rng, k)
        exact = exact_expected_kl(p, name, n).expected_kl
        record = monte_carlo_regret(p, name, n, 20_000, 400 + case)
        assert abs(record.mean_kl - exact) <= max(4 * record.stderr, 1e-12)


def test_memo_cell_builds_one_profile_per_count_vector(monkeypatch):
    built = []
    real = cde.simulation.profile_from_counts

    def counting(counts):
        built.append(counts.tobytes())
        return real(counts)

    monkeypatch.setattr(cde.simulation, "profile_from_counts", counting)
    monte_carlo_regret([0.3, 0.7], "laplace", 3, 400, 5)
    # two symbols and n = 3 leave four count vectors
    assert len(built) == len(set(built)) <= 4


def test_negative_n_is_invalid_parameter():
    with pytest.raises(InvalidParameterError):
        monte_carlo_regret([0.5, 0.5], "laplace", -5, 10, 1)
    config = ExperimentConfig(
        k=3, n_grid=(-1,), trials=5, master_seed=0,
        distributions=("dir1",), estimators=("laplace",),
    )
    with pytest.raises(InvalidParameterError):
        run_experiment(config)


def test_run_experiment_shape_order_and_rerun():
    config = ExperimentConfig(
        k=6,
        n_grid=(3, 9),
        trials=25,
        master_seed=11,
        distributions=("uniform", "zipf1"),
        estimators=("laplace", "competitive"),
    )
    records = run_experiment(config)
    assert len(records) == 8
    expected_order = [
        (d, e, n)
        for d in ("uniform", "zipf1")
        for e in ("laplace", "competitive")
        for n in (3, 9)
    ]
    assert [(r.distribution, r.estimator, r.n) for r in records] == expected_order
    assert records == run_experiment(config)
    for r in records:
        assert r.stderr >= 0.0
        assert math.isinf(r.mean_kl) == (r.inf_trials > 0)
        assert r.mean_kl >= 0.0


def test_single_cell_config_matches_direct_call():
    config = ExperimentConfig(
        k=5,
        n_grid=(6,),
        trials=40,
        master_seed=21,
        distributions=("uniform",),
        estimators=("kt",),
    )
    [from_grid] = run_experiment(config)
    direct = monte_carlo_regret(uniform(5), "kt", 6, 40, 21, label="uniform")
    assert from_grid == direct


def test_best_natural_dominates_on_shared_samples():
    config = ExperimentConfig(
        k=8,
        n_grid=(4, 12),
        trials=60,
        master_seed=33,
        distributions=("zipf1", "step"),
        estimators=("laplace", "kt", "braess-sauer", "competitive", "best-natural"),
    )
    records = {(r.distribution, r.estimator, r.n): r for r in run_experiment(config)}
    for d in ("zipf1", "step"):
        for n in (4, 12):
            floor = records[(d, "best-natural", n)].mean_kl
            for e in ("laplace", "kt", "braess-sauer", "competitive"):
                assert records[(d, e, n)].mean_kl >= floor - 1e-12


def test_thread_count_does_not_change_records():
    config = ExperimentConfig(
        k=12,
        n_grid=(5, 15),
        trials=50,
        master_seed=13,
        distributions=("uniform", "dir0.5"),
        estimators=("laplace", "competitive", "best-natural"),
    )
    assert run_experiment(config, workers=1) == run_experiment(config, workers=4)


def test_prior_cells_redraw_by_default():
    base = dict(
        k=4,
        n_grid=(3,),
        trials=30,
        master_seed=17,
        distributions=("dir1",),
        estimators=("laplace",),
    )
    redraw = run_experiment(ExperimentConfig(**base))
    fixed = run_experiment(ExperimentConfig(**base, redraw_prior_per_trial=False))
    assert redraw != fixed  # different protocols, same seed
    assert fixed == run_experiment(ExperimentConfig(**base, redraw_prior_per_trial=False))


def test_oracle_estimators_see_the_per_trial_prior_draw():
    config = ExperimentConfig(
        k=4,
        n_grid=(2,),
        trials=30,
        master_seed=19,
        distributions=("dir1",),
        estimators=("best-natural", "perm-oracle", "competitive"),
    )
    records = run_experiment(config)
    assert all(not math.isinf(r.mean_kl) for r in records)


def test_config_validation():
    good = dict(
        k=3, n_grid=(1, 2), trials=5, master_seed=0,
        distributions=("uniform",), estimators=("laplace",),
    )
    ExperimentConfig(**good)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**good, "n_grid": ()})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**good, "n_grid": (3, 3)})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**good, "n_grid": (5, 2)})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{**good, "trials": 0})


def test_run_experiment_names_unknown_offenders():
    config = ExperimentConfig(
        k=3, n_grid=(2,), trials=5, master_seed=0,
        distributions=("uniform",), estimators=("laplacee",),
    )
    with pytest.raises(ConfigurationError, match="laplacee"):
        run_experiment(config)
    config = ExperimentConfig(
        k=3, n_grid=(2,), trials=5, master_seed=0,
        distributions=("unifrom",), estimators=("laplace",),
    )
    with pytest.raises(ConfigurationError, match="unifrom"):
        run_experiment(config)
