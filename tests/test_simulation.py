import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cde.simulation
from cde import (
    CapacityError,
    ConfigurationError,
    ExperimentConfig,
    InvalidParameterError,
    RngSeed,
    exact_expected_kl,
    make_generator,
    monte_carlo_regret,
    parse_distribution,
    parse_estimator,
    profile_from_counts,
    run_experiment,
    uniform,
    validate_distribution,
)
from cde.distributions import draw_counts
from cde.simulation import (
    _STREAM_BLOCK,
    FIXED_PRIOR_STREAM,
    MAX_SAMPLE_SIZE,
    MAX_TRIALS,
    _evaluate,
    _simulate_cell,
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


@pytest.mark.slow
def test_monte_carlo_matches_exact_laplace():
    exact = exact_expected_kl([0.5, 0.5], "laplace", 1).expected_kl
    record = monte_carlo_regret([0.5, 0.5], "laplace", 1, 100_000, 7)
    # this cell has zero variance (both count vectors give the same loss),
    # so allow summation rounding on top of the stderr band
    assert abs(record.mean_kl - exact) <= 3 * record.stderr + 1e-12
    assert exact == pytest.approx(0.058891, abs=1e-6)


@pytest.mark.slow
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


def _reference_losses(fixed_p, spec, estimators, k, n, trials, master_seed):
    """_simulate_cell's losses from one make_generator stream per trial."""
    rows = []
    for i in range(trials):
        rng = make_generator(RngSeed(master_seed, i))
        p = fixed_p if fixed_p is not None else validate_distribution(spec.realize(k, rng))
        counts = draw_counts(np.cumsum(p), n, rng)
        rows.append(_evaluate(estimators, profile_from_counts(counts), p, cde.entropy(p)))
    return np.vstack(rows)


def _fixed_prior(spec, k, master_seed):
    return spec.realize(k, make_generator(RngSeed(master_seed, FIXED_PRIOR_STREAM)))


# (fixed p, distribution spec, k, n, trials, master seed); the trial counts
# span more than one block of derived stream states.
STREAM_CELLS = {
    "memo": lambda: (np.array([0.2, 0.3, 0.5]), None, 3, 5, 600, 3100),
    "no-memo": lambda: (random_distribution(np.random.default_rng(5), 100), None, 100, 40, 300, 2**40 + 5),
    "dir0.5-redrawn": lambda: (None, parse_distribution("dir0.5"), 20, 12, 300, 7),
    "fixed-prior": lambda: (_fixed_prior(parse_distribution("dir0.5"), 20, 11), None, 20, 12, 300, 11),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cell", sorted(STREAM_CELLS))
def test_simulate_cell_matches_make_generator_streams(cell, workers):
    # `workers` copies of the cell run at once, as run_experiment runs cells
    # on its thread pool; each must match the per-trial reference.
    fixed_p, spec, k, n, trials, master_seed = STREAM_CELLS[cell]()
    assert trials > _STREAM_BLOCK
    estimators = [parse_estimator(name) for name in ("laplace", "competitive", "best-natural")]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = [
            pool.submit(_simulate_cell, fixed_p, spec, estimators, k, n, trials, master_seed)
            for _ in range(workers)
        ]
        got = [run.result() for run in runs]
    expected = _reference_losses(fixed_p, spec, estimators, k, n, trials, master_seed)
    for losses in got:
        np.testing.assert_array_equal(losses, expected)


def test_master_seed_integer_handling():
    p = [0.3, 0.7]
    with pytest.raises(InvalidParameterError, match="seed must be an unsigned 64-bit integer"):
        monte_carlo_regret(p, "laplace", 3, 10, True)
    with pytest.raises(InvalidParameterError, match="seed must be an unsigned 64-bit integer"):
        monte_carlo_regret(p, "laplace", 3, 10, -1)
    record = monte_carlo_regret(p, "laplace", 3, 10, np.int64(7))
    assert record == monte_carlo_regret(p, "laplace", 3, 10, 7)
    assert type(record.master_seed) is int
    config = ExperimentConfig(
        k=3, n_grid=(2,), trials=5, master_seed=np.uint64(9),
        distributions=("uniform",), estimators=("laplace",),
    )
    assert type(config.master_seed) is int and config.master_seed == 9
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(**{**config.__dict__, "master_seed": True})


def test_trials_cap_fails_before_any_trial(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cde.simulation, "_simulate_cell", no_cell)
    with pytest.raises(CapacityError, match="trials"):
        monte_carlo_regret([0.5, 0.5], "laplace", 2, MAX_TRIALS + 1, 0)
    with pytest.raises(CapacityError, match="trials"):
        ExperimentConfig(
            k=3, n_grid=(2,), trials=MAX_TRIALS + 1, master_seed=0,
            distributions=("uniform",), estimators=("laplace",),
        )


def test_sample_size_cap_fails_before_any_trial(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cde.simulation, "_simulate_cell", no_cell)
    with pytest.raises(CapacityError, match="sample size"):
        monte_carlo_regret([0.5, 0.5], "laplace", MAX_SAMPLE_SIZE + 1, 2, 0)
    with pytest.raises(CapacityError, match="sample size"):
        ExperimentConfig(
            k=3, n_grid=(2, MAX_SAMPLE_SIZE + 1), trials=2, master_seed=0,
            distributions=("uniform",), estimators=("laplace",),
        )


def test_negative_n_is_invalid_parameter():
    with pytest.raises(InvalidParameterError):
        monte_carlo_regret([0.5, 0.5], "laplace", -5, 10, 1)
    # the grid is checked when the config is built, before any cell runs
    with pytest.raises(InvalidParameterError, match="n must be"):
        ExperimentConfig(
            k=3, n_grid=(-1,), trials=5, master_seed=0,
            distributions=("dir1",), estimators=("laplace",),
        )


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
    # At k = 4 the fixed cells at n = 3 and 15 use the count-vector memo (20
    # and 816 count vectors) and those at n = 40 do not; dir0.5 is redrawn
    # per trial, then drawn once, and the last grid has a single cell.
    grid = dict(
        k=4,
        n_grid=(3, 15, 40),
        trials=50,
        master_seed=13,
        distributions=("uniform", "dir0.5", "zipf1"),
        estimators=("laplace", "add-beta:2.5", "competitive", "best-natural"),
    )
    configs = [
        ExperimentConfig(**grid),
        ExperimentConfig(**grid, redraw_prior_per_trial=False),
        ExperimentConfig(**{**grid, "n_grid": (7,), "distributions": ("dir1",)}),
    ]
    for config in configs:
        serial = run_experiment(config, workers=1)
        for workers in (2, 4):
            assert run_experiment(config, workers=workers) == serial, workers


@pytest.mark.parametrize("workers, distributions, n_grid, expected_sizes", [
    pytest.param(1, ("uniform", "zipf1"), (2, 4, 6), [], id="one-worker"),
    pytest.param(4, ("uniform",), (2,), [], id="one-cell"),
    pytest.param(2, ("uniform", "zipf1"), (2, 4, 6), [2], id="fewer-workers"),
    pytest.param(4, ("uniform", "zipf1"), (2,), [2], id="fewer-cells"),
    pytest.param(8, ("uniform", "zipf1"), (2, 4, 6), [6], id="as-many-cells"),
])
def test_cell_pool_size(monkeypatch, workers, distributions, n_grid, expected_sizes):
    sizes = []

    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records its size, starts no thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            assert cancel_futures

    monkeypatch.setattr(cde.simulation, "ThreadPoolExecutor", RecordingPool)
    config = ExperimentConfig(
        k=5, n_grid=n_grid, trials=3, master_seed=2,
        distributions=distributions, estimators=("laplace", "kt"),
    )
    records = run_experiment(config, workers=workers)
    assert sizes == expected_sizes
    assert records == run_experiment(config)


def test_failing_cell_cancels_cells_not_started(monkeypatch):
    ran = []

    def first_cell_fails(fixed_p, spec, estimators, k, n, trials, master_seed):
        ran.append((spec.name, n))
        if (spec.name, n) == ("uniform", 1):
            raise InvalidParameterError("cell failed")
        time.sleep(0.2)  # keeps the other cells running while the first one fails
        return np.zeros((trials, len(estimators)))

    monkeypatch.setattr(cde.simulation, "_simulate_cell", first_cell_fails)
    config = ExperimentConfig(
        k=5, n_grid=tuple(range(1, 21)), trials=2, master_seed=2,
        distributions=("uniform", "zipf1"), estimators=("laplace",),
    )
    for workers, most_started in ((1, 1), (2, 4)):
        ran.clear()
        with pytest.raises(InvalidParameterError, match="cell failed"):
            run_experiment(config, workers=workers)
        assert ("uniform", 1) in ran and len(ran) <= most_started, ran


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
