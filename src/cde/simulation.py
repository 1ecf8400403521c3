"""Seeded Monte Carlo estimation of expected KL loss.

Trial i of any cell draws from the stream (master_seed, i), consuming first
the prior draw (when the distribution is a redrawn prior) and then the
sample. Estimators sharing a cell are evaluated on the same per-trial
samples, which pairs the comparison. A cell runs its trials in order on one
generator: the streams are the ones make_generator builds, derived a block
at a time with stream_states and loaded in turn. run_experiment runs the
(distribution, n) cells of a grid on a thread pool and assembles the records
in config order, so reruns are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DistributionSpec,
    RngSeed,
    check_alphabet,
    draw_counts,
    load_stream,
    make_generator,
    parse_distribution,
    stream_states,
    validate_distribution,
)
from .divergence import entropy, natural_kl
from .errors import CapacityError, ConfigurationError, InvalidParameterError
from .estimators import EstimatorSpec, parse_estimator
from .profile import class_totals, profile_from_counts

# Stream reserved for the single prior draw when redraw_prior_per_trial is
# off; trial streams use indices 0..trials-1.
FIXED_PRIOR_STREAM = 2**64 - 1

# Cells whose sample is this compressible get a count-vector KL cache.
_MEMO_MAX_COUNT_VECTORS = 10_000

# Largest trials per cell an entry point accepts: a cell's losses are then
# 80 MB per estimator, and a larger count must fail before they exist.
MAX_TRIALS = 10_000_000

# Largest sample size an entry point accepts: one trial's n uniforms are then
# 80 MB, and a larger n must fail before they exist.
MAX_SAMPLE_SIZE = 10_000_000

# Trial streams are derived this many at a time, so the table of stream
# states stays small whatever the trial count.
_STREAM_BLOCK = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: (distribution x estimator x sample size) cells."""

    k: int
    n_grid: tuple[int, ...]
    trials: int
    master_seed: int
    distributions: tuple[str, ...]
    estimators: tuple[str, ...]
    redraw_prior_per_trial: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "distributions", tuple(self.distributions))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        check_alphabet(self.k)
        _check_trials(self.trials)
        for n in self.n_grid:
            _check_sample_size(n)
        object.__setattr__(self, "master_seed", RngSeed(self.master_seed).seed)
        if not self.n_grid:
            raise ConfigurationError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigurationError(f"n_grid must be strictly increasing, got {self.n_grid}")
        if not self.distributions or not self.estimators:
            raise ConfigurationError("need at least one distribution and one estimator")


@dataclass(frozen=True)
class RegretRecord:
    """Aggregated result of one (distribution, estimator, k, n) cell."""

    distribution: str
    estimator: str
    k: int
    n: int
    trials: int
    mean_kl: float
    stderr: float
    inf_trials: int
    master_seed: int


def monte_carlo_regret(
    p,
    estimator,
    n: int,
    trials: int,
    master_seed: int,
    label: str = "custom",
) -> RegretRecord:
    """Mean and standard error of KL(p, estimate) over seeded i.i.d. trials."""
    p = validate_distribution(p)
    if isinstance(estimator, str):
        estimator = parse_estimator(estimator)
    _check_trials(trials)
    _check_sample_size(n)
    master_seed = RngSeed(master_seed).seed
    losses = _simulate_cell(
        fixed_p=p,
        spec=None,
        estimators=[estimator],
        k=int(p.size),
        n=n,
        trials=trials,
        master_seed=master_seed,
    )
    return _aggregate(label, _estimator_name(estimator), int(p.size), n, trials, master_seed, losses[:, 0])


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RegretRecord]:
    """Evaluate every grid cell; records are ordered by the configured
    distribution list, then estimator list, then n_grid. Up to `workers`
    (distribution, n) cells run at once; the first failing cell in config
    order raises, as in a serial run, and cells not yet started are cancelled."""
    dist_specs = [parse_distribution(name) for name in config.distributions]
    est_specs = [parse_estimator(name) for name in config.estimators]

    def cells():
        # Fixed vectors are realized on the calling thread; a serial run
        # keeps only the current distribution's vector alive.
        for dist in dist_specs:
            fixed_p = None
            if not dist.is_prior:
                fixed_p = dist.realize(config.k)
            elif not config.redraw_prior_per_trial:
                prior_rng = make_generator(RngSeed(config.master_seed, FIXED_PRIOR_STREAM))
                fixed_p = dist.realize(config.k, prior_rng)
            for n in config.n_grid:
                yield dist, fixed_p, n

    def run_cell(cell) -> list[RegretRecord]:
        dist, fixed_p, n = cell
        losses = _simulate_cell(fixed_p, dist, est_specs, config.k, n, config.trials, config.master_seed)
        return [
            _aggregate(dist.name, est.name, config.k, n, config.trials, config.master_seed, losses[:, j])
            for j, est in enumerate(est_specs)
        ]

    pool_size = min(workers, len(dist_specs) * len(config.n_grid))
    if pool_size < 2:
        per_cell = list(map(run_cell, cells()))
    else:
        pool = ThreadPoolExecutor(max_workers=pool_size)
        try:
            per_cell = list(pool.map(run_cell, cells()))
        finally:
            pool.shutdown(cancel_futures=True)
    by_cell = {(r.distribution, r.estimator, r.n): r for records in per_cell for r in records}
    return [
        by_cell[(d, e, n)]
        for d in config.distributions
        for e in config.estimators
        for n in config.n_grid
    ]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise CapacityError(f"trials={trials} exceeds cap {MAX_TRIALS}")


def _check_sample_size(n: int) -> None:
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if n > MAX_SAMPLE_SIZE:
        raise CapacityError(f"sample size n={n} exceeds cap {MAX_SAMPLE_SIZE}")


def _estimator_name(estimator) -> str:
    if isinstance(estimator, EstimatorSpec):
        return estimator.name
    return getattr(estimator, "__name__", "custom")


def _simulate_cell(
    fixed_p,
    spec: DistributionSpec | None,
    estimators: list,
    k: int,
    n: int,
    trials: int,
    master_seed: int,
) -> np.ndarray:
    """Per-trial losses as a (trials, len(estimators)) array, in trial order.

    Trials work on count vectors: estimators and losses depend on a sample
    only through its counts, so no sample of n symbols is materialized and
    a profile is built only for a count vector the memo has not seen.
    """
    memo: dict[bytes, np.ndarray] | None = None
    if fixed_p is not None:
        fixed_p = validate_distribution(fixed_p)
        fixed_cdf = np.cumsum(fixed_p)
        fixed_h = entropy(fixed_p)
        if (
            k <= 64
            and n <= 64  # keeps math.comb below bignum territory; callers reject n < 0
            and math.comb(n + k - 1, k - 1) <= _MEMO_MAX_COUNT_VECTORS
        ):
            memo = {}

    rng = np.random.Generator(np.random.PCG64())  # loaded with each trial's stream in turn
    losses = np.empty((trials, len(estimators)))
    for start in range(0, trials, _STREAM_BLOCK):
        ids = np.arange(start, min(start + _STREAM_BLOCK, trials), dtype=np.uint64)
        for i, stream in enumerate(stream_states(master_seed, ids), start):
            load_stream(rng, stream)
            if fixed_p is None:
                p = validate_distribution(spec.realize(k, rng))
                cdf, h = np.cumsum(p), entropy(p)
            else:
                p, cdf, h = fixed_p, fixed_cdf, fixed_h
            counts = draw_counts(cdf, n, rng)
            if memo is None:
                losses[i] = _evaluate(estimators, profile_from_counts(counts), p, h)
                continue
            key = counts.tobytes()
            row = memo.get(key)
            if row is None:
                row = memo[key] = _evaluate(estimators, profile_from_counts(counts), p, h)
            losses[i] = row
    return losses


def _evaluate(estimators: list, profile, p, h: float) -> np.ndarray:
    s = class_totals(p, profile)
    return np.array([natural_kl(s, est(profile, p), h) for est in estimators])


def _aggregate(
    distribution: str,
    estimator: str,
    k: int,
    n: int,
    trials: int,
    master_seed: int,
    losses: np.ndarray,
) -> RegretRecord:
    infinite = np.isinf(losses)
    inf_trials = int(infinite.sum())
    mean_kl = float(np.mean(losses))  # any infinite trial makes the mean infinite
    finite = losses[~infinite]
    if finite.size >= 2:
        stderr = float(np.std(finite, ddof=1) / math.sqrt(finite.size))
    else:
        stderr = 0.0
    return RegretRecord(
        distribution=distribution,
        estimator=estimator,
        k=k,
        n=n,
        trials=trials,
        mean_kl=mean_kl,
        stderr=stderr,
        inf_trials=inf_trials,
        master_seed=master_seed,
    )
