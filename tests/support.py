"""Shared test helpers: independent brute-force oracles and randomized
estimator/distribution generators."""

from __future__ import annotations

import itertools
import math

import numpy as np

from cde import apply_estimator, kl, profile_from_counts, validate_distribution
from cde.distributions import draw_counts


def sampled_profile(p, n: int, rng):
    """Profile of n i.i.d. draws from p on the stream rng, as simulate draws them."""
    return profile_from_counts(draw_counts(np.cumsum(validate_distribution(p)), n, rng))


def symbol_profile(symbols, k: int):
    """Profile of a sequence of 1-indexed symbols over [1..k]."""
    return profile_from_counts(np.bincount(np.asarray(symbols, dtype=np.int64), minlength=k + 1)[1:])


def random_distribution(rng: np.random.Generator, k: int) -> np.ndarray:
    """A strictly positive random distribution over k symbols."""
    return rng.dirichlet(np.ones(k))


def make_natural_estimator(tag: int):
    """A deterministic randomized natural estimator.

    Positive per-count-class masses are derived by hashing (tag, counts),
    so the same sample always yields the same estimate while different tags
    give unrelated estimators. Every class mass is bounded away from zero.
    """

    def estimate(profile, p=None):
        ss = np.random.SeedSequence(entropy=[tag, *profile.counts.tolist()])
        raw = ss.generate_state(profile.ts.size).astype(np.float64) / 2**32
        class_mass = raw + 0.05
        class_mass /= class_mass.sum()
        return class_mass / profile.phi

    estimate.__name__ = f"natural_{tag}"
    return estimate


def expected_kl_by_sequences(p, estimator, n: int) -> float:
    """E[KL(p, estimate)] by enumerating all k**n raw sequences.

    Deliberately independent of the count-vector enumeration in cde.oracle:
    no multinomial coefficients, every ordering visited explicitly.
    """
    p = np.asarray(p, dtype=np.float64)
    k = int(p.size)
    total = 0.0
    for seq in itertools.product(range(1, k + 1), repeat=n):
        weight = 1.0
        for s in seq:
            weight *= p[s - 1]
        if weight == 0.0:
            continue
        profile = symbol_profile(seq, k)
        total += weight * kl(p, apply_estimator(estimator, profile, p))
    return total


def natural_regret_by_sequences(p, n: int) -> float:
    """Expected loss of the natural oracle by enumerating all k**n raw sequences.

    The oracle gives each symbol seen t times the mass S_t / phi_t, so its
    loss on a sequence is sum_t S_t ln(phi_t / S_t) - H(p), which depends on
    the sequence only through its counts. Independent of cde: sequences are
    grouped by their counts, and counts, classes and masses by hand.
    """
    p = np.asarray(p, dtype=np.float64).tolist()
    k = len(p)
    entropy = -sum(x * math.log(x) for x in p if x > 0.0)
    by_counts = {}  # count vector -> probability of its raw sequences
    for seq in itertools.product(range(k), repeat=n):
        counts = tuple(map(seq.count, range(k)))
        by_counts[counts] = by_counts.get(counts, 0.0) + math.prod(p[s] for s in seq)
    total = 0.0
    for counts, weight in by_counts.items():
        if weight == 0.0:
            continue
        classes = {}  # count t -> [S_t, phi_t]
        for symbol, t in enumerate(counts):
            entry = classes.setdefault(t, [0.0, 0])
            entry[0] += p[symbol]
            entry[1] += 1
        total += weight * sum(s * math.log(phi / s) for s, phi in classes.values() if s > 0.0)
    return total - entropy


def expected_kl_add_constant(p, beta: float, n: int) -> float:
    """E[KL(p, estimate)] in closed form for add-beta with a constant beta.

    The estimate of symbol x is (N_x + beta) / (n + k beta) with
    N_x ~ Binomial(n, p_x), so

        E[KL] = sum p ln p + ln(n + k beta) - sum_x p_x E[ln(beta + N_x)].

    Symbols of equal probability share the expectation, so the last sum runs
    over the distinct positive levels of p. Independent of cde.oracle: no
    count-vector enumeration, so it reaches the flagship n and k.
    """
    p = np.asarray(p, dtype=np.float64)
    levels, multiplicity = np.unique(p[p > 0.0], return_counts=True)
    total = float(np.sum(multiplicity * levels * np.log(levels))) + math.log(n + p.size * beta)
    for level, count in zip(levels, multiplicity):
        total -= count * level * _expected_log_shifted_binomial(n, float(level), beta)
    return float(total)


def _expected_log_shifted_binomial(n: int, q: float, beta: float) -> float:
    """E[ln(beta + B)] for B ~ Binomial(n, q), 0 < q <= 1.

    The sum is truncated to mean +- (40 + 40 sd); Bernstein's inequality puts
    the omitted mass below 2 exp(-60). The pmf is normalized over the window,
    which cancels the rounding of the constant lgamma(n + 1).
    """
    if q == 1.0:
        return math.log(beta + n)
    mean = n * q
    spread = 40.0 + 40.0 * math.sqrt(mean * (1.0 - q))
    j = np.arange(max(0, math.floor(mean - spread)), min(n, math.ceil(mean + spread)) + 1)
    log_weight = np.array([-math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in j.tolist()])
    log_weight += j * math.log(q) + (n - j) * math.log1p(-q)
    weight = np.exp(log_weight - log_weight.max())
    return float(np.sum(weight * np.log(beta + j)) / np.sum(weight))
