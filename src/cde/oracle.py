"""Exact expected-loss evaluation for small instances.

Every estimator in this package depends on the sample only through its count
vector, so instead of walking all k**n raw sequences the engine enumerates
count vectors (compositions of n into k parts) and weights each one by its
multinomial probability. The capacity cap is still expressed in raw
sequences, which keeps the cost predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .distributions import validate_distribution
from .divergence import entropy, kl
from .errors import CapacityError, InvalidParameterError
from .estimators import apply_estimator
from .profile import profile_from_counts

DEFAULT_SEQUENCE_CAP = 10_000_000
CLASS_REGRET_MAX_K = 6


@dataclass(frozen=True)
class ExactResult:
    """An exactly evaluated expectation plus enumeration diagnostics."""

    expected_kl: float
    sequences_enumerated: int
    mass_covered: float


def _check_cap(k: int, n: int, cap: int) -> None:
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    # k = 1 is charged as 2 so that n stays bounded; and since 2**n > cap
    # once n reaches cap's bit length, that test spares the bignum power.
    base = max(k, 2)
    if n >= cap.bit_length() or base**n > cap:
        raise CapacityError(f"enumeration of {base}**{n} sequences exceeds cap {cap}")


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=128)
def _count_vectors(k: int, n: int):
    """All count vectors over k symbols summing to n, with their profiles and
    multinomial coefficients."""
    entries = []
    factorial_n = math.factorial(n)
    for c in _compositions(n, k):
        counts = np.array(c, dtype=np.int64)
        coefficient = factorial_n
        for ci in c:
            coefficient //= math.factorial(ci)
        entries.append((counts, profile_from_counts(counts), coefficient))
    return tuple(entries)


def exact_expected_kl(p, estimator, n: int, cap: int = DEFAULT_SEQUENCE_CAP) -> ExactResult:
    """Exact E[KL(p, estimate)] over all length-n samples drawn from p.

    Zero-probability samples are skipped; an infinite loss on any reachable
    sample makes the expectation infinite.
    """
    p = validate_distribution(p)
    k = int(p.size)
    _check_cap(k, n, cap)
    zero_support = p == 0.0
    total = 0.0
    sequences = 0
    mass = 0.0
    for counts, profile, coefficient in _count_vectors(k, n):
        if np.any(counts[zero_support] > 0):
            continue
        weight = coefficient * float(np.prod(p**counts))
        if weight == 0.0:
            continue
        estimate = apply_estimator(estimator, profile, p)
        loss = kl(p, estimate)
        sequences += coefficient
        mass += weight
        total += weight * loss
    return ExactResult(expected_kl=float(total), sequences_enumerated=sequences, mass_covered=mass)


def exact_natural_regret(p, n: int, cap: int = DEFAULT_SEQUENCE_CAP) -> float:
    """Exact expected loss of the best natural estimator built from p.

    Equals E[sum_t S_t ln(phi[t]/S_t)] - H(p); the subtraction can round a
    hair below zero, so the result is clamped at 0.
    """
    p = validate_distribution(p)
    k = int(p.size)
    _check_cap(k, n, cap)
    zero_support = p == 0.0
    accumulated = 0.0
    for counts, profile, coefficient in _count_vectors(k, n):
        if np.any(counts[zero_support] > 0):
            continue
        weight = coefficient * float(np.prod(p**counts))
        if weight == 0.0:
            continue
        class_mass = np.bincount(counts, weights=p)[profile.ts]
        positive = class_mass > 0.0
        inner = float(
            np.sum(class_mass[positive] * np.log(profile.phi[positive] / class_mass[positive]))
        )
        accumulated += weight * inner
    return max(accumulated - entropy(p), 0.0)


def exact_class_regret(p, estimator, n: int, cap: int = DEFAULT_SEQUENCE_CAP) -> float:
    """Worst exact expected KL over all distinct relabelings of p."""
    p = validate_distribution(p)
    if p.size > CLASS_REGRET_MAX_K:
        raise CapacityError(
            f"class regret enumerates k! relabelings; k={p.size} exceeds cap {CLASS_REGRET_MAX_K}"
        )
    relabelings = sorted(set(permutations(p.tolist())))
    return max(
        exact_expected_kl(np.array(q), estimator, n, cap).expected_kl for q in relabelings
    )
