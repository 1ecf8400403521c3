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
from itertools import combinations, permutations

import numpy as np

from .distributions import validate_distribution
from .divergence import entropy, natural_kl
from .errors import CapacityError, InvalidParameterError
from .estimators import PERMUTATION_ORACLE_MAX_K, parse_estimator
from .profile import class_totals, profile_from_counts

MAX_SEQUENCES = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """An exactly evaluated expectation plus enumeration diagnostics."""

    expected_kl: float
    sequences_enumerated: int
    mass_covered: float


def _check_cap(k: int, n: int) -> None:
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    # k = 1 is charged as 2 so that n stays bounded; and since 2**n exceeds
    # the cap once n reaches its bit length, that test spares the bignum power.
    base = max(k, 2)
    if n >= MAX_SEQUENCES.bit_length() or base**n > MAX_SEQUENCES:
        raise CapacityError(f"enumeration of {base}**{n} sequences exceeds cap {MAX_SEQUENCES}")
    # The count vectors themselves take k entries each: with n = 1 a large
    # alphabet passes the sequence test while its k vectors hold k**2 counts.
    entries = k * math.comb(n + k - 1, n)
    if entries > MAX_SEQUENCES:
        raise CapacityError(f"enumeration of {entries} count entries exceeds cap {MAX_SEQUENCES}")


@lru_cache(maxsize=1)
def _count_vectors(k: int, n: int):
    """All count vectors over k symbols summing to n, in lexicographic order,
    as (profile, multinomial coefficient) pairs.

    Stars and bars: the k - 1 bar positions among n + k - 1 slots fix one
    vector, and the gaps between consecutive bars are its counts. Only the
    latest (k, n) is cached, as one enumeration may hold 10^7 count entries.
    """
    entries = []
    factorial_n = math.factorial(n)
    for bars in combinations(range(n + k - 1), k - 1):
        profile = profile_from_counts(np.diff((-1, *bars, n + k - 1)) - 1)
        coefficient = factorial_n
        for ci in profile.counts.tolist():
            coefficient //= math.factorial(ci)
        entries.append((profile, coefficient))
    return tuple(entries)


def _reachable(p: np.ndarray, n: int):
    """(profile, coefficient, probability) of every count vector that a
    length-n sample from the validated p can produce."""
    _check_cap(int(p.size), n)
    for profile, coefficient in _count_vectors(int(p.size), n):
        # a symbol of probability 0 seen at least once zeroes the product
        weight = coefficient * float((p**profile.counts).prod())
        if weight != 0.0:
            yield profile, coefficient, weight


def exact_expected_kl(p, estimator, n: int) -> ExactResult:
    """Exact E[KL(p, estimate)] over all length-n samples drawn from p.

    Zero-probability samples are skipped; an infinite loss on any reachable
    sample makes the expectation infinite.
    """
    p = validate_distribution(p)
    if isinstance(estimator, str):
        estimator = parse_estimator(estimator)
    h = entropy(p)
    total = 0.0
    sequences = 0
    mass = 0.0
    for profile, coefficient, weight in _reachable(p, n):
        loss = natural_kl(class_totals(p, profile), estimator(profile, p), h)
        sequences += coefficient
        mass += weight
        total += weight * loss
    return ExactResult(expected_kl=float(total), sequences_enumerated=sequences, mass_covered=mass)


def exact_natural_regret(p, n: int) -> float:
    """Exact expected loss of the best natural estimator built from p.

    Equals E[sum_t S_t ln(phi[t]/S_t)] - H(p); the subtraction can round a
    hair below zero, so the result is clamped at 0.
    """
    p = validate_distribution(p)
    accumulated = 0.0
    for profile, _, weight in _reachable(p, n):
        class_mass = class_totals(p, profile)
        positive = class_mass > 0.0
        inner = float(
            np.sum(class_mass[positive] * np.log(profile.phi[positive] / class_mass[positive]))
        )
        accumulated += weight * inner
    return max(accumulated - entropy(p), 0.0)


def exact_class_regret(p, estimator, n: int) -> float:
    """Worst exact expected KL over all distinct relabelings of p."""
    p = validate_distribution(p)
    if p.size > PERMUTATION_ORACLE_MAX_K:
        raise CapacityError(
            f"class regret enumerates k! relabelings; k={p.size} exceeds cap {PERMUTATION_ORACLE_MAX_K}"
        )
    relabelings = sorted(set(permutations(p.tolist())))
    return max(
        exact_expected_kl(np.array(q), estimator, n).expected_kl for q in relabelings
    )
