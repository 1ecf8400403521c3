"""Sample sufficient statistics.

Every estimator here is "natural": it assigns one probability per count
class. The statistics that matter are therefore the per-symbol counts, the
prevalence of each count value (how many symbols were seen exactly t times),
and, when the true distribution is known, the true probability mass sitting
in each count class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Sample
from .errors import InvalidParameterError


@dataclass(frozen=True)
class SampleProfile:
    """Counts plus their sparse prevalences.

    ts holds the realized count values in increasing order (0 included
    exactly when some symbol is unseen); phi[i] is the number of symbols
    whose count equals ts[i], so every stored prevalence is positive.
    """

    k: int
    n: int
    counts: np.ndarray
    ts: np.ndarray
    phi: np.ndarray


def profile_from_counts(counts) -> SampleProfile:
    """Build a profile directly from a per-symbol count vector."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 1:
        raise InvalidParameterError("counts must be a nonempty 1-d vector")
    if np.any(counts < 0):
        raise InvalidParameterError("counts must be nonnegative")
    occurrences = np.bincount(counts)
    ts = np.flatnonzero(occurrences)
    return SampleProfile(
        k=int(counts.size),
        n=int(counts.sum()),
        counts=counts,
        ts=ts,
        phi=occurrences[ts],
    )


def build_profile(sample: Sample) -> SampleProfile:
    """Count each symbol's occurrences and tabulate the prevalences."""
    counts = np.bincount(sample.symbols, minlength=sample.alphabet_size + 1)[1:]
    return profile_from_counts(counts)


def class_totals(values, profile: SampleProfile) -> np.ndarray:
    """Per-count-class totals of an arbitrary per-symbol vector, aligned with
    profile.ts; for the true p these are the class masses S_t."""
    values = np.asarray(values, dtype=np.float64)
    if values.size != profile.k:
        raise InvalidParameterError(
            f"vector has {values.size} entries but profile expects {profile.k}"
        )
    return np.bincount(profile.counts, weights=values)[profile.ts]
