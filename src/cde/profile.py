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

from .distributions import Sample, validate_distribution
from .errors import InvalidParameterError


@dataclass(frozen=True)
class SampleProfile:
    """Counts plus a sparse prevalence map.

    ts holds the realized count values in increasing order (0 included
    exactly when some symbol is unseen); phi[i] is the number of symbols
    whose count equals ts[i], so every stored prevalence is positive.
    """

    k: int
    n: int
    counts: np.ndarray
    ts: np.ndarray
    phi: np.ndarray

    @property
    def prevalence(self) -> dict[int, int]:
        return {int(t): int(f) for t, f in zip(self.ts, self.phi)}

    @property
    def phi0(self) -> int:
        """Number of unseen symbols."""
        return self.phi_at(0)

    def phi_at(self, t: int) -> int:
        """Prevalence of count value t; 0 when no symbol has that count."""
        i = int(np.searchsorted(self.ts, t))
        if i < self.ts.size and self.ts[i] == t:
            return int(self.phi[i])
        return 0


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


@dataclass(frozen=True)
class CombinedMass:
    """Per-count-class probability totals, aligned with a profile's ts."""

    ts: np.ndarray
    values: np.ndarray

    @property
    def as_dict(self) -> dict[int, float]:
        return {int(t): float(v) for t, v in zip(self.ts, self.values)}

    def total(self) -> float:
        return float(self.values.sum())


def combined_mass(p, profile: SampleProfile) -> CombinedMass:
    """Total probability of the symbols in each count class: S_t = sum of p(x) over x with count t."""
    return CombinedMass(ts=profile.ts.copy(), values=class_totals(validate_distribution(p), profile))


def class_totals(values, profile: SampleProfile) -> np.ndarray:
    """Per-count-class totals of an arbitrary per-symbol vector, aligned with profile.ts."""
    values = np.asarray(values, dtype=np.float64)
    if values.size != profile.k:
        raise InvalidParameterError(
            f"vector has {values.size} entries but profile expects {profile.k}"
        )
    return np.bincount(profile.counts, weights=values)[profile.ts]
