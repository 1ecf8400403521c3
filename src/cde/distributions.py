"""Distribution constructors, Dirichlet prior draws, and seeded categorical sampling.

Symbols are 1-indexed integers in [1..k]. Distributions are plain float64
probability vectors. All randomness is addressed by an :class:`RngSeed`,
a (seed, stream_id) pair that deterministically selects one PCG64 stream,
so every draw can be reproduced from its coordinates alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParameterError

SUM_TOLERANCE = 1e-9
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngSeed:
    """Coordinates of one pseudo-random stream: master seed plus stream index."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value <= _U64_MAX:
                raise InvalidParameterError(
                    f"{name} must be an unsigned 64-bit integer, got {value!r}"
                )


def make_generator(rng: RngSeed) -> np.random.Generator:
    """PCG64 generator for one stream: SeedSequence(seed, spawn_key=(stream_id,))."""
    ss = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def _as_generator(rng) -> np.random.Generator:
    # Accepting a live Generator lets callers consume one stream sequentially
    # (e.g. a prior draw followed by the sample draw in the same trial).
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return make_generator(rng)
    raise InvalidParameterError(f"expected RngSeed or numpy Generator, got {type(rng).__name__}")


def validate_distribution(probs) -> np.ndarray:
    """Return probs as a float64 vector, checking finiteness, nonnegativity and unit sum."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise InvalidParameterError("a distribution must be a nonempty 1-d vector")
    if np.any(p < 0.0):
        raise InvalidParameterError("distribution entries must be nonnegative")
    total = float(p.sum())
    # Written so that a NaN or infinite entry, which makes the sum NaN or
    # infinite, fails it too.
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise InvalidParameterError(f"distribution sums to {total!r}, not 1")
    return p


@dataclass(frozen=True)
class Sample:
    """An i.i.d. sample: 1-indexed symbol indices plus the alphabet size."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise InvalidParameterError("alphabet_size must be >= 1")
        symbols = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", symbols)
        if symbols.ndim != 1:
            raise InvalidParameterError("symbols must be a 1-d sequence")
        if symbols.size and (symbols.min() < 1 or symbols.max() > self.alphabet_size):
            raise InvalidParameterError(
                f"symbol indices must lie in [1..{self.alphabet_size}]"
            )

    def __len__(self) -> int:
        return int(self.symbols.size)


def uniform(k: int) -> np.ndarray:
    """Uniform distribution over [1..k]."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    return np.full(k, 1.0 / k)


def step(k: int) -> np.ndarray:
    """Two-level distribution: first half of the symbols at 1/2k, second half at 3/2k."""
    if k < 2 or k % 2 != 0:
        raise InvalidParameterError(f"step distribution needs an even k >= 2, got {k}")
    p = np.empty(k)
    p[: k // 2] = 1.0 / (2 * k)
    p[k // 2 :] = 3.0 / (2 * k)
    return p


def zipf(k: int, s: float) -> np.ndarray:
    """Power-law distribution p(i) proportional to i**(-s)."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not s > 0:
        raise InvalidParameterError(f"exponent must be positive, got {s}")
    ranks = np.arange(1, k + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    return weights / weights.sum()


def sample_dirichlet(k: int, alpha: float, rng) -> np.ndarray:
    """One draw from the symmetric Dirichlet(alpha) prior, via normalized Gamma draws."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if not alpha > 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    gen = _as_generator(rng)
    while True:
        g = gen.gamma(alpha, 1.0, size=k)
        total = g.sum()
        if total > 0.0:  # guards against total underflow at tiny alpha
            return g / total


def draw_sample(p, n: int, rng) -> Sample:
    """Draw n i.i.d. symbols from p by inverting the cumulative distribution."""
    p = validate_distribution(p)
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if n == 0:
        return Sample(np.empty(0, dtype=np.int64), p.size)
    gen = _as_generator(rng)
    cdf = np.cumsum(p)
    u = gen.random(n)
    # Dropping the final cdf entry keeps indices in range even when rounding
    # leaves cumsum(p)[-1] slightly below 1.
    idx = np.searchsorted(cdf[:-1], u, side="right")
    return Sample(idx.astype(np.int64) + 1, p.size)


def draw_counts(cdf: np.ndarray, n: int, rng) -> np.ndarray:
    """Per-symbol counts of n i.i.d. draws, where cdf is cumsum(p) of a
    validated distribution p.

    Consumes the stream exactly as draw_sample does and returns exactly the
    counts of its sample: a symbol's count is the number of uniforms between
    its two cdf edges, so sorting the uniforms once lets k binary searches
    replace n of them.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    u = _as_generator(rng).random(n)
    u.sort()
    edges = np.searchsorted(u, cdf[:-1], side="left")
    return np.diff(edges, prepend=0, append=n)


@dataclass(frozen=True)
class DistributionSpec:
    """A named distribution: either a fixed vector family or a Dirichlet prior."""

    name: str
    family: str  # "uniform" | "step" | "zipf" | "dirichlet"
    exponent: float | None = None
    alpha: float | None = None

    @property
    def is_prior(self) -> bool:
        return self.family == "dirichlet"

    def realize(self, k: int, rng=None) -> np.ndarray:
        """Materialize a probability vector; prior families consume rng."""
        if self.family == "uniform":
            return uniform(k)
        if self.family == "step":
            return step(k)
        if self.family == "zipf":
            return zipf(k, self.exponent)
        if rng is None:
            raise InvalidParameterError(f"distribution '{self.name}' needs an rng to draw from its prior")
        return sample_dirichlet(k, self.alpha, rng)


_FIXED_NAMES = {
    "uniform": DistributionSpec("uniform", "uniform"),
    "step": DistributionSpec("step", "step"),
    "zipf1": DistributionSpec("zipf1", "zipf", exponent=1.0),
    "zipf1.5": DistributionSpec("zipf1.5", "zipf", exponent=1.5),
    "dir1": DistributionSpec("dir1", "dirichlet", alpha=1.0),
    "dir0.5": DistributionSpec("dir0.5", "dirichlet", alpha=0.5),
}


def parse_distribution(name: str) -> DistributionSpec:
    """Resolve a distribution name (uniform, step, zipf1, zipf1.5, dir1, dir0.5,
    zipf:<s>, dirichlet:<alpha>) to its spec."""
    spec = _FIXED_NAMES.get(name)
    if spec is not None:
        return spec
    if name.startswith("zipf:"):
        s = _parse_positive(name, name[len("zipf:") :], "exponent")
        return DistributionSpec(name, "zipf", exponent=s)
    if name.startswith("dirichlet:"):
        alpha = _parse_positive(name, name[len("dirichlet:") :], "alpha")
        return DistributionSpec(name, "dirichlet", alpha=alpha)
    raise ConfigurationError(f"unknown distribution '{name}'")


def _parse_positive(name: str, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"unknown distribution '{name}': bad {what} {text!r}") from None
    if not value > 0:
        raise ConfigurationError(f"unknown distribution '{name}': {what} must be positive")
    return value
