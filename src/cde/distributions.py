"""Distribution constructors, Dirichlet prior draws, and seeded count draws.

Symbols are 1-indexed integers in [1..k]. Distributions are plain float64
probability vectors, and a sample is drawn as its per-symbol count vector.
All randomness is addressed by an :class:`RngSeed`, a (seed, stream_id)
pair that deterministically selects one PCG64 stream, so every draw can be
reproduced from its coordinates alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidParameterError

SUM_TOLERANCE = 1e-9
_U64_MAX = 2**64 - 1
# Caps on k, n and trials: a k-vector, n uniforms or a cell's losses per estimator are then 80 MB.
MAX_ALPHABET = 10_000_000
MAX_SAMPLE_SIZE = 10_000_000
MAX_TRIALS = 10_000_000
_SIZES = {
    "k": (1, "MAX_ALPHABET", "alphabet size k"),
    "n": (0, "MAX_SAMPLE_SIZE", "sample size n"),
    "trials": (1, "MAX_TRIALS", "trials"),
}
# Attempts at a Dirichlet draw before it gives up; only a tiny alpha makes
# every Gamma draw of an attempt underflow to 0. A draw that succeeds within
# the bound consumes its stream exactly as unbounded retries would.
_DIRICHLET_ATTEMPTS = 64

# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx) and
# the 128-bit LCG multiplier PCG64 seeds with, which stream_states reproduces.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = 2**128 - 1


def whole_number(value, name: str) -> int:
    """value as a Python int; InvalidParameterError unless it is an integer."""
    try:
        # admits numpy integer scalars; bool is an int subclass but never a size or seed
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidParameterError(f"{name} must be a whole number, got {value!r}")


def check_size(value, name: str) -> int:
    """k, n or trials as a Python int; InvalidParameterError below its floor, CapacityError above its cap."""
    value = whole_number(value, name)
    floor, cap_name, label = _SIZES[name]
    if value < floor:
        raise InvalidParameterError(f"{name} must be >= {floor}, got {value}")
    cap = globals()[cap_name]  # read at each call, so a lowered cap takes effect
    if value > cap:
        raise CapacityError(f"{label}={value} exceeds cap {cap}")
    return value


@dataclass(frozen=True)
class RngSeed:
    """Coordinates of one pseudo-random stream: master seed plus stream index."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            try:
                index = whole_number(value, name)
            except InvalidParameterError:
                index = -1
            if not 0 <= index <= _U64_MAX:
                raise InvalidParameterError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
            object.__setattr__(self, name, index)


def make_generator(rng: RngSeed) -> np.random.Generator:
    """PCG64 generator for one stream: SeedSequence(seed, spawn_key=(stream_id,))."""
    ss = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def stream_states(seed: int, stream_ids) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of make_generator(RngSeed(seed, i)) for each i in
    stream_ids (nonnegative integers below 2**64), derived in one pass.

    This is SeedSequence(entropy=seed, spawn_key=(i,)) with the pool words
    of all streams held in uint32 arrays. The seed's words fill the 4-word
    pool and are mixed alike for every i, on Python ints; only the
    spawn-key words (one below 2**32, two from there on) are mixed per
    stream. generate_state(4, uint64) then gives PCG64's initstate and
    initseq, and its seeding step runs on Python ints. load_stream puts a
    pair into a generator.
    """
    seed = RngSeed(seed).seed
    ids = np.asarray(stream_ids, dtype=np.uint64)
    hash_const = _INIT_A

    # Both take Python ints below 2**32 or uint32 arrays, whose products wrap.
    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> 16

    # The run entropy is zero-padded to the pool size whenever a spawn key
    # is given, and a seed below 2**64 has at most two nonzero words.
    pool = [hashmix(seed >> 32 * j & _MASK32) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    low = ids.astype(np.uint32)  # the cast keeps the low 32 bits
    pool = [mix(word, hashmix(low)) for word in pool]
    high = (ids >> 32).astype(np.uint32)
    wide = high != 0
    if wide.any():
        pool = [np.where(wide, mix(word, hashmix(high)), word) for word in pool]

    hash_const = _INIT_B
    words = np.stack([hashmix(pool[j % _POOL_SIZE], _MULT_B) for j in range(2 * _POOL_SIZE)], axis=1)
    # generate_state(4, uint64) reads the eight words as little-endian pairs
    words = words.astype("<u4").view("<u8").tolist()
    states = []
    for initstate_hi, initstate_lo, initseq_hi, initseq_lo in words:
        inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _MASK128
        initstate = initstate_hi << 64 | initstate_lo
        states.append(((initstate + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


def load_stream(gen: np.random.Generator, state: tuple[int, int]) -> None:
    """Point gen's PCG64 at a (state, inc) pair from stream_states."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }


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


def uniform(k: int) -> np.ndarray:
    """Uniform distribution over [1..k]."""
    check_size(k, "k")
    return np.full(k, 1.0 / k)


def step(k: int) -> np.ndarray:
    """Two-level distribution: first half of the symbols at 1/2k, second half at 3/2k."""
    check_size(k, "k")
    if k < 2 or k % 2 != 0:
        raise InvalidParameterError(f"step distribution needs an even k >= 2, got {k}")
    p = np.empty(k)
    p[: k // 2] = 1.0 / (2 * k)
    p[k // 2 :] = 3.0 / (2 * k)
    return p


def zipf(k: int, s: float) -> np.ndarray:
    """Power-law distribution p(i) proportional to i**(-s)."""
    check_size(k, "k")
    if not s > 0:
        raise InvalidParameterError(f"exponent must be positive, got {s}")
    ranks = np.arange(1, k + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    return weights / weights.sum()


def sample_dirichlet(k: int, alpha: float, rng) -> np.ndarray:
    """One draw from the symmetric Dirichlet(alpha) prior, via normalized Gamma draws."""
    check_size(k, "k")
    if not alpha > 0:
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    gen = _as_generator(rng)
    for _ in range(_DIRICHLET_ATTEMPTS):
        g = gen.gamma(alpha, 1.0, size=k)
        with np.errstate(over="ignore"):
            total = g.sum()
        if math.isinf(total):  # huge alpha: rescaling first keeps the sum finite
            g = g / g.max()
            total = g.sum()
        if total > 0.0:  # guards against total underflow at tiny alpha
            return g / total
    raise InvalidParameterError(
        f"Dirichlet alpha={alpha} is too small: all {k} Gamma draws underflowed to 0 "
        f"in {_DIRICHLET_ATTEMPTS} attempts"
    )


def draw_counts(cdf: np.ndarray, n: int, rng) -> np.ndarray:
    """Per-symbol counts of n i.i.d. draws, where cdf is cumsum(p) of a
    validated distribution p.

    This is inverse-cdf sampling of the stream's next n uniforms: symbol j
    counts the uniforms u with cdf[j - 1] <= u < cdf[j], and the last symbol
    takes every u from cdf[-2] on, so a cdf whose rounding ends below 1
    loses no draw. Sorting the uniforms once lets k binary searches replace
    n of them.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    u = _as_generator(rng).random(n)
    u.sort()
    # edges[j] uniforms lie below cdf[j - 1]; the ends are 0 and n
    edges = np.empty(cdf.size + 1, dtype=np.int64)
    edges[0] = 0
    edges[1:-1] = np.searchsorted(u, cdf[:-1], side="left")
    edges[-1] = n
    return edges[1:] - edges[:-1]


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
        s = parse_parameter("distribution", name, "exponent")
        return DistributionSpec(name, "zipf", exponent=s)
    if name.startswith("dirichlet:"):
        alpha = parse_parameter("distribution", name, "alpha")
        return DistributionSpec(name, "dirichlet", alpha=alpha)
    raise InvalidParameterError(f"unknown distribution '{name}'")


def parse_parameter(kind: str, name: str, what: str) -> float:
    """The finite positive number after the colon of a kind name such as
    zipf:<s>, dirichlet:<alpha> or add-beta:<c>."""
    text = name.partition(":")[2]
    try:
        value = float(text)
    except ValueError:
        raise InvalidParameterError(f"unknown {kind} '{name}': bad {what} {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise InvalidParameterError(f"unknown {kind} '{name}': {what} must be finite and positive")
    return value
