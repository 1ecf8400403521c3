import numpy as np
import pytest

from cde import (
    CapacityError,
    InvalidParameterError,
    RngSeed,
    make_generator,
    validate_distribution,
    parse_distribution,
    sample_dirichlet,
    step,
    uniform,
    zipf,
)
from cde.distributions import MAX_ALPHABET, draw_counts, load_stream, stream_states
from cde.simulation import FIXED_PRIOR_STREAM

from support import sampled_profile

VALIDITY_KS = [1, 2, 3, 10, 100, 10000]


def test_uniform_examples():
    np.testing.assert_array_equal(uniform(4), [0.25, 0.25, 0.25, 0.25])
    np.testing.assert_array_equal(uniform(1), [1.0])
    big = uniform(10000)
    np.testing.assert_allclose(big, 1e-4, rtol=1e-14)
    assert abs(big.sum() - 1.0) <= 1e-9


def test_uniform_rejects_nonpositive_k():
    with pytest.raises(InvalidParameterError):
        uniform(0)


def test_step_examples():
    np.testing.assert_allclose(step(4), [1 / 8, 1 / 8, 3 / 8, 3 / 8], rtol=1e-15)
    np.testing.assert_allclose(step(2), [0.25, 0.75], rtol=1e-15)


def test_step_rejects_odd_k():
    with pytest.raises(InvalidParameterError):
        step(3)
    with pytest.raises(InvalidParameterError):
        step(0)


def test_zipf_harmonic_normalization():
    # weights 1, 1/2, 1/3 normalized by their sum 11/6
    np.testing.assert_allclose(zipf(3, 1.0), [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)
    np.testing.assert_array_equal(zipf(1, 3.7), [1.0])


def test_zipf_exponent_15():
    p = zipf(3, 1.5)
    weights = np.array([1.0, 2.0**-1.5, 3.0**-1.5])
    np.testing.assert_allclose(p, weights / weights.sum(), rtol=1e-14)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_zipf_nonincreasing():
    for k in (2, 5, 47, 1000):
        for s in (0.4, 1.0, 1.5, 3.0):
            assert np.all(np.diff(zipf(k, s)) <= 0)


def test_zipf_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        zipf(0, 1.0)
    with pytest.raises(InvalidParameterError):
        zipf(5, 0.0)


def test_constructors_valid_on_grid():
    for k in VALIDITY_KS:
        candidates = [uniform(k), zipf(k, 1.0), zipf(k, 1.5)]
        if k % 2 == 0 and k >= 2:
            candidates.append(step(k))
        candidates.append(sample_dirichlet(k, 0.5, RngSeed(11, k)))
        candidates.append(sample_dirichlet(k, 1.0, RngSeed(12, k)))
        for p in candidates:
            assert p.size == k
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-9


def test_constructors_reject_alphabet_over_cap():
    # each must fail before it builds anything of size k
    k = MAX_ALPHABET + 1
    for build in (uniform, step, lambda k: zipf(k, 1.0), lambda k: sample_dirichlet(k, 1.0, RngSeed(1))):
        with pytest.raises(CapacityError, match="alphabet size"):
            build(k)


def test_dirichlet_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        sample_dirichlet(0, 1.0, RngSeed(1))
    with pytest.raises(InvalidParameterError):
        sample_dirichlet(3, 0.0, RngSeed(1))
    # every Gamma draw underflows to 0; the retries are bounded
    with pytest.raises(InvalidParameterError, match="alpha=1e-300"):
        sample_dirichlet(3, 1e-300, RngSeed(1))


def test_dirichlet_deterministic_per_stream():
    a = sample_dirichlet(5, 1.0, RngSeed(7, 3))
    b = sample_dirichlet(5, 1.0, RngSeed(7, 3))
    c = sample_dirichlet(5, 1.0, RngSeed(7, 4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dirichlet_mean_alpha_one():
    # Dirichlet(1) coordinate mean is 1/k; Monte Carlo check over 1e5 draws
    gen = make_generator(RngSeed(123, 0))
    first = np.array([sample_dirichlet(2, 1.0, gen)[0] for _ in range(100_000)])
    assert abs(first.mean() - 0.5) <= 0.01


def test_dirichlet_mean_alpha_half():
    gen = make_generator(RngSeed(124, 0))
    draws = np.vstack([sample_dirichlet(5, 0.5, gen) for _ in range(100_000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.2, atol=0.01)


def test_draw_sample_point_mass():
    np.testing.assert_array_equal(sampled_profile([1.0, 0.0], 5, RngSeed(1, 0)).counts, [5, 0])
    np.testing.assert_array_equal(sampled_profile([0.0, 1.0], 5, RngSeed(1, 0)).counts, [0, 5])


def test_draw_sample_empty():
    gen = make_generator(RngSeed(2, 0))
    np.testing.assert_array_equal(sampled_profile(uniform(3), 0, gen).counts, [0, 0, 0])
    # an empty sample consumes nothing from its stream
    assert gen.random() == make_generator(RngSeed(2, 0)).random()


def test_draw_sample_deterministic_per_stream():
    a = sampled_profile(uniform(4), 100, RngSeed(9, 5)).counts
    b = sampled_profile(uniform(4), 100, RngSeed(9, 5)).counts
    c = sampled_profile(uniform(4), 100, RngSeed(9, 6)).counts
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_sample_frequencies():
    counts = sampled_profile(uniform(4), 1_000_000, RngSeed(31, 0)).counts
    assert counts.sum() == 1_000_000
    np.testing.assert_allclose(counts / 1_000_000, 0.25, atol=0.005)


def test_draw_sample_skips_zero_probability_symbols():
    counts = sampled_profile([0.5, 0.0, 0.5], 20_000, RngSeed(17, 0)).counts
    assert counts[1] == 0 and counts.sum() == 20_000


def _sampler_cases():
    """(p, n) pairs: hand-picked edge cases, then random ones with zeros."""
    yield np.array([1.0]), 0
    yield np.array([1.0]), 25
    yield uniform(3), 0
    yield np.array([0.0, 0.0, 0.25, 0.75]), 60  # leading zeros
    yield np.array([0.25, 0.75, 0.0, 0.0]), 60  # trailing zeros
    yield np.array([0.25, 0.0, 0.0, 0.75]), 60  # interior zeros
    yield np.array([0.0, 1.0, 0.0]), 7
    yield uniform(27), 500  # cumsum ends 6 ulps below 1
    rng = np.random.default_rng(2718)
    for _ in range(300):
        k = int(rng.integers(1, 60))
        p = rng.dirichlet(np.full(k, 0.3))
        p[rng.random(k) < 0.2] = 0.0
        if p.sum() == 0.0:
            p[int(rng.integers(k))] = 1.0
        yield p / p.sum(), int(rng.integers(0, 400))


def test_draw_counts_equals_inverse_cdf_sampling():
    # The reference draws each symbol by inverting the cdf at one uniform.
    # Dropping the last cdf entry keeps its indices in range when rounding
    # leaves cumsum(p)[-1] below 1.
    cases = list(_sampler_cases())
    assert len(cases) >= 300
    assert np.cumsum(uniform(27))[-1] == 1.0 - 6 * 2.0**-53
    for i, (p, n) in enumerate(cases):
        p = validate_distribution(p)
        cdf = np.cumsum(p)
        by_counts = make_generator(RngSeed(4242, i))
        by_sample = make_generator(RngSeed(4242, i))
        counts = draw_counts(cdf, n, by_counts)
        symbols = np.searchsorted(cdf[:-1], by_sample.random(n), side="right")
        expected = np.bincount(symbols, minlength=p.size)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected, err_msg=f"case {i}")
        # both leave the stream at the same place
        assert by_counts.random() == by_sample.random()


def test_draw_counts_rejects_negative_n():
    with pytest.raises(InvalidParameterError):
        draw_counts(np.cumsum(uniform(3)), -1, RngSeed(1, 0))


@pytest.mark.parametrize(
    "bad",
    [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 0.0], [0.5, 0.5, -np.inf], [np.nan] * 3],
)
def test_validate_distribution_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError, match="nan|inf|nonnegative"):
        validate_distribution(bad)


def test_rng_seed_validates_range():
    with pytest.raises(InvalidParameterError):
        RngSeed(-1, 0)
    with pytest.raises(InvalidParameterError):
        RngSeed(0, 2**64)


@pytest.mark.parametrize("bad", [True, False, np.True_, 1.0, "7", None])
def test_rng_seed_rejects_non_integers(bad):
    with pytest.raises(InvalidParameterError, match="seed must be an unsigned 64-bit integer"):
        RngSeed(bad, 0)
    with pytest.raises(InvalidParameterError, match="stream_id must be an unsigned 64-bit integer"):
        RngSeed(0, bad)


def test_rng_seed_accepts_numpy_integers_as_python_ints():
    rng = RngSeed(np.int64(7), np.uint64(2**64 - 1))
    assert rng == RngSeed(7, 2**64 - 1)
    assert type(rng.seed) is int and type(rng.stream_id) is int
    with pytest.raises(InvalidParameterError):
        RngSeed(np.int64(-1), 0)


# Seeds and stream ids on both sides of 2**32, where SeedSequence's word
# count changes, up to the largest 64-bit value.
STREAM_SEEDS = [0, 7, 3100, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
STREAM_IDS = [0, 1, 2, 255, 256, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**63, FIXED_PRIOR_STREAM]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_states_reproduce_make_generator(seed):
    states = stream_states(seed, STREAM_IDS)
    assert len(states) == len(STREAM_IDS)
    reused = np.random.Generator(np.random.PCG64())
    for stream_id, state in zip(STREAM_IDS, states):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        reference = np.random.PCG64(ss).state["state"]
        assert state == (reference["state"], reference["inc"]), stream_id
        expected = make_generator(RngSeed(seed, stream_id))
        load_stream(reused, state)
        np.testing.assert_array_equal(reused.random(7), expected.random(7))
        np.testing.assert_array_equal(reused.gamma(0.5, 1.0, size=5), expected.gamma(0.5, 1.0, size=5))
    # a block's states do not depend on the other ids derived with it
    assert [stream_states(seed, [i])[0] for i in STREAM_IDS] == states


@pytest.mark.parametrize("bad", [-1, 2**64, True, 2.5])
def test_stream_states_validate_the_seed_like_rng_seed(bad):
    with pytest.raises(InvalidParameterError) as by_rng_seed:
        RngSeed(bad)
    with pytest.raises(InvalidParameterError) as by_streams:
        stream_states(bad, [0])
    assert str(by_streams.value) == str(by_rng_seed.value)


def test_parse_distribution_standard_names():
    assert parse_distribution("uniform").family == "uniform"
    assert parse_distribution("step").family == "step"
    assert parse_distribution("zipf1").exponent == 1.0
    assert parse_distribution("zipf1.5").exponent == 1.5
    assert parse_distribution("dir1").alpha == 1.0
    assert parse_distribution("dir0.5").alpha == 0.5
    assert parse_distribution("zipf:0.8").exponent == 0.8
    assert parse_distribution("dirichlet:2.5").alpha == 2.5


def test_parse_distribution_unknown_names():
    with pytest.raises(InvalidParameterError, match="nonsense"):
        parse_distribution("nonsense")
    with pytest.raises(InvalidParameterError):
        parse_distribution("zipf:-1")
    with pytest.raises(InvalidParameterError):
        parse_distribution("dirichlet:abc")
    for name, what in (("zipf:inf", "exponent"), ("dirichlet:inf", "alpha"), ("dirichlet:nan", "alpha")):
        with pytest.raises(InvalidParameterError, match=f"{what} must be finite and positive"):
            parse_distribution(name)


def test_prior_spec_needs_rng():
    spec = parse_distribution("dir1")
    with pytest.raises(InvalidParameterError):
        spec.realize(4)
    p = spec.realize(4, RngSeed(3, 1))
    assert abs(p.sum() - 1.0) <= 1e-9
