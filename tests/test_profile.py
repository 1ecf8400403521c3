import numpy as np
import pytest

from cde import (
    InvalidParameterError,
    RngSeed,
    Sample,
    build_profile,
    class_totals,
    draw_sample,
    profile_from_counts,
)

from support import random_distribution


def test_profile_repeated_symbols():
    # a,b,c,a,b,d,e encoded over a 5-symbol alphabet
    profile = build_profile(Sample(np.array([1, 2, 3, 1, 2, 4, 5]), 5))
    np.testing.assert_array_equal(profile.counts, [2, 2, 1, 1, 1])
    np.testing.assert_array_equal(profile.ts, [1, 2])
    np.testing.assert_array_equal(profile.phi, [3, 2])
    assert profile.n == 7 and profile.k == 5


def test_profile_empty_sample():
    profile = build_profile(Sample(np.array([], dtype=np.int64), 3))
    np.testing.assert_array_equal(profile.counts, [0, 0, 0])
    np.testing.assert_array_equal(profile.ts, [0])
    np.testing.assert_array_equal(profile.phi, [3])
    assert profile.n == 0


def test_profile_direct_counting():
    profile = build_profile(Sample(np.array([1, 1, 2]), 3))
    np.testing.assert_array_equal(profile.counts, [2, 1, 0])
    np.testing.assert_array_equal(profile.ts, [0, 1, 2])
    np.testing.assert_array_equal(profile.phi, [1, 1, 1])


def test_phi_lookup_missing_counts():
    profile = build_profile(Sample(np.array([1, 1, 2]), 3))
    # a count value no symbol has gets no class, so its prevalence reads as 0
    prevalence = dict(zip(profile.ts.tolist(), profile.phi.tolist()))
    for t in (2, 3, 17):
        assert prevalence.get(t, 0) == (profile.counts == t).sum()


def test_profile_from_counts_rejects_negative():
    with pytest.raises(InvalidParameterError):
        profile_from_counts([1, -1])


def test_combined_mass_examples():
    profile = build_profile(Sample(np.array([1, 1, 2]), 3))
    np.testing.assert_array_equal(profile.ts, [0, 1, 2])
    np.testing.assert_array_equal(class_totals([0.5, 0.3, 0.2], profile), [0.2, 0.3, 0.5])

    empty = build_profile(Sample(np.array([], dtype=np.int64), 3))
    np.testing.assert_array_equal(empty.ts, [0])
    np.testing.assert_array_equal(class_totals([0.5, 0.3, 0.2], empty), [1.0])

    one = build_profile(Sample(np.array([1]), 2))
    np.testing.assert_array_equal(one.ts, [0, 1])
    np.testing.assert_array_equal(class_totals([1.0, 0.0], one), [0.0, 1.0])


def test_combined_mass_dimension_mismatch():
    profile = build_profile(Sample(np.array([1, 1, 2]), 3))
    with pytest.raises(InvalidParameterError):
        class_totals([0.5, 0.5], profile)


def test_class_totals_matches_manual_grouping():
    profile = build_profile(Sample(np.array([1, 1, 2, 3]), 4))
    totals = class_totals([10.0, 1.0, 2.0, 40.0], profile)
    # classes: t=0 -> symbol 4, t=1 -> symbols 2,3, t=2 -> symbol 1
    np.testing.assert_allclose(totals, [40.0, 3.0, 10.0])


def test_profile_invariants_fuzz():
    rng = np.random.default_rng(4242)
    for case in range(1000):
        k = int(rng.integers(1, 51))
        n = int(rng.integers(0, 201))
        p = random_distribution(rng, k)
        sample = draw_sample(p, n, RngSeed(900, case))
        profile = build_profile(sample)
        assert profile.counts.sum() == n
        assert profile.phi.sum() == k
        assert int(np.sum(profile.ts * profile.phi)) == n
        assert np.all(profile.phi > 0)
        assert np.all(np.diff(profile.ts) > 0)
        mass = class_totals(p, profile)
        assert abs(mass.sum() - 1.0) <= 1e-12
        assert np.all(mass >= 0)


def test_build_profile_permutation_equivariant():
    rng = np.random.default_rng(77)
    for case in range(100):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(0, 30))
        symbols = rng.integers(1, k + 1, size=n)
        profile = build_profile(Sample(symbols, k))
        relabel = rng.permutation(k) + 1  # old symbol x -> new symbol relabel[x-1]
        permuted = build_profile(Sample(relabel[symbols - 1], k))
        np.testing.assert_array_equal(permuted.ts, profile.ts)
        np.testing.assert_array_equal(permuted.phi, profile.phi)
        np.testing.assert_array_equal(permuted.counts[relabel - 1], profile.counts)
