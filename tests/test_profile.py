import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cde import CapacityError, InvalidParameterError, RngSeed, class_totals, profile_from_counts
from cde.distributions import MAX_SAMPLE_SIZE

from support import random_distribution, sampled_profile, symbol_profile


def test_profile_repeated_symbols():
    # a,b,c,a,b,d,e encoded over a 5-symbol alphabet
    profile = symbol_profile([1, 2, 3, 1, 2, 4, 5], 5)
    np.testing.assert_array_equal(profile.counts, [2, 2, 1, 1, 1])
    np.testing.assert_array_equal(profile.ts, [1, 2])
    np.testing.assert_array_equal(profile.phi, [3, 2])
    assert profile.n == 7 and profile.k == 5


def test_profile_empty_sample():
    profile = symbol_profile([], 3)
    np.testing.assert_array_equal(profile.counts, [0, 0, 0])
    np.testing.assert_array_equal(profile.ts, [0])
    np.testing.assert_array_equal(profile.phi, [3])
    assert profile.n == 0


def test_profile_direct_counting():
    profile = symbol_profile([1, 1, 2], 3)
    np.testing.assert_array_equal(profile.counts, [2, 1, 0])
    np.testing.assert_array_equal(profile.ts, [0, 1, 2])
    np.testing.assert_array_equal(profile.phi, [1, 1, 1])


def test_phi_lookup_missing_counts():
    profile = symbol_profile([1, 1, 2], 3)
    # a count value no symbol has gets no class, so its prevalence reads as 0
    prevalence = dict(zip(profile.ts.tolist(), profile.phi.tolist()))
    for t in (2, 3, 17):
        assert prevalence.get(t, 0) == (profile.counts == t).sum()


def test_profile_from_counts_rejects_negative():
    for counts in ([1, -1], [-1, 2**70]):
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            profile_from_counts(counts)
    # a count that is not a whole number is not silently truncated; entries
    # beyond int64 make numpy store the vector as objects
    for counts in ([1.5, 2], [2**70, 1.5], [1, None]):
        with pytest.raises(InvalidParameterError, match="whole numbers"):
            profile_from_counts(counts)
    # the bincount over the largest count must not be attempted: 2**62 was
    # numpy's bare "array is too big", 10**12 a MemoryError for 7.28 TiB; a
    # whole number above the cap is over capacity whatever its dtype
    for counts in ([3, 2**62], [10**12], [2**64 - 1], [MAX_SAMPLE_SIZE, 1], [2**70], [3, 2**70]):
        with pytest.raises(CapacityError):
            profile_from_counts(counts)
    # bincount's length 2**63 overflows and numpy aborts the whole process,
    # so this case runs in a child
    child = "import cde\ntry:\n    cde.profile_from_counts([2**63 - 1])\nexcept cde.CapacityError:\n    print('rejected')"
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (0, "rejected\n"), result.stderr


def test_combined_mass_examples():
    profile = symbol_profile([1, 1, 2], 3)
    np.testing.assert_array_equal(profile.ts, [0, 1, 2])
    np.testing.assert_array_equal(class_totals([0.5, 0.3, 0.2], profile), [0.2, 0.3, 0.5])

    empty = symbol_profile([], 3)
    np.testing.assert_array_equal(empty.ts, [0])
    np.testing.assert_array_equal(class_totals([0.5, 0.3, 0.2], empty), [1.0])

    one = symbol_profile([1], 2)
    np.testing.assert_array_equal(one.ts, [0, 1])
    np.testing.assert_array_equal(class_totals([1.0, 0.0], one), [0.0, 1.0])


def test_combined_mass_dimension_mismatch():
    profile = symbol_profile([1, 1, 2], 3)
    with pytest.raises(InvalidParameterError):
        class_totals([0.5, 0.5], profile)


def test_class_totals_matches_manual_grouping():
    profile = symbol_profile([1, 1, 2, 3], 4)
    totals = class_totals([10.0, 1.0, 2.0, 40.0], profile)
    # classes: t=0 -> symbol 4, t=1 -> symbols 2,3, t=2 -> symbol 1
    np.testing.assert_allclose(totals, [40.0, 3.0, 10.0])


def test_profile_invariants_fuzz():
    rng = np.random.default_rng(4242)
    for case in range(1000):
        k = int(rng.integers(1, 51))
        n = int(rng.integers(0, 201))
        p = random_distribution(rng, k)
        profile = sampled_profile(p, n, RngSeed(900, case))
        assert profile.counts.sum() == n
        assert profile.phi.sum() == k
        assert int(np.sum(profile.ts * profile.phi)) == n
        assert np.all(profile.phi > 0)
        assert np.all(np.diff(profile.ts) > 0)
        mass = class_totals(p, profile)
        assert abs(mass.sum() - 1.0) <= 1e-12
        assert np.all(mass >= 0)


def test_profile_permutation_equivariant():
    rng = np.random.default_rng(77)
    for case in range(100):
        k = int(rng.integers(2, 9))
        n = int(rng.integers(0, 30))
        symbols = rng.integers(1, k + 1, size=n)
        profile = symbol_profile(symbols, k)
        relabel = rng.permutation(k)  # old symbol i -> new symbol relabel[i], 0-indexed
        counts = np.empty(k, dtype=np.int64)
        counts[relabel] = profile.counts
        permuted = profile_from_counts(counts)
        np.testing.assert_array_equal(permuted.ts, profile.ts)
        np.testing.assert_array_equal(permuted.phi, profile.phi)
        np.testing.assert_array_equal(permuted.counts[relabel], profile.counts)
