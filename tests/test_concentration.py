"""Exact concentration censuses and Monte Carlo tail probes.

The census routines are checked against independent numpy brute force over
the full space (or weight slice), and the Monte Carlo estimators against
the exact tail probabilities those censuses imply.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, exp, isclose, sqrt

import numpy as np
import pytest
import scipy.stats

from cyclocode import (
    CapacityError,
    conditional_tail_weight_slice,
    cw_autodistance_census_bound,
    exact_autodistance_census,
    exact_autodistance_census_cw,
    expected_shift_distance_bernoulli,
    expected_shift_distance_uniform,
    hamming_distance,
    mc_tail,
    min_autodistance_histogram,
    min_autodistance_histogram_cw,
    min_cyclic_autodistance,
    word,
)
from cyclocode.concentration import RNG_ALGORITHM, sample_weight_slice


def brute_histogram_uniform(n, q):
    """histogram[v] = #{x in [q]^n : min nontrivial shift distance = v}."""
    total = q**n
    idx = np.arange(total)
    digits = np.empty((total, n), dtype=np.uint8)
    for j in range(n):
        digits[:, n - 1 - j] = (idx // q**j) % q
    best = np.full(total, n + 1, dtype=np.int32)
    for i in range(1, n):
        d = (digits != np.roll(digits, -i, axis=1)).sum(axis=1, dtype=np.int32)
        np.minimum(best, d, out=best)
    return np.bincount(best, minlength=n + 1)


def brute_histogram_slice(n, w):
    rows = []
    for ones in combinations(range(n), w):
        v = np.zeros(n, dtype=np.uint8)
        v[list(ones)] = 1
        rows.append(v)
    digits = np.array(rows)
    best = np.full(len(rows), n + 1, dtype=np.int32)
    for i in range(1, n):
        d = (digits != np.roll(digits, -i, axis=1)).sum(axis=1, dtype=np.int32)
        np.minimum(best, d, out=best)
    return np.bincount(best, minlength=n + 1)


# ---------------------------------------------------------------------------
# expectations


def test_expected_shift_distance_uniform_examples():
    assert expected_shift_distance_uniform(4, 2) == 2
    assert expected_shift_distance_uniform(6, 3) == 4
    assert expected_shift_distance_uniform(7, 2) == Fraction(7, 2)
    assert isinstance(expected_shift_distance_uniform(7, 2), Fraction)


def test_expected_shift_distance_uniform_matches_brute_average():
    # Average d(x, shift_i(x)) over all of [q]^n equals n(1 - 1/q), any i != 0.
    for n, q in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]:
        for i in range(1, n):
            total = Fraction(0)
            for symbols in product(range(q), repeat=n):
                shifted = symbols[i:] + symbols[:i]
                total += sum(a != b for a, b in zip(symbols, shifted))
            assert total / q**n == expected_shift_distance_uniform(n, q)


def test_expected_shift_distance_bernoulli_examples():
    assert expected_shift_distance_bernoulli(8, Fraction(1, 2)) == 4
    assert expected_shift_distance_bernoulli(8, Fraction(1, 4)) == 3
    assert expected_shift_distance_bernoulli(10, Fraction(1, 5)) == Fraction(16, 5)


def test_expected_shift_distance_bernoulli_matches_weighted_brute():
    # Exact expectation under iid Bernoulli(p) coordinates, computed by
    # weighting every binary word by p^weight (1-p)^(n-weight).
    for n, p in [(4, Fraction(1, 4)), (5, Fraction(1, 2)), (4, Fraction(2, 3))]:
        for i in range(1, n):
            total = Fraction(0)
            for symbols in product(range(2), repeat=n):
                w = sum(symbols)
                prob = p**w * (1 - p) ** (n - w)
                shifted = symbols[i:] + symbols[:i]
                total += prob * sum(a != b for a, b in zip(symbols, shifted))
            assert total == expected_shift_distance_bernoulli(n, p)


# ---------------------------------------------------------------------------
# exhaustive histograms


def test_min_autodistance_histogram_matches_word_level():
    for n, q in [(5, 2), (6, 2), (4, 3)]:
        hist = min_autodistance_histogram(n, q)
        counts = [0] * (n + 1)
        for symbols in product(range(q), repeat=n):
            counts[min_cyclic_autodistance(word(symbols, q))] += 1
        assert list(hist) == counts
        assert sum(hist) == q**n


def test_min_autodistance_histogram_zero_bin_counts_periodic_words():
    # d(x) = 0 exactly when x has a nontrivial period, so bin 0 holds
    # q^n minus n times the number of full-period classes.
    from cyclocode import enumerate_classes

    for n, q in [(6, 2), (5, 3)]:
        hist = min_autodistance_histogram(n, q)
        full = sum(1 for _ in enumerate_classes(n, q, full_period_only=True))
        assert hist[0] == q**n - n * full


def test_min_autodistance_histogram_errors():
    with pytest.raises(ValueError):
        min_autodistance_histogram(1, 2)
    with pytest.raises(CapacityError):
        min_autodistance_histogram(30, 2)
    # Within an enlarged budget but past one 64-bit limb (33 * 2 bits):
    # refused rather than enumerated word by word.
    with pytest.raises(CapacityError) as info:
        min_autodistance_histogram(33, 3, budget=10**16)
    assert (info.value.required, info.value.budget) == (66, 64)
    for q in (1, 300):
        with pytest.raises(ValueError, match=f"q={q}"):
            min_autodistance_histogram(4, q)
        with pytest.raises(ValueError, match=f"q={q}"):
            exact_autodistance_census(4, q, Fraction(1, 10))


def test_min_autodistance_histogram_cw_matches_word_level():
    for n, w in [(7, 3), (8, 4), (6, 2)]:
        hist = min_autodistance_histogram_cw(n, w)
        counts = [0] * (n + 1)
        for ones in combinations(range(n), w):
            symbols = [1 if j in ones else 0 for j in range(n)]
            counts[min_cyclic_autodistance(word(symbols, 2))] += 1
        assert list(hist) == counts
        assert sum(hist) == comb(n, w)


def test_min_autodistance_histogram_cw_errors():
    with pytest.raises(ValueError):
        min_autodistance_histogram_cw(1, 1)
    with pytest.raises(ValueError):
        min_autodistance_histogram_cw(5, 6)
    with pytest.raises(CapacityError):
        min_autodistance_histogram_cw(40, 20)


# ---------------------------------------------------------------------------
# exact censuses, full space


def test_census_uniform_tiny_example():
    r = exact_autodistance_census(4, 2, Fraction(1, 4))
    assert r.threshold == 1
    assert r.total == 16
    assert r.count == 12
    assert r.probability == Fraction(12, 16)
    # 16 (1 - 3 e^{-1/8}) is negative: the guarantee is vacuous but still holds.
    assert r.bound.vacuous
    assert r.bound_holds


def test_census_uniform_frozen_counts_n16():
    cases = [
        (Fraction(3, 10), Fraction(16, 5), 61952),
        (Fraction(1, 5), Fraction(24, 5), 39680),
        (Fraction(1, 10), Fraction(32, 5), 1152),
    ]
    for eps, threshold, count in cases:
        r = exact_autodistance_census(16, 2, eps)
        assert r.threshold == threshold
        assert r.total == 65536
        assert r.count == count
        assert r.probability == Fraction(count, 65536)
        assert r.bound_holds


def test_census_uniform_matches_brute_force():
    for n, q, eps in [(8, 2, Fraction(1, 5)), (6, 2, Fraction(1, 4)), (5, 3, Fraction(1, 5))]:
        r = exact_autodistance_census(n, q, eps)
        hist = brute_histogram_uniform(n, q)
        expected = sum(int(c) for v, c in enumerate(hist) if v > r.threshold)
        assert r.count == expected
    # Spot value for the first case: threshold 12/5, so d >= 3 (binary: >= 4).
    assert exact_autodistance_census(8, 2, Fraction(1, 5)).count == 80


def test_census_bound_holds_wherever_nonvacuous_or_not():
    # The census count must clear the analytic floor at every tested size —
    # a theorem, so this is a hard invariant rather than a statistical check.
    for n in range(4, 13, 2):
        for eps in [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]:
            r = exact_autodistance_census(n, 2, eps)
            assert r.bound_holds
            assert 0 <= r.count <= r.total


# ---------------------------------------------------------------------------
# exact censuses, weight slice


def test_census_slice_small_example():
    r = exact_autodistance_census_cw(8, Fraction(1, 2), Fraction(1, 5))
    assert r.threshold == Fraction(8, 5)
    assert r.total == 70
    assert r.count == 64
    assert r.probability == Fraction(64, 70)
    assert r.bound_holds


def test_census_slice_frozen_counts_n16():
    r = exact_autodistance_census_cw(16, Fraction(1, 2), Fraction(3, 10))
    assert r.threshold == Fraction(14, 5)
    assert r.total == 12870
    assert r.count == 12736
    # A larger eps lowers the threshold from 3.2 to 2.8, but slice
    # autodistances are even, so both cut between 2 and 4.
    r2 = exact_autodistance_census_cw(16, Fraction(1, 2), Fraction(1, 5))
    assert r2.threshold == Fraction(16, 5)
    assert r2.count == 12736


def test_census_slice_matches_brute_force():
    for n, p, eps in [
        (6, Fraction(1, 2), Fraction(1, 5)),
        (8, Fraction(1, 4), Fraction(1, 2)),
        (10, Fraction(1, 5), Fraction(1, 2)),
    ]:
        r = exact_autodistance_census_cw(n, p, eps)
        hist = brute_histogram_slice(n, int(Fraction(p) * n))
        expected = sum(int(c) for v, c in enumerate(hist) if v > r.threshold)
        assert r.count == expected
    assert exact_autodistance_census_cw(6, Fraction(1, 2), Fraction(1, 5)).count == 18


def test_census_slice_rejects_non_integral_weight():
    with pytest.raises(ValueError):
        exact_autodistance_census_cw(7, Fraction(1, 2), Fraction(1, 5))


# ---------------------------------------------------------------------------
# Monte Carlo, uniform model


def test_mc_tail_reproducible_and_well_formed():
    a = mc_tail(12, 2, Fraction(1, 5), 2000, seed=7)
    b = mc_tail(12, 2, Fraction(1, 5), 2000, seed=7)
    assert a.hits == b.hits
    assert a.estimate == b.estimate
    assert a.model == "uniform"
    assert a.q == 2 and a.p is None and a.shift is None
    assert a.n == 12 and a.samples == 2000 and a.seed == 7
    assert a.rng_algorithm == RNG_ALGORITHM == "numpy-pcg64"
    assert a.threshold == Fraction(18, 5)
    assert 0 <= a.hits <= 2000
    assert a.estimate == a.hits / 2000
    assert isclose(a.stderr, sqrt(a.estimate * (1 - a.estimate) / 2000), rel_tol=1e-9)
    c = mc_tail(12, 2, Fraction(1, 5), 2000, seed=8)
    assert c.hits != a.hits  # different stream


def test_mc_tail_agrees_with_exact_census():
    # Exact tail on {0,1}^16 at eps=3/10: histogram mass at d <= 3.2 is
    # 65536 - 61952 = 3584, i.e. 0.0546875.
    exact = Fraction(65536 - 61952, 65536)
    est = mc_tail(16, 2, Fraction(3, 10), 40000, seed=20240811)
    sigma = sqrt(float(exact) * (1 - float(exact)) / 40000)
    assert abs(est.estimate - float(exact)) <= 5 * sigma
    assert est.hits == 2132  # pinned by the seed and PCG64 stream
    # The union bound saturates at 1 here, so consistency is automatic.
    assert est.bound == 1.0
    assert est.consistent


def test_mc_tail_isolated_shift_drops_union_factor():
    est = mc_tail(100, 2, Fraction(1, 5), 4000, seed=5, shift=1)
    assert est.shift == 1
    assert est.threshold == 30
    # Single-shift bound e^{-eps^2 n / 2} = e^{-2}; no n-1 multiplier.
    assert isclose(est.bound, exp(-2), rel_tol=1e-12)
    # The true single-shift tail is ~Pr[Binomial-like(100, 1/2) <= 30]: tiny.
    assert est.estimate <= 0.01
    assert est.consistent


def test_mc_tail_errors():
    with pytest.raises(ValueError):
        mc_tail(1, 2, Fraction(1, 5), 100, seed=0)
    with pytest.raises(ValueError):
        mc_tail(8, 2, Fraction(1, 5), 0, seed=0)
    with pytest.raises(ValueError):
        mc_tail(8, 2, Fraction(3, 5), 100, seed=0)  # eps >= 1 - 1/q
    with pytest.raises(ValueError):
        mc_tail(8, 2, 0, 100, seed=0)
    for q in (1, 300):  # samples are uint8 symbols
        with pytest.raises(ValueError, match=f"q={q}"):
            mc_tail(20, q, Fraction(1, 10), 100, seed=0)


# ---------------------------------------------------------------------------
# Monte Carlo, weight-slice model


def test_conditional_tail_agrees_with_exact_slice_census():
    # Exact conditional tail on the weight-8 slice of length 16 at eps=3/10:
    # 12870 - 12736 = 134 of 12870 words sit at distance <= 2.8.
    exact = Fraction(134, 12870)
    est = conditional_tail_weight_slice(16, Fraction(1, 2), Fraction(3, 10), 40000, seed=20240811)
    sigma = sqrt(float(exact) * (1 - float(exact)) / 40000)
    assert abs(est.estimate - float(exact)) <= 5 * sigma
    assert est.model == "weight-slice"
    assert est.q is None and est.p == Fraction(1, 2)
    assert est.consistent
    again = conditional_tail_weight_slice(16, Fraction(1, 2), Fraction(3, 10), 40000, seed=20240811)
    assert again.hits == est.hits


def test_conditional_tail_isolated_shift_bound():
    est = conditional_tail_weight_slice(
        16, Fraction(1, 2), Fraction(3, 10), 2000, seed=3, shift=2
    )
    # Isolated shift: the bound is the per-shift tail times the Stirling
    # slice factor, with no union multiplier.
    info = cw_autodistance_census_bound(16, Fraction(1, 2), Fraction(3, 10))
    expected = float(info.factors["per_shift_tail"] * info.factors["stirling_factor"])
    assert isclose(est.bound, expected, rel_tol=1e-12)
    assert est.shift == 2


def test_conditional_tail_errors():
    with pytest.raises(ValueError):
        conditional_tail_weight_slice(16, Fraction(1, 2), Fraction(3, 10), 0, seed=0)
    with pytest.raises(ValueError):
        conditional_tail_weight_slice(7, Fraction(1, 2), Fraction(3, 10), 100, seed=0)


# ---------------------------------------------------------------------------
# slice sampler


def test_sample_weight_slice_shapes_and_weights():
    rng = np.random.default_rng(11)
    rows = sample_weight_slice(9, 4, 500, rng)
    assert rows.shape == (500, 9)
    assert rows.dtype == np.uint8
    assert set(np.unique(rows)) <= {0, 1}
    assert (rows.sum(axis=1) == 4).all()


def test_sample_weight_slice_deterministic_given_seed():
    a = sample_weight_slice(8, 3, 64, np.random.default_rng(42))
    b = sample_weight_slice(8, 3, 64, np.random.default_rng(42))
    assert (a == b).all()


def test_sample_weight_slice_uniform_over_slice():
    # Chi-square goodness of fit over all C(6,3) = 20 slice words.
    n, w, draws = 6, 3, 100_000
    rows = sample_weight_slice(n, w, draws, np.random.default_rng(99))
    packed = rows @ (1 << np.arange(n - 1, -1, -1))
    counts = np.bincount(packed, minlength=64)
    valid = [i for i in range(64) if bin(i).count("1") == w]
    assert len(valid) == 20
    assert counts.sum() == draws
    assert sorted(np.flatnonzero(counts)) == sorted(valid)
    stat = scipy.stats.chisquare(counts[valid])
    assert stat.pvalue > 1e-4


# ---------------------------------------------------------------------------
# cross-checks between the samplers and the shift statistic


def test_mc_statistic_matches_word_level_on_forced_rows():
    # Drive the internal statistic through the public API with samples drawn
    # from a tiny space, then recheck each hit by hand at the word level.
    est = mc_tail(6, 2, Fraction(1, 4), 3000, seed=123)
    hist = brute_histogram_uniform(6, 2)
    exact = sum(int(c) for v, c in enumerate(hist) if v <= est.threshold) / 64
    sigma = sqrt(exact * (1 - exact) / 3000)
    assert abs(est.estimate - exact) <= 5 * sigma


def test_slice_sampler_feeds_correct_statistic():
    est = conditional_tail_weight_slice(8, Fraction(1, 2), Fraction(1, 5), 3000, seed=77)
    hist = brute_histogram_slice(8, 4)
    exact = sum(int(c) for v, c in enumerate(hist) if v <= est.threshold) / 70
    sigma = sqrt(exact * (1 - exact) / 3000)
    assert abs(est.estimate - exact) <= 5 * sigma


def test_shift_statistic_agrees_with_hamming_reference():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        row = rng.integers(0, 2, size=n, dtype=np.uint8)
        x = word(row.tolist(), 2)
        best = min(
            hamming_distance(x, word(np.roll(row, -i).tolist(), 2)) for i in range(1, n)
        )
        assert best == min_cyclic_autodistance(x)
