"""Exact censuses and Monte Carlo probes of min-shift-distance concentration.

The census routines enumerate a whole space (or weight slice) and count the
words whose min cyclic autodistance d(x) clears the concentration threshold
strictly, then pair that exact count with the guaranteed lower bound from
volumes.py.  The Monte Carlo routines estimate the complementary tail
Pr[d(X) <= threshold] under the uniform or weight-slice model.

Randomness: numpy's PCG64 behind default_rng, seeded explicitly; every
report records the algorithm identifier.  Sampling is chunked with a fixed
chunk size, so results are reproducible bit-for-bit for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, sqrt

import numpy as np

from . import engine
from .budget import check_budget
from .errors import CapacityError
from .volumes import (
    TailCensusBound,
    autodistance_census_bound,
    cw_autodistance_census_bound,
)

RNG_ALGORITHM = "numpy-pcg64"

_CHUNK_ROWS = 1 << 16


def expected_shift_distance_uniform(n: int, q: int) -> Fraction:
    """E[d(X, shift_i(X))] = n (1 - 1/q) for uniform X and any fixed i != 0."""
    return n * (1 - Fraction(1, q))


def expected_shift_distance_bernoulli(n: int, p) -> Fraction:
    """E[d(X, shift_i(X))] = 2 n p (1 - p) for iid Bernoulli(p) coordinates."""
    p = Fraction(p)
    return 2 * n * p * (1 - p)


def _check_alphabet(q: int) -> None:
    """Packed words and uint8 samples hold symbols 0..255, so 2 <= q <= 256."""
    if not 2 <= q <= 256:
        raise ValueError(f"alphabet size q={q} outside the supported range 2..256")


@lru_cache(maxsize=8)
def min_autodistance_histogram(n: int, q: int, budget: int | None = None) -> tuple[int, ...]:
    """histogram[v] = #{x in [q]^n : d(x) = v}, computed exhaustively.

    Entry 0 collects the words with a nontrivial period.  Costs q^n work,
    guarded by the enumeration budget; words must fit one 64-bit limb.
    """
    _check_alphabet(q)
    if n < 2:
        raise ValueError(f"min autodistance needs n >= 2, got n={n}")
    check_budget(q**n, budget, f"exhaustive census of [{q}]^{n}")
    if not engine.packable(n, q):
        raise CapacityError(
            f"exhaustive census of [{q}]^{n}: words exceed one 64-bit limb",
            required=n * engine.bits_per_symbol(q),
            budget=64,
        )
    codec = engine.codec_for(n, q)
    counts = np.zeros(n + 1, dtype=np.int64)
    for packed in engine.packed_word_chunks(n, q):
        counts += np.bincount(engine.min_shift_distance(codec, packed), minlength=n + 1)
    return tuple(int(c) for c in counts)


@lru_cache(maxsize=8)
def min_autodistance_histogram_cw(n: int, w: int, budget: int | None = None) -> tuple[int, ...]:
    """Weight-slice analogue of min_autodistance_histogram (binary words)."""
    if n < 2:
        raise ValueError(f"min autodistance needs n >= 2, got n={n}")
    if not (0 <= w <= n):
        raise ValueError(f"weight must lie in [0, {n}], got {w}")
    check_budget(comb(n, w), budget, f"exhaustive census of the weight-{w} slice")
    codec = engine.codec_for(n, 2)
    words = engine.weight_slice_packed(n, w)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(words), _CHUNK_ROWS):
        auto = engine.min_shift_distance(codec, words[lo : lo + _CHUNK_ROWS])
        counts += np.bincount(auto, minlength=n + 1)
    return tuple(int(c) for c in counts)


def _count_above(histogram: tuple[int, ...], threshold: Fraction) -> int:
    return sum(c for v, c in enumerate(histogram) if v > threshold)


@dataclass(frozen=True)
class CensusResult:
    """Exact census of a concentration set next to its guaranteed floor."""

    count: int            # words with d(x) strictly above the threshold
    total: int            # size of the enumerated space
    threshold: Fraction
    bound: TailCensusBound
    probability: Fraction  # count / total

    @property
    def bound_holds(self) -> bool:
        return self.count >= self.bound.count_bound


def exact_autodistance_census(n: int, q: int, eps, budget: int | None = None) -> CensusResult:
    """Exhaustively count {x in [q]^n : d(x) > n(1 - 1/q - eps)}.

    Returns the exact count alongside the concentration lower bound; the
    bound is a theorem, so bound_holds is expected to be True whenever the
    bound is nonvacuous (and trivially True otherwise).
    """
    _check_alphabet(q)
    bound = autodistance_census_bound(n, q, eps)
    histogram = min_autodistance_histogram(n, q, budget)
    count = _count_above(histogram, bound.threshold)
    total = q**n
    return CensusResult(
        count=count,
        total=total,
        threshold=bound.threshold,
        bound=bound,
        probability=Fraction(count, total),
    )


def exact_autodistance_census_cw(n: int, p, eps, budget: int | None = None) -> CensusResult:
    """Weight-slice census: {x of weight pn : d(x) > (1 - eps) n p (1 - p)}."""
    bound = cw_autodistance_census_bound(n, p, eps)
    pn = int(Fraction(p) * n)
    histogram = min_autodistance_histogram_cw(n, pn, budget)
    count = _count_above(histogram, bound.threshold)
    total = comb(n, pn)
    return CensusResult(
        count=count,
        total=total,
        threshold=bound.threshold,
        bound=bound,
        probability=Fraction(count, total),
    )


def sample_weight_slice(n: int, w: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random binary words of weight w, one per row.

    Each row is an independent shuffle of the fixed multiset of w ones and
    n - w zeros (Fisher-Yates per row via Generator.permuted), so every
    slice word is equally likely.
    """
    base = np.zeros((samples, n), dtype=np.uint8)
    base[:, :w] = 1
    return rng.permuted(base, axis=1)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo estimate of Pr[statistic <= threshold] next to its bound.

    shift None means the statistic is the min over all nontrivial shifts
    (the bound then carries the union factor); shift i isolates one shift.
    stderr is the binomial standard error sqrt(est (1 - est) / samples).
    """

    n: int
    model: str           # "uniform" or "weight-slice"
    q: int | None
    p: Fraction | None
    eps: float
    shift: int | None
    threshold: Fraction
    samples: int
    seed: int
    rng_algorithm: str
    hits: int
    estimate: float
    stderr: float
    bound: float

    @property
    def consistent(self) -> bool:
        """Whether the estimate stays below the bound plus 3 standard errors."""
        return self.estimate <= self.bound + 3 * self.stderr


def mc_tail(
    n: int,
    q: int,
    eps,
    samples: int,
    seed: int,
    shift: int | None = None,
) -> TailEstimate:
    """Estimate Pr[d(X) <= n(1 - 1/q - eps)] for uniform X in [q]^n.

    With shift=i the event uses the single distance d(X, shift_i(X)) and the
    comparison bound drops the union factor n - 1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    _check_alphabet(q)
    bound_info = autodistance_census_bound(n, q, eps)
    threshold = bound_info.threshold
    per_shift = float(bound_info.factors["per_shift_tail"])
    bound = per_shift if shift is not None else min(1.0, (n - 1) * per_shift)

    # Distances are integers, so "<= threshold" is exactly "<= floor(threshold)".
    cutoff = floor(threshold)
    codec = engine.limb_codec(n, q)
    rng = np.random.default_rng(np.random.PCG64(seed))
    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(_CHUNK_ROWS, remaining)
        rows = rng.integers(0, q, size=(m, n), dtype=np.uint8)
        stats = engine.min_shift_distance(codec, codec.pack(rows), shift)
        hits += int((stats <= cutoff).sum())
        remaining -= m
    estimate = hits / samples
    return TailEstimate(
        n=n,
        model="uniform",
        q=q,
        p=None,
        eps=float(eps),
        shift=shift,
        threshold=threshold,
        samples=samples,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        hits=hits,
        estimate=estimate,
        stderr=sqrt(max(estimate * (1 - estimate), 1e-300) / samples),
        bound=bound,
    )


def conditional_tail_weight_slice(
    n: int,
    p,
    eps,
    samples: int,
    seed: int,
    shift: int | None = None,
) -> TailEstimate:
    """Estimate Pr[d(X) <= (1 - eps) n p (1 - p)] for X uniform on the
    weight-pn slice.

    The comparison bound is the conditional chain: per-shift tail times the
    Stirling factor, times n - 1 when minimizing over all shifts.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    bound_info = cw_autodistance_census_bound(n, p, eps)
    threshold = bound_info.threshold
    per_shift = float(bound_info.factors["per_shift_tail"])
    stirling = float(bound_info.factors["stirling_factor"])
    unit = per_shift * stirling
    bound = unit if shift is not None else min(1.0, (n - 1) * unit)
    pn = int(Fraction(p) * n)

    cutoff = floor(threshold)
    codec = engine.limb_codec(n, 2)
    rng = np.random.default_rng(np.random.PCG64(seed))
    hits = 0
    remaining = samples
    while remaining > 0:
        m = min(_CHUNK_ROWS, remaining)
        rows = sample_weight_slice(n, pn, m, rng)
        stats = engine.min_shift_distance(codec, codec.pack(rows), shift)
        hits += int((stats <= cutoff).sum())
        remaining -= m
    estimate = hits / samples
    return TailEstimate(
        n=n,
        model="weight-slice",
        q=None,
        p=Fraction(p),
        eps=float(eps),
        shift=shift,
        threshold=threshold,
        samples=samples,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        hits=hits,
        estimate=estimate,
        stderr=sqrt(max(estimate * (1 - estimate), 1e-300) / samples),
        bound=bound,
    )
