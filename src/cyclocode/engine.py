"""Vectorized kernels for bulk word operations.

Words are packed into uint64 scalars, one fixed-width bit field per symbol
(1 bit for q=2, 2 bits up to q=4, 4 bits up to q=16, 8 bits up to q=256),
most significant field first so numeric order equals lexicographic order.
Cyclic shifts become bit rotations and Hamming distances become
XOR / fold / popcount, which lets class enumeration, graph construction,
and verification run over hundreds of thousands of words in numpy.

The pure-Python functions in words.py define the semantics; the test suite
checks these kernels against them exhaustively on small spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

from .budget import check_budget
from .errors import CapacityError

_U64 = np.uint64


def bits_per_symbol(q: int) -> int:
    if q <= 2:
        return 1
    if q <= 4:
        return 2
    if q <= 16:
        return 4
    if q <= 256:
        return 8
    raise ValueError(f"alphabet size {q} exceeds the packed-word limit of 256")


def packable(n: int, q: int) -> bool:
    """Whether length-n words over [q] fit a single uint64."""
    return q <= 256 and n * bits_per_symbol(q) <= 64


@dataclass(frozen=True)
class Codec:
    """Bit-field layout for length-n words over [q] inside uint64."""

    n: int
    q: int
    b: int          # bits per symbol
    nb: int         # total bits used
    full_mask: int  # low nb bits set
    lsb_mask: int   # lowest bit of every symbol field

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Pack digit rows (shape [..., n], values < q) into uint64."""
        digits = np.asarray(digits, dtype=np.uint64)
        shifts = self._shifts()
        return (digits << shifts).sum(axis=-1, dtype=np.uint64)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of pack; returns uint8 digits of shape [..., n]."""
        packed = np.asarray(packed, dtype=np.uint64)
        shifts = self._shifts()
        field = np.uint64((1 << self.b) - 1)
        return ((packed[..., None] >> shifts) & field).astype(np.uint8)

    def _shifts(self) -> np.ndarray:
        return np.array(
            [self.b * (self.n - 1 - j) for j in range(self.n)], dtype=np.uint64
        )

    def rotate(self, packed: np.ndarray, i: int) -> np.ndarray:
        """Packed image of the left cyclic shift by i symbol positions."""
        i %= self.n
        if i == 0:
            return np.asarray(packed, dtype=np.uint64).copy()
        packed = np.asarray(packed, dtype=np.uint64)
        k = np.uint64(self.b * i)
        kc = np.uint64(self.nb - self.b * i)
        return ((packed << k) | (packed >> kc)) & np.uint64(self.full_mask)

    def all_rotations(self, packed: np.ndarray) -> np.ndarray:
        """Shape [..., n]: column i holds the shift by i."""
        packed = np.asarray(packed, dtype=np.uint64)
        out = np.empty(packed.shape + (self.n,), dtype=np.uint64)
        for i in range(self.n):
            out[..., i] = self.rotate(packed, i)
        return out

    def nonzero_fold(self, diff: np.ndarray) -> np.ndarray:
        """Collapse each symbol field of an XOR difference to one indicator bit."""
        acc = diff
        shift = 1
        while shift < self.b:
            acc = acc | (acc >> np.uint64(shift))
            shift <<= 1
        return acc & np.uint64(self.lsb_mask)

    def distance(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hamming distance between packed words (broadcasts)."""
        u = np.asarray(u, dtype=np.uint64)
        v = np.asarray(v, dtype=np.uint64)
        return np.bitwise_count(self.nonzero_fold(u ^ v))

    def canonical(self, packed: np.ndarray) -> np.ndarray:
        """Packed lexicographically least rotation (numeric min over shifts)."""
        return self.all_rotations(packed).min(axis=-1)


@lru_cache(maxsize=32)
def codec_for(n: int, q: int) -> Codec:
    if not packable(n, q):
        raise CapacityError(
            f"length-{n} words over an alphabet of {q} do not fit the packed representation"
        )
    b = bits_per_symbol(q)
    nb = n * b
    full_mask = (1 << nb) - 1
    lsb_mask = sum(1 << (b * j) for j in range(n))
    return Codec(n=n, q=q, b=b, nb=nb, full_mask=full_mask, lsb_mask=lsb_mask)


def word_digit_chunks(
    n: int, q: int, chunk: int = 1 << 18
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, digits) blocks covering [q]^n in lexicographic order."""
    total = q**n
    divisors = np.array([q ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        vals = np.arange(lo, hi, dtype=np.int64)
        digits = ((vals[:, None] // divisors) % q).astype(np.uint8)
        yield lo, digits


def weight_slice_digits(n: int, w: int) -> np.ndarray:
    """All binary words of weight w as digit rows, in lexicographic order."""
    out = np.zeros((comb(n, w), n), dtype=np.uint8)
    for r, positions in enumerate(combinations(range(n), w)):
        out[r, list(positions)] = 1
    return out


def min_autodistance_packed(codec: Codec, packed: np.ndarray) -> np.ndarray:
    """min over 1 <= i < n of d(x, shift_i(x)) for each packed word.

    Also doubles as the full-period test: the minimum is positive exactly
    when all n rotations are distinct.  Requires n >= 2.
    """
    rots = codec.all_rotations(packed)
    dists = np.bitwise_count(codec.nonzero_fold(rots[..., 1:] ^ packed[..., None]))
    return dists.min(axis=-1)


@dataclass(frozen=True)
class ClassSystem:
    """All full-period shift classes of [q]^n (optionally one weight slice).

    Vertex order is ascending canonical representative; every array is
    indexed by that order.  rotations[v, i] is the packed shift of
    representative v by i, so row v lists the whole orbit.
    """

    n: int
    q: int
    weight: int | None
    codec: Codec
    reps_digits: np.ndarray    # uint8 [V, n]
    reps_packed: np.ndarray    # uint64 [V]
    rotations: np.ndarray      # uint64 [V, n]
    auto_distance: np.ndarray  # int16 [V]

    @property
    def count(self) -> int:
        return len(self.reps_packed)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def class_system(n: int, q: int, weight: int | None = None, budget: int | None = None) -> ClassSystem:
    """Build the full-period class table for [q]^n.

    The enumeration cost is q^n words (or the C(n, w) slice), guarded by the
    enumeration budget.  Results are cached; arrays are read-only.
    """
    codec = codec_for(n, q)
    if weight is not None:
        if q != 2:
            raise ValueError("weight slices apply to binary alphabets only")
        if not (0 <= weight <= n):
            raise ValueError(f"weight must lie in [0, {n}], got {weight}")
        check_budget(comb(n, weight), budget, f"weight-{weight} slice of length {n}")
        candidates = [codec.pack(weight_slice_digits(n, weight))]
    else:
        check_budget(q**n, budget, f"enumeration of [{q}]^{n}")
        candidates = [codec.pack(d) for _, d in word_digit_chunks(n, q)]

    rep_blocks = []
    auto_blocks = []
    for packed in candidates:
        if n == 1:
            rep_blocks.append(packed)
            auto_blocks.append(np.ones(len(packed), dtype=np.int16))
            continue
        canon = codec.canonical(packed)
        auto = min_autodistance_packed(codec, packed)
        keep = (packed == canon) & (auto > 0)
        rep_blocks.append(packed[keep])
        auto_blocks.append(auto[keep].astype(np.int16))

    reps = np.concatenate(rep_blocks)
    auto = np.concatenate(auto_blocks)
    order = np.argsort(reps, kind="stable")
    reps = reps[order]
    auto = auto[order]
    return ClassSystem(
        n=n,
        q=q,
        weight=weight,
        codec=codec,
        reps_digits=_freeze(codec.unpack(reps)),
        reps_packed=_freeze(reps),
        rotations=_freeze(codec.all_rotations(reps)),
        auto_distance=_freeze(auto),
    )


def class_distance_row(codec: Codec, orbits: np.ndarray, packed_word: int) -> np.ndarray:
    """Class distance from one packed word to each class of a block.

    orbits has shape [n, m]: column j lists the n rotations of class j
    (ClassSystem.rotations transposed, so that the minimum over each orbit
    is an elementwise minimum of n rows).  Costs m * n packed operations.
    """
    diffs = orbits ^ np.uint64(packed_word)
    return np.bitwise_count(codec.nonzero_fold(diffs)).min(axis=0)


def edit_positions(
    codec: Codec,
    packed: np.ndarray,
    digits: np.ndarray,
    positions: tuple[int, ...],
    deltas: tuple[int, ...],
) -> np.ndarray:
    """Apply the same sparse symbol edit to every word.

    Position j's digit becomes (digit + delta) mod q with delta in 1..q-1,
    so the result is at Hamming distance exactly len(positions) from the
    input.  Field arithmetic never borrows across symbols because each field
    holds its own digit.
    """
    q = codec.q
    out = np.array(packed, dtype=np.uint64, copy=True)
    for pos, delta in zip(positions, deltas):
        off = np.uint64(codec.b * (codec.n - 1 - pos))
        old = digits[:, pos].astype(np.uint64)
        new = ((digits[:, pos].astype(np.int64) + delta) % q).astype(np.uint64)
        out = out - (old << off) + (new << off)
    return out


def error_patterns(n: int, q: int, radius: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (positions, deltas) pairs describing words at distance 1..radius.

    Applying every pattern to a word enumerates its punctured Hamming ball;
    the pattern count is ball_volume(n, q, radius) - 1.
    """
    from itertools import product

    for k in range(1, radius + 1):
        for positions in combinations(range(n), k):
            for deltas in product(range(1, q), repeat=k):
                yield positions, deltas


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Ascending distinct values of an integer array, as np.unique returns them.

    Sort plus an adjacent-difference mask: numpy 2.x routes np.unique on
    integers through a hash table, which is tens of times slower on the
    multi-million-key arrays graph builds and verifiers produce.
    """
    out = np.sort(np.asarray(values).ravel())
    if len(out) < 2:
        return out
    keep = np.empty(len(out), dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def sorted_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending values present in both integer arrays (np.intersect1d)."""
    both = np.sort(np.concatenate([sorted_unique(a), sorted_unique(b)]))
    return both[1:][both[1:] == both[:-1]]


def sorted_membership(sorted_packed: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean mask: which queries occur in the sorted packed array."""
    if len(sorted_packed) == 0:
        return np.zeros(len(queries), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_packed, queries), len(sorted_packed) - 1)
    return sorted_packed[idx] == queries
