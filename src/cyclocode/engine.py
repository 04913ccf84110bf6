"""Vectorized kernels for bulk word operations.

Words are packed into uint64 limbs, one fixed-width bit field per symbol
(1 bit for q=2, 2 bits up to q=4, 4 bits up to q=16, 8 bits up to q=256),
most significant field first so numeric order equals lexicographic order.
A word of n*b <= 64 bits is one uint64 (its fields in the low n*b bits);
class tables, graphs and verifiers work on those.  A longer word is
L = ceil(n*b / 64) limbs with its fields at the top, and a cyclic shift of
it is a window on the doubled word x||x: two shifts and an OR per limb,
the last limb masked.  Cyclic shifts become bit rotations and Hamming
distances become XOR / fold / popcount.

Scans over shifts stream: for i = 1..n-1 the shift, XOR, fold and
popcount are written into preallocated per-word buffers and folded into a
running minimum, so no [m, n] rotation table is built.  All arithmetic is
exact integer arithmetic.

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


def _fold(acc: np.ndarray, b: int, lsb_mask: int, scratch: np.ndarray) -> np.ndarray:
    """In place: collapse each b-bit field of an XOR difference to its lowest
    bit, set exactly when the field is nonzero.  scratch is clobbered."""
    if b == 1:
        return acc  # every field is already one bit
    shift = 1
    while shift < b:
        np.right_shift(acc, _U64(shift), out=scratch)
        np.bitwise_or(acc, scratch, out=acc)
        shift <<= 1
    return np.bitwise_and(acc, _U64(lsb_mask), out=acc)


@dataclass(frozen=True)
class Codec:
    """Bit-field layout for length-n words over [q] in uint64 limbs.

    A word of nb <= 64 bits is one uint64 holding its fields in the low nb
    bits; every method works on that form.  A longer word takes
    limbs = ceil(nb / 64) uint64s, most significant first, with its fields
    in the top nb bits; only pack and min_shift_distance accept it.
    """

    n: int
    q: int
    b: int          # bits per symbol
    nb: int         # total bits used
    full_mask: int  # low nb bits set
    lsb_mask: int   # lowest bit of every symbol field (of one limb's fields)

    @property
    def limbs(self) -> int:
        return -(-self.nb // 64)

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Pack digit rows (shape [..., n], values < q).

        One limb gives a uint64 per row (shape [...]); more give shape
        [limbs, ...], so that each limb is one contiguous row.  Digits go
        into bytes, 8 / b to a byte, and the bytes are read as big-endian
        limbs, so no [..., n] uint64 temporary is built.
        """
        digits = np.asarray(digits, dtype=np.uint8)
        lead = digits.shape[:-1]
        per_byte = 8 // self.b
        padded = np.zeros((int(np.prod(lead)), self.limbs * 8 * per_byte), dtype=np.uint8)
        padded[:, : self.n] = digits.reshape(-1, self.n)
        packed_bytes = padded[:, ::per_byte] << (8 - self.b)
        for k in range(1, per_byte):
            packed_bytes |= padded[:, k::per_byte] << (8 - self.b * (k + 1))
        limbs = packed_bytes.view(">u8").astype(np.uint64)
        if self.limbs == 1:
            return (limbs[:, 0] >> _U64(64 - self.nb)).reshape(lead)
        return np.ascontiguousarray(limbs.T).reshape((self.limbs, *lead))

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of pack; returns uint8 digits of shape [..., n]."""
        packed = np.asarray(packed, dtype=np.uint64)
        shifts = np.array(
            [self.b * (self.n - 1 - j) for j in range(self.n)], dtype=np.uint64
        )
        field = np.uint64((1 << self.b) - 1)
        return ((packed[..., None] >> shifts) & field).astype(np.uint8)

    def rotate(self, packed: np.ndarray, i: int) -> np.ndarray:
        """Packed image of the left cyclic shift by i symbol positions."""
        packed = np.asarray(packed, dtype=np.uint64)
        return self._rotate_into(packed, i, np.empty_like(packed), np.empty_like(packed))

    def _rotate_into(self, packed, i: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """rotate(packed, i) written into out; scratch is clobbered."""
        i %= self.n
        if i == 0:
            np.copyto(out, packed)
            return out
        np.left_shift(packed, _U64(self.b * i), out=out)
        np.right_shift(packed, _U64(self.nb - self.b * i), out=scratch)
        np.bitwise_or(out, scratch, out=out)
        return np.bitwise_and(out, _U64(self.full_mask), out=out)

    def all_rotations(self, packed: np.ndarray) -> np.ndarray:
        """Shape [..., n]: column i holds the shift by i."""
        packed = np.asarray(packed, dtype=np.uint64)
        out = np.empty(packed.shape + (self.n,), dtype=np.uint64)
        for i in range(self.n):
            out[..., i] = self.rotate(packed, i)
        return out

    def nonzero_fold(self, diff: np.ndarray) -> np.ndarray:
        """Collapse each symbol field of an XOR difference to one indicator bit."""
        acc = np.array(diff, dtype=np.uint64)
        return _fold(acc, self.b, self.lsb_mask, np.empty_like(acc))

    def distance(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hamming distance between packed words (broadcasts)."""
        u = np.asarray(u, dtype=np.uint64)
        v = np.asarray(v, dtype=np.uint64)
        return np.bitwise_count(self.nonzero_fold(u ^ v))

    def canonical(self, packed: np.ndarray) -> np.ndarray:
        """Packed lexicographically least rotation: a running numeric minimum
        over the shifts, one rotation at a time into a reused buffer."""
        packed = np.asarray(packed, dtype=np.uint64)
        best = packed.copy()
        rot, scratch = np.empty_like(packed), np.empty_like(packed)
        for i in range(1, self.n):
            np.minimum(best, self._rotate_into(packed, i, rot, scratch), out=best)
        return best


@lru_cache(maxsize=32)
def limb_codec(n: int, q: int) -> Codec:
    """Codec for length-n words over [q] at any length, in as many limbs as
    the words need."""
    b = bits_per_symbol(q)
    nb = n * b
    return Codec(
        n=n,
        q=q,
        b=b,
        nb=nb,
        full_mask=(1 << nb) - 1,
        lsb_mask=sum(1 << (b * j) for j in range(min(n, 64 // b))),
    )


def codec_for(n: int, q: int) -> Codec:
    """The one-limb codec; CapacityError when the words exceed 64 bits."""
    if not packable(n, q):
        raise CapacityError(
            f"length-{n} words over an alphabet of {q} do not fit the packed representation"
        )
    return limb_codec(n, q)


def packed_word_chunks(n: int, q: int, chunk: int = 1 << 18) -> Iterator[np.ndarray]:
    """Yield the packed words of [q]^n in ascending (lexicographic) order,
    in blocks of at most `chunk` words.

    When q = 2^b every b-bit field value is a symbol, so a block is an
    arange; otherwise each word index is split into base-q digits, least
    significant position first, and each digit is OR'd into its field.
    """
    b = bits_per_symbol(q)
    total = q**n
    for lo in range(0, total, chunk):
        index = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        if q == 1 << b:
            yield index
            continue
        packed = np.zeros_like(index)
        digit = np.empty_like(index)
        for j in range(n):
            np.divmod(index, _U64(q), out=(index, digit))
            np.left_shift(digit, _U64(b * j), out=digit)
            np.bitwise_or(packed, digit, out=packed)
        yield packed


def weight_slice_packed(n: int, w: int) -> np.ndarray:
    """All binary words of length n and weight w, packed, in ascending order
    (the lexicographic order of their digit rows).

    Dynamic programme over the low k bits: S(k, j) = S(k-1, j) followed by
    S(k-1, j-1) | 1 << (k-1), both ascending and the second above the
    first.  Only the weights j from which w is still reachable are kept.
    """
    empty = np.empty(0, dtype=np.uint64)
    level = {0: np.zeros(1, dtype=np.uint64)}
    for k in range(1, n + 1):
        top = _U64(1 << (k - 1))
        level = {
            j: np.concatenate([level.get(j, empty), level.get(j - 1, empty) | top])
            for j in range(max(0, w - (n - k)), min(k, w) + 1)
        }
    return level[w]


# Cells (limbs x words) per block of the limb kernel: bounds each
# [limbs, block] buffer at 2 MB however long the words are.
_LIMB_BLOCK_CELLS = 1 << 18


def min_shift_distance(codec: Codec, words: np.ndarray, shift: int | None = None) -> np.ndarray:
    """min over 1 <= i < n of d(x, shift_i(x)) for each packed word, or the
    single distance at i = shift when shift is given.

    words is codec.pack output at any number of limbs.  Shifts stream: each
    is computed into reused per-word buffers and folded into a running
    minimum.  One limb rotates in register and returns uint8; more limbs
    take windows on the doubled word and return int32.  With shift None
    the minimum is positive exactly when all n rotations are distinct, so
    it doubles as the full-period test; that needs n >= 2.
    """
    n = codec.n
    if shift is None and n < 2:
        raise ValueError(f"min shift distance needs n >= 2, got n={n}")
    shifts = range(1, n) if shift is None else [shift % n]
    words = np.asarray(words, dtype=np.uint64)
    if codec.limbs == 1:
        rot, scratch = np.empty_like(words), np.empty_like(words)
        dist = np.empty(words.shape, dtype=np.uint8)
        best = np.full(words.shape, n, dtype=np.uint8)
        for i in shifts:
            codec._rotate_into(words, i, rot, scratch)
            np.bitwise_xor(rot, words, out=rot)
            np.bitwise_count(_fold(rot, codec.b, codec.lsb_mask, scratch), out=dist)
            np.minimum(best, dist, out=best)
        return best
    m = words.shape[1]
    block = max(1, _LIMB_BLOCK_CELLS // codec.limbs)
    best = np.empty(m, dtype=np.int32)
    for lo in range(0, m, block):
        best[lo : lo + block] = _min_shift_limbs(codec, words[:, lo : lo + block], shifts)
    return best


def _min_shift_limbs(codec: Codec, x: np.ndarray, shifts) -> np.ndarray:
    """min_shift_distance on [L, m] limbs: rot_i(x) is the nb-bit window at
    bit b * i of x||x, two shifts and an OR per limb."""
    L, m = x.shape
    # x||x and one zero limb, so every window can read one limb past its end.
    doubled = np.zeros((2 * L + 1, m), dtype=np.uint64)
    doubled[:L] = x
    at, s = divmod(codec.nb, 64)
    if s == 0:
        doubled[at : at + L] |= x
    else:
        doubled[at : at + L] |= x >> _U64(s)
        doubled[at + 1 : at + L + 1] |= x << _U64(64 - s)
    tail_mask = _U64((1 << 64) - (1 << (64 * L - codec.nb)))
    rot, scratch = np.empty((L, m), dtype=np.uint64), np.empty((L, m), dtype=np.uint64)
    count = np.empty((L, m), dtype=np.uint8)
    dist = np.empty(m, dtype=np.int32)
    best = np.full(m, codec.n, dtype=np.int32)
    for i in shifts:
        w, r = divmod(codec.b * i, 64)
        if r == 0:
            np.copyto(rot, doubled[w : w + L])
        else:
            np.left_shift(doubled[w : w + L], _U64(r), out=rot)
            np.right_shift(doubled[w + 1 : w + L + 1], _U64(64 - r), out=scratch)
            np.bitwise_or(rot, scratch, out=rot)
        rot[L - 1] &= tail_mask
        np.bitwise_xor(rot, x, out=rot)
        np.bitwise_count(_fold(rot, codec.b, codec.lsb_mask, scratch), out=count)
        np.add.reduce(count, axis=0, dtype=np.int32, out=dist)
        np.minimum(best, dist, out=best)
    return best


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


def _full_period_reps(codec: Codec, packed: np.ndarray) -> np.ndarray:
    """The words strictly below every nontrivial rotation of themselves:
    exactly the canonical representatives of the full-period classes (a
    periodic word equals one of its rotations).  Survivors are compacted
    after each shift, so most words drop out after a few comparisons."""
    for i in range(1, codec.n):
        packed = packed[packed < codec.rotate(packed, i)]
    return packed


@lru_cache(maxsize=8)
def class_system(n: int, q: int, weight: int | None = None, budget: int | None = None) -> ClassSystem:
    """Build the full-period class table for [q]^n.

    Words are enumerated packed, in ascending order (packed_word_chunks, or
    weight_slice_packed for a slice), so the representatives come out
    ascending.  The enumeration cost is q^n words (or the C(n, w) slice),
    guarded by the enumeration budget.  Results are cached; arrays are
    read-only.
    """
    codec = codec_for(n, q)
    if weight is not None:
        if q != 2:
            raise ValueError("weight slices apply to binary alphabets only")
        if not (0 <= weight <= n):
            raise ValueError(f"weight must lie in [0, {n}], got {weight}")
        check_budget(comb(n, weight), budget, f"weight-{weight} slice of length {n}")
        candidates = [weight_slice_packed(n, weight)]
    else:
        check_budget(q**n, budget, f"enumeration of [{q}]^{n}")
        candidates = packed_word_chunks(n, q)

    reps = np.concatenate([_full_period_reps(codec, packed) for packed in candidates])
    if n == 1:
        auto = np.ones(len(reps), dtype=np.int16)
    else:
        auto = min_shift_distance(codec, reps).astype(np.int16)
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


class RowScratch:
    """Buffers that class_distance_row reuses from call to call: the [n, m]
    XOR difference, fold scratch and popcounts, grown to the largest block
    seen.  A graph owns one, so its row scans allocate nothing per row."""

    def __init__(self):
        self._cells = 0

    def views(self, shape: tuple[int, int]):
        cells = shape[0] * shape[1]
        if cells > self._cells:
            self._diff = np.empty(cells, dtype=np.uint64)
            self._fold = np.empty(cells, dtype=np.uint64)
            self._count = np.empty(cells, dtype=np.uint8)
            self._cells = cells
        return (
            self._diff[:cells].reshape(shape),
            self._fold[:cells].reshape(shape),
            self._count[:cells].reshape(shape),
        )


def class_distance_row(
    codec: Codec, orbits: np.ndarray, packed_word: int, scratch: RowScratch | None = None
) -> np.ndarray:
    """Class distance from one packed word to each class of a block.

    orbits has shape [n, m]: column j lists the n rotations of class j
    (ClassSystem.rotations transposed, so that the minimum over each orbit
    is an elementwise minimum of n rows).  Costs m * n packed operations,
    written into the scratch buffers (fresh ones when none are given).
    """
    diff, fold, count = (scratch or RowScratch()).views(orbits.shape)
    np.bitwise_xor(orbits, _U64(packed_word), out=diff)
    np.bitwise_count(_fold(diff, codec.b, codec.lsb_mask, fold), out=count)
    return count.min(axis=0)


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
