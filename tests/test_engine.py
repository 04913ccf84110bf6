"""The packed bit-field kernels must agree with the word-level reference ops."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclocode import (
    ball_volume,
    canonical_rotation,
    cyclic_shift,
    enumerate_classes,
    hamming_distance,
    min_cyclic_autodistance,
    word,
)
from cyclocode.engine import class_system as cached_class_system
from cyclocode.engine import (
    bits_per_symbol,
    class_distance_row,
    class_system,
    codec_for,
    edit_positions,
    error_patterns,
    limb_codec,
    min_shift_distance,
    packable,
    packed_word_chunks,
    sorted_intersect,
    sorted_membership,
    sorted_unique,
    weight_slice_packed,
)


def all_words(n, q):
    return list(itertools.product(range(q), repeat=n))


def digit_matrix(n, q):
    return np.array(all_words(n, q), dtype=np.uint8)


def word_digit_chunks(n, q, chunk):
    """Reference enumeration: (offset, digit rows) blocks of [q]^n in
    lexicographic order, by integer division of the word index."""
    total = q**n
    divisors = np.array([q ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    for lo in range(0, total, chunk):
        vals = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        yield lo, ((vals[:, None] // divisors) % q).astype(np.uint8)


def weight_slice_digits(n, w):
    """Reference slice enumeration: one digit row per combination of
    positions, in itertools.combinations order (descending packed value)."""
    out = np.zeros((len(list(itertools.combinations(range(n), w))), n), dtype=np.uint8)
    for r, positions in enumerate(itertools.combinations(range(n), w)):
        out[r, list(positions)] = 1
    return out


def brute_class_distance(a, b):
    n = len(a)
    return min(
        sum(x != y for x, y in zip(a, b[i:] + b[:i])) for i in range(n)
    )


def test_bits_per_symbol_steps():
    expected = {2: 1, 3: 2, 4: 2, 5: 4, 16: 4, 17: 8, 100: 8, 256: 8}
    for q, b in expected.items():
        assert bits_per_symbol(q) == b


def test_packable_boundary():
    assert packable(64, 2)
    assert not packable(65, 2)
    assert packable(32, 3)
    assert not packable(33, 3)
    assert packable(16, 16)
    assert packable(8, 256)
    assert not packable(9, 256)


def test_pack_unpack_round_trip_and_lex_order():
    for n, q in [(5, 2), (4, 3), (3, 5), (2, 17)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        assert np.array_equal(codec.unpack(packed), digits)
        # numeric order of packed values is exactly lexicographic word order
        assert np.array_equal(np.sort(packed), packed)
        assert len(np.unique(packed)) == q**n


def test_rotate_matches_cyclic_shift():
    for n, q in [(5, 2), (4, 3), (3, 4)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        words = [word(tuple(row), q) for row in digits.tolist()]
        for i in range(n):
            rotated = codec.unpack(codec.rotate(packed, i))
            for row, x in zip(rotated.tolist(), words):
                assert tuple(row) == cyclic_shift(x, i).symbols
        allrot = codec.all_rotations(packed)
        assert allrot.shape == (len(words), n)
        for i in range(n):
            assert np.array_equal(allrot[:, i], codec.rotate(packed, i))


def test_distance_matches_reference():
    for n, q in [(5, 2), (3, 3)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        words = [word(tuple(row), q) for row in digits.tolist()]
        got = codec.distance(packed[:, None], packed[None, :])
        for a, x in enumerate(words):
            for b, y in enumerate(words):
                assert got[a, b] == hamming_distance(x, y)


def test_canonical_matches_word_level():
    for n, q in [(7, 2), (4, 3)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        canon = codec.unpack(codec.canonical(packed))
        for row, canon_row in zip(digits.tolist(), canon.tolist()):
            assert tuple(canon_row) == canonical_rotation(word(tuple(row), q)).symbols


def test_min_shift_distance_matches_word_level():
    for n, q in [(6, 2), (8, 2), (4, 3)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        auto = min_shift_distance(codec, packed)
        for value, row in zip(auto.tolist(), digits.tolist()):
            assert value == min_cyclic_autodistance(word(tuple(row), q))


@pytest.mark.parametrize("n", [2, 63, 64, 65, 128, 129, 200])
def test_limb_kernel_matches_word_level(n):
    # One limb up to n * b = 64 bits, then windows on the doubled word:
    # limb boundaries on and off symbol multiples, tails full and partial.
    rng = np.random.default_rng(n)
    for q in (2, 3, 5, 17, 256):
        codec = limb_codec(n, q)
        rows = rng.integers(0, q, size=(6, n), dtype=np.uint8)
        rows[0] = 0                 # every shift at distance 0
        rows[1] = np.arange(n) % 2  # period 2 for even n
        words = [word(r.tolist(), q) for r in rows]
        packed = codec.pack(rows)
        assert packed.shape == ((6,) if codec.limbs == 1 else (codec.limbs, 6))
        got = min_shift_distance(codec, packed)
        assert got.tolist() == [min_cyclic_autodistance(x) for x in words]
        for shift in (1, n // 2 + 1, n):
            got = min_shift_distance(codec, packed, shift)
            want = [hamming_distance(x, cyclic_shift(x, shift)) for x in words]
            assert got.tolist() == want


def test_streaming_scans_match_all_rotations():
    rng = np.random.default_rng(3)
    for n, q in [(7, 2), (5, 3), (16, 4), (8, 256), (16, 5)]:
        codec = codec_for(n, q)
        packed = codec.pack(rng.integers(0, q, size=(300, n), dtype=np.uint8))
        rots = codec.all_rotations(packed)
        assert np.array_equal(codec.canonical(packed), rots.min(axis=-1))
        table = np.bitwise_count(codec.nonzero_fold(rots[:, 1:] ^ packed[:, None]))
        assert np.array_equal(min_shift_distance(codec, packed), table.min(axis=-1))


def test_packed_word_chunks_match_packed_digit_enumeration():
    for n, q, chunk in [(3, 3, 7), (4, 2, 5), (5, 3, 64), (3, 5, 1000), (2, 17, 50)]:
        codec = codec_for(n, q)
        got = list(packed_word_chunks(n, q, chunk=chunk))
        ref = list(word_digit_chunks(n, q, chunk))
        assert len(got) == len(ref)
        for block, (_, digits) in zip(got, ref):
            assert np.array_equal(block, codec.pack(digits))
        assert [tuple(r) for d in ref for r in d[1].tolist()] == all_words(n, q)


def test_weight_slice_packed_matches_combinations():
    for n, w in [(6, 3), (7, 2), (5, 0), (5, 5), (9, 4), (3, 1)]:
        codec = codec_for(n, 2)
        got = weight_slice_packed(n, w)
        want = np.sort(codec.pack(weight_slice_digits(n, w)))
        assert np.array_equal(got, want)  # ascending, each word once
        expect = [s for s in all_words(n, 2) if sum(s) == w]
        assert [tuple(r) for r in codec.unpack(got).tolist()] == expect


def test_class_system_builds_without_rotation_tables():
    # Enumerating [2]^19 in 2^18-word chunks: an [chunk, n] uint64 rotation
    # table would alone take 40 MB; the class table itself is about 5 MB.
    tracemalloc.start()
    try:
        system = cached_class_system.__wrapped__(19, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.count == 27594
    assert peak <= 20 * 2**20


def test_class_system_matches_enumerate_classes():
    for n, q, w in [(6, 2, None), (5, 3, None), (7, 2, 3)]:
        system = class_system(n, q, w)
        codec = codec_for(n, q)
        classes = list(
            enumerate_classes(n, q, full_period_only=True, weight_exactly=w)
        )
        assert system.count == len(classes)
        reps = [tuple(r) for r in system.reps_digits.tolist()]
        assert reps == [c.representative.symbols for c in classes]
        assert [int(a) for a in system.auto_distance] == [c.auto_distance for c in classes]
        assert np.array_equal(system.reps_packed, codec.pack(system.reps_digits))
        # rotations[k] holds the whole orbit of rep k
        for k, c in enumerate(classes):
            orbit = {
                cyclic_shift(c.representative, i).symbols for i in range(n)
            }
            got_orbit = {
                tuple(r) for r in codec.unpack(system.rotations[k]).tolist()
            }
            assert got_orbit == orbit


def test_error_patterns_count_matches_ball_volume():
    for n, q, radius in [(5, 2, 2), (4, 3, 2), (6, 2, 0), (3, 4, 3)]:
        patterns = list(error_patterns(n, q, radius))
        assert len(patterns) == ball_volume(n, q, radius) - 1
        assert len(set(patterns)) == len(patterns)
        for positions, deltas in patterns:
            assert 1 <= len(positions) <= radius
            assert len(positions) == len(deltas)
            assert all(0 <= p < n for p in positions)
            assert list(positions) == sorted(positions)
            assert all(1 <= d_ <= q - 1 for d_ in deltas)


def test_edit_positions_applies_symbol_deltas():
    for n, q in [(5, 2), (4, 3)]:
        codec = codec_for(n, q)
        digits = digit_matrix(n, q)
        packed = codec.pack(digits)
        for positions, deltas in error_patterns(n, q, 2):
            edited = codec.unpack(edit_positions(codec, packed, digits, positions, deltas))
            expect = digits.copy()
            for p, d_ in zip(positions, deltas):
                expect[:, p] = (expect[:, p] + d_) % q
            assert np.array_equal(edited, expect)


def test_edited_words_at_radius_r_have_distance_r():
    n, q = 6, 3
    codec = codec_for(n, q)
    digits = digit_matrix(n, q)[:50]
    packed = codec.pack(digits)
    for positions, deltas in error_patterns(n, q, 2):
        edited = edit_positions(codec, packed, digits, positions, deltas)
        dist = codec.distance(edited, packed)
        assert np.all(dist == len(positions))


def test_sorted_membership():
    table = np.array([2, 3, 5, 7, 11], dtype=np.uint64)
    queries = np.array([0, 2, 4, 5, 11, 12, 7, 7], dtype=np.uint64)
    got = sorted_membership(table, queries)
    assert got.tolist() == [False, True, False, True, True, False, True, True]
    assert sorted_membership(table, np.array([], dtype=np.uint64)).tolist() == []
    empty = np.array([], dtype=np.uint64)
    assert sorted_membership(empty, queries).tolist() == [False] * len(queries)


def test_class_distance_row_matches_brute():
    for n, q in [(6, 2), (5, 3)]:
        system = class_system(n, q)
        reps = [tuple(r) for r in system.reps_digits.tolist()]
        for a, rep_a in enumerate(reps):
            row = class_distance_row(system.codec, system.rotations.T, int(system.reps_packed[a]))
            for b, rep_b in enumerate(reps):
                assert row[b] == brute_class_distance(rep_a, rep_b)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_sorted_unique_matches_np_unique(dtype):
    rng = np.random.default_rng(7)
    cases = [
        np.array([], dtype=dtype),
        np.array([5], dtype=dtype),
        np.full(40, 3, dtype=dtype),
        rng.integers(0, 50, size=1000).astype(dtype),
        rng.integers(0, 2**62, size=1000).astype(dtype),
    ]
    if dtype == np.uint64:
        cases.append(np.array([2**64 - 1, 0, 2**63, 2**64 - 1], dtype=np.uint64))
    else:
        cases.append(rng.integers(-(2**40), 2**40, size=500).astype(np.int64))
    for values in cases:
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_sorted_intersect_matches_np_intersect1d(dtype):
    rng = np.random.default_rng(11)
    empty = np.array([], dtype=dtype)
    dup = np.full(30, 9, dtype=dtype)
    pairs = [
        (empty, empty),
        (empty, rng.integers(0, 9, size=20).astype(dtype)),
        (dup, dup),
        (dup, np.array([1, 9, 9, 12], dtype=dtype)),
        (dup, np.array([1, 2], dtype=dtype)),
    ]
    for _ in range(5):
        a = rng.integers(0, 300, size=400).astype(dtype)
        pairs.append((a, rng.integers(0, 300, size=250).astype(dtype)))
    for a, b in pairs:
        got = sorted_intersect(a, b)
        want = np.intersect1d(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


_INT64 = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)


@given(st.lists(_INT64, max_size=60), st.lists(_INT64, max_size=60))
def test_sorted_kernels_match_numpy_on_arbitrary_int64(a, b):
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    assert np.array_equal(sorted_unique(a), np.unique(a))
    assert np.array_equal(sorted_intersect(a, b), np.intersect1d(a, b))
