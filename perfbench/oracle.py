"""Independent checks for everything the benchmark's ops produce.

Uses numpy and the standard library only and never imports cyclocode, so
a defect in the program cannot also hide in its own checker.  Words are
digit matrices (one row per word); `keys` packs a row into one base-q
integer so set operations run on sorted int64 arrays.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np

# The program's exact bounds print integers with thousands of digits.
sys.set_int_max_str_digits(0)

_PAIR_CHUNK = 1 << 24     # bytes of one pairwise-distance block
_PROBE_LIMIT = 50_000_000  # ball-probe membership tests per check


# ---------------------------------------------------------------------------
# words and code files


def keys(words: np.ndarray, q: int) -> np.ndarray:
    n = words.shape[1]
    if q**n >= 2**63:
        raise ValueError(f"[{q}]^{n} does not fit int64 keys")
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return words.astype(np.int64) @ powers


def rotations(words: np.ndarray) -> list[np.ndarray]:
    """words shifted left by 0..n-1 positions."""
    return [np.roll(words, -i, axis=1) for i in range(words.shape[1])]


def all_words(n: int, q: int) -> np.ndarray:
    """Every word of [q]^n, in base-q counting order."""
    idx = np.arange(q**n, dtype=np.int64)
    digits = np.empty((q**n, n), dtype=np.uint8)
    for j in range(n - 1, -1, -1):
        digits[:, j] = idx % q
        idx //= q
    return digits


def min_autodistance(words: np.ndarray) -> np.ndarray:
    """min over shifts i in 1..n-1 of d(x, shift_i x); 0 marks a periodic word."""
    n = words.shape[1]
    best = np.full(len(words), n, dtype=np.int64)
    for i in range(1, n):
        np.minimum(best, (words != np.roll(words, -i, axis=1)).sum(axis=1), out=best)
    return best


def parity_code(n: int, q: int) -> np.ndarray:
    """Full-period words whose symbol sum is 0 mod q.

    Rotation keeps the sum, so the set is shift-closed; two distinct words
    with equal sums differ in at least two places, so d = 2.
    """
    words = all_words(n, q)
    words = words[words.astype(np.int64).sum(axis=1) % q == 0]
    return words[min_autodistance(words) > 0]


def read_code_file(path) -> tuple[list, np.ndarray]:
    """(header tokens, digit matrix) of a code file; header[0] is the kind."""
    lines = [
        s for s in (raw.strip() for raw in Path(path).read_text().splitlines())
        if s and not s.startswith("#")
    ]
    header = [lines[0].split()[0]] + [int(t) for t in lines[0].split()[1:]]
    n = header[1]
    body = lines[1:]
    if not body:
        return header, np.zeros((0, n), dtype=np.uint8)
    if any("," in s for s in body):
        words = np.array([[int(t) for t in s.split(",")] for s in body], dtype=np.int64)
    else:
        if any(len(s) != n for s in body):
            raise ValueError(f"{path}: a word is not {n} symbols long")
        words = np.frombuffer("".join(body).encode(), dtype=np.uint8).reshape(-1, n) - ord("0")
    if words.shape[1] != n or words.min() < 0 or words.max() >= header[2]:
        raise ValueError(f"{path}: words do not match header {header}")
    return header, words.astype(np.uint8)


def write_code_file(path, header: list, words: np.ndarray) -> None:
    lines = [" ".join(str(t) for t in header)]
    if header[2] > 10:
        lines += [",".join(map(str, row)) for row in words.tolist()]
    else:
        chars = np.full((len(words), words.shape[1] + 1), ord("\n"), dtype=np.uint8)
        chars[:, :-1] = words + ord("0")
        lines.append(chars.tobytes().decode().rstrip("\n"))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# code properties


def _has_close_pair_pairwise(a: np.ndarray, b: np.ndarray, d: int) -> bool:
    """True when some row of a is within distance 1..d-1 of a row of b."""
    chunk = max(1, _PAIR_CHUNK // max(1, b.size))
    for lo in range(0, len(a), chunk):
        dist = (a[lo : lo + chunk, None, :] != b[None, :, :]).sum(axis=2)
        if ((dist > 0) & (dist < d)).any():
            return True
    return False


def _has_close_pair_probe(words: np.ndarray, q: int, d: int) -> bool:
    """Ball probe: edit every word in up to d-1 places, look the result up."""
    n = words.shape[1]
    sorted_keys = np.sort(keys(words, q))
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    base = keys(words, q)
    w = words.astype(np.int64)
    for k in range(1, d):
        for positions in combinations(range(n), k):
            for deltas in product(range(1, q), repeat=k):
                edited = base.copy()
                for pos, delta in zip(positions, deltas):
                    edited += ((w[:, pos] + delta) % q - w[:, pos]) * powers[pos]
                at = np.minimum(np.searchsorted(sorted_keys, edited), len(sorted_keys) - 1)
                if (sorted_keys[at] == edited).any():
                    return True
    return False


def _ball_size(n: int, q: int, r: int) -> int:
    return sum(comb(n, i) * (q - 1) ** i for i in range(r + 1))


def has_close_pair(words: np.ndarray, q: int, d: int, closed: bool) -> bool:
    """Do two distinct (deduplicated) words lie at distance below d?

    For a shift-closed, full-period set one representative per orbit
    against every word suffices, since rotating both words keeps their
    distance.
    """
    m, n = words.shape
    if d <= 1 or m < 2:
        return False
    probe_cost = (_ball_size(n, q, d - 1) - 1) * m
    reps = words[canonical_keys(words, q) == keys(words, q)] if closed else words
    pair_cost = len(reps) * m * n
    if probe_cost <= min(pair_cost, _PROBE_LIMIT):
        return _has_close_pair_probe(words, q, d)
    return _has_close_pair_pairwise(reps, words, d)


def canonical_keys(words: np.ndarray, q: int) -> np.ndarray:
    """Smallest key over each word's rotations: one value per orbit."""
    return np.min([keys(r, q) for r in rotations(words)], axis=0)


def violations(words: np.ndarray, q: int, d: int, weight: int | None = None) -> set[str]:
    """Violation kinds of a claimed cyclic code, in the program's vocabulary.

    duplicate: a repeated word; weight: a word off the claimed weight;
    period: a word equal to a nontrivial rotation of itself; closure: a
    word whose rotation by one is missing; distance: distinct words
    closer than d.  Checks after `duplicate` run on the distinct words.
    """
    found = set()
    k = keys(words, q)
    uniq, first = np.unique(k, return_index=True)
    if len(uniq) < len(k):
        found.add("duplicate")
    words = words[np.sort(first)]
    if weight is not None and ((words != 0).sum(axis=1) != weight).any():
        found.add("weight")
    if (min_autodistance(words) == 0).any():
        found.add("period")
    shifted = keys(np.roll(words, -1, axis=1), q)
    if not np.isin(shifted, uniq).all():
        found.add("closure")
    closed = not ({"period", "closure"} & found)
    if has_close_pair(words, q, d, closed):
        found.add("distance")
    return found


def check_cyclic_file(path, expect: list) -> tuple[int, str | None]:
    """Validate an HCC/OOC file claiming `expect` (header tokens).

    Returns (word count, problem or None).
    """
    header, words = read_code_file(path)
    if header != expect:
        return len(words), f"header {header} != {expect}"
    weight = header[4] if header[0] == "OOC" else None
    bad = violations(words, header[2], header[3], weight)
    if bad:
        return len(words), f"violations {sorted(bad)}"
    if len(words) % header[1]:
        return len(words), "word count is not a multiple of n"
    return len(words), None


def check_fhs_file(path, source: np.ndarray, n: int, q: int, d: int) -> tuple[int, str | None]:
    """An FHS set derived from a verified code: one word per source orbit.

    Its rotations must give back exactly the source code, which makes the
    correlation claim lambda = n - d hold by the source's distance.
    """
    header, words = read_code_file(path)
    if header != ["FHS", n, q, d, n - d]:
        return len(words), f"header {header}"
    closure = np.unique(np.concatenate([keys(r, q) for r in rotations(words)]))
    if len(closure) != len(words) * n:
        return len(words), "two sequences share an orbit, or one is periodic"
    if not np.array_equal(closure, np.unique(keys(source, q))):
        return len(words), "rotations of the set differ from the source code"
    return len(words), None


def check_wmuc_file(path, source: np.ndarray, n: int, q: int, d: int, kappa: int):
    """A WMUC subcode: one source word per orbit, no prefix of length
    kappa..n-1 equal to any suffix of the same length."""
    header, words = read_code_file(path)
    if header != ["WMUC", n, q, d, kappa]:
        return len(words), f"header {header}"
    if not np.isin(keys(words, q), keys(source, q)).all():
        return len(words), "a word is not in the source code"
    if len(np.unique(canonical_keys(words, q))) * n != len(source) or len(words) * n != len(source):
        return len(words), "not exactly one word per source orbit"
    for ell in range(kappa, n):
        if np.intersect1d(keys(words[:, :ell], q), keys(words[:, n - ell :], q)).size:
            return len(words), f"prefix equals suffix at length {ell}"
    return len(words), None


# ---------------------------------------------------------------------------
# experiments


def census(n: int, q: int, eps: Fraction, weight: int | None = None) -> dict:
    """Exact census of words with min autodistance above the threshold.

    Plain: threshold n(1 - 1/q - eps) over [q]^n.  Weight slice (binary,
    p = weight/n): threshold (1 - eps) n p (1 - p) over the weight slice.
    """
    words = all_words(n, q)
    if weight is None:
        threshold = n * (1 - Fraction(1, q) - eps)
    else:
        words = words[(words != 0).sum(axis=1) == weight]
        p = Fraction(weight, n)
        threshold = (1 - eps) * n * p * (1 - p)
    auto = min_autodistance(words)
    count = int((auto > threshold).sum())
    return {"count": count, "total": len(words), "threshold": str(threshold),
            "probability": str(Fraction(count, len(words)))}


def intersection(n: int, q: int, t: int, s: int) -> int:
    """|B(0, t) n B(y, t)| for y of weight s, as a closed four-index sum.

    Inside y's support a coordinate of z is 0 (a of them), equal to y (b),
    or another symbol (c = s - a - b); outside it is nonzero (e of them).
    Then d(z, 0) = b + c + e and d(z, y) = a + c + e.
    """
    total = 0
    for a in range(s + 1):
        for b in range(s - a + 1):
            c = s - a - b
            for e in range(n - s + 1):
                if b + c + e <= t and a + c + e <= t:
                    total += (comb(s, a) * comb(s - a, b) * (q - 2) ** c
                              * comb(n - s, e) * (q - 1) ** e)
    return total


def decay_rows(n: int, q: int, t: int) -> list[dict]:
    vol = _ball_size(n, q, t)
    rows = []
    for s in range(n + 1):
        inter = intersection(n, q, t, s)
        rows.append({"separation": s, "intersection": inter, "ratio": str(Fraction(inter, vol))})
    return rows


def gv(n: int, q: int, d: int) -> Fraction:
    return Fraction(q**n, _ball_size(n, q, d - 1))
