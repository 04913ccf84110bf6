"""Code artifacts: assembly from independent sets, verification, derivations.

Verification is exact and exhaustive: every check either completes a full
scan (choosing among equivalent strategies by cost) or raises CapacityError.
Verdicts are order-insensitive; witnesses are selected canonically (least
word, then least partner), so permuting the input changes nothing.

On-disk format (one code per file):

    # comment lines start with '#'
    KIND n q d            header; OOC appends w, WMUC appends kappa,
    <word>                FHS appends lambda
    <word>                one word per line: digits concatenated for
    ...                   q <= 10, comma-separated for larger alphabets

The file is UTF-8 text and ends with a trailing newline.  Words are
written in ascending lexicographic order.  The header needs 1 <= d <= n,
and symbols must be below min(q, 256) because words_digits is uint8.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from . import budget as caps
from . import engine
from .classgraph import ClassGraph
from .errors import (
    CapacityError,
    CodeFileFormatError,
    ContractViolation,
    DimensionMismatch,
)
from .words import Word, cyclic_shift, hamming_distance, word, word_from_text, word_to_text

_WORK_CAP = 600_000_000
_PAIRWISE_LIMIT = 6000


@dataclass
class CodeArtifact:
    """A code plus its claims.  words_digits rows are the codewords.

    verified flips to True only via verify_code on this artifact; the
    FHS/WMUC derivations demand it.
    """

    kind: str              # HCC | OOC | FHS | WMUC
    n: int
    q: int
    d: int                 # claimed minimum distance
    weight: int | None = None
    kappa: int | None = None
    lam: int | None = None
    words_digits: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.uint8))
    provenance: dict = field(default_factory=dict)
    verified: bool = False

    @property
    def word_count(self) -> int:
        return len(self.words_digits)

    def words(self) -> list[Word]:
        return [Word(tuple(int(s) for s in row), self.q) for row in self.words_digits]


def _as_digit_matrix(code, n: int, q: int) -> np.ndarray:
    """Accept an artifact, a word list, or a digit matrix; validate shape.

    Symbols are range-checked (0 <= s < min(q, 256)) in the input's own
    dtype, before the cast to uint8, so that no symbol wraps into range.
    """
    if isinstance(code, CodeArtifact):
        rows = code.words_digits
    elif isinstance(code, np.ndarray):
        rows = code
    else:
        try:
            rows = np.array([w.symbols if isinstance(w, Word) else tuple(w) for w in code])
        except ValueError:
            raise DimensionMismatch("words in the input disagree on length") from None
    if rows.size == 0:
        return np.zeros((0, n), dtype=np.uint8)
    if rows.shape[1] != n:
        raise DimensionMismatch(f"expected length-{n} words, got length {rows.shape[1]}")
    limit = min(q, 256)
    low, high = rows.min(), rows.max()
    if low < 0 or high >= limit:
        raise ValueError(
            f"symbol {int(low if low < 0 else high)} out of range 0..{limit - 1} "
            f"for alphabet size {q}"
        )
    return rows.astype(np.uint8)


@dataclass(frozen=True)
class Violation:
    kind: str                  # duplicate | period | closure | distance | weight | prefix-suffix
    witness: tuple[Word, ...]
    detail: dict

    def describe(self) -> str:
        ws = ", ".join(word_to_text(w) for w in self.witness)
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.kind}: {ws}" + (f" ({extras})" if extras else "")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    checks: dict[str, bool]
    violations: tuple[Violation, ...]
    word_count: int
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{status} ({self.word_count} words)"]
        parts += [v.describe() for v in self.violations]
        parts += list(self.notes)
        return "; ".join(parts)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": dict(self.checks),
            "violations": [
                {"kind": v.kind, "witness": [word_to_text(w) for w in v.witness], **v.detail}
                for v in self.violations
            ],
            "word_count": self.word_count,
            "notes": list(self.notes),
        }


def _word_from_packed(codec, value: int, q: int) -> Word:
    digits = codec.unpack(np.array([value], dtype=np.uint64))[0]
    return Word(tuple(int(s) for s in digits), q)


def _min_distance_pairwise(codec, sorted_packed: np.ndarray, d: int):
    """First (lex-least) pair at distance <= d - 1, or None; O(M^2) scan."""
    m = len(sorted_packed)
    for a in range(m - 1):
        dist = codec.distance(sorted_packed[a + 1 :], sorted_packed[a])
        bad = np.nonzero(dist <= d - 1)[0]
        if len(bad):
            b = a + 1 + int(bad[0])
            return int(sorted_packed[a]), int(sorted_packed[b]), int(dist[bad[0]])
    return None


def _min_distance_ballprobe(codec, sorted_packed: np.ndarray, digits_sorted: np.ndarray, d: int):
    """Probe every error pattern of weight <= d - 1 against the whole code.

    A hit (edited word present in the code) is exactly a pair at distance
    len(positions) < d.  Returns the lex-least violating pair or None.
    """
    best = None
    n, q = codec.n, codec.q
    for positions, deltas in engine.error_patterns(n, q, d - 1):
        edited = engine.edit_positions(codec, sorted_packed, digits_sorted, positions, deltas)
        hit = engine.sorted_membership(sorted_packed, edited)
        if hit.any():
            xs = sorted_packed[hit]
            ys = edited[hit]
            lo = np.minimum(xs, ys)
            hi = np.maximum(xs, ys)
            k = np.lexsort((hi, lo))[0]
            cand = (int(lo[k]), int(hi[k]), len(positions))
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
    return best


def _min_distance_collapse(codec, sorted_packed: np.ndarray, d: int):
    """Class-collapse scan: exact when the code is shift-closed.

    Groups words into rotation orbits, then checks orbit autodistances and
    pairwise orbit distances (min over offsets).  Witness is canonical-first
    by orbit, then offset.
    """
    canon = codec.canonical(sorted_packed)
    reps = engine.sorted_unique(canon)
    r = len(reps)
    if r * r * codec.n > _WORK_CAP:
        raise CapacityError(
            "class-collapse distance scan exceeds the work cap",
            required=r * r * codec.n,
            budget=_WORK_CAP,
        )
    rotations = codec.all_rotations(reps)
    if codec.n >= 2:
        auto = engine.min_shift_distance(codec, reps)
        bad = np.nonzero(auto <= d - 1)[0]
        if len(bad):
            a = int(bad[0])
            diffs = codec.distance(rotations[a, 1:], reps[a])
            off = 1 + int(np.argmin(diffs))
            return int(reps[a]), int(codec.rotate(reps[a : a + 1], off)[0]), int(diffs.min())
    for a in range(r - 1):
        dist = codec.distance(rotations[a + 1 :], reps[a][None, None])
        flat = dist.min(axis=-1)
        bad = np.nonzero(flat <= d - 1)[0]
        if len(bad):
            b = a + 1 + int(bad[0])
            off = int(np.argmin(dist[bad[0]]))
            other = int(codec.rotate(reps[b : b + 1], off)[0])
            return int(reps[a]), other, int(flat[bad[0]])
    return None


def _verify_packed(rows: np.ndarray, n: int, q: int, d: int, weight: int | None):
    """All checks on the packed path; returns (checks, violations, notes)."""
    codec = engine.codec_for(n, q)
    packed = codec.pack(rows)
    order = np.argsort(packed, kind="stable")
    sorted_packed = packed[order]
    checks: dict[str, bool] = {}
    violations: list[Violation] = []
    notes: list[str] = []

    dup = np.nonzero(sorted_packed[1:] == sorted_packed[:-1])[0]
    checks["distinct"] = len(dup) == 0
    if len(dup):
        violations.append(
            Violation(
                "duplicate",
                (_word_from_packed(codec, int(sorted_packed[dup[0]]), q),),
                {"count": int(len(dup) + 1)},
            )
        )
        sorted_packed = engine.sorted_unique(sorted_packed)

    digits_sorted = codec.unpack(sorted_packed)

    if weight is not None:
        weights = (digits_sorted != 0).sum(axis=1)
        bad = np.nonzero(weights != weight)[0]
        checks["constant_weight"] = len(bad) == 0
        if len(bad):
            violations.append(
                Violation(
                    "weight",
                    (_word_from_packed(codec, int(sorted_packed[bad[0]]), q),),
                    {"weight": int(weights[bad[0]]), "expected": weight},
                )
            )

    if n >= 2:
        auto = engine.min_shift_distance(codec, sorted_packed)
        bad = np.nonzero(auto == 0)[0]
        checks["full_period"] = len(bad) == 0
        if len(bad):
            violations.append(
                Violation(
                    "period",
                    (_word_from_packed(codec, int(sorted_packed[bad[0]]), q),),
                    {},
                )
            )
    else:
        checks["full_period"] = True

    shifted = codec.rotate(sorted_packed, 1)
    present = engine.sorted_membership(sorted_packed, shifted)
    checks["shift_closed"] = bool(present.all()) if len(sorted_packed) else True
    if not checks["shift_closed"]:
        a = int(np.nonzero(~present)[0][0])
        violations.append(
            Violation(
                "closure",
                (
                    _word_from_packed(codec, int(sorted_packed[a]), q),
                    _word_from_packed(codec, int(shifted[a]), q),
                ),
                {"missing_shift": 1},
            )
        )

    m = len(sorted_packed)
    if d <= 1 or m <= 1:
        checks["min_distance"] = True
    else:
        from .volumes import ball_volume

        pattern_count = ball_volume(n, q, d - 1) - 1
        hit = None
        if m <= _PAIRWISE_LIMIT:
            hit = _min_distance_pairwise(codec, sorted_packed, d)
        elif pattern_count <= caps.PATTERN_LIMIT and pattern_count * m <= _WORK_CAP:
            hit = _min_distance_ballprobe(codec, sorted_packed, digits_sorted, d)
            notes.append(f"distance check via {pattern_count} ball patterns")
        elif checks["shift_closed"] and checks["full_period"] and (m // n) <= _PAIRWISE_LIMIT:
            hit = _min_distance_collapse(codec, sorted_packed, d)
            notes.append("distance check via class collapse")
        else:
            raise CapacityError(
                "no exact distance strategy fits the work cap for this code",
                required=m * m,
                budget=_WORK_CAP,
            )
        checks["min_distance"] = hit is None
        if hit is not None:
            xa, xb, dist = hit
            violations.append(
                Violation(
                    "distance",
                    (_word_from_packed(codec, xa, q), _word_from_packed(codec, xb, q)),
                    {"distance": dist, "required": d},
                )
            )
    return checks, violations, notes


def _verify_python(rows: np.ndarray, n: int, q: int, d: int, weight: int | None):
    """Reference-path verification for alphabets beyond the packed layout."""
    ws = sorted((Word(tuple(int(s) for s in row), q) for row in rows), key=lambda w_: w_.symbols)
    checks: dict[str, bool] = {}
    violations: list[Violation] = []
    m0 = len(ws)
    seen = set()
    dup = None
    for w_ in ws:
        if w_.symbols in seen and dup is None:
            dup = w_
        seen.add(w_.symbols)
    checks["distinct"] = dup is None
    if dup is not None:
        violations.append(Violation("duplicate", (dup,), {"count": m0 - len(seen) + 1}))
        ws = sorted((Word(s, q) for s in seen), key=lambda w_: w_.symbols)

    if weight is not None:
        bad = [w_ for w_ in ws if sum(1 for s in w_.symbols if s) != weight]
        checks["constant_weight"] = not bad
        if bad:
            violations.append(
                Violation(
                    "weight",
                    (bad[0],),
                    {"weight": sum(1 for s in bad[0].symbols if s), "expected": weight},
                )
            )

    from .words import period

    bad = [w_ for w_ in ws if period(w_) != n]
    checks["full_period"] = not bad
    if bad:
        violations.append(Violation("period", (bad[0],), {}))

    word_set = {w_.symbols for w_ in ws}
    missing = [w_ for w_ in ws if cyclic_shift(w_, 1).symbols not in word_set]
    checks["shift_closed"] = not missing
    if missing:
        violations.append(
            Violation("closure", (missing[0], cyclic_shift(missing[0], 1)), {"missing_shift": 1})
        )

    if d <= 1 or len(ws) <= 1:
        checks["min_distance"] = True
    else:
        if len(ws) ** 2 > 2_000_000:
            raise CapacityError(
                "pairwise distance scan (reference path) exceeds the work cap",
                required=len(ws) ** 2,
                budget=2_000_000,
            )
        hit = None
        for a in range(len(ws) - 1):
            for b in range(a + 1, len(ws)):
                dist = hamming_distance(ws[a], ws[b])
                if dist <= d - 1:
                    hit = (ws[a], ws[b], dist)
                    break
            if hit:
                break
        checks["min_distance"] = hit is None
        if hit:
            violations.append(
                Violation("distance", (hit[0], hit[1]), {"distance": hit[2], "required": d})
            )
    return checks, violations, []


def verify_code(code, n: int, q: int, d: int, *, weight: int | None = None) -> Verdict:
    """Exhaustive verification of the hopping-cyclic property and distance.

    Checks: all words distinct, every word aperiodic (n distinct rotations),
    the set closed under cyclic shift, pairwise minimum distance >= d, and,
    when weight is given, constant weight.  Accepts an artifact, a word
    list, or a digit matrix; when an artifact is passed its verified flag is
    updated with the outcome.
    """
    if not (1 <= d <= n):
        raise ValueError(f"distance must lie in [1, {n}], got d={d}")
    rows = _as_digit_matrix(code, n, q)
    if len(rows) == 0:
        verdict = Verdict(
            passed=True,
            checks={},
            violations=(),
            word_count=0,
            notes=("empty code: vacuous pass",),
        )
        if isinstance(code, CodeArtifact):
            code.verified = True
        return verdict
    if engine.packable(n, q):
        checks, violations, notes = _verify_packed(rows, n, q, d, weight)
    else:
        checks, violations, notes = _verify_python(rows, n, q, d, weight)
    if len(rows) % n != 0:
        checks["size_multiple_of_n"] = False
        notes = list(notes) + [f"word count {len(rows)} is not a multiple of n={n}"]
    else:
        checks["size_multiple_of_n"] = True
    verdict = Verdict(
        passed=all(checks.values()),
        checks=checks,
        violations=tuple(violations),
        word_count=len(rows),
        notes=tuple(notes),
    )
    if isinstance(code, CodeArtifact):
        code.verified = verdict.passed
    return verdict


def verify_hcc(code, n: int, q: int, d: int) -> Verdict:
    return verify_code(code, n, q, d)


def verify_ooc(code, n: int, d: int, weight: int) -> Verdict:
    return verify_code(code, n, 2, d, weight=weight)


def _independent_in_graph(graph: ClassGraph, vertices: tuple[int, ...]) -> bool:
    chosen = np.zeros(graph.num_vertices, dtype=bool)
    chosen[list(vertices)] = True
    return not any(chosen[graph.neighbors(v)].any() for v in vertices)


def assemble(graph: ClassGraph, vertices, provenance: dict | None = None) -> CodeArtifact:
    """Union the chosen classes into a code artifact.

    vertices must be independent in the graph (checked; ContractViolation
    otherwise).  The resulting code has n * len(vertices) words, sorted
    ascending, and claims the graph's distance d.
    """
    vertices = tuple(int(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise ContractViolation("vertex list contains repeats")
    for v in vertices:
        if not (0 <= v < graph.num_vertices):
            raise ValueError(f"vertex {v} out of range [0, {graph.num_vertices})")
    if not _independent_in_graph(graph, vertices):
        raise ContractViolation("vertex set is not independent in the class graph")

    n, q = graph.n, graph.q
    if len(vertices) == 0:
        rows = np.zeros((0, n), dtype=np.uint8)
    else:
        ids = graph.ids[np.array(sorted(vertices), dtype=np.int64)]
        packed_all = graph.system.rotations[ids].reshape(-1)
        packed_all = np.sort(packed_all)
        rows = graph.system.codec.unpack(packed_all)
    kind = "OOC" if graph.weight is not None else "HCC"
    prov = {
        "num_classes": len(vertices),
        "num_graph_vertices": graph.num_vertices,
        **(provenance or {}),
    }
    return CodeArtifact(
        kind=kind,
        n=n,
        q=q,
        d=graph.d,
        weight=graph.weight,
        words_digits=rows,
        provenance=prov,
    )


def hamming_correlation(x: Word, y: Word, i: int) -> int:
    """H_{x,y}(i) = n - d(x, shift_i(y)): coincidences at time delay i."""
    if x.n != y.n or x.q != y.q:
        raise DimensionMismatch(
            f"words disagree on shape: (n={x.n}, q={x.q}) vs (n={y.n}, q={y.q})"
        )
    return x.n - hamming_distance(x, cyclic_shift(y, i))


@dataclass(frozen=True)
class CorrelationReport:
    """Exact Hamming-correlation maxima of a sequence set.

    max_auto is over nonzero delays of single sequences (None when n = 1),
    max_cross over all delays of distinct pairs (None for fewer than two
    sequences).  lambda_achieved is the max of whichever are defined.
    """

    sequences: int
    max_auto: int | None
    max_cross: int | None
    lam_claimed: int

    @property
    def lambda_achieved(self) -> int | None:
        vals = [v for v in (self.max_auto, self.max_cross) if v is not None]
        return max(vals) if vals else None

    @property
    def within_claim(self) -> bool:
        achieved = self.lambda_achieved
        return achieved is None or achieved <= self.lam_claimed

    def to_dict(self) -> dict:
        return {
            "sequences": self.sequences,
            "max_auto": self.max_auto,
            "max_cross": self.max_cross,
            "lambda_achieved": self.lambda_achieved,
            "lambda_claimed": self.lam_claimed,
            "within_claim": self.within_claim,
        }


def _class_representatives(artifact: CodeArtifact) -> np.ndarray:
    """Packed canonical representative of every rotation orbit in the code."""
    if artifact.words_digits.size == 0:
        return np.zeros(0, dtype=np.uint64)
    codec = engine.codec_for(artifact.n, artifact.q)
    packed = codec.pack(artifact.words_digits)
    return engine.sorted_unique(codec.canonical(packed))


def _min_cross_class_distance(codec, reps: np.ndarray, claimed_d: int):
    """Exact min over distinct orbits and offsets of the pair distance.

    Direct all-pairs for small rep counts; otherwise probes balls of
    escalating radius around every representative (the first radius that
    hits a different orbit is the minimum).  Returns (distance, witness)
    with witness = (packed_x, packed_y, offset) achieving it, or None for
    fewer than two reps.  The escalation path requires canonical reps.
    """
    r = len(reps)
    if r < 2:
        return None
    n, q = codec.n, codec.q
    if r <= _PAIRWISE_LIMIT:
        rotations = codec.all_rotations(reps)
        best = None
        for a in range(r - 1):
            dist = codec.distance(rotations[a + 1 :], reps[a][None, None])
            flat = dist.min(axis=-1)
            k = int(np.argmin(flat))
            if best is None or int(flat[k]) < best[0]:
                off = int(np.argmin(dist[k]))
                best = (int(flat[k]), (int(reps[a]), int(reps[a + 1 + k]), off))
        return best
    digits = codec.unpack(reps)
    all_rot = np.sort(codec.all_rotations(reps).reshape(-1))
    from itertools import combinations, product
    from math import comb

    for radius in range(1, n + 1):
        per_k = comb(n, radius) * (q - 1) ** radius
        if per_k * r > _WORK_CAP:
            raise CapacityError(
                "cross-correlation probe exceeds the work cap",
                required=per_k * r,
                budget=_WORK_CAP,
            )
        for positions in combinations(range(n), radius):
            for deltas in product(range(1, q), repeat=radius):
                edited = engine.edit_positions(codec, reps, digits, positions, deltas)
                hit = engine.sorted_membership(all_rot, edited)
                if not hit.any():
                    continue
                edited_canon = codec.canonical(edited[hit])
                cross = edited_canon != reps[hit]
                if cross.any():
                    k = int(np.nonzero(cross)[0][0])
                    x = int(reps[np.nonzero(hit)[0][k]])
                    y = int(edited_canon[k])
                    target = int(edited[hit][k])
                    offsets = codec.all_rotations(np.array([y], dtype=np.uint64))[0]
                    off = int(np.nonzero(offsets == target)[0][0])
                    return radius, (x, y, off)
    raise AssertionError("two same-length orbits are always within distance n")


def derive_fhs(artifact: CodeArtifact) -> tuple[CodeArtifact, CorrelationReport]:
    """One sequence per rotation orbit of a verified hopping cyclic code.

    The returned set claims maximum correlation lambda = n - d; the report
    carries the exact achieved maxima, computed from the derived set alone.
    """
    if artifact.kind not in ("HCC", "OOC"):
        raise ContractViolation(f"FHS derivation expects a cyclic code, got {artifact.kind}")
    if not artifact.verified:
        raise ContractViolation("FHS derivation requires a verified code; run verify first")
    n, q, d = artifact.n, artifact.q, artifact.d
    lam = n - d
    codec = engine.codec_for(n, q)
    reps = _class_representatives(artifact)
    rows = codec.unpack(reps)

    if n >= 2 and len(reps):
        auto = engine.min_shift_distance(codec, reps)
        max_auto = n - int(auto.min())
    else:
        max_auto = None
    cross = _min_cross_class_distance(codec, reps, d)
    max_cross = None if cross is None else n - cross[0]

    report = CorrelationReport(
        sequences=len(reps),
        max_auto=max_auto,
        max_cross=max_cross,
        lam_claimed=lam,
    )
    fhs = CodeArtifact(
        kind="FHS",
        n=n,
        q=q,
        d=d,
        lam=lam,
        words_digits=rows,
        provenance={"source_kind": artifact.kind, "source_words": artifact.word_count},
    )
    return fhs, report


def verify_fhs(code, n: int, q: int, lam: int) -> tuple[Verdict, CorrelationReport]:
    """Exact correlation audit of a sequence set against a claimed lambda.

    Computes the true max auto-correlation (nonzero delays) and max
    cross-correlation (all delays, distinct sequences) and checks both
    against lam.  Two sequences from the same rotation orbit make the
    cross-correlation hit n, so orbit-duplicates fail loudly.
    """
    if not (0 <= lam <= n):
        raise ValueError(f"lambda must lie in [0, {n}], got {lam}")
    rows = _as_digit_matrix(code, n, q)
    if len(rows) == 0:
        report = CorrelationReport(0, None, None, lam)
        return Verdict(True, {}, (), 0, notes=("empty sequence set: vacuous pass",)), report
    if not engine.packable(n, q):
        raise CapacityError(
            f"correlation audit needs the packed representation (n={n}, q={q} exceeds it)"
        )
    codec = engine.codec_for(n, q)
    packed = np.sort(codec.pack(rows))
    checks: dict[str, bool] = {}
    violations: list[Violation] = []

    dup = np.nonzero(packed[1:] == packed[:-1])[0]
    checks["distinct"] = len(dup) == 0
    if len(dup):
        violations.append(
            Violation(
                "duplicate",
                (_word_from_packed(codec, int(packed[dup[0]]), q),),
                {"count": int(len(dup) + 1)},
            )
        )
        packed = engine.sorted_unique(packed)

    if n >= 2:
        auto = engine.min_shift_distance(codec, packed)
        max_auto = n - int(auto.min())
    else:
        max_auto = None
    cross = None
    if len(packed) >= 2:
        if len(packed) <= _PAIRWISE_LIMIT:
            cross = _min_cross_class_distance(codec, packed, n - lam)
        else:
            # The escalation path needs canonical reps; canonicalize, then
            # map any witness back to the sequences as given (the minimum
            # is shift-invariant, so the value transfers exactly).
            canon = codec.canonical(packed)
            order = np.argsort(canon, kind="stable")
            cs = canon[order]
            dup_pos = np.nonzero(cs[1:] == cs[:-1])[0]
            if len(dup_pos):
                k = int(dup_pos[0])
                xa, xb = int(packed[order[k]]), int(packed[order[k + 1]])
                rots = codec.all_rotations(np.array([xb], dtype=np.uint64))[0]
                off = int(np.nonzero(rots == np.uint64(xa))[0][0])
                cross = (0, (xa, xb, off))
            else:
                cross = _min_cross_class_distance(codec, engine.sorted_unique(canon), n - lam)
                if cross is not None:
                    xc, yc, _ = cross[1]
                    xf = int(packed[np.nonzero(canon == np.uint64(xc))[0][0]])
                    yf = int(packed[np.nonzero(canon == np.uint64(yc))[0][0]])
                    yrots = codec.all_rotations(np.array([yf], dtype=np.uint64))[0]
                    dd = codec.distance(yrots, np.uint64(xf))
                    cross = (int(dd.min()), (xf, yf, int(np.argmin(dd))))
    max_cross = None if cross is None else n - cross[0]
    report = CorrelationReport(
        sequences=len(packed), max_auto=max_auto, max_cross=max_cross, lam_claimed=lam
    )
    checks["within_lambda"] = report.within_claim
    if max_auto is not None and max_auto > lam:
        a = int(np.argmin(auto))
        diffs = codec.distance(codec.all_rotations(packed[a : a + 1])[0, 1:], packed[a])
        off = 1 + int(np.argmin(diffs))
        violations.append(
            Violation(
                "correlation",
                (_word_from_packed(codec, int(packed[a]), q),),
                {"shift": off, "correlation": max_auto, "claimed": lam},
            )
        )
    elif max_cross is not None and max_cross > lam:
        x, y, off = cross[1]
        violations.append(
            Violation(
                "correlation",
                (_word_from_packed(codec, x, q), _word_from_packed(codec, y, q)),
                {"shift": off, "correlation": max_cross, "claimed": lam},
            )
        )
    verdict = Verdict(
        passed=all(checks.values()),
        checks=checks,
        violations=tuple(violations),
        word_count=len(rows),
    )
    return verdict, report


def verify_wmuc(code, n: int, q: int, kappa: int) -> Verdict:
    """No length-l prefix may equal a length-l suffix (kappa <= l <= n-1).

    Pairs include a word against itself.  The scan intersects the prefix
    and suffix sets per length, which is equivalent to checking all pairs;
    the witness is the least (l, prefix) collision.
    """
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must lie in [1, {n}], got {kappa}")
    rows = _as_digit_matrix(code, n, q)
    checks: dict[str, bool] = {}
    violations: list[Violation] = []
    if len(rows) == 0:
        return Verdict(True, {}, (), 0, notes=("empty code: vacuous pass",))
    if engine.packable(n, q):
        codec = engine.codec_for(n, q)
        packed = engine.sorted_unique(codec.pack(rows))
        ok = True
        for ell in range(kappa, n):
            keep = np.uint64((1 << (codec.b * ell)) - 1)
            prefixes = packed >> np.uint64(codec.b * (n - ell))
            suffixes = packed & keep
            common = engine.sorted_intersect(prefixes, suffixes)
            if len(common):
                ok = False
                val = int(common.min())
                x = int(packed[np.nonzero(prefixes == val)[0][0]])
                y = int(packed[np.nonzero(suffixes == val)[0][0]])
                violations.append(
                    Violation(
                        "prefix-suffix",
                        (_word_from_packed(codec, x, q), _word_from_packed(codec, y, q)),
                        {"length": ell},
                    )
                )
                break
        checks["uncorrelated"] = ok
    else:
        ws = sorted({tuple(int(s) for s in row) for row in rows})
        ok = True
        for ell in range(kappa, n):
            if not ok:
                break
            for x in ws:
                for y in ws:
                    if x[:ell] == y[n - ell :]:
                        violations.append(
                            Violation(
                                "prefix-suffix",
                                (Word(x, q), Word(y, q)),
                                {"length": ell},
                            )
                        )
                        ok = False
                        break
                if not ok:
                    break
        checks["uncorrelated"] = ok
    return Verdict(
        passed=all(checks.values()),
        checks=checks,
        violations=tuple(violations),
        word_count=len(rows),
    )


def derive_wmuc(artifact: CodeArtifact, kappa: int) -> CodeArtifact:
    """Representative subcode of a verified HCC, claimed kappa-uncorrelated.

    Requires d >= n - kappa + 1: a prefix/suffix collision of length
    l >= kappa would force two codewords within distance n - l <= n - kappa
    < d, hence equal, hence a nontrivial self-rotation, contradicting full
    period.  Picking one word per orbit makes that argument airtight.
    """
    if artifact.kind not in ("HCC", "OOC"):
        raise ContractViolation(f"WMUC derivation expects a cyclic code, got {artifact.kind}")
    if not artifact.verified:
        raise ContractViolation("WMUC derivation requires a verified code; run verify first")
    n, q, d = artifact.n, artifact.q, artifact.d
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa must lie in [1, {n}], got {kappa}")
    if d < n - kappa + 1:
        raise ContractViolation(
            f"need claimed distance d >= n - kappa + 1 = {n - kappa + 1}, got d={d}"
        )
    codec = engine.codec_for(n, q)
    reps = _class_representatives(artifact)
    return CodeArtifact(
        kind="WMUC",
        n=n,
        q=q,
        d=d,
        kappa=kappa,
        words_digits=codec.unpack(reps),
        provenance={"source_kind": artifact.kind, "source_words": artifact.word_count},
    )


def write_code_file(path, artifact: CodeArtifact) -> None:
    """Serialize an artifact; deterministic byte-for-byte for equal inputs."""
    header = [artifact.kind, str(artifact.n), str(artifact.q), str(artifact.d)]
    if artifact.kind == "OOC":
        header.append(str(artifact.weight))
    elif artifact.kind == "WMUC":
        header.append(str(artifact.kappa))
    elif artifact.kind == "FHS":
        header.append(str(artifact.lam))
    lines = []
    if artifact.provenance:
        lines.append("# provenance: " + json.dumps(artifact.provenance, sort_keys=True))
    lines.append(" ".join(header))
    head = ("\n".join(lines) + "\n").encode()
    rows = np.asarray(artifact.words_digits)
    if artifact.q <= 10:
        # One byte per digit plus a newline column, emitted in one piece.
        buf = np.full((rows.shape[0], rows.shape[1] + 1), ord("\n"), dtype=np.uint8)
        buf[:, :-1] = rows
        buf[:, :-1] += ord("0")
        body = buf.tobytes()
    else:
        body = "".join(",".join(map(str, row)) + "\n" for row in rows.tolist()).encode()
    Path(path).write_bytes(head + body)


_HEADER_EXTRAS = {"HCC": None, "OOC": "weight", "WMUC": "kappa", "FHS": "lam"}

# Symbols are stored as uint8, so a code file cannot carry one above this.
_MAX_FILE_SYMBOL = 255


def _parse_header(line: str, lineno: int) -> CodeArtifact:
    tokens = line.split()
    if len(tokens) < 4:
        raise CodeFileFormatError(f"header needs at least 'KIND n q d', got {line!r}", lineno)
    kind = tokens[0]
    if kind not in _HEADER_EXTRAS:
        raise CodeFileFormatError(f"unknown code kind {kind!r}", lineno)
    expect = 4 if _HEADER_EXTRAS[kind] is None else 5
    if len(tokens) != expect:
        raise CodeFileFormatError(
            f"{kind} header needs {expect} tokens, got {len(tokens)}", lineno
        )
    try:
        numbers = [int(tok) for tok in tokens[1:]]
    except ValueError:
        raise CodeFileFormatError(f"non-integer header field in {line!r}", lineno) from None
    n, q, d = numbers[:3]
    if n < 1 or q < 2 or not (1 <= d <= n):
        raise CodeFileFormatError(f"header out of domain: n={n}, q={q}, d={d}", lineno)
    artifact = CodeArtifact(kind=kind, n=n, q=q, d=d)
    extra = _HEADER_EXTRAS[kind]
    if extra is not None:
        setattr(artifact, extra, numbers[3])
    return artifact


def _symbol(token: str) -> int:
    """int(token) if it is a symbol a code file can hold, else -1."""
    try:
        value = int(token)
    except ValueError:
        return -1
    return value if 0 <= value <= _MAX_FILE_SYMBOL else -1


def _word_row(line: str, lineno: int, n: int, q: int) -> tuple[int, ...]:
    """Parse one body line with the reference semantics of word_from_text."""
    try:
        w_ = word_from_text(line, q)
    except ValueError:
        raise CodeFileFormatError(f"unparseable word {line!r}", lineno) from None
    if w_.n != n:
        raise CodeFileFormatError(f"word length {w_.n} != n={n}", lineno)
    top = max(w_.symbols)
    if top > _MAX_FILE_SYMBOL:
        raise CodeFileFormatError(
            f"symbol {top} exceeds {_MAX_FILE_SYMBOL}, the largest a code file can hold",
            lineno,
        )
    return w_.symbols


def _parse_body(lines: list[str], linenos: list[int], n: int, q: int) -> np.ndarray:
    """Digit matrix of the stripped body lines, parsed as one array.

    A row takes the array path when its shape is right (n characters for
    q <= 10, n - 1 commas otherwise) and every symbol lands in range(q).
    Every other row goes, in file order, through word_from_text, which
    either parses it or raises the error of the first malformed line.
    """
    m = len(lines)
    words = np.zeros((m, n), dtype=np.uint8)
    if q <= 10:
        fits = np.fromiter(map(len, lines), dtype=np.intp, count=m) == n
    else:
        commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.intp, count=m)
        fits = commas == n - 1
    shaped = np.flatnonzero(fits)
    if shaped.size:
        if q <= 10:
            # Non-ASCII characters become '?', so their rows fail the range test.
            text = "".join(compress(lines, fits)).encode("ascii", "replace")
            symbols = np.frombuffer(text, dtype=np.uint8) - ord("0")
        else:
            tokens = ",".join(compress(lines, fits)).split(",")
            symbols = np.fromiter(map(_symbol, tokens), dtype=np.int16, count=len(tokens))
        symbols = symbols.reshape(-1, n)
        in_range = ((symbols >= 0) & (symbols < q)).all(axis=1)
        words[shaped[in_range]] = symbols[in_range]
        fits[shaped[~in_range]] = False
    for i in np.flatnonzero(~fits).tolist():
        words[i] = _word_row(lines[i], linenos[i], n, q)
    return words


def read_code_file(path) -> CodeArtifact:
    """Parse a code file; raises CodeFileFormatError with the line number.

    The bytes must be UTF-8; the first byte that is not is reported with
    its line.  One pass over the lines strips each one, skips blank and '#'
    lines, reads the header, and collects the body lines with their
    numbers.  The body is then parsed as one array (see _parse_body); only
    lines that fail its shape or range test are parsed one by one, by
    word_from_text, so the first malformed line is reported exactly as a
    line-by-line reader would.
    """
    artifact: CodeArtifact | None = None
    body: list[str] = []
    linenos: list[int] = []
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line the bad byte sits on, numbered as splitlines() numbers it.
        lineno = len((data[: exc.start].decode("utf-8") + "\0").splitlines())
        raise CodeFileFormatError("not UTF-8 text", lineno) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if artifact is None:
            artifact = _parse_header(line, lineno)
        else:
            body.append(line)
            linenos.append(lineno)
    if artifact is None:
        raise CodeFileFormatError("missing header line")
    artifact.words_digits = _parse_body(body, linenos, artifact.n, artifact.q)
    return artifact
