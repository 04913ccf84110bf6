"""The class graph: full-period shift classes, adjacency by class distance.

Vertices are the full-period classes with auto_distance >= d; two classes
are adjacent when their class distance (min Hamming distance between any
two members) is at most d - 1.  Any independent set then yields a code:
the union of its classes has minimum distance >= d.

An explicit graph stores its adjacency as one CSR (int64 indptr, int32
indices, each row ascending), built by one of two kernels:

  ball      apply every error pattern of weight <= d - 1 to all
            representatives in batched whole-array passes (edit-table sums,
            a running minimum over rotations) and look the hits up among
            the vertices; O(P * V * n) work for P patterns, which wins when
            the ball is small.  A weight slice uses only flips of even
            weight, since an odd flip cannot land back in the slice.
  pairwise  the lazy graph's rows stored: one orbit row per vertex
            (engine.class_distance_row over the vertices' orbits); O(V^2 n)
            work

A lazy graph stores nothing and scans one orbit row per neighbors() call;
auto falls back to it once neither build fits the work cap in budget.py.
All methods yield the same adjacency, which the test suite checks.

sparsity_diagnostics counts the edges inside every neighborhood (the
triangles at each vertex) over the CSR, in O(sum deg^2) array work rather
than per-neighbor Python calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, floor

import numpy as np

from . import budget as caps
from . import engine
from .errors import CapacityError, DimensionMismatch
from .volumes import ball_volume, cw_ball_volume
from .words import CyclicClass, Word, cyclic_shift, hamming_distance

# Candidate words per ball-probe batch (patterns x vertices); bounds the
# probe's working set at a few of these 8 MB arrays.
_BALL_BATCH_CELLS = 1 << 20


def class_distance(a: CyclicClass, b: CyclicClass) -> int:
    """min distance between members of two classes.

    Shift invariance collapses the double minimum: it suffices to slide one
    representative against all rotations of the other.
    """
    ra, rb = a.representative, b.representative
    if ra.n != rb.n or ra.q != rb.q:
        raise DimensionMismatch(
            f"classes disagree on shape: (n={ra.n}, q={ra.q}) vs (n={rb.n}, q={rb.q})"
        )
    return min(hamming_distance(ra, cyclic_shift(rb, i)) for i in range(rb.n))


def _degree_bound(n: int, q: int, d: int, weight: int | None) -> int:
    # The ball saturates at the whole space, so cap the radius; only d > n
    # (an empty graph) ever hits the cap.
    if weight is None:
        return ball_volume(n, q, min(d - 1, n))
    return cw_ball_volume(n, weight, min(d - 1, 2 * weight))


class ClassGraph:
    """Vertices and class distances shared by both graph kinds; subclasses
    supply neighbors()."""

    # Explicit graphs store adjacency and can afford whole-graph scans.
    is_explicit = False

    def __init__(self, n: int, q: int, d: int, weight: int | None, system, ids: np.ndarray):
        self.n = n
        self.q = q
        self.d = d
        self.weight = weight
        self.system = system
        self.ids = ids  # indices into the class system, ascending canonical order
        # Reused by every orbit row scan over this graph: fresh temporaries
        # per row would each come back as new pages from the allocator.
        self.row_scratch = engine.RowScratch()

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def degree_bound(self) -> int:
        """D: the ball-volume cap on any degree."""
        return _degree_bound(self.n, self.q, self.d, self.weight)

    @cached_property
    def orbits(self) -> np.ndarray:
        """The vertices' orbits in engine.class_distance_row's layout:
        orbits[i, v] is vertex v's representative shifted by i."""
        return np.ascontiguousarray(self.system.rotations[self.ids].T)

    def class_at(self, v: int) -> CyclicClass:
        digits = self.system.reps_digits[self.ids[v]]
        rep = Word(tuple(int(s) for s in digits), self.q)
        return CyclicClass(
            representative=rep,
            n_distinct=self.n,
            auto_distance=int(self.system.auto_distance[self.ids[v]]),
        )

    def distance_row(self, v: int) -> np.ndarray:
        """Class distance from vertex v to every vertex (self entry 0)."""
        return engine.class_distance_row(
            self.system.codec, self.orbits, self.orbits[0, v], self.row_scratch
        )

    def neighbors(self, v: int) -> np.ndarray:
        raise NotImplementedError

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))


class ExplicitClassGraph(ClassGraph):
    """Adjacency stored as CSR: the neighbors of v, ascending, are
    indices[indptr[v] : indptr[v + 1]]."""

    is_explicit = True

    def __init__(self, n, q, d, weight, system, ids, indptr: np.ndarray, indices: np.ndarray):
        super().__init__(n, q, d, weight, system, ids)
        self.indptr = indptr    # int64 [V + 1]
        self.indices = indices  # int32 [2E]

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


class LazyClassGraph(ClassGraph):
    """Computes each neighbor row on demand; nothing stored."""

    def neighbors(self, v: int) -> np.ndarray:
        mask = self.distance_row(v) <= self.d - 1
        mask[v] = False
        return np.flatnonzero(mask)


def _build_pairwise(graph: LazyClassGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the lazy graph's rows: one orbit row per vertex."""
    rows = [graph.neighbors(u).astype(np.int32) for u in range(graph.num_vertices)]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return indptr, np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)


def _pattern_count(n: int, q: int, d: int, weight: int | None) -> int:
    """Error patterns the ball kernel applies: the punctured Hamming ball of
    radius d - 1, or on a weight slice its flips of even weight, since an
    odd flip leaves the slice."""
    radius = min(d - 1, n)
    if weight is None:
        return ball_volume(n, q, radius) - 1
    return sum(comb(n, k) for k in range(2, radius + 1, 2))


def _pattern_rows(n: int, q: int, radius: int, even_only: bool) -> np.ndarray:
    """Every error pattern of weight 1..radius (only even weights when
    even_only) as `radius` rows of the edit table (position * (q - 1) +
    delta - 1); shorter patterns pad with the all-zero row n * (q - 1)."""
    zero = n * (q - 1)
    rows = [
        [p * (q - 1) + delta - 1 for p, delta in zip(positions, deltas)]
        + [zero] * (radius - len(positions))
        for positions, deltas in engine.error_patterns(n, q, radius)
        if not (even_only and len(positions) % 2)
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), radius)


def _build_ball(system, ids: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR via ball enumeration: apply every error pattern of weight
    <= d - 1 to all representatives, map the results back to vertices.

    Patterns go in batches of about _BALL_BATCH_CELLS candidate words.  A
    batch is the representatives plus a fancy-indexed sum of per-position
    edits (field arithmetic mod 2^64, as in engine.edit_positions), reduced
    to canonical form by a running minimum over the n rotations.  Hits
    become flat src * V + tgt keys, which one sort turns into the CSR.
    """
    n, q, codec = system.n, system.q, system.codec
    reps = system.reps_packed[ids]  # ascending, so it doubles as the lookup table
    v = len(reps)
    if v == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32)
    patterns = _pattern_rows(n, q, d - 1, even_only=system.weight is not None)

    # edits[p * (q - 1) + delta - 1, u]: adding it to rep u turns the digit
    # x at position p into (x + delta) mod q; the last row is all zero.
    edits = np.zeros((n * (q - 1) + 1, v), dtype=np.uint64)
    digits = system.reps_digits[ids].astype(np.uint64)
    for p in range(n):
        off = np.uint64(codec.b * (n - 1 - p))
        old = digits[:, p]
        for delta in range(1, q):
            new = (old + np.uint64(delta)) % np.uint64(q)
            edits[p * (q - 1) + delta - 1] = (new << off) - (old << off)

    source = np.arange(v, dtype=np.int64)
    batch = max(1, _BALL_BATCH_CELLS // v)
    key_blocks = [np.empty(0, dtype=np.int64)]  # d = 1 has no patterns
    for lo in range(0, len(patterns), batch):
        rows = patterns[lo : lo + batch]
        cand = reps + edits[rows[:, 0]]
        for j in range(1, rows.shape[1]):
            cand += edits[rows[:, j]]
        canon = cand.copy()
        for i in range(1, n):
            np.minimum(canon, codec.rotate(cand, i), out=canon)
        tgt = np.minimum(np.searchsorted(reps, canon), v - 1)
        hit = (reps[tgt] == canon) & (tgt != source)
        key_blocks.append(np.broadcast_to(source, hit.shape)[hit] * v + tgt[hit])

    keys = engine.sorted_unique(np.concatenate(key_blocks))
    indptr = np.searchsorted(keys, np.arange(v + 1) * v)
    # In place: a keys % v temporary would double the peak of large builds.
    np.remainder(keys, v, out=keys)
    return indptr, keys.astype(np.int32)


def build_graph(
    n: int,
    q: int,
    d: int,
    *,
    weight: int | None = None,
    method: str = "auto",
    budget: int | None = None,
) -> ClassGraph:
    """Construct the class graph for minimum distance d.

    weight selects the constant-weight variant (binary only).  method is
    one of auto, ball, pairwise, lazy.  auto picks ball when its pattern
    count P is within the pattern limit and its P * V * n work within the
    work cap, else pairwise when its V^2 * n work is, else lazy.  d > n
    yields an empty vertex set (no class has autodistance beyond n).
    Enumerating the classes costs q^n (or C(n, weight)) words, guarded by
    the enumeration budget.
    """
    if d < 1:
        raise ValueError(f"distance must be at least 1, got d={d}")
    if weight is not None and q != 2:
        raise ValueError("constant-weight graphs are defined for binary alphabets")
    system = engine.class_system(n, q, weight, budget)
    ids = np.nonzero(system.auto_distance >= d)[0]
    v = len(ids)
    patterns = _pattern_count(n, q, d, weight)
    work = {"ball": patterns * v * n, "pairwise": v * v * n}

    if method == "auto":
        if patterns <= caps.PATTERN_LIMIT and work["ball"] <= caps.ROWSCAN_BUDGET:
            method = "ball"
        elif work["pairwise"] <= caps.ROWSCAN_BUDGET:
            method = "pairwise"
        else:
            method = "lazy"

    lazy = LazyClassGraph(n, q, d, weight, system, ids)
    if method == "lazy":
        return lazy
    if method not in work:
        raise ValueError(f"unknown construction method {method!r}")
    if work[method] > caps.ROWSCAN_BUDGET:
        raise CapacityError(
            f"{method} graph construction exceeds the work cap",
            required=work[method],
            budget=caps.ROWSCAN_BUDGET,
        )
    if method == "ball":
        indptr, indices = _build_ball(system, ids, d)
    else:
        indptr, indices = _build_pairwise(lazy)
    return ExplicitClassGraph(n, q, d, weight, system, ids, indptr, indices)


@dataclass(frozen=True)
class DegreeStats:
    num_vertices: int
    num_edges: int
    max_degree: int
    mean_degree: float
    histogram: dict[int, int]
    degree_bound: int  # D = ball volume at radius d - 1

    @property
    def within_bound(self) -> bool:
        return self.max_degree <= self.degree_bound - 1 if self.num_vertices else True

    def to_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "degree_bound": self.degree_bound,
            "within_bound": self.within_bound,
        }


def degree_stats(graph: ClassGraph) -> DegreeStats:
    """Full-scan degree audit.

    Explicit graphs read their degrees off the CSR; lazy graphs must
    recompute every row, which is refused beyond the work cap.
    """
    v = graph.num_vertices
    if graph.is_explicit:
        degrees = np.diff(graph.indptr)
    else:
        cost = v * v * graph.n
        if cost > caps.ROWSCAN_BUDGET:
            raise CapacityError(
                "degree scan over a lazy graph exceeds the work cap",
                required=cost,
                budget=caps.ROWSCAN_BUDGET,
            )
        degrees = np.array([graph.degree(u) for u in range(v)], dtype=np.int64)
    if v == 0:
        return DegreeStats(0, 0, 0, 0.0, {}, graph.degree_bound)
    counts = np.bincount(degrees)
    return DegreeStats(
        num_vertices=v,
        num_edges=int(degrees.sum()) // 2,
        max_degree=int(degrees.max()),
        mean_degree=float(degrees.mean()),
        histogram={int(a): int(counts[a]) for a in np.flatnonzero(counts)},
        degree_bound=graph.degree_bound,
    )


@dataclass(frozen=True)
class SparsityDiagnostics:
    """Neighborhood structure summary behind the local-sparsity argument.

    For each vertex the neighborhood splits at distance d - tau*n/2 into a
    close part S and a far ring T; k_hat = D^2 / max neighborhood edge count
    estimates the sparsity parameter K (capped tale: D^2 + 1 when every
    neighborhood is edgeless).
    """

    tau: Fraction
    split_distance: Fraction
    max_s: int
    max_t: int
    max_neighborhood_edges: int
    k_hat: Fraction
    degree_bound: int

    def to_dict(self) -> dict:
        return {
            "tau": str(self.tau),
            "split_distance": str(self.split_distance),
            "max_s": self.max_s,
            "max_t": self.max_t,
            "max_neighborhood_edges": self.max_neighborhood_edges,
            "k_hat": str(self.k_hat),
            "degree_bound": self.degree_bound,
        }


def sparsity_diagnostics(graph: ClassGraph, tau=None) -> SparsityDiagnostics:
    """Measure |S|, |T|, and induced neighborhood edges across all vertices.

    tau defaults to d / n.  |S| and |T| come from one orbit row per vertex
    over its neighbors, O(sum deg * n).  Edges inside N(u) are the
    triangles at u: N(u) is marked in a boolean array and the CSR rows of
    N(u) are gathered in one indexed pass and counted against the marks,
    so the count costs sum deg^2 element operations and a few numpy calls
    per vertex.  The scan refuses to start past the work cap, and lazy
    graphs (no stored adjacency) are refused outright, so this is a
    small-graph instrument.
    """
    d, n = graph.d, graph.n
    tau = Fraction(d, n) if tau is None else Fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    v = graph.num_vertices
    split = d - tau * n / 2
    split_floor = floor(split)

    if not graph.is_explicit:
        raise CapacityError(
            "sparsity diagnostics need stored adjacency, which a lazy graph does not "
            "keep; storing it costs V^2 n row work",
            required=v * v * n,
            budget=caps.ROWSCAN_BUDGET,
        )
    indptr, indices = graph.indptr, graph.indices
    degrees = np.diff(indptr)
    cost = v * graph.system.count * n + int((degrees**2).sum())
    if cost > caps.ROWSCAN_BUDGET:
        raise CapacityError(
            "sparsity diagnostics exceed the work cap", required=cost, budget=caps.ROWSCAN_BUDGET
        )

    codec, orbits = graph.system.codec, graph.orbits
    marked = np.zeros(v, dtype=bool)
    max_s = max_t = max_edges = 0
    for u in range(v):
        nbrs = indices[indptr[u] : indptr[u + 1]]
        if len(nbrs) == 0:
            continue
        row = engine.class_distance_row(codec, orbits[:, nbrs], orbits[0, u], graph.row_scratch)
        s_count = int((row <= split_floor).sum())
        max_s = max(max_s, s_count)
        max_t = max(max_t, len(nbrs) - s_count)
        # Positions in `indices` of every neighbor list of N(u), back to back.
        lengths = degrees[nbrs]
        shift = np.repeat(indptr[nbrs] - (np.cumsum(lengths) - lengths), lengths)
        gathered = indices[shift + np.arange(len(shift))]
        marked[nbrs] = True
        max_edges = max(max_edges, int(np.count_nonzero(marked[gathered])) // 2)
        marked[nbrs] = False

    dd = graph.degree_bound
    k_hat = Fraction(dd * dd, max_edges) if max_edges > 0 else Fraction(dd * dd + 1)
    return SparsityDiagnostics(
        tau=tau,
        split_distance=split,
        max_s=max_s,
        max_t=max_t,
        max_neighborhood_edges=max_edges,
        k_hat=k_hat,
        degree_bound=dd,
    )
