"""The class graph: full-period shift classes, adjacency by class distance.

Vertices are the full-period classes with auto_distance >= d; two classes
are adjacent when their class distance (min Hamming distance between any
two members) is at most d - 1.  Any independent set then yields a code:
the union of its classes has minimum distance >= d.

Backends trade memory for work but expose identical adjacency:

  pairwise  adjacency lists from direct class-distance rows, O(V^2 n) work
  ball      adjacency from Hamming-ball enumeration around representatives,
            O(V * Vol * n) work in batched whole-array passes (edit-table
            sums, a running minimum over rotations, one sort to dedup);
            wins when the ball is small
  matrix    pairwise distances kept as a V x V byte matrix (cached per
            (n, q, weight) and shared across d values)
  lazy      nothing precomputed; each neighbors() call scans the class table

build_graph(method="auto") picks the cheapest backend that fits; the graphs
produced by all methods are identical, which the test suite checks.

sparsity_diagnostics counts the edges inside every neighborhood (the
triangles at each vertex) over a CSR copy of the adjacency, in
O(sum deg^2) array work rather than per-neighbor Python calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor

import numpy as np

from . import engine
from .errors import CapacityError, DimensionMismatch
from .volumes import ball_volume, cw_ball_volume
from .words import CyclicClass, Word, cyclic_shift, hamming_distance

# Work caps: elementary vector operations per build/scan before refusing.
_ROWSCAN_BUDGET = 1_000_000_000
_MATRIX_BYTES = 700_000_000
_BALL_PATTERN_LIMIT = 2100
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
    """Shared surface for every backend; subclasses fill in adjacency."""

    def __init__(self, n: int, q: int, d: int, weight: int | None, system, ids: np.ndarray):
        self.n = n
        self.q = q
        self.d = d
        self.weight = weight
        self.system = system
        self.ids = ids  # indices into the class system, ascending canonical order

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def degree_bound(self) -> int:
        """D: the ball-volume cap on any degree."""
        return _degree_bound(self.n, self.q, self.d, self.weight)

    def representative_packed(self, v: int) -> int:
        return int(self.system.reps_packed[self.ids[v]])

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
        full = engine.class_distance_row(self.system, self.representative_packed(v))
        return full[self.ids]

    def neighbors(self, v: int) -> np.ndarray:
        raise NotImplementedError

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    # Explicit backends store adjacency and can afford whole-graph scans.
    is_explicit = False


class ExplicitClassGraph(ClassGraph):
    def __init__(self, n, q, d, weight, system, ids, adjacency: list[np.ndarray]):
        super().__init__(n, q, d, weight, system, ids)
        self._adjacency = adjacency
        self.is_explicit = True

    def neighbors(self, v: int) -> np.ndarray:
        return self._adjacency[v]


class MatrixClassGraph(ClassGraph):
    """Backed by the cached all-classes distance matrix."""

    def __init__(self, n, q, d, weight, system, ids, matrix: np.ndarray):
        super().__init__(n, q, d, weight, system, ids)
        self._matrix = matrix
        self.is_explicit = True

    def neighbors(self, v: int) -> np.ndarray:
        row = self._matrix[self.ids[v]][self.ids]
        mask = row <= self.d - 1
        mask[v] = False
        return np.nonzero(mask)[0].astype(np.int64)


class LazyClassGraph(ClassGraph):
    """Computes each neighbor row on demand; nothing stored."""

    def neighbors(self, v: int) -> np.ndarray:
        row = self.distance_row(v)
        mask = row <= self.d - 1
        mask[v] = False
        return np.nonzero(mask)[0].astype(np.int64)


@lru_cache(maxsize=2)
def _cached_distance_matrix(n: int, q: int, weight: int | None, budget: int | None) -> np.ndarray:
    system = engine.class_system(n, q, weight, budget)
    return engine.class_distance_matrix(system, max_bytes=_MATRIX_BYTES)


def _build_pairwise(system, ids: np.ndarray, d: int) -> list[np.ndarray]:
    adjacency = []
    packed = system.reps_packed
    for v in range(len(ids)):
        row = engine.class_distance_row(system, int(packed[ids[v]]))[ids]
        mask = row <= d - 1
        mask[v] = False
        adjacency.append(np.nonzero(mask)[0].astype(np.int64))
    return adjacency


def _pattern_rows(n: int, q: int, radius: int) -> np.ndarray:
    """Every error pattern of weight 1..radius as `radius` rows of the edit
    table (position * (q - 1) + delta - 1); shorter patterns pad with the
    all-zero row n * (q - 1)."""
    zero = n * (q - 1)
    rows = [
        [p * (q - 1) + delta - 1 for p, delta in zip(positions, deltas)]
        + [zero] * (radius - len(positions))
        for positions, deltas in engine.error_patterns(n, q, radius)
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), radius)


def _build_ball(system, ids: np.ndarray, d: int) -> list[np.ndarray]:
    """Adjacency via ball enumeration: apply every error pattern of weight
    <= d - 1 to all representatives, map the results back to vertices.

    Patterns go in batches of about _BALL_BATCH_CELLS candidate words.  A
    batch is the representatives plus a fancy-indexed sum of per-position
    edits (field arithmetic mod 2^64, as in engine.edit_positions), reduced
    to canonical form by a running minimum over the n rotations.  Hits
    become flat src * V + tgt keys, deduplicated by one sort at the end.
    """
    n, q, codec = system.n, system.q, system.codec
    reps = system.reps_packed[ids]  # ascending, so it doubles as the lookup table
    v = len(reps)
    patterns = _pattern_rows(n, q, d - 1)
    if v == 0 or len(patterns) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(v)]

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
    key_blocks = []
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
    tgt = keys % v
    return [tgt[indptr[u] : indptr[u + 1]] for u in range(v)]


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
    one of auto, pairwise, ball, matrix, lazy; auto picks the cheapest
    backend that fits the work and memory caps.  d > n yields an empty
    vertex set (no class has autodistance beyond n).  Enumerating the
    classes costs q^n (or C(n, weight)) words, guarded by the enumeration
    budget.
    """
    if d < 1:
        raise ValueError(f"distance must be at least 1, got d={d}")
    if weight is not None and q != 2:
        raise ValueError("constant-weight graphs are defined for binary alphabets")
    system = engine.class_system(n, q, weight, budget)
    ids = np.nonzero(system.auto_distance >= d)[0]
    v = len(ids)

    if method == "auto":
        if v == 0 or d == 1:
            # Distinct classes are disjoint word sets, so their distance is
            # at least 1 and the d = 1 graph is edgeless.
            return ExplicitClassGraph(
                n, q, d, weight, system, ids, [np.empty(0, dtype=np.int64) for _ in range(v)]
            )
        patterns = _degree_bound(n, q, d, weight) - 1
        if (
            patterns <= _BALL_PATTERN_LIMIT
            and weight is None
            and patterns * v * n <= _ROWSCAN_BUDGET
        ):
            method = "ball"
        elif system.count * system.count <= _MATRIX_BYTES:
            method = "matrix"
        elif v * system.count * n <= _ROWSCAN_BUDGET:
            method = "pairwise"
        else:
            method = "lazy"

    if method == "pairwise":
        if v * system.count * n > _ROWSCAN_BUDGET:
            raise CapacityError(
                "pairwise graph construction exceeds the work cap",
                required=v * system.count * n,
                budget=_ROWSCAN_BUDGET,
            )
        return ExplicitClassGraph(n, q, d, weight, system, ids, _build_pairwise(system, ids, d))
    if method == "ball":
        if weight is not None:
            raise ValueError(
                "ball construction enumerates the plain Hamming ball; "
                "use pairwise or matrix for constant-weight graphs"
            )
        patterns = _degree_bound(n, q, d, weight) - 1
        if patterns * v * n > _ROWSCAN_BUDGET:
            raise CapacityError(
                "ball graph construction exceeds the work cap",
                required=patterns * v * n,
                budget=_ROWSCAN_BUDGET,
            )
        return ExplicitClassGraph(n, q, d, weight, system, ids, _build_ball(system, ids, d))
    if method == "matrix":
        matrix = _cached_distance_matrix(n, q, weight, budget)
        return MatrixClassGraph(n, q, d, weight, system, ids, matrix)
    if method == "lazy":
        return LazyClassGraph(n, q, d, weight, system, ids)
    raise ValueError(f"unknown construction method {method!r}")


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

    Explicit and matrix graphs scan what they already hold; lazy graphs
    must recompute every row, which is refused beyond the work cap.
    """
    v = graph.num_vertices
    if isinstance(graph, MatrixClassGraph):
        degrees = np.empty(v, dtype=np.int64)
        ids = graph.ids
        chunk = max(1, _ROWSCAN_BUDGET // max(1, v * 8))
        for lo in range(0, v, chunk):
            block = graph._matrix[ids[lo : lo + chunk]][:, ids]
            degrees[lo : lo + chunk] = (block <= graph.d - 1).sum(axis=1) - 1
    elif graph.is_explicit:
        degrees = np.array([graph.degree(u) for u in range(v)], dtype=np.int64)
    else:
        cost = v * graph.system.count * graph.n
        if cost > _ROWSCAN_BUDGET:
            raise CapacityError(
                "degree scan over a lazy graph exceeds the work cap",
                required=cost,
                budget=_ROWSCAN_BUDGET,
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

    tau defaults to d / n.  |S| and |T| come from one class-distance row
    per vertex, O(V * Vsys * n).  Edges inside N(u) are the triangles at u:
    with the adjacency in CSR form, N(u) is marked in a boolean array and
    the neighbor lists of N(u) are gathered in one indexed pass and counted
    against the marks, so the count costs sum deg^2 element operations and
    a few numpy calls per vertex.  The scan refuses to start past the work
    cap, so this is a small-graph instrument.
    """
    d, n = graph.d, graph.n
    tau = Fraction(d, n) if tau is None else Fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    v = graph.num_vertices
    split = d - tau * n / 2
    split_floor = floor(split)

    if not graph.is_explicit:
        raise CapacityError("sparsity diagnostics need an explicit or matrix graph")
    degrees = np.array([graph.degree(u) for u in range(v)], dtype=np.int64)
    cost = v * graph.system.count * n + int((degrees**2).sum())
    if cost > _ROWSCAN_BUDGET:
        raise CapacityError(
            "sparsity diagnostics exceed the work cap", required=cost, budget=_ROWSCAN_BUDGET
        )

    # Gathered only once the scan is admitted: a refused scan over a matrix
    # graph would otherwise hold every neighbor row at once.
    indptr = np.zeros(v + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.concatenate([graph.neighbors(u) for u in range(v)]) if v else indptr[:0]
    marked = np.zeros(v, dtype=bool)
    max_s = max_t = max_edges = 0
    for u in range(v):
        nbrs = indices[indptr[u] : indptr[u + 1]]
        if len(nbrs) == 0:
            continue
        row = graph.distance_row(u)[nbrs]
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
