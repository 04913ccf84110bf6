"""Independent-set heuristics and the exact small-graph solver.

The greedy pass is the constructive heart of the pipeline: pick a vertex,
discard its neighbors, repeat.  Every result is deterministic for a given
strategy and seed; ties always resolve toward the canonically least vertex
or vertex list.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import log

import numpy as np

from . import engine
from .classgraph import ClassGraph, degree_stats
from .errors import CapacityError, ContractViolation

DEFAULT_EXACT_LIMIT = 40


@dataclass(frozen=True)
class SolverConfig:
    """strategy: gv-greedy (canonical order), min-degree, or random-restart."""

    strategy: str = "gv-greedy"
    restarts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class GreedyResult:
    vertices: tuple[int, ...]      # sorted ascending
    max_degree_seen: int           # largest full degree among picked vertices
    strategy: str

    @property
    def size(self) -> int:
        return len(self.vertices)


def _greedy_pass(graph: ClassGraph, order) -> tuple[list[int], int]:
    alive = np.ones(graph.num_vertices, dtype=bool)
    picked = []
    max_deg = 0
    for v in order:
        if not alive[v]:
            continue
        nbrs = graph.neighbors(v)
        max_deg = max(max_deg, len(nbrs))
        picked.append(int(v))
        alive[v] = False
        alive[nbrs] = False
    return picked, max_deg


def _min_degree_pass(graph: ClassGraph) -> tuple[list[int], int]:
    if not graph.is_explicit:
        raise CapacityError("min-degree strategy needs stored adjacency; build an explicit graph")
    v = graph.num_vertices
    degrees = np.diff(graph.indptr)
    alive = np.ones(v, dtype=bool)
    heap = list(zip(degrees.tolist(), range(v)))
    heapq.heapify(heap)
    picked = []
    max_deg = 0
    while heap:
        deg, u = heapq.heappop(heap)
        if not alive[u] or deg != degrees[u]:
            continue
        nbrs = graph.neighbors(u)
        max_deg = max(max_deg, len(nbrs))
        picked.append(u)
        removed = nbrs[alive[nbrs]]
        alive[u] = False
        alive[removed] = False
        # Every edge from a removed vertex to a live one costs it a degree
        # (nbrs, all dead now, only seeds the list).  One fresh heap entry
        # per touched vertex; its older entries are stale and get skipped.
        touched = np.concatenate([nbrs] + [graph.neighbors(w) for w in removed.tolist()])
        touched = touched[alive[touched]]
        np.subtract.at(degrees, touched, 1)
        for x in engine.sorted_unique(touched).tolist():
            heapq.heappush(heap, (int(degrees[x]), x))
    return picked, max_deg


def greedy_independent_set(graph: ClassGraph, config: SolverConfig | None = None) -> GreedyResult:
    """Run the configured greedy strategy; the result is an independent set.

    The classical guarantee |set| >= |V| / (Delta + 1) is checked before
    returning, using the largest degree actually touched (a lower bound on
    Delta, which makes the check the stricter one); a failure raises
    ContractViolation.
    """
    config = config or SolverConfig()
    v = graph.num_vertices
    if config.strategy == "gv-greedy":
        picked, max_deg = _greedy_pass(graph, range(v))
    elif config.strategy == "min-degree":
        picked, max_deg = _min_degree_pass(graph)
    elif config.strategy == "random-restart":
        if config.restarts < 1:
            raise ValueError(f"need at least one restart, got {config.restarts}")
        rng = np.random.default_rng(np.random.PCG64(config.seed))
        best: tuple[int, ...] | None = None
        best_deg = 0
        for _ in range(config.restarts):
            order = rng.permutation(v)
            picked, max_deg = _greedy_pass(graph, order)
            key = tuple(sorted(picked))
            if best is None or len(key) > len(best) or (len(key) == len(best) and key < best):
                best, best_deg = key, max_deg
        picked, max_deg = list(best or ()), best_deg
    else:
        raise ValueError(f"unknown strategy {config.strategy!r}")

    result = GreedyResult(
        vertices=tuple(sorted(picked)),
        max_degree_seen=max_deg,
        strategy=config.strategy,
    )
    if result.size * (max_deg + 1) < v:
        raise ContractViolation("greedy guarantee violated; adjacency is broken")
    return result


def exact_mis(graph: ClassGraph, limit: int = DEFAULT_EXACT_LIMIT) -> tuple[int, ...]:
    """Maximum independent set by branch and bound.

    Branches on the smallest alive vertex, include-first, keeping strictly
    better sets only, so the returned optimum is the lexicographically least
    maximum set.  Refuses graphs larger than `limit` vertices.
    """
    v = graph.num_vertices
    if v > limit:
        raise CapacityError("exact solve refused", required=v, budget=limit)
    neighbor_masks = []
    for u in range(v):
        mask = 0
        for w in graph.neighbors(u):
            mask |= 1 << int(w)
        neighbor_masks.append(mask)
    full = (1 << v) - 1

    best: list[tuple[int, ...]] = [()]

    def walk(alive: int, chosen: list[int]) -> None:
        if alive == 0:
            if len(chosen) > len(best[0]):
                best[0] = tuple(chosen)
            return
        if len(chosen) + alive.bit_count() <= len(best[0]):
            return
        u = (alive & -alive).bit_length() - 1
        walk(alive & ~(1 << u) & ~neighbor_masks[u], chosen + [u])
        walk(alive & ~(1 << u), chosen)

    walk(full, [])
    return tuple(sorted(best[0]))


@dataclass(frozen=True)
class SolveReport:
    """An independent set next to the numbers it should be judged against.

    greedy_floor is |V| / (Delta + 1); degree_basis records whether Delta is
    the true maximum degree or only the largest degree the solver observed
    (lazy graphs; the floor is then an overestimate, but the true floor it
    overestimates is still guaranteed).  reference is the locally-sparse
    independence scale (|V| / D) ln(min(D, k_hat)) when diagnostics were
    supplied.
    """

    vertices: tuple[int, ...]
    size: int
    num_vertices: int
    strategy: str
    greedy_floor: Fraction
    degree_basis: str
    max_degree: int
    degree_bound: int
    reference: float | None

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "num_vertices": self.num_vertices,
            "strategy": self.strategy,
            "greedy_floor": str(self.greedy_floor),
            "degree_basis": self.degree_basis,
            "max_degree": self.max_degree,
            "degree_bound": self.degree_bound,
            "reference": self.reference,
        }


def solve_report(
    graph: ClassGraph,
    config: SolverConfig | None = None,
    diagnostics=None,
) -> SolveReport:
    """Run the greedy solver and package the comparison numbers."""
    result = greedy_independent_set(graph, config)
    v = graph.num_vertices
    if graph.is_explicit:
        stats = degree_stats(graph)
        max_degree = stats.max_degree
        basis = "exact-max-degree"
    else:
        max_degree = result.max_degree_seen
        basis = "observed-degree"
    floor = Fraction(v, max_degree + 1) if v else Fraction(0)
    reference = None
    if diagnostics is not None and v:
        d_bound = graph.degree_bound
        k = min(Fraction(d_bound), diagnostics.k_hat)
        if k >= 1:
            reference = (v / d_bound) * log(float(k)) if float(k) > 1 else 0.0
    return SolveReport(
        vertices=result.vertices,
        size=result.size,
        num_vertices=v,
        strategy=result.strategy,
        greedy_floor=floor,
        degree_basis=basis,
        max_degree=max_degree,
        degree_bound=graph.degree_bound,
        reference=reference,
    )
