"""Independent-set solvers: greedy strategies, exact branch and bound, reports.

Known small graphs (paths, stars, cycles, complete bipartite) pin the
strategy-specific behavior; seeded random graphs check the structural
invariants (independence, maximality, the |V|/(Delta+1) floor) and compare
the exact solver against a subset brute force.
"""

import heapq
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import isclose, log

import numpy as np
import pytest

import cyclocode
from cyclocode import CapacityError, ContractViolation
from cyclocode.classgraph import (
    ExplicitClassGraph,
    SparsityDiagnostics,
    build_graph,
    sparsity_diagnostics,
)
from cyclocode.solver import (
    DEFAULT_EXACT_LIMIT,
    SolverConfig,
    exact_mis,
    greedy_independent_set,
    solve_report,
)


def stub_graph(adjacency, n=5, q=2, d=2):
    """Explicit graph with hand-written adjacency; no class system behind it."""
    rows = [sorted(a) for a in adjacency]
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.array([w for r in rows for w in r], dtype=np.int32)
    ids = np.arange(len(rows))
    return ExplicitClassGraph(n, q, d, None, None, ids, indptr, indices)


def random_graph(v, p, rng):
    adjacency = [set() for _ in range(v)]
    for a, b in itertools.combinations(range(v), 2):
        if rng.random() < p:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return stub_graph(adjacency)


def is_independent(graph, vertices):
    chosen = set(vertices)
    return all(chosen.isdisjoint(graph.neighbors(v).tolist()) for v in chosen)


def is_maximal(graph, vertices):
    chosen = set(vertices)
    return all(
        v in chosen or not chosen.isdisjoint(graph.neighbors(v).tolist())
        for v in range(graph.num_vertices)
    )


def brute_alpha(graph):
    v = graph.num_vertices
    edges = [
        (a, int(b)) for a in range(v) for b in graph.neighbors(a) if a < b
    ]
    best = 0
    for mask in range(1 << v):
        if all(not (mask >> a & 1 and mask >> b & 1) for a, b in edges):
            best = max(best, mask.bit_count())
    return best


# ---------------------------------------------------------------------------
# known graphs


def test_edgeless_graph_takes_every_vertex():
    g = stub_graph([[] for _ in range(7)])
    r = greedy_independent_set(g)
    assert r.vertices == tuple(range(7))
    assert r.size == 7
    assert r.max_degree_seen == 0
    assert exact_mis(g) == tuple(range(7))


def test_complete_graph_takes_one_vertex():
    g = stub_graph([[u for u in range(5) if u != v] for v in range(5)])
    assert greedy_independent_set(g).vertices == (0,)
    assert greedy_independent_set(g, SolverConfig(strategy="min-degree")).vertices == (0,)
    assert exact_mis(g) == (0,)


def test_path_graph_alternates():
    g = stub_graph([[1], [0, 2], [1, 3], [2, 4], [3]])
    assert greedy_independent_set(g).vertices == (0, 2, 4)
    assert greedy_independent_set(g, SolverConfig(strategy="min-degree")).vertices == (0, 2, 4)
    assert exact_mis(g) == (0, 2, 4)


def test_star_graph_separates_the_strategies():
    # Canonical order grabs the hub and stalls at size 1; min-degree starts
    # at a leaf and collects all four.
    g = stub_graph([[1, 2, 3, 4], [0], [0], [0], [0]])
    assert greedy_independent_set(g).vertices == (0,)
    assert greedy_independent_set(g, SolverConfig(strategy="min-degree")).vertices == (1, 2, 3, 4)
    assert exact_mis(g) == (1, 2, 3, 4)


def test_complete_bipartite_2_3():
    g = stub_graph([[2, 3, 4], [2, 3, 4], [0, 1], [0, 1], [0, 1]])
    assert greedy_independent_set(g).vertices == (0, 1)
    assert greedy_independent_set(g, SolverConfig(strategy="min-degree")).vertices == (2, 3, 4)
    assert exact_mis(g) == (2, 3, 4)


def test_five_cycle():
    g = stub_graph([[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]])
    assert greedy_independent_set(g).vertices == (0, 2)
    assert exact_mis(g) == (0, 2)


def test_exact_mis_prefers_lexicographically_least_optimum():
    # C5 has five maximum sets; (0, 2) is the least.
    g = stub_graph([[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]])
    assert exact_mis(g) == (0, 2)
    # Two disjoint edges: four maximum sets, (0, 2) least again.
    g2 = stub_graph([[1], [0], [3], [2]])
    assert exact_mis(g2) == (0, 2)


# ---------------------------------------------------------------------------
# invariants on random graphs


def test_greedy_invariants_on_random_graphs():
    rng = np.random.default_rng(20240811)
    configs = [
        SolverConfig(),
        SolverConfig(strategy="min-degree"),
        SolverConfig(strategy="random-restart", restarts=4, seed=1),
    ]
    for trial in range(25):
        g = random_graph(12, float(rng.uniform(0.05, 0.7)), rng)
        degrees = [g.degree(v) for v in range(12)]
        delta = max(degrees) if degrees else 0
        for config in configs:
            r = greedy_independent_set(g, config)
            assert is_independent(g, r.vertices)
            assert is_maximal(g, r.vertices)
            assert r.size * (delta + 1) >= g.num_vertices
            assert r.vertices == tuple(sorted(r.vertices))


def reference_min_degree(graph):
    """One heap push per degree decrement, edge by edge."""
    degrees = [graph.degree(u) for u in range(graph.num_vertices)]
    alive = [True] * graph.num_vertices
    heap = [(deg, u) for u, deg in enumerate(degrees)]
    heapq.heapify(heap)
    picked = []
    while heap:
        deg, u = heapq.heappop(heap)
        if not alive[u] or deg != degrees[u]:
            continue
        picked.append(u)
        removed = [u] + [int(w) for w in graph.neighbors(u) if alive[w]]
        for w in removed:
            alive[w] = False
        for w in removed:
            for x in graph.neighbors(w).tolist():
                if alive[x]:
                    degrees[x] -= 1
                    heapq.heappush(heap, (degrees[x], x))
    return tuple(sorted(picked))


def test_min_degree_matches_per_edge_reference():
    rng = np.random.default_rng(5)
    graphs = [random_graph(30, float(rng.uniform(0.05, 0.5)), rng) for _ in range(20)]
    graphs += [build_graph(10, 2, 3), build_graph(7, 3, 3), build_graph(14, 2, 4, weight=6)]
    for g in graphs:
        got = greedy_independent_set(g, SolverConfig(strategy="min-degree")).vertices
        assert got == reference_min_degree(g)


def test_exact_matches_subset_brute_force_and_dominates_greedy():
    rng = np.random.default_rng(7)
    for trial in range(5):
        g = random_graph(10, float(rng.uniform(0.1, 0.6)), rng)
        opt = exact_mis(g)
        assert is_independent(g, opt)
        assert len(opt) == brute_alpha(g)
        for config in [SolverConfig(), SolverConfig(strategy="min-degree")]:
            assert len(opt) >= greedy_independent_set(g, config).size


def test_random_restart_deterministic_and_monotone_in_restarts():
    rng = np.random.default_rng(3)
    g = random_graph(14, 0.3, rng)
    a = greedy_independent_set(g, SolverConfig(strategy="random-restart", restarts=6, seed=11))
    b = greedy_independent_set(g, SolverConfig(strategy="random-restart", restarts=6, seed=11))
    assert a.vertices == b.vertices
    # More restarts with the same seed replay the first permutations, so the
    # best over 32 can never be smaller than the best over 1.
    one = greedy_independent_set(g, SolverConfig(strategy="random-restart", restarts=1, seed=4))
    many = greedy_independent_set(g, SolverConfig(strategy="random-restart", restarts=32, seed=4))
    assert many.size >= one.size


def test_solver_argument_errors():
    g = stub_graph([[1], [0]])
    with pytest.raises(ValueError):
        greedy_independent_set(g, SolverConfig(strategy="random-restart", restarts=0))
    with pytest.raises(ValueError):
        greedy_independent_set(g, SolverConfig(strategy="simulated-annealing"))


def broken_stub_graph():
    """Vertex 0's row is a 1 x 5 matrix: it reports one neighbor but
    knocks out five, so the greedy pass keeps one vertex of six."""
    g = stub_graph([[] for _ in range(6)])
    row = np.arange(1, 6, dtype=np.int64)[None, :]
    g.neighbors = lambda v: row if v == 0 else np.zeros(0, dtype=np.int64)
    return g


def test_greedy_guarantee_violation_raises_contract_violation():
    with pytest.raises(ContractViolation, match="greedy guarantee violated; adjacency is broken"):
        greedy_independent_set(broken_stub_graph())


def test_greedy_guarantee_survives_optimized_mode():
    # python -O strips assert statements; the guarantee must not depend on one.
    script = (
        "import numpy as np\n"
        "from cyclocode import ContractViolation\n"
        "from cyclocode.classgraph import ExplicitClassGraph\n"
        "from cyclocode.solver import greedy_independent_set\n"
        "g = ExplicitClassGraph(5, 2, 2, None, None, np.arange(6), np.zeros(7, dtype=np.int64),\n"
        "                       np.zeros(0, dtype=np.int32))\n"
        "row = np.arange(1, 6)[None, :]\n"
        "g.neighbors = lambda v: row if v == 0 else np.zeros(0, dtype=np.int64)\n"
        "try:\n"
        "    greedy_independent_set(g)\n"
        "except ContractViolation:\n"
        "    print('refused')\n"
    )
    src = os.path.dirname(os.path.dirname(cyclocode.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


def test_min_degree_needs_stored_adjacency():
    lazy = build_graph(6, 2, 2, method="lazy")
    with pytest.raises(CapacityError):
        greedy_independent_set(lazy, SolverConfig(strategy="min-degree"))


def test_exact_mis_vertex_limit():
    big = stub_graph([[] for _ in range(DEFAULT_EXACT_LIMIT + 1)])
    with pytest.raises(CapacityError):
        exact_mis(big)
    assert exact_mis(big, limit=DEFAULT_EXACT_LIMIT + 1) == tuple(range(41))
    at_limit = stub_graph([[] for _ in range(DEFAULT_EXACT_LIMIT)])
    assert len(exact_mis(at_limit)) == DEFAULT_EXACT_LIMIT


# ---------------------------------------------------------------------------
# reports


def test_solve_report_on_edgeless_graph():
    g = stub_graph([[] for _ in range(7)])
    rep = solve_report(g)
    assert rep.size == rep.num_vertices == 7
    assert rep.greedy_floor == Fraction(7)
    assert rep.max_degree == 0
    assert rep.degree_basis == "exact-max-degree"
    assert rep.reference is None  # no diagnostics supplied


def test_solve_report_class_graph_fixture():
    g = build_graph(8, 2, 3)
    rep = solve_report(g, SolverConfig(), sparsity_diagnostics(g))
    assert rep.num_vertices == 10
    assert rep.size == 2
    assert rep.vertices == (0, 4)
    assert rep.max_degree == 7
    assert rep.degree_basis == "exact-max-degree"
    assert rep.degree_bound == 37
    assert rep.greedy_floor == Fraction(5, 4)
    # k_hat = 1369/15 exceeds D = 37, so the reference scale is
    # (|V| / D) ln D = (10/37) ln 37.
    assert isclose(rep.reference, (10 / 37) * log(37), rel_tol=1e-12)
    assert isclose(rep.reference, 0.9759237601741148, rel_tol=1e-12)
    # The greedy answer is optimal here.
    assert exact_mis(g) == (0, 4)
    d = rep.to_dict()
    assert d["greedy_floor"] == "5/4"
    assert d["size"] == 2


def test_solve_report_lazy_graph_uses_observed_degree():
    lazy = build_graph(6, 2, 2, method="lazy")
    rep = solve_report(lazy)
    assert rep.degree_basis == "observed-degree"
    assert rep.greedy_floor == Fraction(rep.num_vertices, rep.max_degree + 1)
    assert rep.size == 5


def test_solve_report_reference_edge_cases():
    g = stub_graph([[] for _ in range(4)], n=6, q=2, d=1)

    def diag(k_hat):
        return SparsityDiagnostics(
            tau=Fraction(1, 6),
            split_distance=Fraction(1, 2),
            max_s=0,
            max_t=0,
            max_neighborhood_edges=0,
            k_hat=k_hat,
            degree_bound=g.degree_bound,
        )

    # D = 1 at radius 0, so min(D, k_hat) = 1 and the log scale is zero.
    assert g.degree_bound == 1
    assert solve_report(g, diagnostics=diag(Fraction(2))).reference == 0.0
    # k_hat below 1 leaves the reference unset.
    assert solve_report(g, diagnostics=diag(Fraction(1, 2))).reference is None


def test_greedy_floor_against_exact_on_class_graphs():
    for n, q, d in [(6, 2, 2), (7, 2, 3), (8, 2, 3), (5, 3, 2)]:
        g = build_graph(n, q, d)
        rep = solve_report(g)
        opt = exact_mis(g, limit=50)
        assert rep.size <= len(opt)
        assert rep.size >= rep.greedy_floor
        assert len(opt) >= rep.greedy_floor
