"""Class-graph construction: vertex sets, adjacency, degrees, sparsity.

Every backend must produce the same graph, and that graph is checked
against a direct word-level brute force: vertices are the full-period
shift classes clearing the autodistance threshold, edges join classes
whose minimum cross distance is below d.
"""

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from cyclocode import classgraph
from cyclocode import (
    CapacityError,
    DimensionMismatch,
    ball_volume,
    cw_ball_volume,
    class_of,
    cyclic_shift,
    enumerate_classes,
    hamming_distance,
    word,
    word_to_text,
)
from cyclocode.classgraph import (
    DegreeStats,
    LazyClassGraph,
    build_graph,
    class_distance,
    degree_stats,
    sparsity_diagnostics,
)

ALL_METHODS = ("pairwise", "ball", "lazy")


def brute_vertex_reps(n, q, d, weight=None):
    """Canonical representatives of full-period classes with d(x) >= d."""
    classes = enumerate_classes(
        n, q, full_period_only=True, min_auto_distance=d, weight_exactly=weight
    )
    return sorted(word_to_text(c.representative) for c in classes)


def graph_reps(graph):
    return [word_to_text(graph.class_at(v).representative) for v in range(graph.num_vertices)]


def brute_class_distance(a, b):
    """Double minimum over both orbits, no shift-invariance shortcut."""
    return min(
        hamming_distance(cyclic_shift(a.representative, i), cyclic_shift(b.representative, j))
        for i in range(a.representative.n)
        for j in range(b.representative.n)
    )


# ---------------------------------------------------------------------------
# class distance


def test_class_distance_examples():
    assert class_distance(class_of(word("001", 2)), class_of(word("011", 2))) == 1
    assert class_distance(class_of(word("0001", 2)), class_of(word("0111", 2))) == 2
    a = class_of(word("0001011", 2))
    assert class_distance(a, a) == 0


def test_class_distance_symmetric():
    classes = list(enumerate_classes(6, 2, full_period_only=True))
    for a, b in itertools.combinations(classes, 2):
        assert class_distance(a, b) == class_distance(b, a)


def test_class_distance_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        class_distance(class_of(word("001", 2)), class_of(word("0011", 2)))
    with pytest.raises(DimensionMismatch):
        class_distance(class_of(word("001", 2)), class_of(word("021", 3)))


def test_class_distance_equals_double_minimum():
    # The implementation slides only one orbit; the definition minimizes
    # over both.  Shift invariance makes them equal — verify exhaustively.
    for n, q in [(8, 2), (5, 3)]:
        classes = list(enumerate_classes(n, q))
        for a, b in itertools.combinations(classes, 2):
            assert class_distance(a, b) == brute_class_distance(a, b)


# ---------------------------------------------------------------------------
# vertex sets


def test_vertex_set_matches_class_filter():
    for n in range(2, 11):
        for d in range(1, n + 2):
            g = build_graph(n, 2, d)
            assert graph_reps(g) == brute_vertex_reps(n, 2, d)
    for n in range(2, 7):
        for d in range(1, n + 2):
            g = build_graph(n, 3, d)
            assert graph_reps(g) == brute_vertex_reps(n, 3, d)


def test_vertex_set_constant_weight():
    g1 = build_graph(7, 2, 1, weight=3)
    assert sorted(graph_reps(g1)) == brute_vertex_reps(7, 2, 1, weight=3)
    assert g1.num_vertices == 5
    g3 = build_graph(7, 2, 3, weight=3)
    assert sorted(graph_reps(g3)) == ["0001011", "0001101"]
    assert g3.num_vertices == 2


def test_distance_beyond_length_gives_empty_graph():
    g = build_graph(5, 2, 7)
    assert g.num_vertices == 0
    assert g.degree_bound == ball_volume(5, 2, 5) == 32
    st = degree_stats(g)
    assert st == DegreeStats(0, 0, 0, 0.0, {}, 32)
    assert st.within_bound


def test_vertex_classes_have_full_period_and_threshold_autodistance():
    for n, q, d in [(8, 2, 3), (6, 2, 2), (5, 3, 3)]:
        g = build_graph(n, q, d)
        for v in range(g.num_vertices):
            cls = g.class_at(v)
            assert cls.n_distinct == n
            assert cls.auto_distance >= d


# ---------------------------------------------------------------------------
# adjacency


def test_edges_match_brute_force():
    for n, q, maxd in [(6, 2, 5), (7, 2, 4), (8, 2, 4), (5, 3, 3)]:
        for d in range(2, maxd + 1):
            g = build_graph(n, q, d)
            classes = [g.class_at(v) for v in range(g.num_vertices)]
            for u in range(g.num_vertices):
                expected = sorted(
                    v
                    for v in range(g.num_vertices)
                    if v != u and brute_class_distance(classes[u], classes[v]) <= d - 1
                )
                assert list(g.neighbors(u)) == expected


def test_all_backends_agree():
    cases = [
        dict(n=6, q=2, d=2),
        dict(n=8, q=2, d=3),
        dict(n=5, q=3, d=2),
        dict(n=7, q=2, d=3, weight=3),
        dict(n=7, q=2, d=1, weight=3),
        dict(n=10, q=2, d=4, weight=4),
        dict(n=12, q=2, d=4, weight=4),
    ]
    for case in cases:
        weight = case.pop("weight", None)
        graphs = {m: build_graph(**case, weight=weight, method=m) for m in ALL_METHODS}
        base = graphs["pairwise"]
        for name, g in graphs.items():
            assert g.num_vertices == base.num_vertices, name
            for v in range(base.num_vertices):
                assert list(g.neighbors(v)) == list(base.neighbors(v)), name


def brute_neighbors(graph):
    classes = [graph.class_at(v) for v in range(graph.num_vertices)]
    return [
        [
            v
            for v in range(graph.num_vertices)
            if v != u and brute_class_distance(classes[u], classes[v]) <= graph.d - 1
        ]
        for u in range(graph.num_vertices)
    ]


BALL_CASES = [
    (6, 2, 1, None),
    (7, 2, 3, None),
    (8, 2, 4, None),
    (5, 3, 2, None),
    (5, 3, 3, None),
    (3, 4, 2, None),
    (4, 4, 2, None),
    (4, 4, 3, None),
    # weight slices: the ball applies only even-weight flips
    (8, 2, 1, 3),
    (7, 2, 3, 3),
    (9, 2, 4, 4),
    (10, 2, 4, 3),
    (11, 2, 4, 4),
    (13, 2, 6, 5),
]


@pytest.mark.parametrize(
    "n,q,d,weight",
    BALL_CASES,
    ids=[f"{n}-{q}-{d}" + (f"-w{w}" if w else "") for n, q, d, w in BALL_CASES],
)
def test_ball_build_matches_pairwise_and_brute_force(n, q, d, weight):
    ball = build_graph(n, q, d, weight=weight, method="ball")
    pairwise = build_graph(n, q, d, weight=weight, method="pairwise")
    expected = brute_neighbors(ball)
    assert ball.num_vertices == pairwise.num_vertices > 0
    for u in range(ball.num_vertices):
        assert ball.neighbors(u).tolist() == pairwise.neighbors(u).tolist() == expected[u]


@pytest.mark.parametrize("n,q,d", [(8, 2, 4), (5, 3, 3), (4, 4, 3)])
@pytest.mark.parametrize("patterns_per_batch", [1, 5])
def test_ball_build_is_independent_of_batching(n, q, d, patterns_per_batch, monkeypatch):
    whole = build_graph(n, q, d, method="ball")
    v = whole.num_vertices
    # Shrink the batch so the patterns span many batches (the last one short).
    monkeypatch.setattr(classgraph, "_BALL_BATCH_CELLS", patterns_per_batch * v + v // 2)
    batched = build_graph(n, q, d, method="ball")
    expected = brute_neighbors(whole)
    for u in range(v):
        assert batched.neighbors(u).tolist() == whole.neighbors(u).tolist() == expected[u]


def test_adjacency_symmetric_and_irreflexive():
    for n, q, d in [(6, 2, 2), (7, 2, 3), (8, 2, 3), (5, 3, 2)]:
        g = build_graph(n, q, d)
        neigh = [set(g.neighbors(v).tolist()) for v in range(g.num_vertices)]
        for v in range(g.num_vertices):
            assert v not in neigh[v]
            for u in neigh[v]:
                assert v in neigh[u]


def test_d1_graph_is_edgeless():
    # Distinct classes are disjoint word sets, so class distance >= 1 always.
    for n, q in [(6, 2), (8, 2), (4, 3)]:
        g = build_graph(n, q, 1)
        assert g.num_vertices > 0
        assert all(len(g.neighbors(v)) == 0 for v in range(g.num_vertices))


def test_constant_weight_adjacency():
    g = build_graph(7, 2, 3, weight=3)
    assert g.num_vertices == 2
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]
    assert g.degree_bound == cw_ball_volume(7, 3, 2)


# ---------------------------------------------------------------------------
# degrees


def test_degree_bound_is_a_hard_invariant():
    # max degree <= D - 1 with D the (constant-weight) ball volume at d-1;
    # this underpins the greedy guarantee, so check it on every small build.
    for n in range(2, 10):
        for d in range(2, n + 1):
            g = build_graph(n, 2, d)
            st = degree_stats(g)
            assert st.max_degree <= g.degree_bound - 1
            assert st.within_bound
    for n, q, d, w in [(5, 3, 2, None), (6, 3, 3, None), (8, 2, 3, 4), (9, 2, 5, 3)]:
        st = degree_stats(build_graph(n, q, d, weight=w))
        assert st.within_bound


def test_degree_stats_fixture_6_2_2():
    g = build_graph(6, 2, 2)
    st = degree_stats(g)
    assert st.num_vertices == 9
    assert st.num_edges == 16
    assert st.histogram == {2: 2, 4: 7}
    assert st.max_degree == 4
    assert st.degree_bound == 7
    assert st.within_bound
    d = st.to_dict()
    assert d["histogram"] == {"2": 2, "4": 7}
    assert d["within_bound"] is True


def test_degree_stats_fixture_8_2_3():
    g = build_graph(8, 2, 3)
    assert graph_reps(g) == [
        "00001011",
        "00001101",
        "00010111",
        "00011011",
        "00011101",
        "00100111",
        "00101011",
        "00101111",
        "00110101",
        "00111101",
    ]
    st = degree_stats(g)
    assert st.num_vertices == 10
    assert st.num_edges == 33
    assert st.histogram == {6: 4, 7: 6}
    assert st.mean_degree == pytest.approx(6.6)
    assert st.degree_bound == ball_volume(8, 2, 2) == 37
    assert st.within_bound


def test_degree_stats_consistency_identities():
    for n, q, d in [(7, 2, 2), (8, 2, 3), (6, 3, 2)]:
        g = build_graph(n, q, d)
        st = degree_stats(g)
        degrees = [g.degree(v) for v in range(g.num_vertices)]
        assert st.num_edges * 2 == sum(degrees)
        assert sum(st.histogram.values()) == st.num_vertices
        assert st.mean_degree == pytest.approx(sum(degrees) / g.num_vertices)
        assert st.max_degree == max(degrees)


def test_degree_stats_same_across_backends():
    for method in ALL_METHODS:
        st = degree_stats(build_graph(8, 2, 3, method=method))
        assert st.num_edges == 33
        assert st.histogram == {6: 4, 7: 6}


def test_degree_stats_lazy_beyond_cap_refuses():
    g = build_graph(18, 2, 2, method="lazy")
    assert g.num_vertices > 14000
    with pytest.raises(CapacityError):
        degree_stats(g)


# ---------------------------------------------------------------------------
# sparsity diagnostics


def test_sparsity_fixture_8_2_3():
    g = build_graph(8, 2, 3)
    sp = sparsity_diagnostics(g, tau=Fraction(1, 4))
    assert sp.split_distance == 2
    assert sp.max_s == 7
    assert sp.max_t == 0
    assert sp.max_neighborhood_edges == 15
    assert sp.k_hat == Fraction(1369, 15)
    assert sp.degree_bound == 37
    # default tau is d/n = 3/8: the split moves to 3/2 but the edge count
    # (and hence k_hat) is unchanged.
    sp_default = sparsity_diagnostics(g)
    assert sp_default.tau == Fraction(3, 8)
    assert sp_default.split_distance == Fraction(3, 2)
    assert sp_default.max_s == 3
    assert sp_default.max_t == 5
    assert sp_default.max_neighborhood_edges == 15
    assert sp_default.k_hat == Fraction(1369, 15)
    d = sp.to_dict()
    assert d["k_hat"] == "1369/15"
    assert d["tau"] == "1/4"


def test_sparsity_triangle_free_graphs_cap_k_hat():
    # When no neighborhood contains an edge the estimate collapses to the
    # sentinel D^2 + 1.
    for n, q, d, expected_v in [(5, 2, 2, 6), (6, 2, 2, 9), (7, 2, 2, 18)]:
        g = build_graph(n, q, d)
        assert g.num_vertices == expected_v
        sp = sparsity_diagnostics(g)
        assert sp.max_neighborhood_edges == 0
        assert sp.k_hat == Fraction(g.degree_bound**2 + 1)


def test_sparsity_edgeless_graph():
    g = build_graph(6, 2, 1)
    sp = sparsity_diagnostics(g)
    assert sp.max_s == 0 and sp.max_t == 0
    assert sp.max_neighborhood_edges == 0
    assert sp.k_hat == Fraction(2)  # D = 1 at radius 0


def test_sparsity_counts_match_direct_scan():
    g = build_graph(8, 2, 3)
    tau = Fraction(1, 4)
    split = 3 - tau * 8 / 2
    classes = [g.class_at(v) for v in range(g.num_vertices)]
    max_s = max_t = max_edges = 0
    for u in range(g.num_vertices):
        nbrs = [v for v in range(g.num_vertices) if v != u and class_distance(classes[u], classes[v]) <= 2]
        s = sum(1 for v in nbrs if class_distance(classes[u], classes[v]) <= split)
        max_s = max(max_s, s)
        max_t = max(max_t, len(nbrs) - s)
        edges = sum(
            1 for a, b in itertools.combinations(nbrs, 2) if class_distance(classes[a], classes[b]) <= 2
        )
        max_edges = max(max_edges, edges)
    sp = sparsity_diagnostics(g, tau=tau)
    assert (sp.max_s, sp.max_t, sp.max_neighborhood_edges) == (max_s, max_t, max_edges)


def isin_max_neighborhood_edges(graph):
    """Reference count: one np.isin per (vertex, neighbor) pair."""
    best = 0
    for u in range(graph.num_vertices):
        nbrs = graph.neighbors(u)
        edges = sum(
            int(np.isin(graph.neighbors(w), nbrs, assume_unique=True).sum()) for w in nbrs
        )
        best = max(best, edges // 2)
    return best


@pytest.mark.parametrize(
    "n,q,d,method",
    [
        (8, 2, 3, "ball"),
        (8, 2, 3, "pairwise"),
        (10, 2, 4, "ball"),
        (9, 2, 3, "pairwise"),
        (7, 3, 3, "ball"),
        (6, 3, 2, "pairwise"),
        (5, 4, 3, "ball"),
        (7, 2, 3, "pairwise"),
    ],
)
def test_neighborhood_edges_match_triangle_counts(n, q, d, method):
    # Edges inside N(u) are exactly the triangles through u.
    g = build_graph(n, q, d, method=method)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from((u, int(w)) for u in range(g.num_vertices) for w in g.neighbors(u))
    triangles = max(nx.triangles(nxg).values())
    sp = sparsity_diagnostics(g)
    assert sp.max_neighborhood_edges == triangles == isin_max_neighborhood_edges(g)


def test_sparsity_rejects_bad_tau_and_lazy_graphs():
    g = build_graph(6, 2, 2)
    with pytest.raises(ValueError):
        sparsity_diagnostics(g, tau=Fraction(3, 2))
    with pytest.raises(ValueError):
        sparsity_diagnostics(g, tau=0)
    lazy = build_graph(6, 2, 2, method="lazy")
    assert isinstance(lazy, LazyClassGraph)
    with pytest.raises(CapacityError):
        sparsity_diagnostics(lazy)


# ---------------------------------------------------------------------------
# construction guards


def test_build_graph_argument_errors():
    with pytest.raises(ValueError):
        build_graph(6, 2, 0)
    with pytest.raises(ValueError):
        build_graph(6, 3, 2, weight=3)
    with pytest.raises(ValueError):
        build_graph(6, 2, 2, method="magic")
    with pytest.raises(ValueError):
        build_graph(6, 2, 2, method="matrix")


def test_build_graph_respects_enumeration_budget():
    with pytest.raises(CapacityError):
        build_graph(26, 2, 2)
    # An explicit budget loosens or tightens the same guard.
    with pytest.raises(CapacityError):
        build_graph(10, 2, 2, budget=100)


def test_distance_row_matches_class_distance():
    g = build_graph(8, 2, 3)
    classes = [g.class_at(v) for v in range(g.num_vertices)]
    for u in (0, 4, 9):
        row = g.distance_row(u)
        assert row[u] == 0
        for v in range(g.num_vertices):
            assert row[v] == class_distance(classes[u], classes[v])
