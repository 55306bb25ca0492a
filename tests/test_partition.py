"""Unit + property tests for the multilevel partitioner (METIS substitute)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset, preferential_attachment_graph
from repro.graph import CSRAdjacency, Graph
from repro.partition import (
    IncrementalPartitioner,
    partition_graph,
    validate_partition,
)
from repro.partition.level import (
    LevelGraph,
    cell_weights,
    edge_cut,
    level_graph_from_csr,
)
from repro.partition.matching import (
    heavy_edge_matching,
    matching_to_coarse_map,
)
from repro.partition.coarsen import build_coarse_graph
from repro.partition.refine import (
    balance_ceiling,
    rebalance_assignment,
    refine_assignment,
)


class _FixedOrder:
    """Stands in for a Generator whose permutation is the identity."""

    def permutation(self, n: int) -> np.ndarray:
        return np.arange(n)


def _level(edges, num_nodes, vweights=None) -> LevelGraph:
    """A LevelGraph from ``(u, v, w)`` triples, both directions stored."""
    rows, cols, wgts = [], [], []
    for u, v, w in edges:
        rows += [u, v]
        cols += [v, u]
        wgts += [w, w]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, np.asarray(rows, dtype=np.int64) + 1, 1)
    return LevelGraph(
        indptr=np.cumsum(indptr),
        indices=np.asarray(cols, dtype=np.int64)[order],
        eweights=np.asarray(wgts, dtype=np.float64)[order],
        vweights=np.asarray(
            vweights if vweights is not None else [1] * num_nodes,
            dtype=np.int64,
        ),
    )


class TestLevelGraph:
    def test_from_csr_strips_self_loops(self):
        graph = Graph.from_edges([(0, 0), (0, 1)])
        level = level_graph_from_csr(CSRAdjacency.from_graph(graph))
        assert level.indices.size == 2  # only (0,1) both directions

    def test_edge_cut_two_cliques(self, two_cliques):
        level = level_graph_from_csr(CSRAdjacency.from_graph(two_cliques))
        csr = CSRAdjacency.from_graph(two_cliques)
        assignment = np.array(
            [0 if csr.nodes[i] < 4 else 1 for i in range(csr.num_nodes)]
        )
        assert edge_cut(level, assignment) == 1.0  # only the bridge

    def test_cell_weights(self, triangle):
        level = level_graph_from_csr(CSRAdjacency.from_graph(triangle))
        weights = cell_weights(level, np.array([0, 0, 1]), k=2)
        assert list(weights) == [2, 1]


class TestMatching:
    def test_matching_is_symmetric(self, karate_like, rng):
        level = level_graph_from_csr(CSRAdjacency.from_graph(karate_like))
        match = heavy_edge_matching(level, rng, max_vweight=10)
        for u, partner in enumerate(match):
            assert match[partner] == u  # involution

    def test_matched_pairs_are_adjacent(self, karate_like, rng):
        level = level_graph_from_csr(CSRAdjacency.from_graph(karate_like))
        match = heavy_edge_matching(level, rng, max_vweight=10)
        for u, partner in enumerate(match):
            if partner != u:
                assert partner in level.neighbors(u)

    def test_coarse_map_covers_all(self, karate_like, rng):
        level = level_graph_from_csr(CSRAdjacency.from_graph(karate_like))
        match = heavy_edge_matching(level, rng, max_vweight=10)
        coarse_of, num_coarse = matching_to_coarse_map(match)
        assert coarse_of.min() >= 0
        assert coarse_of.max() == num_coarse - 1
        assert set(coarse_of.tolist()) == set(range(num_coarse))

    def test_coarse_graph_preserves_total_weight(self, karate_like, rng):
        level = level_graph_from_csr(CSRAdjacency.from_graph(karate_like))
        match = heavy_edge_matching(level, rng, max_vweight=10)
        coarse_of, num_coarse = matching_to_coarse_map(match)
        coarse = build_coarse_graph(level, coarse_of, num_coarse)
        assert coarse.total_vweight == level.total_vweight
        # Edge weight conservation: coarse edges = fine edges minus the
        # weights hidden inside collapsed vertices.
        hidden = 0.0
        n = level.num_nodes
        for u in range(n):
            for v, w in zip(level.neighbors(u), level.neighbor_eweights(u)):
                if coarse_of[u] == coarse_of[v]:
                    hidden += w
        assert coarse.eweights.sum() == pytest.approx(
            level.eweights.sum() - hidden
        )

    def test_ties_keep_the_lowest_index_neighbour(self):
        # Vertex 0 visits first. Neighbours 2 and 3 tie on the heaviest
        # edge; 2 wins although its combined vertex weight is larger.
        level = _level(
            [(0, 1, 2.0), (0, 2, 3.0), (0, 3, 3.0), (0, 4, 1.0)],
            num_nodes=5,
            vweights=[1, 1, 3, 1, 1],
        )
        match = heavy_edge_matching(level, _FixedOrder(), max_vweight=10)
        assert match.tolist() == [2, 1, 0, 3, 4]

    def test_weight_cap_skips_the_heaviest_neighbour(self):
        level = _level(
            [(0, 1, 5.0), (0, 2, 1.0)], num_nodes=3, vweights=[2, 3, 1]
        )
        match = heavy_edge_matching(level, _FixedOrder(), max_vweight=4)
        assert match.tolist() == [2, 1, 0]


def _seeded_level_and_assignment(seed: int, k: int):
    """A PA graph's finest level plus a random assignment with no empty cell."""
    rng = np.random.default_rng(seed)
    graph = preferential_attachment_graph(120, 2, rng)
    level = level_graph_from_csr(CSRAdjacency.from_graph(graph))
    assignment = rng.permutation(np.arange(level.num_nodes) % k)
    return level, assignment.astype(np.int64)


class TestRefinement:
    def test_refine_mutates_and_returns_the_same_array(self):
        level, assignment = _seeded_level_and_assignment(0, k=6)
        before = assignment.copy()
        out = refine_assignment(level, assignment, k=6, eps=0.1)
        assert out is assignment
        assert not np.array_equal(out, before)  # moves happened in place

    def test_rebalance_mutates_and_returns_the_same_array(self):
        level, assignment = _seeded_level_and_assignment(1, k=6)
        assignment[: level.num_nodes // 2] = 0  # cell 0 far over the ceiling
        before = assignment.copy()
        out = rebalance_assignment(level, assignment, k=6, eps=0.1)
        assert out is assignment
        assert not np.array_equal(out, before)
        ceiling = balance_ceiling(level.total_vweight, 6, 0.1)
        assert cell_weights(level, out, 6).max() <= ceiling

    def test_rebalance_fills_the_globally_lightest_cell(self):
        # A path 0-1-2-3-4 plus an isolated vertex 5. Cell 0 holds the
        # whole path; cell 1 (vertex 5) is lightest, though no edge
        # reaches it.
        level = _level(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], num_nodes=6
        )
        assignment = np.array([0, 0, 0, 0, 0, 1], dtype=np.int64)
        rebalance_assignment(level, assignment, k=2, eps=0.0)
        # The ceiling is 3, so two vertices leave cell 0: the endpoints,
        # which have the fewest internal edges.
        assert assignment.tolist() == [1, 0, 0, 0, 1, 1]

    def test_empty_candidates_change_nothing(self):
        level, assignment = _seeded_level_and_assignment(2, k=6)
        before = assignment.copy()
        out = refine_assignment(
            level, assignment, k=6, eps=0.1, candidates=np.empty(0)
        )
        assert out is assignment
        assert np.array_equal(out, before)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=2, max_value=12),
        eps=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
        use_candidates=st.booleans(),
    )
    def test_refinement_never_raises_cut_or_breaks_balance(
        self, seed, k, eps, use_candidates
    ):
        level, assignment = _seeded_level_and_assignment(seed, k)
        rebalance_assignment(level, assignment, k, eps)
        ceiling = balance_ceiling(level.total_vweight, k, eps)
        assert cell_weights(level, assignment, k).max() <= ceiling
        cut_before = edge_cut(level, assignment)
        candidates = None
        if use_candidates:
            candidates = np.random.default_rng(seed).choice(
                level.num_nodes, size=level.num_nodes // 3, replace=False
            )
        refine_assignment(level, assignment, k, eps, candidates=candidates)
        assert edge_cut(level, assignment) <= cut_before
        assert cell_weights(level, assignment, k).max() <= ceiling
        assert np.bincount(assignment, minlength=k).min() >= 1


class TestPartitionGraph:
    def test_two_cliques_natural_cut(self, two_cliques):
        result = partition_graph(
            two_cliques, k=2, rng=np.random.default_rng(0)
        )
        assert validate_partition(result, two_cliques) == []
        assert result.edge_cut == 1.0  # only the bridge is cut
        cells = [set(c) for c in result.cells]
        assert {0, 1, 2, 3} in cells
        assert {4, 5, 6, 7} in cells

    def test_k_equals_one(self, two_cliques):
        result = partition_graph(two_cliques, k=1)
        assert result.k == 1
        assert len(result.cells[0]) == 8
        assert result.edge_cut == 0.0

    def test_k_equals_n(self, triangle):
        result = partition_graph(triangle, k=3)
        assert all(len(cell) == 1 for cell in result.cells)

    def test_k_clamped_to_n(self, triangle):
        result = partition_graph(triangle, k=50)
        assert result.k == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            partition_graph(Graph(), k=2)

    def test_negative_eps_rejected(self, triangle):
        with pytest.raises(ValueError):
            partition_graph(triangle, k=2, eps=-0.1)

    def test_balance_constraint_eq2(self, karate_like):
        """Eq. (2): |V_k| <= (1 + eps) |V| / K."""
        n = karate_like.number_of_nodes()
        for k in (2, 4, 8):
            result = partition_graph(
                karate_like, k=k, eps=0.1, rng=np.random.default_rng(1)
            )
            ceiling = np.ceil((1 + 0.1) * n / k)
            assert max(result.cell_sizes) <= ceiling

    def test_cover_and_disjoint(self, karate_like):
        result = partition_graph(
            karate_like, k=5, rng=np.random.default_rng(2)
        )
        union: set = set()
        total = 0
        for cell in result.cells:
            total += len(cell)
            union.update(cell)
        assert union == karate_like.node_set()
        assert total == karate_like.number_of_nodes()

    def test_assignment_matches_cells(self, karate_like):
        result = partition_graph(
            karate_like, k=4, rng=np.random.default_rng(3)
        )
        for j, cell in enumerate(result.cells):
            for node in cell:
                assert result.assignment[node] == j

    def test_disconnected_graph(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (10, 11), (11, 12)])
        result = partition_graph(graph, k=2, rng=np.random.default_rng(0))
        assert validate_partition(result, graph) == []

    def test_deterministic_given_seed(self, karate_like):
        a = partition_graph(karate_like, k=5, rng=np.random.default_rng(9))
        b = partition_graph(karate_like, k=5, rng=np.random.default_rng(9))
        assert a.assignment == b.assignment

    def test_large_k_small_cells(self):
        graph = preferential_attachment_graph(200, 2, np.random.default_rng(0))
        k = 20
        result = partition_graph(graph, k=k, rng=np.random.default_rng(0))
        assert validate_partition(result, graph) == []
        assert len(result.cells) == k
        assert min(result.cell_sizes) >= 1

    def test_prebuilt_csr_fast_path_is_bit_identical(self, karate_like):
        """`csr=` must not change results — it only skips the rebuild."""
        csr = CSRAdjacency.from_graph(karate_like)
        rebuilt = partition_graph(
            karate_like, k=5, rng=np.random.default_rng(7)
        )
        fast = partition_graph(
            karate_like, k=5, rng=np.random.default_rng(7), csr=csr
        )
        assert fast.assignment == rebuilt.assignment
        assert fast.edge_cut == rebuilt.edge_cut

    def test_csr_alone_suffices(self, karate_like):
        csr = CSRAdjacency.from_graph(karate_like)
        result = partition_graph(
            None, k=4, rng=np.random.default_rng(1), csr=csr
        )
        assert validate_partition(result, karate_like) == []

    def test_neither_graph_nor_csr_rejected(self):
        with pytest.raises(ValueError):
            partition_graph(None, k=2)

    def test_cut_beats_random_assignment(self, karate_like):
        """The partitioner must clearly beat a random balanced assignment."""
        rng = np.random.default_rng(4)
        result = partition_graph(karate_like, k=2, rng=rng)
        csr = CSRAdjacency.from_graph(karate_like)
        level = level_graph_from_csr(csr)
        random_cuts = []
        for _ in range(10):
            assignment = rng.permutation(
                np.arange(csr.num_nodes) % 2
            )
            random_cuts.append(edge_cut(level, assignment))
        assert result.edge_cut < np.mean(random_cuts)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=80),
    k=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_partition_invariants_property(n, k, seed):
    """Property: any (n, k) yields a covering, disjoint, non-empty,
    Eq. (2)-balanced partition."""
    rng = np.random.default_rng(seed)
    graph = preferential_attachment_graph(n, 2, rng)
    k = min(k, graph.number_of_nodes())
    result = partition_graph(graph, k=k, eps=0.1, rng=rng)
    assert validate_partition(result, graph) == []


# ----------------------------------------------------------------------
# Pinned partitions. The embedding goldens only see a partition through
# the representatives S4 draws from it; these pins catch any change to
# the assignment itself (visit order, tie-breaks, RNG draws, summation
# order). Every graph here has integer edge weights, so each edge cut is
# exact and compared with ``==``.
# ----------------------------------------------------------------------
def _assignment_digest(assignment: dict) -> str:
    """SHA-256 of the cell of every node, in ascending node-id order."""
    cells = np.asarray(
        [assignment[node] for node in sorted(assignment)], dtype="<i8"
    )
    return hashlib.sha256(cells.tobytes()).hexdigest()


def _weighted_pa_graph() -> Graph:
    """Preferential attachment with integer weights 1..3 (many ties)."""
    rng = np.random.default_rng(5)
    base = preferential_attachment_graph(300, 3, rng)
    graph = Graph()
    for u, v in sorted(base.edges()):
        graph.add_edge(u, v, float(rng.integers(1, 4)))
    return graph


def _disconnected_graph() -> Graph:
    """Four components of mixed size plus an isolated node."""
    rng = np.random.default_rng(6)
    graph = Graph()
    offset = 0
    for size in (60, 35, 12, 4):
        part = preferential_attachment_graph(size, 2, rng)
        for u, v in part.edges():
            graph.add_edge(offset + u, offset + v)
        offset += size
    graph.add_node(offset)
    return graph


def _fbw_snapshot() -> Graph:
    network = load_dataset("fbw-sim", scale=1.0, seed=0, snapshots=6)
    return network[len(network) - 1]


PINNED_GRAPHS = {
    "pa-400": lambda: preferential_attachment_graph(
        400, 2, np.random.default_rng(0)
    ),
    "pa-weighted": _weighted_pa_graph,
    "disconnected": _disconnected_graph,
    "fbw-sim": _fbw_snapshot,
}

# (graph, k or None for round(0.1 * |V|), eps, seed, digest, edge cut)
PARTITION_PINS = [
    (
        "pa-400", 40, 0.10, 0,
        "69abe2039383df30400f5927c07a4c4a2d9d419f38350d6b17460a2503b42916",
        440.0,
    ),
    (
        "pa-400", 7, 0.00, 3,
        "86f2f85edc3623373cc3ea42ca7f7e62b61c3df931f433a10a477da5e35bee70",
        331.0,
    ),
    (
        "pa-weighted", 25, 0.05, 1,
        "99d65c2fd67de753c9b47e607d1170901dc0d53f9553beda7aabdd8a7a0100e9",
        1060.0,
    ),
    (
        "disconnected", 9, 0.10, 2,
        "42bfc2b3c70f7293dfdce57329811f49797c1abbd938b92e2e09480142958602",
        74.0,
    ),
    (
        "fbw-sim", None, 0.10, 0,
        "c39d989726c6a2ba09e29c93cd06823c239e589581b6d30b46dcfb42354b2e2d",
        558.0,
    ),
]


@pytest.mark.parametrize(
    "name, k, eps, seed, digest, cut",
    PARTITION_PINS,
    ids=[f"{p[0]}-k{p[1]}-s{p[3]}" for p in PARTITION_PINS],
)
def test_partition_graph_pinned(name, k, eps, seed, digest, cut):
    graph = PINNED_GRAPHS[name]()
    if k is None:
        k = round(0.1 * graph.number_of_nodes())
    result = partition_graph(
        graph, k=k, eps=eps, rng=np.random.default_rng(seed)
    )
    assert validate_partition(result, graph) == []
    assert _assignment_digest(result.assignment) == digest
    assert result.edge_cut == cut


def _drift_trail() -> list[tuple[str, int, str, float]]:
    """One seeded drift: edge churn, node churn and K drift, 10 steps.

    Returns ``(last_reason, k, assignment digest, edge cut)`` per step.
    """
    rng = np.random.default_rng(17)
    graph = preferential_attachment_graph(250, 2, np.random.default_rng(16))
    # A tight quality gate so the trail mixes maintained steps with
    # fallback rebuilds.
    partitioner = IncrementalPartitioner(
        eps=0.10, seed=18, cut_slack=0.02, cut_floor=0.0
    )
    next_id = 250
    trail = []
    for step, alpha in enumerate(
        (0.1, 0.1, 0.1, 0.14, 0.14, 0.07, 0.07, 0.1, 0.1, 0.1)
    ):
        touched: set = set()
        if step:
            nodes = sorted(graph.node_set())
            for _ in range(6):  # rewire: drop one edge, add one edge
                u = nodes[int(rng.integers(0, len(nodes)))]
                nbrs = sorted(graph.neighbor_set(u))
                if len(nbrs) > 1:
                    v = nbrs[int(rng.integers(0, len(nbrs)))]
                    graph.remove_edge(u, v)
                    touched.update((u, v))
                a, b = (nodes[int(i)] for i in rng.integers(0, len(nodes), 2))
                if a != b:
                    graph.add_edge(a, b)
                    touched.update((a, b))
            for _ in range(3):  # newcomers attach to two existing nodes
                for anchor in rng.choice(nodes, size=2, replace=False):
                    graph.add_edge(next_id, int(anchor))
                    touched.update((next_id, int(anchor)))
                next_id += 1
            victim = nodes[int(rng.integers(0, len(nodes)))]
            touched.update(graph.neighbor_set(victim))
            touched.add(victim)
            graph.remove_node(victim)
        k = round(alpha * graph.number_of_nodes())
        hint = None if step == 8 else touched  # step 8: unknown delta
        result = partitioner.partition(graph, k, touched=hint)
        assert validate_partition(result, graph) == []
        trail.append(
            (
                partitioner.last_reason,
                k,
                _assignment_digest(result.assignment),
                result.edge_cut,
            )
        )
    return trail


INCREMENTAL_PINS = [
    (
        "initial", 25,
        "ddeb48d39e16e78e045aa5fe59ef8bf6a3181d63029eee2f6f0213e95f4b3ad7",
        283.0,
    ),
    (
        "incremental", 25,
        "9c5337a2b189a044c10d3e9b653d4a2ee9626577a743964770e3645c96802b11",
        280.0,
    ),
    (
        "incremental", 25,
        "1ac3f0eca2f9b49c0f4ec3c600f6426fb0abb64037b3203feb19a97fa08335e4",
        280.0,
    ),
    (
        "cut-degraded", 36,
        "c80dcaa067fb9946c0a846e2e0481e7760aba528596ec2e2ba079784c259e063",
        295.0,
    ),
    (
        "incremental", 36,
        "fbbb5e852d8f35525762e1d0cd3f314a87e1aa356a9e56c34005581dc02c9f8a",
        299.0,
    ),
    (
        "incremental", 18,
        "e25d72e21301bd0123c2f6fa0ac6915c46ec240635eba8a8cf20fe96eda4f8bf",
        290.0,
    ),
    (
        "incremental", 18,
        "c688e5b746d2e9fb82f4babdf3984bb130f064516eb145f120238e43cf64d89f",
        290.0,
    ),
    (
        "incremental", 26,
        "c59e013b1ecfeb169786d9f29cfd5302209ea7614190f1f7523924f524f6fc64",
        297.0,
    ),
    (
        "incremental", 27,
        "8725926d9da4fc290de7cf15406da61258dd4f43814bffc9bce2a4f5a003ef29",
        299.0,
    ),
    (
        "incremental", 27,
        "9620fbc54484b84a439b47fbbba33bd2599359857382a7ddefbda884ae0e698a",
        304.0,
    ),
]


def test_incremental_drift_pinned():
    assert _drift_trail() == INCREMENTAL_PINS
