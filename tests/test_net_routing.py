"""Unit tests for shortest-path routing."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.net import (
    NodeKind,
    PhysicalTopology,
    Router,
    TransitStubConfig,
    generate_transit_stub,
)
from repro.net import routing
from repro.net.routing import HierRouter, make_router


def tiny_topology() -> PhysicalTopology:
    """A 4-node diamond with a cheap bottom path: 0-1-3 costs 2,
    0-2-3 costs 10."""
    return PhysicalTopology(
        n=4,
        edges=[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)],
        kind=[NodeKind.TRANSIT] * 4,
        domain=[0, 0, 0, 0],
        transit_attachment=[0, 1, 2, 3],
    )


class TestRouter:
    def test_latency_is_shortest_path(self):
        r = Router(tiny_topology())
        assert r.latency(0, 3) == pytest.approx(2.0)
        assert r.latency(0, 2) == pytest.approx(5.0)

    def test_latency_symmetric(self):
        r = Router(tiny_topology())
        assert r.latency(1, 2) == r.latency(2, 1)

    def test_self_latency_zero(self):
        r = Router(tiny_topology())
        assert r.latency(2, 2) == 0.0

    def test_path_extraction(self):
        r = Router(tiny_topology())
        assert r.path(0, 3) == [0, 1, 3]
        assert r.path(3, 0) == [3, 1, 0]
        assert r.path(1, 1) == [1]

    def test_path_edges_sorted_pairs(self):
        r = Router(tiny_topology())
        assert r.path_edges(3, 0) == [(1, 3), (0, 1)]

    def test_hop_count(self):
        r = Router(tiny_topology())
        assert r.hop_count(0, 3) == 2
        assert r.hop_count(0, 0) == 0

    def test_disconnected_topology_rejected(self):
        topo = PhysicalTopology(
            n=4,
            edges=[(0, 1, 1.0), (2, 3, 1.0)],
            kind=[NodeKind.STUB] * 4,
            domain=[0, 0, 1, 1],
            transit_attachment=[0, 0, 2, 2],
        )
        with pytest.raises(ValueError, match="not connected"):
            Router(topo)

    def test_triangle_inequality_on_generated_topology(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        r = Router(topo)
        # Spot-check: d(a,c) <= d(a,b) + d(b,c) for a sample of triples.
        picks = rng.integers(0, topo.n, size=(30, 3))
        for a, b, c in picks:
            a, b, c = int(a), int(b), int(c)
            assert r.latency(a, c) <= r.latency(a, b) + r.latency(b, c) + 1e-9

    def test_path_latency_consistent_with_matrix(self, rng):
        topo = generate_transit_stub(TransitStubConfig(), rng)
        r = Router(topo)
        weights = {tuple(sorted((u, v))): lat for u, v, lat in topo.edges}
        for a, b in [(0, topo.n - 1), (3, 7), (1, topo.n // 2)]:
            total = sum(weights[e] for e in r.path_edges(a, b))
            assert total == pytest.approx(r.latency(a, b))


# ----------------------------------------------------------------------
# HierRouter: the router every topology above DENSE_ROUTER_LIMIT uses
# ----------------------------------------------------------------------
def small_transit_stub(seed: int = 3) -> PhysicalTopology:
    """The default 200-node shape: 8 transit nodes, 24 stub domains."""
    return generate_transit_stub(TransitStubConfig(), np.random.default_rng(seed))


def eager_pred(n: int, edges) -> np.ndarray:
    """Predecessor matrix of an undirected graph, computed up front."""
    rows = [u for u, v, _ in edges] + [v for u, v, _ in edges]
    cols = [v for u, v, _ in edges] + [u for u, v, _ in edges]
    vals = [lat for _, _, lat in edges] * 2
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    _, pred = dijkstra(graph, directed=False, return_predecessors=True)
    return pred


def domain_subgraph(topo: PhysicalTopology, d: int):
    """Stub domain ``d``'s nodes (in node order) and its local edge list."""
    mem = [i for i in range(topo.n) if topo.kind[i] is NodeKind.STUB and topo.domain[i] == d]
    idx = {node: j for j, node in enumerate(mem)}
    edges = [(idx[u], idx[v], lat) for u, v, lat in topo.edges if u in idx and v in idx]
    return mem, edges


@pytest.fixture(params=[routing._STUB_BATCH_NODES, 16], ids=["batch-default", "batch-16"])
def hier_pair(request, monkeypatch):
    """(topology, HierRouter forced by make_router, dense Router).

    ``batch-16`` shrinks the stub-domain batch to two domains so that
    the block-diagonal solve is split across many batches.
    """
    monkeypatch.setattr(routing, "_STUB_BATCH_NODES", request.param)
    topo = small_transit_stub()
    hier = make_router(topo, dense_limit=0)
    assert isinstance(hier, HierRouter)
    return topo, hier, Router(topo)


class TestHierRouter:
    def test_latencies_match_dense_router(self, hier_pair):
        topo, hier, dense = hier_pair
        for src in range(topo.n):
            row = hier.latency_row(src)
            expected = dense.latency_row(src)
            for dst in range(topo.n):
                assert row[dst] == pytest.approx(expected[dst], rel=1e-9, abs=0.0)
                assert hier.latency(src, dst) == row[dst]

    def test_path_endpoints_and_edge_sum(self, hier_pair):
        topo, hier, _dense = hier_pair
        weights = {(u, v): lat for u, v, lat in topo.edges}
        for src in range(0, topo.n, 7):
            for dst in range(topo.n):
                nodes = hier.path(src, dst)
                assert nodes[0] == src and nodes[-1] == dst
                assert len(set(nodes)) == len(nodes)
                total = sum(weights[e] for e in hier.path_edges(src, dst))
                assert total == pytest.approx(hier.latency(src, dst), rel=1e-9, abs=0.0)
                assert hier.hop_count(src, dst) == len(nodes) - 1

    def test_paths_match_dense_router(self, hier_pair):
        topo, hier, dense = hier_pair
        for src in range(0, topo.n, 5):
            for dst in range(0, topo.n, 3):
                assert hier.path(src, dst) == dense.path(src, dst)

    def test_intra_domain_tables_match_per_domain_dijkstra(self, hier_pair):
        topo, hier, _dense = hier_pair
        domains = sorted({topo.domain[i] for i in range(topo.n) if topo.kind[i] is NodeKind.STUB})
        assert sorted(hier._intra) == domains
        for d in domains:
            mem, edges = domain_subgraph(topo, d)
            rows = [u for u, v, _ in edges] + [v for u, v, _ in edges]
            cols = [v for u, v, _ in edges] + [u for u, v, _ in edges]
            vals = [lat for _, _, lat in edges] * 2
            alone = dijkstra(
                csr_matrix((vals, (rows, cols)), shape=(len(mem), len(mem))),
                directed=False,
            )
            # Bit for bit, not approximately: the batch must not change
            # a single delay of the simulation.
            assert hier._intra[d].tobytes() == alone.tobytes()

    def test_predecessors_built_lazily_and_match_eager(self, hier_pair):
        topo, hier, _dense = hier_pair
        assert hier._intra_pred == {} and hier._tt_pred is None
        hier.latency(0, topo.n - 1)  # latencies never need predecessors
        assert hier._intra_pred == {} and hier._tt_pred is None

        stub = next(i for i in range(topo.n) if topo.kind[i] is NodeKind.STUB)
        d = topo.domain[stub]
        hier.path(stub, hier._gateway[d][0])
        assert set(hier._intra_pred) == {d} and hier._tt_pred is None

        transit = hier._transit
        t_of = {node: j for j, node in enumerate(transit)}
        core = [
            (t_of[u], t_of[v], lat)
            for u, v, lat in topo.edges
            if u in t_of and v in t_of
        ]
        assert np.array_equal(hier._transit_pred(), eager_pred(len(transit), core))
        for d in hier._members:
            mem, edges = domain_subgraph(topo, d)
            assert np.array_equal(hier._domain_pred(d), eager_pred(len(mem), edges))

    def test_multi_gateway_domain_rejected(self):
        # Stub domain 1 (nodes 2, 3) hangs off the core by two edges.
        topo = PhysicalTopology(
            n=4,
            edges=[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            kind=[NodeKind.TRANSIT, NodeKind.TRANSIT, NodeKind.STUB, NodeKind.STUB],
            domain=[0, 0, 1, 1],
            transit_attachment=[0, 1, 0, 0],
        )
        with pytest.raises(ValueError, match="multiple gateway edges"):
            make_router(topo, dense_limit=0)

    def test_disconnected_domain_rejected(self):
        # Stub domain 1 = {1, 2}: node 2 has no edge inside the domain.
        topo = PhysicalTopology(
            n=4,
            edges=[(0, 1, 1.0), (0, 3, 1.0)],
            kind=[NodeKind.TRANSIT, NodeKind.STUB, NodeKind.STUB, NodeKind.TRANSIT],
            domain=[0, 1, 1, 0],
            transit_attachment=[0, 0, 0, 3],
        )
        with pytest.raises(ValueError, match="not internally connected"):
            make_router(topo, dense_limit=0)

    def test_make_router_keeps_dense_below_limit(self):
        topo = small_transit_stub()
        assert type(make_router(topo)) is Router
        assert type(make_router(topo, dense_limit=topo.n - 1)) is HierRouter
