"""Golden determinism test for the simulation substrate.

The perf rewrite (tuple-heap engine, batched flood delivery, memoized
transport delays) is only admissible because it is *bit-identical* to
the straightforward implementation: same seed, same event order, same
floating-point arithmetic, same metrics.  This test pins the full
metric bundle of a Fig.-3-style cell at ``Scale.quick()`` to exact
values captured from the pre-rewrite tree -- every comparison is ``==``
on floats on purpose.  If an "optimisation" moves any of these by one
ulp, it reordered events or changed arithmetic and must be fixed, not
re-goldened.

A second golden pins a bulk-built, finger-routed cell just large
enough for :class:`~repro.net.routing.HierRouter` to serve it, the path
every cell past :data:`~repro.net.routing.DENSE_ROUTER_LIMIT` hosts takes.

``scripts/bench_perf.py`` checks the same invariants at whichever scale
it benches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.hybrid import HybridConfig
from repro.experiments.common import Scale, run_cell
from repro.net.routing import DENSE_ROUTER_LIMIT, HierRouter

# Captured at commit 4dba637 (pre-rewrite engine), seed 0.
GOLDEN = {
    "p_s": 0.3,
    "failure_ratio": 0.0,
    "mean_latency": 3121.8109594982875,
    "median_latency": 3124.0968402879807,
    "connum": 17056,
    "mean_contacts": 42.64,
    "successes": 400,
    "failures": 0,
    "n_t_peers": 84,
    "n_s_peers": 36,
}
GOLDEN_EVENTS_EXECUTED = 37_040


@pytest.fixture(scope="module")
def quick_cell():
    out = {}
    result = run_cell(HybridConfig(p_s=0.3), Scale.quick(), system_out=out)
    return result, out["system"]


class TestGoldenQuickCell:
    def test_metrics_bit_identical(self, quick_cell):
        result, _system = quick_cell
        for field, expected in GOLDEN.items():
            assert getattr(result, field) == expected, field

    def test_event_count_exact(self, quick_cell):
        _result, system = quick_cell
        assert system.engine.events_executed == GOLDEN_EVENTS_EXECUTED
        # Every executed event in this workload is a message delivery.
        assert system.transport.messages_sent == GOLDEN_EVENTS_EXECUTED
        assert system.transport.messages_dropped == 0

    def test_rerun_reproduces_every_field(self, quick_cell):
        first, _system = quick_cell
        second = run_cell(HybridConfig(p_s=0.3), Scale.quick())
        assert dataclasses.asdict(first) == dataclasses.asdict(second)


# A bulk-built, finger-routed cell just past DENSE_ROUTER_LIMIT, so the
# hierarchical router serves every delay.  Captured at commit 6e3260d,
# before the class-level dispatch, GC-quiet build, batched stub-domain
# Dijkstra and bisect finger hops; all four must leave it bit-identical.
BULK_SCALE = Scale(
    n_peers=4096, n_keys=2000, n_lookups=1000, seed=0, bulk_build=True
)
BULK_GOLDEN = {
    "p_s": 0.7,
    "failure_ratio": 0.0,
    "mean_latency": 1491.5885975346678,
    "median_latency": 1484.2675094818587,
    "connum": 8330,
    "mean_contacts": 8.33,
    "successes": 1000,
    "failures": 0,
    "n_t_peers": 1229,
    "n_s_peers": 2867,
}
BULK_GOLDEN_EVENTS_EXECUTED = 24_174


@pytest.fixture(scope="module")
def bulk_cell():
    out = {}
    config = HybridConfig(p_s=0.7, ring_routing="finger")
    result = run_cell(config, BULK_SCALE, system_out=out)
    return result, out["system"]


class TestGoldenBulkFingerCell:
    def test_served_by_hier_router(self, bulk_cell):
        _result, system = bulk_cell
        assert system.topology.n > DENSE_ROUTER_LIMIT
        assert isinstance(system.router, HierRouter)

    def test_metrics_bit_identical(self, bulk_cell):
        result, _system = bulk_cell
        assert dataclasses.asdict(result) == BULK_GOLDEN

    def test_event_count_exact(self, bulk_cell):
        _result, system = bulk_cell
        assert system.engine.events_executed == BULK_GOLDEN_EVENTS_EXECUTED
        assert system.transport.messages_sent == BULK_GOLDEN_EVENTS_EXECUTED
        assert system.transport.messages_dropped == 0
