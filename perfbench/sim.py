"""The simulator workloads: sim-build and sim-sharded.

Each workload is one sweep cell of fixed size, executed by the
program's own :func:`repro.experiments.common.run_cell` (sim-sharded
with ``shards=2`` over the shm backend).  Phases are timed from
outside: while a cell runs, :func:`observe` wraps
``HybridSystem.populate`` and ``HybridSystem.run_lookups``.

End-to-end metrics of a sim run.  A run executes the cell
``Cell.repeats`` times, each time from scratch to a verified result:

* ``setup_s`` -- topology + router + overlay build + populate + lookup
  sampling, the time from ``run_cell``'s start to its first lookup
  (sim-sharded: the shard runner's build time); median over the cells.
* ``total_s`` -- one cell from start to a verified result; median.
* ``ops_per_s`` -- lookups per wall second of the lookup phases: every
  lookup of the run over the seconds of every lookup phase, so the
  rate averages over all of them.
* ``get_*`` / ``put_*`` -- the simulated latency a peer sees for a
  lookup / a store, in milliseconds of simulated network time (the
  paper's own latency).  Deterministic for a seed and pinned by the gate.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Tuple

from common import GateError, ROOT, peak_rss_mb, quantile

#: ``--seed`` values map onto this many cell seeds, each with expected
#: results recorded in ``expected.json`` by ``record_expected.py``.
SEED_POOL = 10

EXPECTED_PATH = ROOT / "perfbench" / "expected.json"


@dataclass(frozen=True)
class Cell:
    """One workload's cell: config fields, :class:`Scale` fields, and
    ``repeats``, the cells per timed run (each from scratch)."""

    config: Dict[str, object]
    n_peers: int
    n_keys: int
    n_lookups: int
    wave_size: int
    bulk_build: bool
    repeats: int
    shards: int = 1

    def hybrid_config(self):
        from repro.core.config import HybridConfig

        return HybridConfig(**self.config)

    def scale(self, seed: int):
        from repro.experiments.common import Scale

        return Scale(
            n_peers=self.n_peers, n_keys=self.n_keys, n_lookups=self.n_lookups,
            seed=seed, wave_size=self.wave_size, bulk_build=self.bulk_build,
        )

    def run(self, seed: int, info: dict):
        """``run_cell`` on this cell; ``info`` receives ``system_out``."""
        from repro.experiments.common import run_cell

        if self.shards > 1:
            return run_cell(
                self.hybrid_config(), self.scale(seed), system_out=info,
                shards=self.shards, shard_backend="shm", shards_strict=True,
            )
        return run_cell(self.hybrid_config(), self.scale(seed), system_out=info)


CELLS = {
    # Bulk-built cell past the paper's size: construction, build and
    # populate dominate; the event loop does little.
    "sim-build": Cell(
        config={"p_s": 0.7, "ring_routing": "finger"},
        n_peers=20_000, n_keys=10_000, n_lookups=10_000,
        wave_size=500, bulk_build=True, repeats=2,
    ),
    # The paper-scale cell (1,000 peers, linear ring routing), built
    # through the join protocol, on two shm shards: the event loop,
    # transport and data plane do the build and populate in this
    # process, the shard workers the lookups.  One reflood after a
    # lookup timeout lets every lookup of every pool seed resolve
    # (with none, 75 of 5,000 time out on cell seed 7).
    "sim-sharded": Cell(
        config={"p_s": 0.7, "max_refloods": 1},
        n_peers=1_000, n_keys=5_000, n_lookups=300,
        wave_size=200, bulk_build=False, repeats=2, shards=2,
    ),
}


def repeats(cell: Cell, tracer) -> int:
    """Cells per run: one when traced (the trace breaks a single cell down)."""
    return 1 if tracer is not None else cell.repeats


def cell_seed(seed: int) -> int:
    return seed % SEED_POOL


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Phases, observed from outside run_cell
# ----------------------------------------------------------------------
def record_stores(system) -> List[float]:
    """Collect the simulated latency of each store the next populate issues.

    ``populate`` issues every store at one simulated instant; a store's
    latency is the time its item lands at the final holder (the
    ``data.stored`` trace event, which the system already subscribes to).
    """
    issued_at = system.engine.now
    latencies: List[float] = []
    system.trace.subscribe(
        "data.stored", lambda record: latencies.append(record.time - issued_at)
    )
    return latencies


@contextmanager
def observe(phases: Dict[str, object]):
    """While active, time the ``HybridSystem`` populate and lookup phases.

    ``phases`` receives the store latencies of the populate call, its
    seconds and events, the ``perf_counter`` instant of the first
    ``run_lookups`` call, and the lookup phase's seconds and events.
    In a sharded cell the lookups run in the workers, so only the
    populate entries are filled in.
    """
    from repro.core.hybrid import HybridSystem

    populate, run_lookups = HybridSystem.populate, HybridSystem.run_lookups

    def timed_populate(self, *args, **kwargs):
        phases["stores"] = record_stores(self)
        events0, t0 = self.engine.events_executed, time.perf_counter()
        try:
            return populate(self, *args, **kwargs)
        finally:
            phases["populate_s"] = time.perf_counter() - t0
            phases["populate_events"] = self.engine.events_executed - events0

    def timed_lookups(self, *args, **kwargs):
        events0, t0 = self.engine.events_executed, time.perf_counter()
        phases["lookups_start"] = t0
        try:
            return run_lookups(self, *args, **kwargs)
        finally:
            phases["lookup_s"] = time.perf_counter() - t0
            phases["lookup_events"] = self.engine.events_executed - events0

    HybridSystem.populate, HybridSystem.run_lookups = timed_populate, timed_lookups
    try:
        yield phases
    finally:
        HybridSystem.populate, HybridSystem.run_lookups = populate, run_lookups


def lookup_latencies(records) -> Tuple[List[float], float]:
    """Simulated latency of each successful lookup, and mean answer hops."""
    from repro.core.lookup import SUCCESS

    lat = [r.end_time - r.start_time for r in records if r.status == SUCCESS]
    hops = [r.hops for r in records if r.status == SUCCESS]
    return lat, (sum(hops) / len(hops) if hops else 0.0)


def check_cell(name: str, seed: int, result, events: int, expected: dict, events_key: str) -> None:
    """Gate: the full CellResult and the event count match the recorded run."""
    want = expected[name][str(seed)]
    got = result.to_dict()
    if got != want["cell"]:
        diff = {k: (got[k], want["cell"].get(k)) for k in got if got[k] != want["cell"].get(k)}
        raise GateError(f"{name} seed {seed}: CellResult differs (got, want): {diff}")
    if events != want[events_key]:
        raise GateError(
            f"{name} seed {seed}: {events} events executed, expected {want[events_key]}"
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_single(name: str, seed: int, expected: dict, tracer=None) -> dict:
    """sim-build: returns metrics, diagnostics and counts."""
    cell = CELLS[name]
    seed = cell_seed(seed)
    setups: List[float] = []
    totals: List[float] = []
    lookup_s: List[float] = []
    for _ in range(repeats(cell, tracer)):
        # Free the previous cell before the next is built, so the peak
        # RSS is one cell's whatever the collector's timing.
        info = phases = result = None
        gc.collect()
        info, phases = {}, {}
        t_start = time.perf_counter()
        with observe(phases):
            result = cell.run(seed, info)
        events = info["system"].engine.events_executed
        check_cell(name, seed, result, events, expected, "events")
        totals.append(time.perf_counter() - t_start)
        setups.append(phases["lookups_start"] - t_start)
        lookup_s.append(phases["lookup_s"])

    system = info["system"]
    get_lat, hops_mean = lookup_latencies(system.queries.records())
    put_lat = phases["stores"]
    if len(put_lat) != cell.n_keys:
        raise GateError(f"{name}: {len(put_lat)} stores landed, expected {cell.n_keys}")
    transport = system.transport
    return {
        "metrics": _e2e(setups, totals, cell.n_lookups * len(lookup_s) / sum(lookup_s),
                        get_lat, put_lat),
        "attempted": cell.n_lookups * len(totals),
        "failed": result.failures * len(totals),
        "layers": {
            "core.populate.events": phases["populate_events"],
            "core.lookups.events": phases["lookup_events"],
            "sim.engine.events": events,
            "sim.engine.events_per_s": phases["lookup_events"] / phases["lookup_s"],
            "overlay.transport.msgs_sent": transport.messages_sent,
            "overlay.transport.msgs_dropped": transport.messages_dropped,
            "core.lookup.contacts_mean": result.mean_contacts,
            "core.lookup.hops_mean": hops_mean,
        },
        "diag": {
            "cell_seed": seed,
            "setups_s": setups,
            "totals_s": totals,
            "lookups_s": lookup_s,
            "populate_s": phases["populate_s"],
        },
    }


def run_sharded(name: str, seed: int, expected: dict, tracer=None) -> dict:
    """sim-sharded: the cell on two shm shards, bit-identical to single process."""
    cell = CELLS[name]
    seed = cell_seed(seed)
    setups: List[float] = []
    totals: List[float] = []
    lookup_s: List[float] = []
    for _ in range(repeats(cell, tracer)):
        info = phases = result = None
        gc.collect()
        info, phases = {}, {}
        t_start = time.perf_counter()
        with observe(phases):
            result = cell.run(seed, info)
        shard = info["shard_info"]
        if shard["mode"] != "fork" or shard["backend"] != "shm":
            raise GateError(f"{name}: ran {shard['mode']}/{shard['backend']}, not fork/shm")
        # The recorded cell is the single-process result, so this one
        # comparison is both the golden gate and the bit-identity gate.
        check_cell(name, seed, result, shard["events_total"], expected, "events_sharded")
        totals.append(time.perf_counter() - t_start)
        setups.append(shard["build_wall_seconds"])
        lookup_s.append(shard["lookup_wall_seconds"])
    get_lat, hops_mean = lookup_latencies(shard["registry"].records())
    put_lat = phases["stores"]
    if len(put_lat) != cell.n_keys:
        raise GateError(f"{name}: {len(put_lat)} stores landed, expected {cell.n_keys}")

    build_s = shard["build_wall_seconds"]
    per_shard = shard["lookup_events_per_shard"]
    rounds = shard["window_rounds"]
    ipc = shard["ipc"]
    workers_kb = [kb for kb in shard["peak_rss_kb"]["workers"] if kb]
    return {
        "metrics": _e2e(setups, totals, cell.n_lookups * len(lookup_s) / sum(lookup_s),
                        get_lat, put_lat),
        "attempted": cell.n_lookups * len(totals),
        "failed": result.failures * len(totals),
        "layers": {
            "core.populate.events": phases["populate_events"],
            "core.lookup.contacts_mean": result.mean_contacts,
            "core.lookup.hops_mean": hops_mean,
            "sim.engine.events": shard["events_total"],
            "shard.build.s": build_s,
            "shard.lookups.s": lookup_s[-1],
            "shard.sync.window_rounds": rounds,
            "shard.sync.us_per_round": lookup_s[-1] / rounds * 1e6 if rounds else 0.0,
            "shard.sync.events_per_round": sum(per_shard) / rounds if rounds else 0.0,
            "shard.ipc.data_frames": ipc["data_frames"],
            "shard.ipc.data_bytes": ipc["data_bytes"],
            "shard.ipc.ctrl_bytes": ipc["ctrl_bytes"],
            "shard.ipc.spilled_frames": ipc["spilled_frames"],
            "shard.ipc.pickled_fallbacks": ipc["pickled_fallbacks"],
            "shard.worker.peak_rss_mb": max(workers_kb) / 1024.0 if workers_kb else 0.0,
            "shard.worker.events_imbalance": (
                max(per_shard) / (sum(per_shard) / len(per_shard)) if sum(per_shard) else 0.0
            ),
        },
        "diag": {
            "cell_seed": seed,
            "setups_s": setups,
            "totals_s": totals,
            "lookups_s": lookup_s,
            "populate_s": phases["populate_s"],
            "waves": shard["waves"],
        },
    }


def _e2e(setups, totals, ops_per_s, get_lat, put_lat) -> Dict[str, tuple]:
    return {
        "setup_s": (median(setups), "s"),
        "total_s": (median(totals), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "get_p50_ms": (quantile(get_lat, 0.50), "ms"),
        "get_p99_ms": (quantile(get_lat, 0.99), "ms"),
        "put_p50_ms": (quantile(put_lat, 0.50), "ms"),
        "put_p99_ms": (quantile(put_lat, 0.99), "ms"),
    }
