"""The live-kv workload: a closed-loop get/put mix against an in-process LocalNet.

Shape: 4 t-peers + 4 s-peers on localhost TCP, ``replication_factor`` 3,
``write_quorum`` 2.  ``CONNECTIONS`` client connections (one per core),
each with ``PIPELINE`` callers; a caller issues its next op only when
its reply arrives (closed loop).  A fixed op list, 80 % gets and 20 %
puts over a prepopulated keyspace, is generated from the seed; the
deployment itself is fixed (``NET_SEED``).  A run executes
``CELL_REPEATS`` cells, each from a fresh LocalNet; ``setup_s`` and
``total_s`` are medians over the cells, ``ops_per_s`` is the ok replies
of every cell over their measured seconds, and the latency percentiles
are taken over the ok ops of every cell (``CELL_REPEATS * OPS`` ops).

Gates: every ok get returns a value written for that key, and a final
read-back of every key finds a value that no later acknowledged put had
superseded (no acknowledged put is lost).
"""

from __future__ import annotations

import asyncio
import random
import time
from statistics import median
from typing import Dict, List, Tuple

from common import GateError, hist_quantile, peak_rss_mb, quantile

#: Cells per run (set-up, measured ops and read-back, each from scratch).
CELL_REPEATS = 2
#: The deployment is fixed (the seed of the LocalNet's peers, so which
#: peer owns which key); ``--seed`` picks the op list.
NET_SEED = 7
T_PEERS = 4
S_PEERS = 4
CONNECTIONS = 2
PIPELINE = 8
KEYSPACE = 3_000
OPS = 12_500
GET_SHARE = 0.8
OP_TIMEOUT_S = 10.0


def live_config():
    from repro.runtime.localnet import fast_config

    return fast_config(replication_factor=3, write_quorum=2)


class History:
    """Per key: every value written, with its put's issue and ack times."""

    def __init__(self) -> None:
        self.writes: Dict[str, Dict[str, Tuple[float, float]]] = {}

    def issued(self, key: str, value: str, t: float) -> None:
        self.writes.setdefault(key, {})[value] = (t, float("inf"))

    def acked(self, key: str, value: str, t: float) -> None:
        issue, _ = self.writes[key][value]
        self.writes[key][value] = (issue, t)

    def check_get(self, key: str, value: object) -> None:
        if value not in self.writes.get(key, {}):
            raise GateError(f"get {key!r} returned {value!r}, never written for that key")

    def check_final(self, key: str, value: object) -> None:
        """``value`` must be written for ``key`` and not superseded by a
        put issued after it was acknowledged and itself acknowledged."""
        self.check_get(key, value)
        _issue, ack = self.writes[key][value]
        for other, (o_issue, o_ack) in self.writes[key].items():
            if other != value and o_ack < float("inf") and o_issue > ack:
                raise GateError(
                    f"acknowledged put lost: {key!r} reads {value!r}, but "
                    f"{other!r} was put after it and acknowledged"
                )


async def _drive(conns, ops, history: History, lat: Dict[str, List[float]], errors: List[str]):
    """Closed loop: ``PIPELINE`` callers per connection pull from one op list."""
    from repro.runtime.client import ClientGet, ClientPut

    cursor = iter(ops)

    async def caller(conn) -> None:
        for verb, key, value in cursor:
            t0 = time.perf_counter()
            if verb == "put":
                history.issued(key, value, t0)
                msg = ClientPut(key=key, value=value)
            else:
                msg = ClientGet(key=key)
            try:
                reply = await conn.request(msg, timeout=OP_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError) as exc:
                errors.append(f"{verb} {key}: {exc!r}")
                continue
            t1 = time.perf_counter()
            if not reply.ok:
                errors.append(f"{verb} {key}: {reply.error}")
                continue
            lat[verb].append((t1 - t0) * 1000.0)
            if verb == "put":
                history.acked(key, value, t1)
            else:
                history.check_get(key, reply.payload["value"])

    await asyncio.gather(*(caller(c) for c in conns for _ in range(PIPELINE)))


def _counter(snaps: Dict[str, dict], name: str, **labels: str) -> float:
    total = 0.0
    for snap in snaps.values():
        for s in snap.get(name, {}).get("samples", []):
            if all(s["labels"].get(k) == v for k, v in labels.items()):
                total += s["value"]
    return total


def _hist(snaps: Dict[str, dict], base: Dict[str, dict], name: str, **labels: str) -> List[dict]:
    """Histogram samples of ``name`` accumulated since the ``base`` snapshot."""
    out = []
    for endpoint, snap in snaps.items():
        before = {
            tuple(sorted(s["labels"].items())): s
            for s in base.get(endpoint, {}).get(name, {}).get("samples", [])
        }
        for s in snap.get(name, {}).get("samples", []):
            if not all(s["labels"].get(k) == v for k, v in labels.items()):
                continue
            prev = before.get(tuple(sorted(s["labels"].items())))
            counts = list(s["counts"])
            if prev is not None:
                counts = [a - b for a, b in zip(counts, prev["counts"])]
            out.append({"buckets": s["buckets"], "counts": counts})
    return out


async def _setup(seed: int):
    """Boot, join, converge and prepopulate; returns (net, conns, history, phase times)."""
    from repro.runtime import ClientConnection, LocalNet

    t0 = time.perf_counter()
    net = LocalNet(t_peers=T_PEERS, s_peers=S_PEERS, seed=NET_SEED, config=live_config())
    await net.start()
    t1 = time.perf_counter()
    await net.wait_converged()
    t2 = time.perf_counter()
    conns = []
    try:
        for i in range(CONNECTIONS):
            node = net.nodes[i % len(net.nodes)]
            conns.append(await ClientConnection(node.host, node.port).connect())
        history = History()
        errors: List[str] = []
        ops = [("put", f"k{i}", f"v{seed}-init-{i}") for i in range(KEYSPACE)]
        await _drive(conns, ops, history, {"put": [], "get": []}, errors)
        if errors:
            raise GateError(f"prepopulate: {len(errors)} puts failed, first: {errors[0]}")
    except BaseException:
        for c in conns:
            await c.aclose()
        await net.stop()
        raise
    t3 = time.perf_counter()
    phases = {"start_s": t1 - t0, "converge_s": t2 - t1, "prepopulate_s": t3 - t2, "setup_s": t3 - t0}
    return net, conns, history, phases


async def _teardown(net, conns) -> None:
    for c in conns:
        await c.aclose()
    await net.stop()


def make_ops(seed: int) -> List[Tuple[str, str, object]]:
    rng = random.Random(seed)
    ops = []
    for i in range(OPS):
        key = f"k{rng.randrange(KEYSPACE)}"
        if rng.random() < GET_SHARE:
            ops.append(("get", key, None))
        else:
            ops.append(("put", key, f"v{seed}-{i}"))
    return ops


async def _cell(seed: int, ops) -> dict:
    """One cell: set up, run ``ops``, read back, tear down."""
    from repro.runtime import ClientGet

    t_start = time.perf_counter()
    net, conns, history, phases = await _setup(seed)
    try:
        base = net.metrics_snapshots()
        lat: Dict[str, List[float]] = {"get": [], "put": []}
        errors: List[str] = []
        t_ops = time.perf_counter()
        await _drive(conns, ops, history, lat, errors)
        measured_s = time.perf_counter() - t_ops
        snaps = net.metrics_snapshots()

        # Final read-back of every key: no acknowledged put lost.
        async def read_back(conn, keys) -> None:
            for key in keys:
                reply = await conn.request(ClientGet(key=key), timeout=OP_TIMEOUT_S)
                if not reply.ok:
                    raise GateError(f"read-back of {key!r} failed: {reply.error}")
                history.check_final(key, reply.payload["value"])

        keys = [f"k{i}" for i in range(KEYSPACE)]
        callers = PIPELINE * len(conns)
        await asyncio.gather(*(
            read_back(conns[i % len(conns)], keys[i::callers]) for i in range(callers)
        ))
        total_s = time.perf_counter() - t_start
    finally:
        await _teardown(net, conns)
    return {
        "phases": phases, "total_s": total_s, "measured_s": measured_s,
        "lat": lat, "errors": errors, "base": base, "snaps": snaps,
    }


async def _run(seed: int, tracer=None) -> dict:
    ops = make_ops(seed)
    cells = []
    # One cell when traced: the trace breaks a single cell down.
    for _ in range(CELL_REPEATS if tracer is None else 1):
        cells.append(await _cell(seed, ops))
    last = cells[-1]
    phases, snaps, base = last["phases"], last["snaps"], last["base"]
    errors = [e for c in cells for e in c["errors"]]

    lat = {verb: [x for c in cells for x in c["lat"][verb]] for verb in ("get", "put")}
    done = len(last["lat"]["get"]) + len(last["lat"]["put"])
    tx_frames = _counter(snaps, "repro_frames_total", direction="tx") - _counter(
        base, "repro_frames_total", direction="tx")
    metrics = {
        "setup_s": (median([c["phases"]["setup_s"] for c in cells]), "s"),
        "total_s": (median([c["total_s"] for c in cells]), "s"),
        # Only ok replies count as completed operations.
        "ops_per_s": ((len(lat["get"]) + len(lat["put"]))
                      / sum(c["measured_s"] for c in cells), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "get_p50_ms": (quantile(lat["get"], 0.50), "ms"),
        "get_p99_ms": (quantile(lat["get"], 0.99), "ms"),
        "put_p50_ms": (quantile(lat["put"], 0.50), "ms"),
        "put_p99_ms": (quantile(lat["put"], 0.99), "ms"),
    }
    layers = {
        "runtime.localnet.start.s": phases["start_s"],
        "runtime.localnet.converge.s": phases["converge_s"],
        "live.prepopulate.s": phases["prepopulate_s"],
        "runtime.node.get_p50_ms": hist_quantile(
            _hist(snaps, base, "repro_client_op_latency_ms", verb="get"), 0.5),
        "runtime.node.put_p50_ms": hist_quantile(
            _hist(snaps, base, "repro_client_op_latency_ms", verb="put"), 0.5),
        "runtime.aio_transport.tx_frames": tx_frames,
        "runtime.aio_transport.tx_bytes": _counter(snaps, "repro_wire_bytes_total")
        - _counter(base, "repro_wire_bytes_total"),
        "runtime.aio_transport.frames_per_op": tx_frames / done if done else 0.0,
        "runtime.aio_transport.backpressure": _counter(snaps, "repro_tx_backpressure_total")
        - _counter(base, "repro_tx_backpressure_total"),
        "runtime.aio_transport.reconnects": _counter(snaps, "repro_transport_reconnects_total")
        - _counter(base, "repro_transport_reconnects_total"),
        "replica.protocol.quorum_p50_ms": hist_quantile(
            _hist(snaps, base, "repro_write_quorum_latency_ms"), 0.5),
        "replica.protocol.repair_items": _counter(snaps, "repro_replica_repair_items_total")
        - _counter(base, "repro_replica_repair_items_total"),
    }
    return {
        "metrics": metrics,
        "attempted": len(ops) * len(cells),
        "failed": len(errors),
        "errors": errors[:5],
        "layers": layers,
        "diag": {
            "setups_s": [c["phases"]["setup_s"] for c in cells],
            "totals_s": [c["total_s"] for c in cells],
            "measured_s": [c["measured_s"] for c in cells],
        },
    }


def run_live(seed: int, tracer=None) -> dict:
    return asyncio.run(_run(seed, tracer))
