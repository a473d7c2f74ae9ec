#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-sharded --seed 3 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` is a separate run that wraps the
program's public entry points in spans, prints each layer's self time
and prints the per-layer metrics.  Each workload does a fixed amount of
work (see README.md); ``--seconds`` is recorded with the run but does
not stretch or cut the work.  A failed correctness gate prints
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    GateError,
    GcClock,
    calibrate,
    emit,
    host_record,
    import_program,
    record_line,
    stop_helpers,
)

WORKLOADS = ("sim-build", "sim-sharded", "live-kv")

#: Every per-layer metric, with its unit; a traced run reports all of
#: them (0 where the layer does no work on that workload).
PER_LAYER = {
    "net.topology.s": "s",
    "net.routing.s": "s",
    "core.build.s": "s",
    "core.fingers.s": "s",
    "core.populate.s": "s",
    "core.populate.events": "count",
    "core.lookups.s": "s",
    "core.lookups.events": "count",
    "sim.engine.events": "count",
    "sim.engine.events_per_s": "1/s",
    "overlay.transport.msgs_sent": "count",
    "overlay.transport.msgs_dropped": "count",
    "core.lookup.contacts_mean": "count",
    "core.lookup.hops_mean": "count",
    "shard.build.s": "s",
    "shard.lookups.s": "s",
    "shard.sync.window_rounds": "count",
    "shard.sync.us_per_round": "us",
    "shard.sync.events_per_round": "count",
    "shard.ipc.data_frames": "count",
    "shard.ipc.data_bytes": "bytes",
    "shard.ipc.ctrl_bytes": "bytes",
    "shard.ipc.spilled_frames": "count",
    "shard.ipc.pickled_fallbacks": "count",
    "shard.worker.peak_rss_mb": "MB",
    "shard.worker.events_imbalance": "ratio",
    "runtime.localnet.start.s": "s",
    "runtime.localnet.converge.s": "s",
    "live.prepopulate.s": "s",
    "runtime.node.get_p50_ms": "ms",
    "runtime.node.put_p50_ms": "ms",
    "runtime.codec.encode.calls": "count",
    "runtime.codec.encode.s": "s",
    "runtime.codec.decode.calls": "count",
    "runtime.codec.decode.s": "s",
    "runtime.aio_transport.tx_frames": "count",
    "runtime.aio_transport.tx_bytes": "bytes",
    "runtime.aio_transport.frames_per_op": "count",
    "runtime.aio_transport.backpressure": "count",
    "runtime.aio_transport.reconnects": "count",
    "replica.protocol.quorum_p50_ms": "ms",
    "replica.protocol.repair_items": "count",
    "py.gc.s": "s",
    "py.gc.gen2": "count",
    "host.calib_s": "s",
    "trace.total_s": "s",
}

#: Traced span name -> per-layer metric holding that span's total time.
SPAN_METRICS = {
    "net.topology": "net.topology.s",
    "net.routing": "net.routing.s",
    "core.build": "core.build.s",
    "core.fingers": "core.fingers.s",
    "core.populate": "core.populate.s",
    "core.lookups": "core.lookups.s",
    "runtime.codec.encode": "runtime.codec.encode.s",
    "runtime.codec.decode": "runtime.codec.decode.s",
}


def install_spans(tracer) -> None:
    """Wrap the program's public entry points named in README.md."""
    import repro.core.hybrid as hybrid
    import repro.experiments.common as common
    from repro.runtime.client import ClientConnection
    from repro.runtime.codec import MessageCodec

    tracer.wrap(common, "run_cell", "experiments.run_cell")
    tracer.wrap(hybrid, "generate_transit_stub", "net.topology")
    tracer.wrap(hybrid, "make_router", "net.routing")
    system = hybrid.HybridSystem
    tracer.wrap(system, "__init__", "core.construct")
    tracer.wrap(system, "build", "core.build")
    tracer.wrap(system, "build_bulk", "core.build")
    tracer.wrap(system, "install_fingers", "core.fingers")
    tracer.wrap(system, "populate", "core.populate")
    tracer.wrap(system, "run_lookups", "core.lookups")
    tracer.wrap(MessageCodec, "encode", "runtime.codec.encode")
    tracer.wrap(MessageCodec, "decode", "runtime.codec.decode")
    tracer.wrap(ClientConnection, "request", "runtime.client.request")


def run_workload(name: str, seed: int, tracer=None) -> dict:
    import live
    import sim

    if name == "live-kv":
        return live.run_live(seed, tracer)
    expected = sim.load_expected()
    if name == "sim-sharded":
        return sim.run_sharded(name, seed, expected, tracer)
    return sim.run_single(name, seed, expected, tracer)


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        stop_helpers()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    calib_before = calibrate()
    tracer = None
    t0 = time.perf_counter()
    try:
        with GcClock() as gc_clock:
            if args.trace:
                from tracer import Tracer

                with Tracer() as tracer:
                    install_spans(tracer)
                    with tracer.span(f"perfbench.{args.workload}"):
                        out = run_workload(args.workload, args.seed, tracer)
            else:
                out = run_workload(args.workload, args.seed)
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1
    wall = time.perf_counter() - t0
    calib_after = calibrate()

    record_line({
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall,
        "host": host_record(),
        "host.calib_s": [calib_before, calib_after],
        "py.gc": {"s": gc_clock.seconds, "gen2": gc_clock.gen2},
        **out.get("diag", {}),
        **({"errors": out["errors"]} if out.get("errors") else {}),
    })
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(out["layers"])
        for span, metric in SPAN_METRICS.items():
            if tracer.calls(span):
                layers[metric] = tracer.total(span)
        layers["runtime.codec.encode.calls"] = tracer.calls("runtime.codec.encode")
        layers["runtime.codec.decode.calls"] = tracer.calls("runtime.codec.decode")
        layers["py.gc.s"] = gc_clock.seconds
        layers["py.gc.gen2"] = gc_clock.gen2
        layers["host.calib_s"] = (calib_before + calib_after) / 2.0
        layers["trace.total_s"] = out["metrics"]["total_s"][0]
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(OUT_DIR.parent)}")
        tracer.print_layers()
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = out["metrics"]
    emit(True, out["attempted"], out["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
