#!/usr/bin/env python3
"""Show that the correctness gates fail when they should.

* sim: runs the sim-sharded cell in one process and checks it against
  its recorded single-process ``CellResult`` and event count; the true
  record must pass, and a deliberately wrong ``CellResult`` value or
  event count must raise ``GateError``.
* live: feeds the live-kv history check a get of a never-written value
  and a read-back that lost an acknowledged put; both must raise.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every gate fires as expected.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import GateError, import_program  # noqa: E402


def expect_gate(label: str, fn) -> bool:
    try:
        fn()
    except GateError as exc:
        print(f"ok   {label}: gate fired ({exc})")
        return True
    print(f"FAIL {label}: gate did not fire")
    return False


def main() -> int:
    import_program()
    import live
    import sim

    name, seed = "sim-sharded", 0
    info: dict = {}
    result = replace(sim.CELLS[name], shards=1).run(seed, info)
    events = info["system"].engine.events_executed
    expected = sim.load_expected()

    ok = True
    sim.check_cell(name, seed, result, events, expected, "events")
    print(f"ok   {name}: true record passes")
    wrong_cell = copy.deepcopy(expected)
    wrong_cell[name][str(seed)]["cell"]["mean_latency"] += 1e-9
    ok &= expect_gate("wrong mean_latency", lambda: sim.check_cell(
        name, seed, result, events, wrong_cell, "events"))
    wrong_events = copy.deepcopy(expected)
    wrong_events[name][str(seed)]["events"] += 1
    ok &= expect_gate("wrong events", lambda: sim.check_cell(
        name, seed, result, events, wrong_events, "events"))

    history = live.History()
    history.issued("k", "v1", 0.0)
    history.acked("k", "v1", 1.0)
    history.issued("k", "v2", 2.0)
    history.acked("k", "v2", 3.0)
    history.check_final("k", "v2")
    print("ok   live: latest acknowledged value passes")
    ok &= expect_gate("live get of an unwritten value", lambda: history.check_get("k", "v9"))
    ok &= expect_gate("live lost acknowledged put", lambda: history.check_final("k", "v1"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
