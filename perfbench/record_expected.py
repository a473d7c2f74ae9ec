#!/usr/bin/env python3
"""Record the expected results the sim workloads' correctness gates compare against.

For every sim workload and every cell seed of the pool this runs the
cell through the program's own ``run_cell`` (single process) and stores
the full ``CellResult`` and the number of events executed.  For
sim-sharded it also runs the sharded cell and refuses to record unless
its ``CellResult`` equals the single-process one bit for bit; the
sharded event total is recorded beside it.

Run from the root of a checkout, only when a workload's cell or the
program's behaviour changes on purpose::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program  # noqa: E402


def record(cell, seed: int) -> dict:
    out: dict = {}
    result = replace(cell, shards=1).run(seed, out)
    entry = {"cell": result.to_dict(), "events": out["system"].engine.events_executed}
    if cell.shards > 1:
        info: dict = {}
        sharded = cell.run(seed, info)
        if sharded != result:
            raise SystemExit(
                f"seed {seed}: sharded result {sharded} differs from "
                f"single-process {result}"
            )
        entry["events_sharded"] = info["shard_info"]["events_total"]
    return entry


def main() -> int:
    import_program()
    import sim

    expected: dict = {}
    for name, cell in sorted(sim.CELLS.items()):
        for seed in range(sim.SEED_POOL):
            entry = expected.setdefault(name, {})[str(seed)] = record(cell, seed)
            print(f"{name} seed {seed}: {entry}", flush=True)
    with open(sim.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
