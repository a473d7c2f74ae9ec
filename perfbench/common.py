"""Run environment, process probes and result printing shared by every workload."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Every ``REPRO_*`` knob the timed path reads, pinned explicitly so a
#: stray shell export cannot change what a run measures.  Shard count
#: and backend are also passed as arguments where the benchmark shards.
PINNED_ENV = {
    "REPRO_SHARDS": "1",
    "REPRO_SHARD_BACKEND": "shm",
    "REPRO_SHARDS_STRICT": "1",
    "REPRO_SHARD_RING_BYTES": str(4 << 20),
    "REPRO_PROFILE": "0",
    "REPRO_JOBS": "1",
}

#: Where traced runs write their spans (git-ignored).
OUT_DIR = ROOT / "perfbench_out"


class GateError(RuntimeError):
    """A correctness gate failed: the run's outputs are wrong."""


def import_program() -> None:
    """Make ``src/`` importable; refuse to run without the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))


def stop_helpers() -> None:
    """Stop the ``multiprocessing`` resource tracker, if the run started it.

    sim-sharded's shm rings are ``multiprocessing.shared_memory``
    segments, which start the resource tracker: a helper process that
    otherwise outlives this one until it notices the closed pipe.
    Closing the pipe and waiting for the helper here leaves nothing
    running once the run exits.  The shard workers themselves are
    joined by the program.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def calibrate(rounds: int = 3) -> float:
    """Median wall seconds of a fixed pure-Python loop (machine speed).

    A diagnostic only: a slow set of runs whose calibration is slow too
    is the VM, not the program.
    """
    walls = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        walls.append(time.perf_counter() - t0)
    return sorted(walls)[rounds // 2]


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_record() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "env": dict(PINNED_ENV),
    }


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


class GcClock:
    """Time spent in the cyclic collector and gen-2 passes, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._on_gc)


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result line: the last line of standard output."""
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(out), flush=True)


def record_line(record: Dict[str, object]) -> None:
    """Print the run record (environment, drift, diagnostics) before the result."""
    print("# record " + json.dumps(record, default=str), flush=True)


def hist_quantile(samples: List[dict], q: float) -> float:
    """Quantile of summed Prometheus-style histogram samples (linear in-bucket)."""
    if not samples:
        return 0.0
    bounds = samples[0]["buckets"]
    counts = [0] * (len(bounds) + 1)
    for s in samples:
        for i, c in enumerate(s["counts"]):
            counts[i] += c
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    lo = 0.0
    for i, c in enumerate(counts):
        hi = bounds[i] if i < len(bounds) else bounds[-1]
        if c and seen + c >= target:
            return lo + (hi - lo) * (target - seen) / c
        seen += c
        lo = hi
    return bounds[-1]
