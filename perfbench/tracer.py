"""In-memory span tracer for the traced run.

Spans are recorded from the benchmark's own code, by wrapping public
entry points of the program's modules for the duration of one run:
``with Tracer() as tr: tr.wrap(module, "name", "layer")``.  A span holds
its name, start, end, parent span and an op id (see ``_open``);
parents follow ``contextvars``, so each asyncio task keeps its own
chain.  Spans stay in memory and are written out once, at the end of
the run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_current: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=-1)


class Tracer:
    """Collects spans; installs and removes wrappers around entry points."""

    def __init__(self) -> None:
        # (name, start, end, parent, op_id); index in the list is the span id.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, original))
        fn = getattr(owner, attr)
        if inspect.iscoroutinefunction(fn):
            wrapper = self._async_wrapper(fn, name)
        else:
            wrapper = self._sync_wrapper(fn, name)
        setattr(owner, attr, wrapper)

    def _open(self, name: str) -> Tuple[int, contextvars.Token]:
        sid = len(self.spans)
        parent = _current.get()
        # An op is a chain of spans under one child of a root span (a
        # client request, a build phase); roots and their children
        # start a new op, named by the span id that started it.
        if parent < 0 or self.spans[parent][3] < 0:
            op = sid
        else:
            op = self.spans[parent][4]
        self.spans.append((name, time.perf_counter(), 0.0, parent, op))
        return sid, _current.set(sid)

    def _close(self, sid: int, token: contextvars.Token) -> None:
        name, start, _end, parent, op = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, op)
        _current.reset(token)

    def _sync_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, token = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, token)

        return wrapper

    def _async_wrapper(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid, token = self._open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(sid, token)

        return wrapper

    def span(self, name: str) -> "_Span":
        """A span around a block of the benchmark's own code."""
        return _Span(self, name)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of it that its
        children cover.  Children in tasks spawned under one parent may
        overlap, so the covered part is the union of their intervals.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = {}
        for sid, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - _covered(children.get(sid, ()))
        return out

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _p, _o in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent, "op": op,
                }) + "\n")

    def print_layers(self) -> None:
        rows = sorted(self.layers().items(), key=lambda kv: -kv[1]["self_s"])
        print(f"# {'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, row in rows:
            print(
                f"# {name:<34} {int(row['calls']):>9} "
                f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._sid: Optional[int] = None

    def __enter__(self) -> "_Span":
        self._sid, self._token = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._sid, self._token)
