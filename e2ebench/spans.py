"""In-memory span tracing for the end-to-end benchmark.

A span is one timed call at a layer boundary: ``(id, name, start, end,
parent, run_id, thread)``. Spans are kept in a list while the workload
runs and written out once when it ends. The parent of a span is the
innermost span open on the same thread, so worker-thread spans (the
serving engine) are roots of their own thread.

Layers are never edited to emit spans. :meth:`Tracer.wrap` replaces a
public function or method of a layer module with a timing wrapper for
the duration of a traced run and :meth:`Tracer.restore` puts the
original back. A span's *self time* is its duration minus the part of
its interval that its direct children cover; summing self time by layer
(the name up to its second dot, e.g. ``core.kernels``) gives the
per-layer split.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    run_id: str
    thread: int


def layer_of(name: str) -> str:
    """``core.kernels.phi_gradient_sum`` -> ``core.kernels``."""
    return ".".join(name.split(".")[:2])


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the coverage of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[layer_of(s.name)] += own[s.id]
    return dict(out)


class Tracer:
    """Collects spans and counters; ``enabled=False`` makes every call free.

    Args:
        run_id: identifier stamped on every span of this run.
        enabled: when False, :meth:`span` is a no-op and :meth:`wrap`
            patches nothing, so untraced runs execute the unmodified
            program.
    """

    def __init__(self, run_id: str = "run", enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, self.run_id, threading.get_ident())
            )

    def count(self, name: str, n: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += n

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_call(result, *args, **kwargs)`` runs after each call (for
        counters such as bytes or elements). Class attributes are wrapped
        as plain functions, so methods keep receiving ``self``.
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans (one JSON object a line) and counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
