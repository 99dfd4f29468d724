"""Span tracer of the benchmark: wrappers around the program's public calls.

The benchmark measures the program from outside.  :class:`Tracer` replaces
a public function or method (``KernelMatrix.block``,
``DTDRuntime.insert_task``, ``SolverService.flush``, ...) by a wrapper that
records a span for every call: its layer, its duration and the part of that
duration its child spans cover.  A layer's *self time* is its spans'
durations minus their children's, so the self times of all layers never
count a second twice and, with an explicit unaccounted remainder, add up to
the wall time of the traced section.

Spans nest per thread.  Each span also remembers the layer of the outermost
span of its thread (its *root*), so callers can split one layer's time by
the call that caused it, e.g. task-graph recording under compression vs.
under factorization.  :meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Counter = Callable[[tuple, dict, Any], float]


class LayerTotals:
    """Accumulated spans of one ``(root, layer)`` pair."""

    __slots__ = ("calls", "total_s", "self_s", "count")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Sum of the wrapper's counter (entries, rank, ...), if it has one.
        self.count = 0.0


class Tracer:
    """Install timing wrappers and accumulate per-layer span totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self.totals: Dict[Tuple[str, str], LayerTotals] = defaultdict(LayerTotals)
        #: Per-layer lists of single-span durations, for layers that ask.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._sampled: set = set()
        #: Optional per-layer hooks called as ``hook(start, end, result)``.
        self._hooks: Dict[str, Callable[[float, float, Any], None]] = {}

    # -- installing ----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str, *, counter: Optional[Counter] = None,
             sample: bool = False) -> None:
        """Replace ``owner.attr`` (a module function or a class method) by a timed wrapper.

        ``counter(args, kwargs, result)`` adds a per-call count to the
        layer (entries, rank, ...); ``sample`` keeps every span's duration.
        """
        in_dict = attr in vars(owner)
        original = vars(owner)[attr] if in_dict else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if sample:
            self._sampled.add(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(layer, fn, counter, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, original, in_dict))

    def on_span(self, layer: str, hook: Callable[[float, float, Any], None]) -> None:
        """Call ``hook(start, end, result)`` after every span of ``layer``."""
        self._hooks[layer] = hook

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original, in_dict = self._patched.pop()
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer: str, fn: Callable, counter: Optional[Counter],
              args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        root = stack[0][0] if stack else layer
        frame = [layer, 0.0]  # [layer, time covered by child spans]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            extra = counter(args, kwargs, result) if counter is not None and result is not None else 0.0
            with self._lock:
                tot = self.totals[(root, layer)]
                tot.calls += 1
                tot.total_s += duration
                tot.self_s += duration - frame[1]
                tot.count += extra
                if layer in self._sampled:
                    self.samples[layer].append(duration)
            hook = self._hooks.get(layer)
            if hook is not None:
                hook(start, end, result)

    def reset(self) -> None:
        """Drop every total recorded so far (wrappers stay installed)."""
        with self._lock:
            self.totals.clear()
            self.samples.clear()

    # -- reading -------------------------------------------------------------
    def layer(self, layer: str, roots: Optional[Iterable[str]] = None) -> LayerTotals:
        """Totals of ``layer`` over every root (or only the given ``roots``)."""
        out = LayerTotals()
        wanted = None if roots is None else set(roots)
        for (root, name), tot in self.totals.items():
            if name == layer and (wanted is None or root in wanted):
                out.calls += tot.calls
                out.total_s += tot.total_s
                out.self_s += tot.self_s
                out.count += tot.count
        return out

    def self_times(self, roots: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Self time per layer, over spans whose root layer is in ``roots``."""
        wanted = None if roots is None else set(roots)
        out: Dict[str, float] = defaultdict(float)
        for (root, name), tot in self.totals.items():
            if wanted is None or root in wanted:
                out[name] += tot.self_s
        return dict(out)

    def snapshot(self) -> dict:
        """A JSON-ready copy of the totals (for a traced server's shutdown file)."""
        with self._lock:
            return {
                "totals": [
                    [root, layer, t.calls, t.total_s, t.self_s, t.count]
                    for (root, layer), t in self.totals.items()
                ],
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Tracer":
        tracer = cls()
        for root, layer, calls, total_s, self_s, count in snap["totals"]:
            tot = tracer.totals[(root, layer)]
            tot.calls, tot.total_s, tot.self_s, tot.count = calls, total_s, self_s, count
        for layer, values in snap["samples"].items():
            tracer.samples[layer] = list(values)
        return tracer
