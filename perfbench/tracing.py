"""Span recording for the traced benchmark run.

The tracer wraps public functions at the module boundaries of ``repro``
from outside the package: each wrapped call records one span (name,
start, end, parent span, request id) in memory.  A span's *self* time is
its duration minus the time covered by its child spans, so the self
times of all layers add up to the traced host time without double
counting.  Nothing under ``src/`` changes; :meth:`Tracer.restore` puts
every original attribute back.

Counters attached to a wrapper (``on_result``) are updated where the work
happens, so ratios such as the neighbor-set admit ratio are measured at
the layer that does the work.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: One recorded span: (name, start_s, end_s, parent_index, request_id).
Span = Tuple[str, float, float, int, int]


class Tracer:
    """In-memory span recorder with per-layer self-time aggregation."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.request_id = -1
        # Open spans: [name, start, parent index, child seconds].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        index = len(self.spans)
        # Reserve the slot so children can name this span as parent.
        self.spans.append((name, 0.0, 0.0, parent, self.request_id))
        self._stack.append([name, _clock(), index, 0.0])

    def _close(self) -> None:
        end = _clock()
        name, start, index, child_s = self._stack.pop()
        duration = end - start
        _, _, _, parent, request_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, request_id)
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[tuple, dict, Any], None]] = None,
        request_of: Optional[Callable[[tuple, dict], Optional[int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or a class; plain functions, methods and
        classmethods are supported.  ``request_of(args, kwargs)`` may name
        the request the call serves; spans opened from then on carry it.
        ``on_result(args, kwargs, result)`` runs after the span closes,
        outside the timed interval.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        if isinstance(static, staticmethod):
            raise TypeError(f"cannot wrap static method {owner!r}.{attr}")
        original = static.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if request_of is not None:
                request = request_of(args, kwargs)
                if request is not None:
                    tracer.request_id = request
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, static))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Copies of the running totals (phases are differences of two)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, in recording order:
        name, start, end (host seconds), parent span index (-1 for a root)
        and request id (-1 when none)."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write("name\tstart_s\tend_s\tparent\trequest\n")
            for name, start, end, parent, request_id in self.spans:
                stream.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{request_id}\n")
