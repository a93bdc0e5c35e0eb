"""In-memory spans and counters around fraczee's public names.

The tracer replaces a function at the module (or class) attribute where a
caller looks it up with a wrapper that times the call.  Each call adds to
three statistics per name: ``calls``, ``busy_ns`` (wall time of the
outermost active call, so recursion is not counted twice) and ``self_ns``
(duration minus the time covered by nested wrapped calls).  Names wrapped
with ``span=True`` also record one span per call as (name, start_ns,
end_ns, parent span id, operation id); hot leaf calls such as ``gamma``
only add to the counters.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable


class _Frame:
    __slots__ = ("child_ns", "span_id")

    def __init__(self, span_id: int):
        self.child_ns = 0
        self.span_id = span_id


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_id = -1
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_span = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        span: bool = True,
        on_result: Callable | None = None,
        on_error: Callable | None = None,
    ) -> Callable:
        """A timed stand-in for ``fn``.

        ``on_result(result, args, kwargs)`` and ``on_error(exc, args,
        kwargs)`` run after the timer stops, so what they count is not
        charged to ``name``.
        """
        stack, active = self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].span_id if stack else -1
            if span:
                span_id = self._next_span
                self._next_span += 1
            else:
                span_id = parent
            frame = _Frame(span_id)
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, t0, clock(), span, parent)
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            self._close(name, frame, t0, clock(), span, parent)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def _close(self, name, frame, t0, t1, span, parent):
        self._stack.pop()
        self._active[name] -= 1
        dur = t1 - t0
        self.calls[name] += 1
        if self._active[name] == 0:
            self.busy_ns[name] += dur
        self.self_ns[name] += dur - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += dur
        if span:
            self.spans.append((name, t0, t1, parent, self.op_id))

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by a wrapper until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, **kw)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **kw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def stat(self, name: str) -> dict[str, float]:
        return {
            "calls": self.calls.get(name, 0),
            "busy_s": self.busy_ns.get(name, 0) / 1e9,
            "self_s": self.self_ns.get(name, 0) / 1e9,
        }
