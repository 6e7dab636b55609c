"""In-memory spans recorded around calls into the program's layers.

The traced pass replaces public callables of the program (module
functions, methods, class methods) with thin wrappers that record one
:class:`Span` per call: name, start, end, parent span and run id.
Nothing inside the program changes; :meth:`Recorder.restore` puts every
original callable back.  Spans stay in memory until the benchmark writes
them out at the end of the run.

The arithmetic helpers (:func:`covered`, :func:`self_time`,
:func:`outermost_total`) turn spans into per-layer busy times.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one span stack per thread gives the parent links."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].sid if stack else None,
            run=self.run,
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``annotate(span, args, kwargs, result)`` may add attributes once
        the call returned.  A raised exception is recorded as the span's
        ``error`` attribute and re-raised unchanged.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        target = raw.__func__ if kind is not None else raw
        recorder = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                recorder.close(span)
                raise
            if annotate is not None:
                annotate(span, args, kwargs, result)
            recorder.close(span)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


# ======================================================================
# Span arithmetic
# ======================================================================
def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part its children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)


def ancestors(span: Span, by_id: dict[int, Span]):
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return
        yield node
        parent = node.parent


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that no other ``name`` span encloses, so a
    recursive callable is counted once per outer call."""
    by_id = {span.sid: span for span in spans}
    return [
        span
        for span in spans
        if span.name == name
        and not any(a.name == name for a in ancestors(span, by_id))
    ]


def outermost_total(spans: list[Span], name: str) -> float:
    return sum(span.duration for span in outermost(spans, name))


def spans_from_dicts(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
