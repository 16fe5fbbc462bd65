"""Spans around calls into a package's functions, recorded from outside it.

The tracer replaces a function by a timing wrapper in every module of the
package that binds it. ``from .x import y`` copies the binding into the
calling module, so patching only the defining module would miss calls made
through the copy. Spans stay in memory until the caller summarizes them.
"""
from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One function to trace: ``key`` is ``<module>.<name>`` within the package,
    ``count`` maps ``(args, kwargs, result)`` to the work counts of a call."""

    key: str
    count: Optional[Counter] = None

    @property
    def module(self) -> str:
        return self.key.rsplit(".", 1)[0]

    @property
    def name(self) -> str:
        return self.key.rsplit(".", 1)[1]


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start=0.0, end=0.0, counts=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers for ``targets`` in the modules of ``package``.

    Each thread keeps its own stack of open spans. A span opened on a thread
    with an empty stack (a pool worker) takes as parent the innermost span
    open on the thread that installed the tracer, which is the call that is
    waiting for the pool. A call whose innermost open span is the same
    function is a recursive call and gets no span of its own.
    """

    def __init__(self, package: str, targets):
        self.package = package
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.count_errors: set[str] = set()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == target.key:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            span = Span(target.key, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if target.count is not None:
                try:
                    span.counts = target.count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the function's signature or result changed shape
                    tracer.count_errors.add(target.key)
            return result

        return wrapper

    def install(self) -> None:
        self._main_stack = self._stack()
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for target in self.targets:
            home = sys.modules.get(f"{self.package}.{target.module}")
            fn = getattr(home, target.name, None) if home is not None else None
            if not callable(fn):
                self.absent.add(target.key)
                continue
            wrapper = self._wrap(target, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    """Spans grouped by the ``id`` of their parent span."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that its child spans cover.

    Children running concurrently on pool threads overlap; their union is
    subtracted once.
    """
    kids = children.get(id(span), ())
    inside = [
        (max(span.start, k.start), min(span.end, k.end))
        for k in kids
        if k.end > span.start and k.start < span.end
    ]
    return span.duration - covered(inside)


def pool_idle(parent: Span, child_name: str, children, threads: int) -> float:
    """Thread time the pool left unused while ``parent`` waited for its
    ``child_name`` spans: threads x phase wall - busy time of the children."""
    kids = [k for k in children.get(id(parent), ()) if k.name == child_name]
    if not kids:
        return 0.0
    phase = max(k.end for k in kids) - min(k.start for k in kids)
    used = min(threads, len(kids))
    return used * phase - sum(k.duration for k in kids)
