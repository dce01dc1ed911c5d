"""Spans recorded from the benchmark's side, around calls into the program.

``Tracer.wrap`` replaces a function or method with a timing wrapper that
keeps its kind (a ``staticmethod`` stays a ``staticmethod``). A name that no
longer exists is not an error: its metrics are reported as ``null`` with a
warning, so a later refactor of the program's internals cannot fail a run.
Wrappers do nothing while ``enabled`` is false, which is how traced and
untraced operations alternate inside one traced run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple[str, float, float]] = []
        self.missing: set[str] = set()
        self.warnings: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ spans
    def record(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            self.spans.append((name, t0, t1))

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, t0, time.perf_counter())

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)
        print(f"perfbench: warning: {msg}", file=sys.stderr)

    def _hook(self, hook: Optional[Callable], *args) -> None:
        if hook is None:
            return
        try:
            hook(*args)
        except Exception as exc:  # a counter must never fail the run
            self.warn(f"trace hook {getattr(hook, '__name__', hook)} "
                      f"failed: {exc!r}")

    # ---------------------------------------------------------- wrapping
    def _lookup(self, owner, attr: str, name: str):
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.add(name)
            self.warn(f"{getattr(owner, '__name__', owner)}.{attr} not "
                      f"found; {name} metrics are reported as null")
            return None, None
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) \
            else raw
        if not callable(fn):
            self.missing.add(name)
            self.warn(f"{attr} is not callable; {name} reported as null")
            return None, None
        return raw, fn

    def _install(self, owner, attr: str, raw, wrapped) -> None:
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str, *,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             outermost: bool = False) -> bool:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before(args)`` runs ahead of the call and ``after(t0, t1, args)``
        after it, both only while tracing. ``outermost`` records only the
        outermost of nested calls sharing ``name`` in one thread."""
        raw, fn = self._lookup(owner, attr, name)
        if raw is None:
            return False
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            depth = getattr(tracer._local, name, 0)
            if outermost and depth:
                return fn(*args, **kwargs)
            setattr(tracer._local, name, depth + 1)
            tracer._hook(before, args)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                setattr(tracer._local, name, depth)
                tracer.record(name, t0, t1)
                tracer._hook(after, t0, t1, args)

        self._install(owner, attr, raw, wrapped)
        return True

    def wrap_enter(self, owner, attr: str, name: str) -> bool:
        """``owner.attr`` returns a context manager: time its ``__enter__``
        (the wait to acquire a lock)."""
        raw, fn = self._lookup(owner, attr, name)
        if raw is None:
            return False
        tracer = self

        class _TimedEnter:
            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                t0 = time.perf_counter()
                try:
                    return self._cm.__enter__()
                finally:
                    tracer.record(name, t0, time.perf_counter())

            def __exit__(self, *exc):
                return self._cm.__exit__(*exc)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            cm = fn(*args, **kwargs)
            return _TimedEnter(cm) if tracer.enabled else cm

        self._install(owner, attr, raw, wrapped)
        return True

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ---------------------------------------------------------- reading
    def total(self, name: str, since: int = 0) -> Optional[float]:
        """Summed duration of span ``name`` (None when its target is
        missing)."""
        if name in self.missing:
            return None
        return sum(t1 - t0 for n, t0, t1 in self.spans[since:] if n == name)

    def count(self, name: str, since: int = 0) -> Optional[int]:
        if name in self.missing:
            return None
        return sum(1 for n, _, _ in self.spans[since:] if n == name)


def attribute(spans, windows, layers: dict[str, str]) -> dict[str, float]:
    """Self time of each layer inside ``windows`` (the replay() calls).

    Layers may overlap in wall time (the pipelined replay maps in a thread
    while merging), so each instant of a window is split evenly among the
    layers active at it; instants with no layer active go to ``other``.
    The result sums to the windows' total wall time."""
    out = {layer: 0.0 for layer in set(layers.values())}
    out["other"] = 0.0
    for w0, w1 in windows:
        marks = {w0, w1}
        active = []
        for name, t0, t1 in spans:
            layer = layers.get(name)
            if layer is None:
                continue
            a, b = max(t0, w0), min(t1, w1)
            if a < b:
                active.append((layer, a, b))
                marks.update((a, b))
        cuts = sorted(marks)
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            on = {layer for layer, s, e in active if s <= mid < e}
            if not on:
                out["other"] += b - a
            for layer in on:
                out[layer] += (b - a) / len(on)
    return out
