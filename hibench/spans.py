"""In-memory span recording around public functions, installed from outside.

A :class:`SpanRecorder` wraps a function by rebinding the name where its
caller looks it up (a module global or a class attribute) and restores the
original on :meth:`SpanRecorder.restore`.  Each wrapped call records one
span: name, start, end, parent span and run id.  Spans live in compact
arrays and are written once, by :meth:`SpanRecorder.save`, after the run.

Self time is a span's duration minus the time its direct children cover;
on one thread, synchronous calls nest, so a stack gives every span its
parent.  The run id follows the asyncio task (a context variable), so the
spans of concurrent transactions keep their own ids.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["NullTracer", "SpanRecorder", "resolve"]

#: ``probe(args, kwargs, result)`` — inspects a wrapped call's arguments and
#: result to update layer counters; it must not touch program state.
Probe = Callable[[tuple, dict, Any], None]


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attribute)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


class NullTracer:
    """The untraced run's tracer: the same calls, recording nothing."""

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def set_run(self, run_id: int) -> None:
        pass


class SpanRecorder:
    """Records nested spans; installs and removes the wrappers that emit them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self._run_id: contextvars.ContextVar[int] = contextvars.ContextVar(
            "hibench_run_id", default=-1
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self._run_id.get())
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def inside(self, name_id: int) -> bool:
        """True when the innermost open span has this name (re-entry)."""
        stack = self._stack
        return bool(stack) and self.name_id[stack[-1]] == name_id

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A job-phase span (``phase.<name>``) opened by the benchmark itself."""
        idx = self.open(self._id(f"phase.{name}"))
        try:
            yield
        finally:
            self.close(idx)

    def set_run(self, run_id: int) -> None:
        """Tag spans opened from now on, in this task, with ``run_id``."""
        self._run_id.set(run_id)

    # -- installation ------------------------------------------------------

    def wrap(self, target: str, name: str, probe: Probe | None = None) -> None:
        """Rebind ``target`` to a span-emitting wrapper (see :func:`resolve`).

        A call that re-enters the layer it is already in (a recursive
        ``wire_size``, say) is part of the outer span and records nothing.
        """
        owner, attr = resolve(target)
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        name_id = self._id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if rec.inside(name_id):
                return fn(*args, **kwargs)
            idx = rec.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def observe(self, target: str, probe: Probe) -> None:
        """Rebind ``target`` (sync or async) to call ``probe`` on each result,
        recording no span: for awaited calls, whose duration is waiting."""
        owner, attr = resolve(target)
        fn = vars(owner)[attr]
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = await fn(*args, **kwargs)
                probe(args, kwargs, result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                probe(args, kwargs, result)
                return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total ms, self ms), over every recorded span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        n = len(self.start)
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k) * 1000.0
        self_ms = np.bincount(names, weights=own, minlength=k) * 1000.0
        return {
            name: (int(calls[i]), float(total[i]), float(self_ms[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> Path:
        """Write every span, once, as a compressed NumPy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            run=np.asarray(self.run),
        )
        return path
