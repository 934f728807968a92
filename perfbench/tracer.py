"""Timed wrappers around the program's functions, installed from outside it.

A :class:`Tracer` replaces a function or method with a wrapper that counts
its calls and records its inclusive and self time. Self time is the
call's span minus the spans of traced calls nested inside it, kept on a
per-thread stack.

``from module import name`` copies a function into the importing module,
so patching only the defining module would miss callers that bound the
name. :meth:`Tracer.patch` therefore rebinds every reference to the
original function held by a loaded ``repro`` module, including values of
module-level dicts (dispatch tables such as the sweep's runner registry).

Worker processes forked from a traced process (the build and sweep pools)
inherit the wrappers. Each worker starts with empty totals and writes them
to the tracer's spill directory when it exits; :meth:`Tracer.collect`
folds those files back into the parent's totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import uuid
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable


class Tracer:
    """Call counts, inclusive and self seconds per traced name.

    ``counts`` holds values added by ``after`` hooks (bytes stored,
    stages executed, ...), keyed by metric name.
    """

    def __init__(self, spill_dir: str | Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- totals ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = {}
            self.total_s: dict[str, float] = {}
            self.self_s: dict[str, float] = {}
            self.counts: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _record(self, name: str, total: float, own: float) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + total
            self.self_s[name] = self.self_s.get(name, 0.0) + own

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
            }

    def merge(self, snap: dict) -> None:
        with self._lock:
            for field in ("calls", "total_s", "self_s", "counts"):
                into = getattr(self, field)
                for name, value in snap[field].items():
                    into[name] = into.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, after: Callable | None = None
    ) -> Callable:
        """``fn`` timed under ``name``; ``after(tracer, args, kwargs,
        result)`` runs once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._record(name, elapsed, elapsed - children[0])
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return timed

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable | None = None,
    ) -> None:
        """Time ``owner.attr`` under ``name``.

        ``owner`` is a class (the method or property is replaced on it,
        which every instance sees) or a module (every loaded ``repro``
        module binding the same function object is rebound).
        """
        original = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(original, property):
                wrapped = property(
                    self.wrap(name, original.fget, after),
                    original.fset,
                    original.fdel,
                    original.__doc__,
                )
            else:
                wrapped = self.wrap(name, original, after)
            self._set(owner, attr, wrapped, is_dict=False)
            return
        wrapped = self.wrap(name, original, after)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped, is_dict=False)
                elif type(value) is dict:
                    for entry, item in list(value.items()):
                        if item is original:
                            self._set(value, entry, wrapped, is_dict=True)

    def _set(self, owner, key, value, *, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- worker processes --------------------------------------------------

    def _after_fork(self) -> None:
        # Runs in a freshly forked multiprocessing child: drop the
        # parent's totals and call stack, and spill this worker's totals
        # when it exits (multiprocessing runs finalizers on the way out).
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()
        mp_util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        snap = self.snapshot()
        if not snap["calls"] and not snap["counts"]:
            return
        name = f"{os.getpid()}-{uuid.uuid4().hex}"
        tmp = self.spill_dir / f"{name}.tmp"
        tmp.write_text(json.dumps(snap))
        os.replace(tmp, self.spill_dir / f"{name}.json")

    def collect(self) -> None:
        """Fold every spilled worker total into this process's totals."""
        for path in sorted(self.spill_dir.glob("*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()
