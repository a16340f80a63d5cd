"""Layer tracing for the benchmark, installed from outside the program.

Spans are recorded by wrapping public names of the ``repro`` package at the
place they are looked up: a class attribute, or a module global that its
caller resolves at call time.  The program itself is never edited.  A name
that no longer exists is recorded as unmeasured and its layer is reported as
such; the run still completes, so a later refactor can break a layer's
numbers but never the end-to-end runs.

Each thread keeps its own span stack (the daemon serves HTTP and runs
scenarios on separate threads).  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ClockProbe", "Tracer", "union_seconds"]

_perf = time.perf_counter


def find(where: str):
    """``"pkg.module:Owner.attr"`` -> ``(owner, attr, current value)``, or None."""
    module_name, _, qualified = where.partition(":")
    owner_path, _, attr = qualified.rpartition(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in owner_path.split(".") if owner_path else ():
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class _Patches:
    """Replaced attributes, restored in reverse order by :meth:`uninstall`."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _ThreadAcc:
    """One thread's span stack and running totals."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.top: List[Tuple[float, float]] = []


class Tracer(_Patches):
    """Wraps public names with spans and aggregates them per name."""

    def __init__(self) -> None:
        super().__init__()
        self.unmeasured: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: List[_ThreadAcc] = []

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _ThreadAcc()
            self._local.acc = acc
            with self._lock:
                self._accs.append(acc)
        return acc

    def _find(self, where: str):
        found = find(where)
        if found is None:
            self.unmeasured.append(where)
        return found

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def span(
        self,
        where: str,
        name: str,
        bucket: str,
        *,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
        keep_samples: bool = False,
    ) -> bool:
        """Time every call of ``where`` as span ``name``, self time into ``bucket``.

        ``on_enter(acc, args)`` runs before the call, ``on_exit(acc, args,
        result)`` after a call that returned; both may add to ``acc.extra``.
        Returns False (and records the name as unmeasured) when it is gone.
        """
        found = self._find(where)
        if found is None:
            return False
        owner, attr, original = found
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            acc = tracer._acc()
            if on_enter is not None:
                on_enter(acc, args)
            stack = acc.stack
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                acc.calls[name] += 1
                acc.total[name] += duration
                acc.self_s[bucket] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    acc.top.append((start, end))
                if keep_samples:
                    acc.samples[name].append((start, duration))
            if on_exit is not None:
                on_exit(acc, args, result)
            return result

        self._patch(owner, attr, original, traced)
        return True

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def totals(self) -> dict:
        """This process's totals, summed over its threads."""
        merged = {"calls": defaultdict(int), "total": defaultdict(float),
                  "self_s": defaultdict(float), "extra": defaultdict(float),
                  "samples": defaultdict(list), "top": []}
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for key in ("calls", "total", "self_s", "extra"):
                for name, value in getattr(acc, key).items():
                    merged[key][name] += value
            for name, values in acc.samples.items():
                merged["samples"][name].extend(values)
            merged["top"].extend(acc.top)
        return merged


def union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


class ClockProbe(_Patches):
    """Timestamps the first call of each watched name; adds nothing else.

    The untraced runs use it to find where set-up ends (the simulation clock
    starts) without timing any layer.
    """

    def __init__(self) -> None:
        super().__init__()
        self.first: Dict[str, float] = {}

    def watch(self, where: str) -> bool:
        found = find(where)
        if found is None:
            return False
        owner, attr, original = found
        first = self.first

        @functools.wraps(original)
        def watched(*args, **kwargs):
            if where not in first:
                first[where] = _perf()
            return original(*args, **kwargs)

        self._patch(owner, attr, original, watched)
        return True
