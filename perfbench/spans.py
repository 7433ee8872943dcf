"""Span tracer that wraps the package's public functions from the outside.

The benchmark never edits ``src/``. A traced run swaps each target function
for a wrapper in every ``ortho_lora`` module that holds it (the defining
module, the modules that imported it by name, the package root), records a
span per call, and puts the originals back afterwards. Spans stay in memory
as ``(run, id, parent, name, start, end)`` and are written out once, when
the benchmark ends.

A target whose module or name no longer exists is reported as absent, so a
refactor that merges or renames a function drops its per-layer metrics
instead of breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PACKAGE = "ortho_lora"

# A hook sees (tracer, args, kwargs, result) after the traced call returns.
Hook = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    layer: str
    name: str
    hook: Hook | None = None

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.name}"


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self) -> None:
        self.run = ""
        self.spans: list[tuple[str, int, int, str, float, float]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.broken_hooks: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0

    def count(self, name: str, n: float) -> None:
        self.counts[(self.run, name)] += n

    def _open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.run, sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span_name

        # Not ``with self.span(name)``: its generator costs about 2 us more per
        # call in a micro-benchmark, against 12 traced calls in an 800 us
        # paper-default step.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if target.hook is not None and name not in self.broken_hooks:
                with self.span("trace.hook"):
                    try:
                        target.hook(self, args, kwargs, result)
                    except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                        self.broken_hooks.add(name)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: list[Target]):
        """Wrap every present target; yield the span names of absent ones.

        Every replaced attribute is restored on exit, even on error.
        """
        replaced: list[tuple[object, str, object]] = []
        absent: list[str] = []
        try:
            for target in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{target.layer}")
                except ImportError:
                    absent.append(target.span_name)
                    continue
                original = getattr(module, target.name, None)
                if not callable(original):
                    absent.append(target.span_name)
                    continue
                wrapper = self._wrap(target, original)
                for modname, mod in list(sys.modules.items()):
                    if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield absent
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,id,parent,name,start,end\n")
            for run, sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{run},{sid},{parent},{name},{start!r},{end!r}\n")


def span_totals(spans: list[tuple], runs: set[str]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, inclusive seconds, self seconds) over the given runs.

    Self time is a span's duration minus the durations of its direct children.
    """
    selected = [s for s in spans if s[0] in runs]
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in selected:
        child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for _, sid, _, name, start, end in selected:
        cell = totals[name]
        cell[0] += 1
        cell[1] += end - start
        cell[2] += end - start - child_time[sid]
    return {name: (c, s, self_s) for name, (c, s, self_s) in totals.items()}
