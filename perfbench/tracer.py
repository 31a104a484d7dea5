"""Outside-in tracer: times a program's layers by wrapping their public
functions from outside, leaving the program's source untouched.

Each target names a function by its home module. On entry the tracer finds
every loaded module of the package whose namespace holds that function
object (its home, the package ``__init__``, and every ``from .x import``
site) and rebinds the name to a wrapper; on exit it restores each binding.
A target whose module or function no longer exists is reported in
``absent`` rather than raising.

A span target records (name, start, end, parent, command) per call; a
count target only counts calls, for functions too hot to time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str  # home module, e.g. "spinbus.mapper"
    name: str
    layer: str  # metric the span's self time adds to; "" for a count target
    # observe(args, kwargs, result) runs after the outermost span of
    # a layer returns, outside the span's timed interval
    observe: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    command: int


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.spans: list[Span | None] = []
        self.layer_of: dict[str, str] = {t.label: t.layer for t in targets if t.layer}
        self.calls: dict[str, int] = {t.label: 0 for t in targets if not t.layer}
        self.absent: list[str] = []
        self.command = 0
        self._stack: list[int] = []
        self._open_layers: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for target in self.targets:
            try:
                original = getattr(importlib.import_module(target.module), target.name)
            except (ImportError, AttributeError):
                self.absent.append(target.label)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        label = target.label
        if not target.layer:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, open_layers = self.spans, self._stack, self._open_layers

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            open_layers.append(target.layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                open_layers.pop()
                spans[index] = Span(label, start, end, parent, self.command)
            if target.observe is not None and target.layer not in open_layers:
                target.observe(args, kwargs, result)
            return result

        return timed

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def layer_self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(self.layer_of.values(), 0.0)
        for span, own in zip(self.spans, self.self_times()):
            totals[self.layer_of[span.name]] += own
        return totals

    def count(self, label: str) -> int:
        """Calls of a target: spans recorded, or calls counted."""
        if label in self.calls:
            return self.calls[label]
        return sum(1 for span in self.spans if span.name == label)
