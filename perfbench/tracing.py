"""Span tracing of covercalc's public functions, installed from outside.

``install`` wraps every public function (the module's ``__all__``) of the
nine covercalc layers and rebinds each covercalc module attribute that held
the original function object, so calls made through ``from .x import f``
bindings are traced too. Spans are kept in memory as tuples
``(name, start, end, parent, op)`` and aggregated once the work is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "textio",
    "cli",
    "groups",
    "fiber",
    "squares",
    "gmodules",
    "cohomology",
    "linalg",
    "fundament",
)

# Functions whose results are memoized by the program: a call that returns
# an object this process has already seen returned counts as a hit.
HIT_TRACKED = ("groups.normal_subgroups", "cohomology.cohom_space")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.hits: dict[str, int] = defaultdict(int)
        self._returned: dict[int, object] = {}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        track = name in HIT_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if track:
                # keep a reference so that ids are never reused in this process
                if id(result) in self._returned:
                    self.hits[name] += 1
                else:
                    self._returned[id(result)] = result
            return result

        return traced


def install() -> Tracer:
    """Wrap the public functions of every layer; returns the live tracer."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == "covercalc" or n.startswith("covercalc.")]
    for layer in LAYERS:
        mod = importlib.import_module(f"covercalc.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
    return tracer


def aggregate(span_lists) -> dict[str, list[float]]:
    """``name -> [calls, self seconds]`` over several processes' span lists.

    Self time is a span's duration minus the durations of its direct
    children; calls in one process nest, so children never overlap.
    """
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, _parent, _op) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start - child[idx]
    return out
