"""In-memory spans around calls into the cusketch layers.

A span is `[run_id, span_id, parent_id, name, start, end]` with times from
`time.perf_counter` (CLOCK_MONOTONIC on Linux, so comparable across processes).
`traced_layers` wraps the public functions and methods of each layer module
so that a call entering a layer from outside it opens a span; calls a layer
makes into itself pass straight through, which keeps spans at layer
boundaries. The program itself is not modified: wrappers are installed in the
module namespaces of the running process and removed on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cusketch"
LAYERS = ("states", "kernel", "bounds", "closed_form", "simulate", "sketch")

RUN, SPAN_ID, PARENT, NAME, START, END = range(6)


class Tracer:
    """Collects spans of one process; `run_id` tags every span it opens."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[tuple[int, str]] = []  # (span_id, layer) of open spans

    def open(self, name: str, layer: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([self.run_id, span_id, parent, name, perf_counter(), None])
        self._stack.append((span_id, layer))
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][END] = perf_counter()
        self._stack.pop()

    def inside(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == layer

    @contextmanager
    def span(self, name: str, layer: str):
        span_id = self.open(name, layer)
        try:
            yield
        finally:
            self.close(span_id)


def _wrap(fn, name: str, layer: str, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.inside(layer):
            return fn(*args, **kwargs)
        span_id = tracer.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span_id)

    return traced


def _public_callables(module):
    """(owner, attribute, function, qualified name) for each public entry point.

    Generator functions are left out: their work runs in the caller's frame
    as it iterates, so it is timed inside the caller's span.
    """
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, attr, obj, attr
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if (not meth.startswith("_") and inspect.isfunction(fn)
                        and not inspect.isgeneratorfunction(fn)):
                    yield obj, meth, fn, f"{attr}.{meth}"


@contextmanager
def traced_layers(tracer: Tracer):
    """Route every call into a cusketch layer's public functions through a span."""
    wrappers = {}  # id(original function) -> traced wrapper
    patched = []  # (namespace, attribute, original)
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for owner, attr, fn, qualname in _public_callables(module):
            wrappers[id(fn)] = _wrap(fn, f"{layer}.{qualname}", layer, tracer)
            if owner is not module:
                patched.append((owner, attr, fn))
    # A function is also reachable under every name other modules imported it as.
    for mod_name, module in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            patched += [(module, a, o) for a, o in vars(module).items() if id(o) in wrappers]
    for namespace, attr, original in patched:
        setattr(namespace, attr, wrappers[id(original)])
    try:
        yield
    finally:
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)


def duration(span: list) -> float:
    return span[END] - span[START]


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            key = (s[RUN], s[PARENT])
            child_time[key] = child_time.get(key, 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        own = duration(s) - child_time.get((s[RUN], s[SPAN_ID]), 0.0)
        out[s[NAME]] = out.get(s[NAME], 0.0) + own
    return out


def nesting_problems(spans: list[list]) -> list[str]:
    """Every span closed and inside its parent; only run spans are roots.

    Parents open before their children, so following parents from any span
    ends at the run span of the same run id.
    """
    by_id = {(s[RUN], s[SPAN_ID]): s for s in spans}
    problems = []
    for s in spans:
        if s[END] is None or s[END] < s[START]:
            problems.append(f"span {s[NAME]} of {s[RUN]} not closed properly")
            continue
        if (s[PARENT] is None) != s[NAME].startswith("run."):
            problems.append(f"span {s[NAME]} of {s[RUN]}: only run spans may be roots")
            continue
        if s[PARENT] is None:
            continue
        parent = by_id.get((s[RUN], s[PARENT]))
        if parent is None:
            problems.append(f"span {s[NAME]} of {s[RUN]} has no parent in its run")
        elif parent[END] is None or not parent[START] <= s[START] <= s[END] <= parent[END]:
            problems.append(f"span {s[NAME]} lies outside its parent {parent[NAME]}")
    return problems
