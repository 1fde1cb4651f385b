"""Layer tracing from outside the library.

``Tracer.install`` wraps every function defined in a layer module of
``grassnorm`` (and the ``__post_init__`` / ``__call__`` of its classes) and
rebinds each wrapped function in every ``grassnorm`` module that holds it by
name.  Each call becomes a span with its parent span; per (parent, name) edge
the tracer keeps call counts, total and self time, and it keeps the first
``MAX_SPANS`` raw spans for the trace file.  ``uninstall`` restores the
originals.

Metric helpers look spans up by name and read zero for a name that does not
exist, so a later change that removes a function does not break the run.

This module imports nothing heavy, so the traced CLI child can time
``import grassnorm.cli`` after importing it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

_clock = time.perf_counter
PACKAGE = "grassnorm"
MAX_SPANS = 20000  # raw spans kept for the trace file; edges keep everything


def _install(targets) -> list:
    """Set each ``(owner, attr, fn, wrapper)`` and rebind ``wrapper`` in every
    loaded ``grassnorm`` module that holds ``fn`` by name; returns what to
    restore."""
    restore, wrapped = [], {}
    for owner, attr, fn, wrapper in targets:
        restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        wrapped[id(fn)] = (fn, wrapper)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                restore.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    return restore


def _uninstall(restore: list):
    for owner, attr, fn in reversed(restore):
        setattr(owner, attr, fn)


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.spans: list[tuple] = []  # (task, name, parent, start, end)
        self.task = -1
        self._stack: list[list] = []  # [name, start, child_time]
        self._restore: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for everything to wrap."""
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{layer}.{attr}", mod, attr, obj
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    for meth in ("__post_init__", "__call__"):
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            yield f"{layer}.{attr}.{meth}", obj, meth, fn

    def _span(self, name, fn):
        stack = self._stack
        edges = self.edges
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += dur
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[2]
                if len(spans) < MAX_SPANS:
                    spans.append((self.task, name, parent, frame[1], end))

        return wrapper

    def install(self):
        self._restore = _install(
            [(owner, attr, fn, self._span(name, fn)) for name, owner, attr, fn in self._targets()]
        )

    def uninstall(self):
        _uninstall(self._restore)
        self._restore = []

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total_s(self, name: str) -> float:
        """Inclusive time of ``name``, not counting calls nested in itself."""
        return sum(e[1] for (p, n), e in self.edges.items() if n == name and p != name)

    def self_s(self, prefix: str) -> float:
        """Self time summed over every span whose name starts with ``prefix``."""
        return sum(e[2] for (_, n), e in self.edges.items() if n.startswith(prefix))

    def entry_s(self, layer: str, exclude=()) -> float:
        """Time spent inside ``layer``, counted at calls entering it from
        outside, leaving out the span names in ``exclude``."""
        pre = layer + "."
        return sum(
            e[1]
            for (p, n), e in self.edges.items()
            if n.startswith(pre) and not p.startswith(pre) and n not in exclude
        )

    def merge(self, dumped: dict, task: int):
        """Add the spans of another tracer's ``dump()``, tagged with ``task``."""
        for e in dumped["edges"]:
            acc = self.edges.setdefault((e["parent"], e["name"]), [0, 0.0, 0.0])
            acc[0] += e["calls"]
            acc[1] += e["total_s"]
            acc[2] += e["self_s"]
        room = MAX_SPANS - len(self.spans)
        self.spans += [(task, s["name"], s["parent"], s["start"], s["end"]) for s in dumped["spans"][:room]]

    def dump(self) -> dict:
        return {
            "edges": [
                {"parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.edges.items())
            ],
            "spans": [
                {"task": t, "name": n, "parent": p, "start": s, "end": e}
                for t, n, p, s, e in self.spans
            ],
        }


class PeakTracer:
    """tracemalloc peak of single calls, for an untimed pass.

    Wraps the named functions (``"module.function"``) wherever they are
    bound in ``grassnorm`` and keeps, per name, the largest peak above the
    allocation level at entry, in bytes; a name that does not exist reads 0.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self.peaks = {n: 0 for n in self.names}
        self._restore: list = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks[name], peak)

        return wrapper

    def __enter__(self):
        targets = []
        for full in self.names:
            modname, _, attr = full.rpartition(".")
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn):
                targets.append((mod, attr, fn, self._wrap(full, fn)))
        self._restore = _install(targets)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        _uninstall(self._restore)
        return False
