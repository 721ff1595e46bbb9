"""Span tracing around the public functions of the cftmal modules.

The library itself is not edited. `Tracer.install` replaces every public
function and public method of each cftmal module with a wrapper that
records a span: name, start, end and the span that was open when it was
called. A function is replaced in every module namespace that binds it,
because callers look names up in their own module (`metrics.run_pipeline`
calls `metrics.distilled_training`, the models call `fusion.chain_forward`).
Spans stay in memory in flat lists and are summarised or written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(_clock())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, probe=None):
        """`fn` wrapped in a span; `probe(tracer, args, kwargs, result)` runs
        after each call to add counters that need the arguments or result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package, probes=None) -> None:
        """Wrap the public functions and methods of every module in `package`."""
        probes = probes or {}
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, probes.get(name))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}", probes)
        # rebind every alias, in every module, of a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, prefix: str, probes) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw, probes.get(name)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, probes.get(name))))

    # -- summaries --------------------------------------------------------

    def context_of(self, roots) -> list[int]:
        """For each span, the id of its nearest ancestor-or-self whose name
        is in `roots`, or -1. Parents precede children, so one pass works."""
        ctx = []
        for sid, name in enumerate(self.names):
            if name in roots:
                ctx.append(sid)
            else:
                p = self.parents[sid]
                ctx.append(ctx[p] if p >= 0 else -1)
        return ctx

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds)."""
        out = {}
        for sid, name in enumerate(self.names):
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + self.ends[sid] - self.starts[sid])
        return {k: (c, ns / 1e9) for k, (c, ns) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [(self.ends[i] - self.starts[i]) / 1e9
                for i, n in enumerate(self.names) if n == name]

    def self_seconds(self) -> dict:
        """name -> self time: span durations minus the time their children cover."""
        child = [0] * len(self.names)
        for sid, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[sid] - self.starts[sid]
        out = {}
        for sid, name in enumerate(self.names):
            out[name] = out.get(name, 0) + self.ends[sid] - self.starts[sid] - child[sid]
        return {k: v / 1e9 for k, v in out.items()}

    def write(self, path) -> None:
        """All spans as [id, parent, name index, start ns, end ns] rows."""
        index = {}
        rows = []
        for sid, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            rows.append([sid, self.parents[sid], k, self.starts[sid], self.ends[sid]])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(index), "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": rows, "self_s": self.self_seconds(), "counters": self.counters},
                      fh, separators=(",", ":"))
