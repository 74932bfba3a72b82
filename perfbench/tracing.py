"""Span tracing of cubelab from outside the package.

``Tracer.install()`` replaces the public functions of each traced cubelab
module, and the public methods of its classes, with wrappers that record a
span (name, parent span, start, end) per call.  A function that another
module bound with ``from ... import`` is replaced there too, because the
caller looks the name up in its own module.  ``uninstall()`` puts every
original back.  Nothing in the package itself changes.

Self time of a span is its duration minus the time its child spans cover;
calls run on one thread, so children nest strictly inside their parent.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

# the layers, in the order the per-layer metrics list them
MODULES = ("kernels", "bfcore", "spectral", "influence", "halfspace", "chernoff",
           "levelk", "correlate", "checks", "harness")

# kernels: only the dispatchers; the *_numpy twins are their implementation
KERNELS = ("fwht", "signed_sum_counts", "dot_values", "influence_counts",
           "boundary_counts", "monotone_violations")


class Tracer:
    """Records spans while installed; per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # work counted at boundaries
        self.maxima: dict[str, int] = defaultdict(int)
        self.paused = False  # set while the benchmark does its own bookkeeping
        self.wrapped: set[str] = set()
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._restore: list[tuple[object, str, object]] = []
        self._next_id = 1

    # -- recording -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child = frame
        duration = end - start
        self.spans.append((span_id, name, parent, start, end))
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    def span(self, name: str, fn, hook=None):
        """Wrap fn so that each call records a span under name.

        hook(args, result) may return another span name for the call, and
        records counts that depend on the arguments or the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    frame[1] = hook(args, result) or name
            finally:
                tracer._exit(frame)
            return result

        self.wrapped.add(name)
        return traced

    def count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace original wherever a cubelab module binds it globally."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cubelab" or mod_name.startswith("cubelab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every public function and method of the traced modules.

        hooks maps a span name to the hook of Tracer.span.  A module or name
        missing from the package is skipped, and shows up as absent in the
        metrics.
        """
        hooks = hooks or {}
        for short in MODULES:
            mod = sys.modules.get(f"cubelab.{short}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if short == "kernels" and attr not in KERNELS:
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    if inspect.isgeneratorfunction(value):
                        continue
                    name = f"{short}.{attr}"
                    self._rebind(value, self.span(name, value, hooks.get(name)))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(short, value, hooks)
        self._install_registry()

    def _install_class(self, short: str, cls, hooks: dict) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue  # skips properties, static and class methods
            if inspect.isgeneratorfunction(value):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            self._set(cls, attr, self.span(name, value, hooks.get(name)))

    def _install_registry(self) -> None:
        """One span per registry check call, named check.<ID>."""
        checks = sys.modules.get("cubelab.checks")
        registry = getattr(checks, "REGISTRY", None)
        if registry is None:
            return
        for cid, defn in list(registry.items()):
            wrapped = dataclasses.replace(defn, fn=self.span(f"check.{cid}", defn.fn))
            self._restore.append((registry, cid, defn))
            registry[cid] = wrapped

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per module, with check.<ID> spans under checks."""
        out = {short: 0.0 for short in MODULES}
        for name, value in self.self_s.items():
            head = name.split(".", 1)[0]
            out["checks" if head == "check" else head] += value
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def dump(self, path) -> None:
        """Write spans as JSON lines: id, name, parent id, start, end."""
        with open(path, "w") as fh:
            for span_id, name, parent, start, end in self.spans:
                fh.write(f'[{span_id},"{name}",{parent},{start:.9f},{end:.9f}]\n')
