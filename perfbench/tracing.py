"""In-memory spans around the public functions of the cnnlf modules.

The tracer replaces every public function defined in a layer module with
a wrapper, at every binding a caller looks it up through: the module
attribute itself (reached as ``tensor.conv2d``, and by calls inside the
same module) and every ``from ... import`` copy in the other cnnlf
modules (``forward_network`` in ``dfp`` and ``trainer``, for example).
Nothing under ``src/`` is edited.

A wrapper records a span only while the tracer has a phase set, so the
benchmark's own checks and reference calls between operations stay out
of the trace.  A span's self time is its duration minus the durations of
its direct children; spans nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "cnnlf"
LAYERS = ("dfp", "tensor", "network", "trainer", "codec", "compress", "model_io")


@dataclass
class Span:
    name: str
    phase: str
    op: int
    parent: "Span | None"
    work: float = 0.0
    tag: str | None = None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Stats:
    """Totals over the spans of one function in one phase."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    by_tag: dict = field(default_factory=dict)


class Tracer:
    """Wraps the package's functions; ``hooks`` maps a function name to
    ``fn(args) -> (work, tag)``, evaluated before the call starts its clock."""

    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.spans: list = []
        self.phase: str | None = None
        self.op = -1
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, phase, self.op, stack[-1] if stack else None)
            if hook is not None:
                span.work, span.tag = hook(args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)

        return wrapper

    def install(self) -> None:
        """Rebind every public layer function, wherever the package holds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self, phase: str) -> dict:
        """name -> Stats over the recorded spans of ``phase``."""
        out: dict = {}
        for span in self.spans:
            if span.phase != phase:
                continue
            st = out.setdefault(span.name, Stats())
            st.calls += 1
            st.s += span.duration
            st.self_s += span.self_s
            st.work += span.work
            if span.tag is not None:
                st.by_tag[span.tag] = st.by_tag.get(span.tag, 0.0) + span.duration
        return out

    def root_s(self, phase: str) -> float:
        """Time covered by spans of ``phase``: the sum of the outermost spans."""
        return sum(s.duration for s in self.spans if s.phase == phase and s.parent is None)
