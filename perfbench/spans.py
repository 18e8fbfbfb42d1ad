"""In-memory span recorder that times egopose layers from outside the package.

A layer is timed by replacing one of its public functions with a timing
wrapper at the place its caller looks the name up (for example
``egopose.pipeline.solve_paper_dp``), so nothing under ``src/`` changes.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans; -1 for a root span
    phase: str  # name of the root span this one runs under
    recording: int | None  # test recording being decoded, if any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        phase = self.spans[self._stack[0]].name if self._stack else name
        sp = Span(name, time.perf_counter(), float("nan"), parent, phase, self.recording)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                out[sp.parent] -= sp.duration
        return out


class Unrecorded:
    """Stands in for a Recorder in untraced runs: a span is timed for the
    code that opened it, then dropped."""

    recording = None

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), float("nan"), -1, name, None)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()


class Patches:
    """Replaces attributes and puts the originals back on restore()."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make):
        """Set owner.attr to make(func); classmethods stay classmethods."""
        raw = vars(owner)[attr]
        is_cm = isinstance(raw, classmethod)
        func = raw.__func__ if is_cm else raw
        new = functools.wraps(func)(make(func))
        setattr(owner, attr, classmethod(new) if is_cm else new)
        self._saved.append((owner, attr, raw))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def timed(recorder: Recorder | Unrecorded, name: str, after=None):
    """Wrapper factory for Patches.wrap: one span per call.

    after(args, kwargs, result, span) runs once the span has closed; result
    is None when the call raised.
    """

    def make(func):
        def wrapper(*args, **kwargs):
            result = None
            try:
                with recorder.span(name) as sp:
                    result = func(*args, **kwargs)
            finally:
                if after is not None:
                    after(args, kwargs, result, sp)
            return result

        return wrapper

    return make
