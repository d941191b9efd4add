"""Span tracing from outside the program.

``Tracer.wrap_function`` replaces a public ``dil`` function with a wrapper
at every module that binds it: ``susy`` imports ``discretize`` by name,
``analysis`` imports ``low_spectrum``, ``cli`` imports ``witten_index``, so
patching the defining module alone would miss those calls.  Each call
records one span (name, operation id, parent span, start, end); spans stay
in memory and are written out once the run ends.  Nothing inside
``src/dil`` changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    terms: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def compose_terms(block) -> int:
    """Number of normal-ordered monomials in a composed block operator."""
    return sum(len(e.terms) for e in block.entries)


class Tracer:
    """In-memory span recorder with call-site patching."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: Optional[int] = None

    def span(self, name: str, fn: Callable, *args, count_terms: bool = False, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if count_terms:
            record.terms = compose_terms(result)
        return result

    def wrap_function(self, module_name: str, attr: str, span_name: str,
                      count_terms: bool = False) -> int:
        """Patch ``module_name.attr`` at every ``dil`` module bound to it.

        Returns the number of bindings patched; a missing function raises,
        so a renamed layer shows up as an error, not as a silent zero.
        """
        original = getattr(sys.modules[module_name], attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(span_name, original, *args, count_terms=count_terms, **kwargs)

        patched = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dil" or name.startswith("dil.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched binding back."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def _outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` with no ancestor of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                out.append(s)
        return out

    def inclusive_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self._outermost(name))

    def self_seconds(self, name: str) -> float:
        """Span time of ``name`` minus the time its direct children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return sum(s.seconds - child_time.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def terms_per_call(self, name: str) -> float:
        spans = [s for s in self.spans if s.name == name]
        return sum(s.terms for s in spans) / len(spans) if spans else 0.0

    def median_seconds(self, name: str) -> float:
        values = [s.seconds for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def write(self, path: Path) -> None:
        rows = [{"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start, "end": s.end}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps(rows) + "\n")
