"""Spans around the calls into each hgtensor layer, kept in memory.

While ``Tracer.installed`` is active, every binding of a traced function in
the package's modules is replaced by a wrapper that records a span: name,
start, end, parent span and request id.  Wrapping the bindings rather than
the benchmark's call sites also catches the calls layers make into each
other, such as ``compare_tensors`` building both tensors.  The wrappers are
removed when the block ends, so untraced rounds run the package unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute) of every traced call; "Class.method" names a method.
TRACED = (
    ("hypergraph", "parse_hypergraph"),
    ("uniformize", "e_adjacency_tensor"),
    ("uniformize", "vertex_degrees_from_tensor"),
    ("uniformize", "layer_counts_from_tensor"),
    ("uniformize", "reconstruct"),
    ("polynomials", "dnf_extract"),
    ("polynomials", "hypergraph_polynomial"),
    ("symtensor", "SymTensor.to_coo"),
    ("spectral", "spectral_bound"),
    ("spectral", "power_iteration"),
    ("spectral", "check_eigenpair"),
    ("banerjee", "banerjee_tensor"),
    ("banerjee", "compare_tensors"),
    ("banerjee", "banerjee_alpha"),
)


def layer_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    request: int | None
    keys: int | None = None  # canonical keys of a tensor the call returned


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), None, self._open[-1] if self._open else None, self.request)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
                entries = getattr(result, "entries", None)
                if isinstance(entries, dict):
                    span.keys = len(entries)
                return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Replace every binding of the traced functions in the package's modules."""
        package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hgtensor"]
        undo = []
        for module_name, attribute in TRACED:
            owner = getattr(modules, module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                undo.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, self._wrap(layer_name(module_name, attribute), cls.__dict__[method]))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(layer_name(module_name, attribute), original)
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
