"""A deterministic growth guard: Python line events per stage on an input and on one four times as large.

Each stage runs once to warm up (the first calls of ``_fold`` and of a few
builders do one-off work), then once under ``sys.settrace`` counting ``line``
events in every frame it enters.  Line counts do not depend on the machine or
its load, so a stage whose Python-level work grows faster than its input fails
here on every run: with n and p four times as large at fixed k_max, a linear
stage counts about 4x as many lines, and a stage that scans every edge for
each vertex about 16x.  Work done inside C calls is not seen; the wall-clock
and ``tracemalloc`` probes elsewhere cover that.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from hgtensor import (
    banerjee_tensor,
    compare_tensors,
    dnf_extract,
    e_adjacency_tensor,
    hypergraph_polynomial,
    layer_counts_from_tensor,
    parse_hypergraph,
    power_iteration,
    reconstruct,
    spectral_bound,
    vertex_degrees_from_tensor,
)

K_MAX = 5
RATIO_BOUND = 4.6  # linear stages measure 3.8-4.0; a per-vertex scan of the edges about 16


def hg_text(n: int, p: int, seed: int) -> str:
    """p distinct edges on n vertices with sizes 1..K_MAX spread evenly, in HG v1 text."""
    rng = random.Random(seed)
    edges: set[tuple[int, ...]] = set()
    while len(edges) < p:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), len(edges) % K_MAX + 1))))
    return f"{n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))


def stages(text: str) -> dict:
    """One zero-argument call per stage, each on inputs built before any is counted."""
    h = parse_hypergraph(text)
    t = e_adjacency_tensor(h)
    x = [Fraction(i % 3 + 1, i % 2 + 1) for i in range(t.dim)]
    return {
        "parse": lambda: parse_hypergraph(text),
        "e_adjacency_tensor": lambda: e_adjacency_tensor(h),
        "degrees": lambda: vertex_degrees_from_tensor(t, h.n),
        "cardinalities": lambda: layer_counts_from_tensor(t, h.n),
        "reconstruct": lambda: reconstruct(t, h.n),
        "dnf": lambda: dnf_extract(t, h.n, 3),
        "poly": lambda: hypergraph_polynomial(h),
        "bound": lambda: spectral_bound(h),
        "exact apply": lambda: t.apply(x),
        "power_iteration step": lambda: power_iteration(t, max_iter=1),
        "compare": lambda: compare_tensors(h),
        "banerjee_tensor": lambda: banerjee_tensor(h),
    }


def line_events(call) -> int:
    """Python line events in every frame that call() enters."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def counts(text: str) -> dict[str, int]:
    calls = stages(text)
    for call in calls.values():
        call()
    return {name: line_events(call) for name, call in calls.items()}


@pytest.fixture(scope="module")
def ratios() -> dict[str, float]:
    small = counts(hg_text(100, 400, seed=1))
    large = counts(hg_text(400, 1600, seed=1))
    return {name: large[name] / small[name] for name in small}


@pytest.mark.parametrize("stage", list(stages("1\n1\n")))
def test_stage_grows_at_most_linearly(ratios, stage):
    assert ratios[stage] <= RATIO_BOUND, f"{stage}: {ratios[stage]:.2f}x the line events on a 4x input"
