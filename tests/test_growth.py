"""A deterministic growth guard: Python line events per stage on an input and on one four times as large.

Each stage runs once to warm up (the first calls of ``_unrolled`` and of a few
builders do one-off work), then once under ``sys.settrace`` counting ``line``
events in every frame it enters.  Line counts do not depend on the machine or
its load, so a stage whose Python-level work grows faster than its input fails
here on every run: with n and p four times as large at fixed k_max, a linear
stage counts about 4x as many lines, and a stage that scans every edge for
each vertex about 16x.  A second axis grows k_max four times at fixed n and p,
so the padding suffixes grow four times; a stage that rebuilds the whole
family once per padding vertex, as round-by-round uniformization does, counts
about 9x as many lines.  Work done inside C calls is not seen; the wall-clock
and ``tracemalloc`` probes elsewhere cover that.  One of them is
``TestClosedFormProbes.test_poly_of_pairs_and_one_edge_of_400_vertices`` in
``tests/test_cli.py``: re-tupling every monomial once per padding variable
happens in C, so along k_max it grows only about 3.3x in line events here.

Memory has its own k_max axis: one edge of 2000 and of 8000 vertices, each
stage's ``tracemalloc`` peak.  The keys, suffixes and slice sums it builds
are linear in k_max (the value 1/(k_max-1)! grows as log k_max!, about 4.8x
here), so a peak grows about 4x; a table of every padding suffix, k_max²/2
indices, grows 16x.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from hgtensor import (
    Hypergraph,
    banerjee_tensor,
    compare_tensors,
    dnf_extract,
    e_adjacency_tensor,
    hypergraph_polynomial,
    layer_counts_from_tensor,
    layered_uniform,
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


def pairs_text(k_max: int, seed: int) -> str:
    """2000 distinct pairs and one edge of k_max vertices on 100 vertices, in HG v1 text."""
    rng = random.Random(seed)
    edges = {tuple(range(1, k_max + 1))}
    while len(edges) < 2001:
        edges.add(tuple(sorted(rng.sample(range(1, 101), 2))))
    return "100\n" + "".join(" ".join(map(str, e)) + "\n" for e in sorted(edges))


def stages(text: str) -> dict:
    """One zero-argument call per stage, each on inputs built before any is counted."""
    h = parse_hypergraph(text)
    t = e_adjacency_tensor(h)
    x = [Fraction(i % 3 + 1, i % 2 + 1) for i in range(t.dim)]
    banerjee = functools.cache(lambda: banerjee_tensor(h))  # built by the stage's warm-up call
    return {
        "parse": lambda: parse_hypergraph(text),
        "e_adjacency_tensor": lambda: e_adjacency_tensor(h),
        "degrees": lambda: vertex_degrees_from_tensor(t, h.n),
        "cardinalities": lambda: layer_counts_from_tensor(t, h.n),
        "reconstruct": lambda: reconstruct(t, h.n),
        "dnf": lambda: dnf_extract(t, h.n, 3),
        "poly": lambda: hypergraph_polynomial(h),
        "layered_uniform": lambda: layered_uniform(h),
        "bound": lambda: spectral_bound(h),
        "exact apply": lambda: t.apply(x),
        "power_iteration step": lambda: power_iteration(t, max_iter=1),
        "compare": lambda: compare_tensors(h),
        "banerjee_tensor": lambda: banerjee_tensor(h),
        # n and p axis: the layered tensor holds fewer than 8·(dim+1) keys and takes the %d rows,
        # the Banerjee tensor (1280 and 5120 keys on dim 100 and 400) the index-text rows
        "to_coo layered": lambda: t.to_coo(),
        "to_coo banerjee": lambda: banerjee().to_coo(),
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


STAGES = list(stages("1\n1\n"))
# The float contraction keeps k_max - 1 left-to-right products per index of each key,
# which is what fixes its results bit for bit: k_max^2 work per key by design, so
# "power_iteration step" is guarded along n and p only.  The exact contraction divides
# one product per key by one factor per index and takes the k_max axis as well.  At k_max 80
# the Banerjee tensor holds 158 000 keys of 80 indices, about 110 MB kept while its text is
# written, so its writer is guarded along n and p only; "banerjee_tensor" guards its keys.
K_MAX_STAGES = [stage for stage in STAGES if stage not in ("power_iteration step", "to_coo banerjee")]


def counts(text: str, names: list[str]) -> dict[str, int]:
    calls = stages(text)
    for name in names:
        calls[name]()
    return {name: line_events(calls[name]) for name in names}


def growth(small_text: str, large_text: str, names: list[str]) -> dict[str, float]:
    small, large = counts(small_text, names), counts(large_text, names)
    return {name: large[name] / small[name] for name in names}


@pytest.fixture(scope="module")
def ratios() -> dict[str, float]:
    return growth(hg_text(100, 400, seed=1), hg_text(400, 1600, seed=1), STAGES)


@pytest.fixture(scope="module")
def k_max_ratios() -> dict[str, float]:
    return growth(pairs_text(20, seed=1), pairs_text(80, seed=1), K_MAX_STAGES)


@pytest.mark.parametrize("stage", STAGES)
def test_stage_grows_at_most_linearly(ratios, stage):
    assert ratios[stage] <= RATIO_BOUND, f"{stage}: {ratios[stage]:.2f}x the line events on a 4x input"


@pytest.mark.parametrize("stage", K_MAX_STAGES)
def test_stage_grows_at_most_linearly_in_k_max(k_max_ratios, stage):
    ratio = k_max_ratios[stage]
    assert ratio <= RATIO_BOUND, f"{stage}: {ratio:.2f}x the line events with k_max grown 20 -> 80"


def one_edge_stages(k: int) -> dict:
    """One zero-argument call per stage on one edge of k vertices, the tensor built beforehand."""
    h = Hypergraph(k, (frozenset(range(1, k + 1)),))
    t = e_adjacency_tensor(h)
    return {
        "e_adjacency_tensor": lambda: e_adjacency_tensor(h),
        "layered_uniform": lambda: layered_uniform(h),
        "poly": lambda: hypergraph_polynomial(h),
        "degrees": lambda: vertex_degrees_from_tensor(t, h.n),
        "cardinalities": lambda: layer_counts_from_tensor(t, h.n),
        "reconstruct": lambda: reconstruct(t, h.n),
        "bound": lambda: spectral_bound(h),
    }


MEMORY_STAGES = list(one_edge_stages(1))
MEMORY_RATIO_BOUND = 5.0  # linear stages measure 3.9-4.4; a k_max² table 16


def peak_bytes(call) -> int:
    """The tracemalloc peak of call(), after one untraced warm-up call.

    A full collection empties the interpreter's free lists first: otherwise the
    warm-up leaves up to 2000 small tuples there, which the traced call reuses
    unseen, and the smaller input's peak reads low.
    """
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def k_max_peak_ratios() -> dict[str, float]:
    small, large = one_edge_stages(2000), one_edge_stages(8000)
    return {name: peak_bytes(large[name]) / peak_bytes(small[name]) for name in MEMORY_STAGES}


@pytest.mark.parametrize("stage", MEMORY_STAGES)
def test_stage_memory_grows_at_most_linearly_in_k_max(k_max_peak_ratios, stage):
    ratio = k_max_peak_ratios[stage]
    assert ratio <= MEMORY_RATIO_BOUND, f"{stage}: {ratio:.2f}x the peak memory with one edge grown 2000 -> 8000"
