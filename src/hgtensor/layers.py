"""Cardinality layers: split a hypergraph into uniform slices and rebuild it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .hypergraph import Hypergraph, _integer, _trusted


@dataclass(frozen=True)
class LayerDecomposition:
    """The k-uniform layers of a hypergraph, indexed 1..k_max.

    ``layers[k - 1]`` keeps the full vertex set and exactly the edges of
    cardinality k (possibly none), so every layer is k-uniform by
    construction and the direct sum of all layers restores the original.
    """

    base: Hypergraph
    k_max: int
    layers: tuple[Hypergraph, ...]

    def layer(self, k: int) -> Hypergraph:
        _integer(k, "layer index", 1, self.k_max)
        return self.layers[k - 1]


def decompose(h: Hypergraph) -> LayerDecomposition:
    """Group edges by cardinality into uniform layers on the full vertex set."""
    if h.p == 0:
        raise ValueError("cannot decompose a hypergraph with no edges")
    k_max = h.k_max
    grouped: list[list] = [[] for _ in range(k_max)]
    for e in h.edges:
        grouped[len(e) - 1].append(e)
    layers = tuple(_trusted(Hypergraph, h.n, tuple(g)) for g in grouped)
    return LayerDecomposition(h, k_max, layers)


def direct_sum(parts: Sequence[Hypergraph]) -> Hypergraph:
    """Union of edge families over a common vertex set.

    The parts must share the vertex count and have pairwise disjoint edge
    families; edge order is concatenation order.
    """
    if not parts:
        raise ValueError("direct sum needs at least one hypergraph")
    n = parts[0].n
    if any(part.n != n for part in parts):
        raise ValueError("direct sum requires a common vertex count")
    edges: list = []
    for part in parts:
        edges.extend(part.edges)
    if len(set(edges)) != len(edges):
        raise ValueError("edge families must be pairwise disjoint")
    return _trusted(Hypergraph, n, tuple(edges))
