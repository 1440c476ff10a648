from __future__ import annotations

import random

import pytest

from hgtensor import Hypergraph, decompose, dnf_extract, e_adjacency_tensor

from conftest import random_hypergraph


def test_sample_layers(sample):
    layers = decompose(sample)
    assert len(layers) == 3
    assert [layer.p for layer in layers] == [2, 3, 2]
    assert set(layers[0].edges) == {frozenset({5}), frozenset({4})}
    assert set(layers[2].edges) == {frozenset({1, 2, 3}), frozenset({1, 2, 7})}


def test_layers_keep_the_full_vertex_set(sample):
    assert all(layer.n == 7 for layer in decompose(sample))


def test_layers_are_uniform():
    rng = random.Random(201)
    for _ in range(30):
        h = random_hypergraph(rng)
        layers = decompose(h)
        for k in range(1, len(layers) + 1):
            assert all(len(e) == k for e in layers[k - 1].edges)


def test_decompose_rejects_edgeless():
    with pytest.raises(ValueError, match="no edges"):
        decompose(Hypergraph(3))


def test_layers_hold_each_edge_once_in_the_layer_of_its_size():
    rng = random.Random(202)
    for _ in range(30):
        h = random_hypergraph(rng)
        placed = [(k, e) for k, layer in enumerate(decompose(h), start=1) for e in layer.edges]
        assert len(placed) == h.p and set(placed) == {(len(e), e) for e in h.edges}


def test_the_tensor_keeps_the_layers_apart():
    """Each size's edges read back off the one e-adjacency tensor are exactly that layer's edges."""
    rng = random.Random(203)
    for _ in range(40):
        h = random_hypergraph(rng)
        t = e_adjacency_tensor(h)
        layers = decompose(h)
        for s in range(1, h.k_max + 1):
            assert dnf_extract(t, h.n, s) == set(layers[s - 1].edges)
