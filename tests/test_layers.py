from __future__ import annotations

import random

import pytest

from hgtensor import Hypergraph, decompose

from conftest import random_hypergraph


def test_sample_layers(sample):
    dec = decompose(sample)
    assert dec.k_max == 3
    assert [layer.p for layer in dec.layers] == [2, 3, 2]
    assert set(dec.layer(1).edges) == {frozenset({5}), frozenset({4})}
    assert set(dec.layer(3).edges) == {frozenset({1, 2, 3}), frozenset({1, 2, 7})}


def test_layers_keep_the_full_vertex_set(sample):
    assert all(layer.n == 7 for layer in decompose(sample).layers)


def test_layers_are_uniform():
    rng = random.Random(201)
    for _ in range(30):
        h = random_hypergraph(rng)
        dec = decompose(h)
        for k in range(1, dec.k_max + 1):
            assert all(len(e) == k for e in dec.layer(k).edges)


def test_layer_index_bounds(sample):
    dec = decompose(sample)
    with pytest.raises(ValueError, match="out of range"):
        dec.layer(0)
    with pytest.raises(ValueError, match="out of range"):
        dec.layer(4)


def test_decompose_rejects_edgeless():
    with pytest.raises(ValueError, match="no edges"):
        decompose(Hypergraph(3))


def test_layers_hold_each_edge_once_in_the_layer_of_its_size():
    rng = random.Random(202)
    for _ in range(30):
        h = random_hypergraph(rng)
        placed = [(k, e) for k, layer in enumerate(decompose(h).layers, start=1) for e in layer.edges]
        assert len(placed) == h.p and set(placed) == {(len(e), e) for e in h.edges}
