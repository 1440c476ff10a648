from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hgtensor import (
    Hypergraph,
    SymTensor,
    WeightedHypergraph,
    e_adjacency_tensor,
    layer_coefficients,
    layer_counts_from_tensor,
    layered_uniform,
    merge,
    reconstruct,
    tensor_from_layered_uniform,
    vertex_augment,
    vertex_degrees_from_tensor,
)

from conftest import random_hypergraph
from matrices import adjacency_matrix_zhou, unit_weights


def weight_map(hw: WeightedHypergraph) -> dict[frozenset[int], Fraction]:
    return dict(zip(hw.base.edges, hw.weights))


class TestCoefficients:
    def test_unit(self):
        assert layer_coefficients("unit", 3) == (Fraction(1),) * 3

    def test_handshake(self):
        assert layer_coefficients("handshake", 3) == (Fraction(3), Fraction(3, 2), Fraction(1))

    def test_explicit(self):
        assert layer_coefficients([2, Fraction(1, 3)], 2) == (Fraction(2), Fraction(1, 3))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown coefficient policy"):
            layer_coefficients("golden", 3)
        with pytest.raises(ValueError, match="need 3 coefficients"):
            layer_coefficients([1, 2], 3)
        with pytest.raises(ValueError, match="positive"):
            layer_coefficients([1, 0, 1], 3)
        with pytest.raises(ValueError, match="k_max"):
            layer_coefficients("unit", 0)


class TestAugmentAndMerge:
    def test_augment_adds_the_vertex_everywhere(self):
        hw = WeightedHypergraph(
            Hypergraph(7, (frozenset({5}), frozenset({4}))), (Fraction(3), Fraction(3))
        )
        out = vertex_augment(hw, 8)
        assert out.base.n == 8
        assert set(out.base.edges) == {frozenset({5, 8}), frozenset({4, 8})}
        assert out.weights == (Fraction(3), Fraction(3))

    def test_augment_rejects_existing_vertex(self):
        hw = unit_weights(Hypergraph(3, (frozenset({1}),)))
        with pytest.raises(ValueError, match="already present"):
            vertex_augment(hw, 2)

    def test_augment_rejects_skipped_index(self):
        hw = unit_weights(Hypergraph(3, (frozenset({1}),)))
        with pytest.raises(ValueError, match="next index"):
            vertex_augment(hw, 6)

    def test_augment_rejects_mixed_cardinalities(self):
        hw = unit_weights(Hypergraph(3, (frozenset({1}), frozenset({1, 2}))))
        with pytest.raises(ValueError, match="not uniform"):
            vertex_augment(hw, 4)

    def test_merge_carries_weights_from_each_side(self):
        a = WeightedHypergraph(Hypergraph(4, (frozenset({1, 4}),)), (Fraction(3),))
        b = WeightedHypergraph(Hypergraph(3, (frozenset({2, 3}),)), (Fraction(1, 2),))
        out = merge(a, b)
        assert out.base.n == 4
        assert weight_map(out) == {
            frozenset({1, 4}): Fraction(3),
            frozenset({2, 3}): Fraction(1, 2),
        }

    def test_merge_with_edgeless_operand(self):
        a = unit_weights(Hypergraph(3, (frozenset({1, 2}),)))
        out = merge(a, unit_weights(Hypergraph(3)))
        assert out.base.edges == a.base.edges

    def test_merge_rejects_shared_edges(self):
        a = unit_weights(Hypergraph(3, (frozenset({1, 2}),)))
        with pytest.raises(ValueError, match="disjoint"):
            merge(a, a)

    def test_merge_rejects_mixed_uniformity(self):
        a = unit_weights(Hypergraph(3, (frozenset({1, 2}),)))
        b = unit_weights(Hypergraph(3, (frozenset({1, 2, 3}),)))
        with pytest.raises(ValueError, match="cannot merge"):
            merge(a, b)


class TestLayeredUniform:
    def test_sample_weights(self, sample):
        lu = layered_uniform(sample)
        assert lu.k_max == 3
        assert lu.n_original == 7
        assert lu.uniform.base.n == 9
        assert weight_map(lu.uniform) == {
            frozenset({1, 2, 3}): Fraction(1),
            frozenset({1, 2, 7}): Fraction(1),
            frozenset({3, 4, 9}): Fraction(3, 2),
            frozenset({6, 7, 9}): Fraction(3, 2),
            frozenset({4, 7, 9}): Fraction(3, 2),
            frozenset({4, 8, 9}): Fraction(3),
            frozenset({5, 8, 9}): Fraction(3),
        }

    def test_origin_points_back_at_the_source_edges(self, sample):
        lu = layered_uniform(sample)
        for padded, source_id in zip(lu.uniform.base.edges, lu.origin):
            original = sample.edges[source_id - 1]
            assert original == frozenset(v for v in padded if v <= sample.n)

    def test_result_is_uniform(self):
        rng = random.Random(401)
        for _ in range(30):
            h = random_hypergraph(rng)
            lu = layered_uniform(h)
            assert all(len(e) == lu.k_max for e in lu.uniform.base.edges)
            assert lu.uniform.base.n == h.n + lu.k_max - 1

    def test_unit_policy_weights(self, sample):
        lu = layered_uniform(sample, "unit")
        assert set(lu.uniform.weights) == {Fraction(1)}


class TestEAdjacencyTensor:
    def test_sample_golden(self, sample):
        t = e_adjacency_tensor(sample)
        half = Fraction(1, 2)
        assert t.order == 3 and t.dim == 9
        assert t.entries == {
            (1, 2, 3): half,
            (1, 2, 7): half,
            (3, 4, 9): half,
            (4, 7, 9): half,
            (4, 8, 9): half,
            (5, 8, 9): half,
            (6, 7, 9): half,
        }

    def test_uniform_input_uses_no_padding_in_keys(self):
        t = e_adjacency_tensor(Hypergraph(3, (frozenset({1, 2, 3}),)))
        assert t.order == 3 and t.dim == 5
        assert t.entries == {(1, 2, 3): Fraction(1, 2)}
        assert t.slice_sum(4) == 0 and t.slice_sum(5) == 0

    def test_all_singletons(self):
        t = e_adjacency_tensor(Hypergraph(2, (frozenset({1}), frozenset({2}))))
        assert t.order == 1 and t.dim == 2
        assert t.entries == {(1,): Fraction(1), (2,): Fraction(1)}

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="no edges"):
            e_adjacency_tensor(Hypergraph(3))

    def test_separates_what_2_adjacency_merges(self):
        # the paper's point: a triangle and one 3-edge share every pair, so their
        # unit-weight matrices agree, but only the 3-edge makes {1, 2, 3} e-adjacent
        triangle = Hypergraph(3, (frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})))
        edge = Hypergraph(3, (frozenset({1, 2, 3}),))
        assert adjacency_matrix_zhou(unit_weights(triangle)) == adjacency_matrix_zhou(unit_weights(edge))
        t, u = e_adjacency_tensor(triangle), e_adjacency_tensor(edge)
        assert (t.order, set(t.entries)) == (2, {(1, 2), (2, 3), (1, 3)})
        assert (u.order, set(u.entries)) == (3, {(1, 2, 3)})

    def test_total_counts_each_edge_k_max_times(self):
        rng = random.Random(402)
        for _ in range(50):
            h = random_hypergraph(rng)
            t = e_adjacency_tensor(h)
            assert t.total_sum() == h.k_max * h.p


class TestTwoRoutes:
    def test_iterative_route_matches_direct_construction(self, sample):
        assert tensor_from_layered_uniform(layered_uniform(sample)) == e_adjacency_tensor(sample)

    def test_on_random_hypergraphs(self):
        rng = random.Random(403)
        for _ in range(60):
            h = random_hypergraph(rng)
            assert tensor_from_layered_uniform(layered_uniform(h)) == e_adjacency_tensor(h)

    def test_unit_policy_scales_by_size_over_k(self, sample):
        t = tensor_from_layered_uniform(layered_uniform(sample, "unit"))
        assert t.get((4, 8, 9)) == Fraction(1, 6)
        assert t.get((3, 4, 9)) == Fraction(1, 3)
        assert t.get((1, 2, 3)) == Fraction(1, 2)


class TestRetrieval:
    def test_sample_degrees(self, sample):
        t = e_adjacency_tensor(sample)
        assert vertex_degrees_from_tensor(t, 7) == (2, 2, 2, 3, 1, 1, 3)

    def test_sample_counts(self, sample):
        t = e_adjacency_tensor(sample)
        cumulative, per_size = layer_counts_from_tensor(t, 7)
        assert cumulative == (2, 5, 7)
        assert per_size == (2, 3, 2)

    def test_on_random_hypergraphs(self):
        rng = random.Random(404)
        for _ in range(50):
            h = random_hypergraph(rng)
            t = e_adjacency_tensor(h)
            assert vertex_degrees_from_tensor(t, h.n) == tuple(
                sum(1 for e in h.edges if v in e) for v in range(1, h.n + 1)
            )
            cumulative, per_size = layer_counts_from_tensor(t, h.n)
            for j in range(1, h.k_max + 1):
                assert cumulative[j - 1] == sum(1 for e in h.edges if len(e) <= j)
                assert per_size[j - 1] == sum(1 for e in h.edges if len(e) == j)

    def test_degree_slice_identity(self, sample):
        t = e_adjacency_tensor(sample)
        keys_with_4 = [k for k in t.entries if 4 in k]
        assert sum(2 * t.entries[k] for k in keys_with_4) == 3

    def test_non_integer_slice_rejected(self):
        t = SymTensor(2, 2, {(1, 2): Fraction(1, 3)})
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            vertex_degrees_from_tensor(t, 2)

    def test_dim_mismatch_rejected(self, sample):
        t = e_adjacency_tensor(sample)
        with pytest.raises(ValueError, match="does not match"):
            layer_counts_from_tensor(t, 5)

    def test_decreasing_counts_rejected(self):
        t = SymTensor(2, 2, {(2, 2): Fraction(2)})
        with pytest.raises(ValueError, match="decrease"):
            layer_counts_from_tensor(t, 1)


class TestReconstruct:
    def test_sample_roundtrip(self, sample):
        rebuilt = reconstruct(e_adjacency_tensor(sample), 7)
        assert rebuilt.n == 7
        assert set(rebuilt.edges) == set(sample.edges)

    def test_random_roundtrips(self):
        rng = random.Random(405)
        for _ in range(60):
            h = random_hypergraph(rng)
            rebuilt = reconstruct(e_adjacency_tensor(h), h.n)
            assert rebuilt.n == h.n
            assert set(rebuilt.edges) == set(h.edges)

    def test_broken_padding_rejected(self):
        t = SymTensor(3, 9, {(1, 2, 8): Fraction(1, 2)})
        with pytest.raises(ValueError, match="padding"):
            reconstruct(t, 7)

    def test_repeated_index_rejected(self):
        t = SymTensor(3, 9, {(1, 8, 8): Fraction(1, 2)})
        with pytest.raises(ValueError, match="repeats"):
            reconstruct(t, 7)

    def test_padding_only_key_rejected(self):
        t = SymTensor(2, 4, {(4, 4): Fraction(1)})
        with pytest.raises(ValueError, match="repeats|no original"):
            reconstruct(t, 3)

    def test_dim_mismatch_rejected(self, sample):
        with pytest.raises(ValueError, match="does not match"):
            reconstruct(e_adjacency_tensor(sample), 6)

    @pytest.mark.parametrize("read", [reconstruct, layer_counts_from_tensor])
    def test_negative_vertex_count_rejected(self, read):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            read(SymTensor(3, 0, {}), -2)
