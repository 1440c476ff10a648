from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from hgtensor import (
    Hypergraph,
    SymTensor,
    e_adjacency_tensor,
    format_value,
    laplacian,
    layer_tensor_degree_normalized,
    layer_tensor_eigen_normalized,
    layer_tensor_raw,
    multiplicity_weight,
    parse_hypergraph,
)

from test_growth import pairs_text


def dense_tensor(t: SymTensor) -> dict[tuple[int, ...], Fraction]:
    """Independent dense expansion: every position, not just canonical keys."""
    dense = {}
    for position in itertools.product(range(1, t.dim + 1), repeat=t.order):
        value = t.entries.get(tuple(sorted(position)), Fraction(0))
        dense[position] = value
    return dense


def random_tensor(rng: random.Random) -> SymTensor:
    order = rng.randint(1, 3)
    dim = rng.randint(1, 4)
    entries = {}
    for _ in range(rng.randint(0, 6)):
        key = tuple(sorted(rng.choices(range(1, dim + 1), k=order)))
        entries[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SymTensor(order, dim, entries)


@pytest.fixture
def sample_tensor(sample) -> SymTensor:
    return e_adjacency_tensor(sample)


class TestMultiplicity:
    @pytest.mark.parametrize(
        "key, weight",
        [((1, 2, 3), 6), ((1, 1, 2), 3), ((2, 2, 2), 1), ((1,), 1), ((1, 2), 2), ((1, 1, 2, 2), 6)],
    )
    def test_values(self, key, weight):
        assert multiplicity_weight(key) == weight

    def test_counts_dense_positions(self):
        rng = random.Random(301)
        for _ in range(20):
            t = random_tensor(rng)
            dense = dense_tensor(t)
            for key in t.entries:
                positions = [p for p in dense if tuple(sorted(p)) == key]
                assert len(positions) == multiplicity_weight(key)


class TestConstruction:
    def test_keys_are_canonicalized(self):
        t = SymTensor(2, 3, {(3, 1): Fraction(5)})
        assert t.entries == {(1, 3): Fraction(5)}
        assert t.get((3, 1)) == 5

    def test_conflicting_keys_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            SymTensor(2, 3, {(3, 1): Fraction(5), (1, 3): Fraction(5)})

    def test_zeros_dropped(self):
        assert SymTensor(2, 2, {(1, 2): Fraction(0)}).entries == {}

    def test_bounds(self):
        with pytest.raises(ValueError, match="does not have 2 indices"):
            SymTensor(2, 3, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError, match="outside"):
            SymTensor(2, 3, {(1, 4): Fraction(1)})
        with pytest.raises(ValueError, match="order"):
            SymTensor(0, 3, {})

    @pytest.mark.parametrize("key", [(1.5, 2), (True, 2), (2, "3"), (2.0, 3)])
    def test_non_integer_index_rejected(self, key):
        with pytest.raises(ValueError, match=r"has a non-integer index"):
            SymTensor(2, 3, {key: Fraction(1)})

    def test_immutable(self, sample_tensor):
        with pytest.raises(AttributeError):
            sample_tensor.dim = 5

    def test_get_validates(self, sample_tensor):
        with pytest.raises(ValueError, match="components"):
            sample_tensor.get((1, 2))
        with pytest.raises(ValueError, match="outside"):
            sample_tensor.get((1, 2, 10))


class TestReductions:
    def test_against_dense_oracle(self):
        rng = random.Random(302)
        for _ in range(40):
            t = random_tensor(rng)
            dense = dense_tensor(t)
            assert t.total_sum() == sum(dense.values())
            for i in range(1, t.dim + 1):
                expected = sum(v for p, v in dense.items() if p[0] == i)
                assert t.slice_sum(i) == expected
            xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(t.dim)]
            applied = t.apply(xs)
            for i in range(1, t.dim + 1):
                expected = Fraction(0)
                for p, v in dense.items():
                    if p[0] == i:
                        term = v
                        for j in p[1:]:
                            term *= xs[j - 1]
                        expected += term
                assert applied[i - 1] == expected

    def test_apply_at_ones_is_slice_sum(self):
        rng = random.Random(303)
        for _ in range(20):
            t = random_tensor(rng)
            ones = [Fraction(1)] * t.dim
            assert t.apply(ones) == [t.slice_sum(i) for i in range(1, t.dim + 1)]

    def test_exact_apply_of_pairs_and_one_edge_of_80_vertices(self):
        # one product per key and one division per index: the per-index products took 1.9 s under -X dev
        t = e_adjacency_tensor(parse_hypergraph(pairs_text(80, seed=1)))
        x = [Fraction(i % 3 + 1, i % 2 + 1) for i in range(t.dim)]
        start = time.perf_counter()
        applied = t.apply(x)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.8, f"took {elapsed:.2f}s, budget 0.8s"
        assert len(applied) == t.dim and all(type(v) is Fraction for v in applied)

    def test_apply_length_check(self, sample_tensor):
        with pytest.raises(ValueError, match="length"):
            sample_tensor.apply([1, 2])

    def test_sample_slices(self, sample_tensor):
        assert sample_tensor.slice_sum(4) == 3
        assert sample_tensor.slice_sum(9) == 5
        assert sample_tensor.total_sum() == 21
        assert sample_tensor.nnz_positions() == 42


class TestScaleAddIdentity:
    def test_zero_tensor_becomes_identity(self):
        t = SymTensor(2, 2, {})
        assert t.scale_add_identity(Fraction(0), Fraction(1)).entries == {
            (1, 1): Fraction(1),
            (2, 2): Fraction(1),
        }

    def test_affine_entries(self, sample_tensor):
        shifted = sample_tensor.scale_add_identity(Fraction(2), Fraction(3))
        assert shifted.get((1, 2, 3)) == 1
        assert shifted.get((4, 4, 4)) == 3
        assert shifted.get((1, 2, 4)) == 0

    def test_cancellation_drops_entries(self):
        t = SymTensor(2, 2, {(1, 1): Fraction(-1)})
        assert t.scale_add_identity(Fraction(1), Fraction(1)).entries == {(2, 2): Fraction(1)}


class TestLayerTensors:
    def test_raw(self, sample):
        layer2 = Hypergraph(7, (frozenset({6, 7}), frozenset({3, 4}), frozenset({4, 7})))
        t = layer_tensor_raw(layer2)
        assert t.entries == {
            (3, 4): Fraction(1),
            (4, 7): Fraction(1),
            (6, 7): Fraction(1),
        }
        assert (t.order, t.dim) == (2, 7)

    def test_not_uniform(self, sample):
        with pytest.raises(ValueError, match="not uniform"):
            layer_tensor_raw(sample)

    def test_edgeless_needs_explicit_order(self):
        empty = Hypergraph(4)
        t = layer_tensor_raw(empty, 3)
        assert t.entries == {} and t.order == 3
        with pytest.raises(ValueError, match="must be given"):
            layer_tensor_raw(empty)
        for builder in (layer_tensor_raw, layer_tensor_degree_normalized, layer_tensor_eigen_normalized):
            for k in (0, -1):
                with pytest.raises(ValueError, match="order must be at least 1"):
                    builder(empty, k)

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="not 3-uniform"):
            layer_tensor_degree_normalized(Hypergraph(3, (frozenset({1, 2}),)), 3)

    def test_degree_normalized_slices_are_degrees(self):
        h = Hypergraph(4, (frozenset({1, 2, 3}), frozenset({2, 3, 4})))
        t = layer_tensor_degree_normalized(h)
        assert t.get((1, 2, 3)) == Fraction(1, 2)
        assert [t.slice_sum(i) for i in range(1, 5)] == [1, 2, 2, 1]

    def test_eigen_normalized_path(self):
        h = parse_hypergraph("3\n1 2\n2 3\n")
        t = layer_tensor_eigen_normalized(h)
        assert t.get((1, 2)) == pytest.approx(2 ** -0.5, rel=1e-12)
        assert t.get((2, 3)) == pytest.approx(2 ** -0.5, rel=1e-12)

    def test_eigen_normalized_single_edge(self):
        t = layer_tensor_eigen_normalized(Hypergraph(2, (frozenset({1, 2}),)))
        assert t.get((1, 2)) == pytest.approx(1.0)


class TestLaplacian:
    def test_single_edge_graph(self):
        a = layer_tensor_degree_normalized(Hypergraph(2, (frozenset({1, 2}),)))
        lap = laplacian(a, (1, 1))
        assert lap.entries == {
            (1, 1): Fraction(1),
            (2, 2): Fraction(1),
            (1, 2): Fraction(-1),
        }

    def test_zero_degree_gets_no_diagonal_one(self):
        a = layer_tensor_degree_normalized(Hypergraph(3, (frozenset({1, 2}),)), 2)
        lap = laplacian(a, (1, 1, 0))
        assert lap.get((3, 3)) == 0

    def test_validation(self, sample_tensor):
        with pytest.raises(ValueError, match="degrees"):
            laplacian(sample_tensor, (1, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            laplacian(sample_tensor, (-1,) * 9)


class TestFormatting:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(1, 2), "1/2"),
            (Fraction(3), "3"),
            (Fraction(-5, 4), "-5/4"),
            (0.7071067811865476, "0.707106781187"),
            (2.0, "2"),
            (0.5, "0.5"),
        ],
    )
    def test_format_value(self, value, text):
        assert format_value(value) == text

    def test_coo_golden(self, sample_tensor):
        assert sample_tensor.to_coo() == (
            "symtensor v1 order=3 dim=9\n"
            "1 2 3 1/2\n"
            "1 2 7 1/2\n"
            "3 4 9 1/2\n"
            "4 7 9 1/2\n"
            "4 8 9 1/2\n"
            "5 8 9 1/2\n"
            "6 7 9 1/2\n"
        )
