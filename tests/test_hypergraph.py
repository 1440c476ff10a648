from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hgtensor import Hypergraph, WeightedHypergraph, degrees, parse_hypergraph

from conftest import SAMPLE_TEXT, random_hypergraph
from matrices import adjacency_matrix_zhou, incidence_matrix, unit_weights


class TestParsing:
    def test_sample(self, sample):
        assert sample.n == 7
        assert sample.p == 7
        assert set(sample.edges) == {
            frozenset(s)
            for s in ({1, 2, 3}, {1, 2, 7}, {6, 7}, {5}, {4}, {3, 4}, {4, 7})
        }

    def test_edge_order_is_file_order(self, sample):
        assert sample.edges[0] == frozenset({1, 2, 3})
        assert sample.edges[3] == frozenset({5})

    def test_comments_blank_lines_and_crlf(self):
        text = "# heading\r\n\r\n3\r\n # indented comment\r\n1 2\r\n\r\n3\r\n"
        h = parse_hypergraph(text)
        assert h.n == 3
        assert h.edges == (frozenset({1, 2}), frozenset({3}))
        # indented comments, a tab-indented header and padded edge lines
        text = "  # one\n\t# two\n\t4\n \t\n  1 2 \n\t3\t4\t\n   #1 2 3\n 4 \n"
        h = parse_hypergraph(text)
        assert h.n == 4
        assert h.edges == (frozenset({1, 2}), frozenset({3, 4}), frozenset({4}))

    def test_header_only(self):
        h = parse_hypergraph("3\n")
        assert h.n == 3 and h.p == 0

    def test_file_object(self, tmp_path):
        path = tmp_path / "h.hg"
        path.write_text(SAMPLE_TEXT)
        with open(path) as handle:
            assert parse_hypergraph(handle).p == 7

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "missing header"),
            ("# only comments\n", "missing header"),
            ("x\n", "malformed vertex count"),
            ("3 4\n", "single integer"),
            ("-1\n", "nonnegative"),
            ("3\n1 two\n", "malformed vertex index"),
            ("2\n1 1 2\n", "duplicate vertex within hyperedge"),
            ("3\n0\n", "out of range"),
            ("3\n1 4\n", "out of range"),
            ("3\n1 2\n2 1\n", "duplicate hyperedge"),
        ],
    )
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_hypergraph(text)


class TestConstruction:
    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Hypergraph(3, (frozenset(),))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, (frozenset({3}),))

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Hypergraph(-1)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(3, (frozenset({1, 2}), frozenset({2, 1})))

    def test_edgeless_and_isolated_vertices_allowed(self):
        h = Hypergraph(4, (frozenset({2}),))
        assert h.k_max == 1
        assert Hypergraph(0).p == 0

    def test_weights_validated(self, sample):
        with pytest.raises(ValueError, match="one weight per"):
            WeightedHypergraph(sample, (Fraction(1),))
        with pytest.raises(ValueError, match="positive"):
            WeightedHypergraph(sample, (Fraction(0),) * sample.p)
        hw = unit_weights(sample)
        assert hw.weights == (Fraction(1),) * 7

    def test_weights_are_exact_from_int_fraction_and_finite_float(self):
        path = Hypergraph(3, (frozenset({1, 2}), frozenset({2, 3})))
        assert WeightedHypergraph(path, (2, 0.25)).weights == (Fraction(2), Fraction(1, 4))
        assert WeightedHypergraph(path, (Fraction(1, 3), 1e-3)).weights == (Fraction(1, 3), Fraction(1e-3))


class TestDegrees:
    def test_sample_degrees(self, sample):
        assert degrees(sample) == (2, 2, 2, 3, 1, 1, 3)

    def test_isolated_vertex(self):
        assert degrees(Hypergraph(3, (frozenset({1}),))) == (1, 0, 0)

    def test_one_pass_matches_per_vertex_degree(self):
        rng = random.Random(112)
        for _ in range(50):
            h = random_hypergraph(rng)
            assert degrees(h) == tuple(sum(v in e for e in h.edges) for v in range(1, h.n + 1))


class TestMatrices:
    def test_incidence_shape_and_column(self, sample):
        inc = incidence_matrix(sample)
        assert len(inc) == 7 and all(len(row) == 7 for row in inc)
        third = [inc[v][2] for v in range(7)]
        assert third == [0, 0, 0, 0, 0, 1, 1]

    def test_incidence_sums(self):
        rng = random.Random(101)
        for _ in range(30):
            h = random_hypergraph(rng)
            inc = incidence_matrix(h)
            assert tuple(map(sum, inc)) == degrees(h)
            for j, e in enumerate(h.edges):
                assert sum(inc[v][j] for v in range(h.n)) == len(e)

    def test_bretto_counts_shared_edges(self, sample):
        # Zhou's matrix at unit weights is Bretto's: the count of edges two vertices share
        a = adjacency_matrix_zhou(unit_weights(sample))
        assert a[0][1] == 2
        assert a[3][6] == 1
        assert all(a[v][v] == 0 for v in range(7))
        assert all(a[u][v] == a[v][u] for u in range(7) for v in range(7))

    def test_zhou_single_weighted_edge(self):
        hw = WeightedHypergraph(Hypergraph(2, (frozenset({1, 2}),)), (Fraction(1, 2),))
        assert adjacency_matrix_zhou(hw) == [
            [Fraction(0), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(0)],
        ]

    def test_zhou_equals_bretto_at_unit_weights(self):
        # Bretto's matrix counts the edges two distinct vertices share
        rng = random.Random(102)
        for _ in range(30):
            h = random_hypergraph(rng)
            a = adjacency_matrix_zhou(unit_weights(h))
            assert a == [
                [(u != v) * sum(u in e and v in e for e in h.edges) for v in range(1, h.n + 1)]
                for u in range(1, h.n + 1)
            ]
