from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgtensor import (
    Hypergraph,
    banerjee,
    banerjee_alpha,
    banerjee_tensor,
    compare_tensors,
    e_adjacency_tensor,
    layer_tensor_degree_normalized,
    partitions_count,
)

from conftest import random_hypergraph, random_uniform_hypergraph


def enumerate_partitions(m: int, s: int, largest: int | None = None) -> int:
    """Count partitions of m into exactly s parts by direct enumeration."""
    if largest is None:
        largest = m
    if s == 0:
        return 1 if m == 0 else 0
    return sum(
        enumerate_partitions(m - first, s - 1, first)
        for first in range(1, min(largest, m - s + 1) + 1)
    )


def enumerate_surjections(k: int, s: int) -> int:
    """Count surjective maps from k slots onto s labels, one tuple at a time."""
    return sum(
        1
        for assignment in itertools.product(range(s), repeat=k)
        if len(set(assignment)) == s
    )


class TestPartitions:
    def test_anchors(self):
        assert partitions_count(7, 3) == 4
        assert partitions_count(25, 5) == 192
        assert partitions_count(3, 2) == 1

    def test_edges_of_the_triangle(self):
        for m in range(1, 20):
            assert partitions_count(m, 1) == 1
            assert partitions_count(m, m) == 1
            assert partitions_count(m, m + 1) == 0

    def test_against_enumeration(self):
        for m in range(1, 19):
            for s in range(1, m + 1):
                assert partitions_count(m, s) == enumerate_partitions(m, s)

    def test_zero_negative_and_oversized_inputs(self):
        for m in range(-2, 8):
            for s in range(-2, 10):
                expected = 0 if m < 0 or s < 0 else enumerate_partitions(m, s)
                assert partitions_count(m, s) == expected
        assert partitions_count(0, 0) == 1

    def test_refuses_a_table_above_the_cap(self, monkeypatch):
        # (m - s) * min(s, m - s) additions: 999 000 000 here
        with pytest.raises(ValueError, match=r"about 10\^9\.0 additions, above the cap of 10000000$"):
            partitions_count(1_000_000, 1000)
        # p_3(7) takes 4 * 3 additions: answered at that cap, refused just below it
        monkeypatch.setattr(banerjee, "PARTITION_CAP", 12)
        assert partitions_count(7, 3) == 4
        monkeypatch.setattr(banerjee, "PARTITION_CAP", 11)
        with pytest.raises(ValueError, match="above the cap of 11$"):
            partitions_count(7, 3)


class TestAlpha:
    def test_anchors(self):
        assert banerjee_alpha(2, 2) == 2
        assert banerjee_alpha(3, 2) == 6
        assert banerjee_alpha(4, 3) == 36
        assert banerjee_alpha(5, 2) == 30
        assert banerjee_alpha(15, 2) == 32766

    def test_extremes(self):
        import math

        for k in range(1, 10):
            assert banerjee_alpha(k, 1) == 1
            assert banerjee_alpha(k, k) == math.factorial(k)

    def test_counts_surjections(self):
        for k in range(1, 6):
            for s in range(1, k + 1):
                assert banerjee_alpha(k, s) == enumerate_surjections(k, s)

    def test_stirling_closed_form(self):
        # alpha(k, s) = s! * S(k, s), with S from its triangle recurrence.
        stirling = [[1]]
        for k in range(1, 23):
            prev = stirling[-1] + [0]
            stirling.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, k + 1)])
            for s in range(1, k + 1):
                assert banerjee_alpha(k, s) == math.factorial(s) * stirling[k][s]

    def test_one_loop_matches_the_binomial_sum(self):
        # the in-place signed binomial against the inclusion-exclusion sum it replaced
        for k in range(1, 40):
            for s in range(1, k + 1):
                expected = sum((-1) ** j * math.comb(s, j) * (s - j) ** k for j in range(s + 1))
                assert banerjee_alpha(k, s) == expected

    def test_bounds(self):
        with pytest.raises(ValueError, match="1 <= s <= k_max"):
            banerjee_alpha(3, 0)
        with pytest.raises(ValueError, match="1 <= s <= k_max"):
            banerjee_alpha(3, 4)


class TestBanerjeeTensor:
    def test_sample_keys_and_values(self, sample):
        t = banerjee_tensor(sample)
        assert (t.order, t.dim) == (3, 7)
        third = Fraction(1, 3)
        half = Fraction(1, 2)
        assert t.entries == {
            (1, 2, 3): half,
            (1, 2, 7): half,
            (3, 3, 4): third,
            (3, 4, 4): third,
            (4, 4, 4): Fraction(1),
            (4, 4, 7): third,
            (4, 7, 7): third,
            (5, 5, 5): Fraction(1),
            (6, 6, 7): third,
            (6, 7, 7): third,
        }
        assert t.nnz_positions() == 32

    def test_keys_match_brute_force_positions(self):
        # every order-k position over the edge's vertices that uses them all, sorted
        rng = random.Random(604)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=7, max_k=4)
            k = h.k_max
            t = banerjee_tensor(h)
            expected = {
                tuple(sorted(p))
                for e in h.edges
                for p in itertools.product(sorted(e), repeat=k)
                if set(p) == e
            }
            assert set(t.entries) == expected
            for key, value in t.entries.items():
                s = len(set(key))
                assert value == Fraction(s, banerjee_alpha(k, s))

    def test_singleton_edge_sits_on_the_diagonal(self):
        h = Hypergraph(3, (frozenset({1}), frozenset({2, 3})))
        t = banerjee_tensor(h)
        assert t.get((1, 1)) == 1

    def test_slice_sums_are_degrees(self):
        rng = random.Random(601)
        for _ in range(40):
            h = random_hypergraph(rng, max_n=8, max_k=4)
            t = banerjee_tensor(h)
            for v in range(1, h.n + 1):
                assert t.slice_sum(v) == sum(1 for e in h.edges if v in e)

    def test_uniform_input_collapses_to_the_layer_tensor(self):
        rng = random.Random(602)
        for _ in range(40):
            h = random_uniform_hypergraph(rng)
            assert banerjee_tensor(h) == layer_tensor_degree_normalized(h)

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="no edges"):
            banerjee_tensor(Hypergraph(3))

    def test_key_cap_is_checked_before_building(self, sample, monkeypatch):
        # the sample's 10 keys: C(2, 0) per 1-edge, C(2, 1) per 2-edge, C(2, 2) per 3-edge
        monkeypatch.setattr(banerjee, "KEY_CAP", 10)
        assert len(banerjee_tensor(sample).entries) == 10
        monkeypatch.setattr(banerjee, "KEY_CAP", 9)
        message = "^the banerjee tensor needs 10 keys, above the cap of 9$"
        with pytest.raises(ValueError, match=message):
            banerjee_tensor(sample)
        with pytest.raises(ValueError, match=message):
            compare_tensors(sample)


def reference_banerjee_entries(h: Hypergraph) -> dict:
    """The build that sorted every edge's members together with each extra multiset."""
    k = h.k_max
    values = {s: Fraction(s, banerjee_alpha(k, s)) for s in {len(e) for e in h.edges}}
    entries = {}
    for e in h.edges:
        members = tuple(sorted(e))
        value = values[len(members)]
        for extra in itertools.combinations_with_replacement(members, k - len(members)):
            entries[tuple(sorted(members + extra))] = value
    return entries


@st.composite
def banerjee_inputs(draw):
    """Hypergraphs with k_max 1-8: one edge of size k_max and up to five smaller or equal."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 8)))
    top = st.frozensets(st.integers(1, n), min_size=k, max_size=k)
    other = st.frozensets(st.integers(1, n), min_size=1, max_size=k)
    edges = [draw(top), *draw(st.lists(other, max_size=5))]
    return Hypergraph(n, tuple(dict.fromkeys(edges)))


class TestBanerjeeAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(banerjee_inputs())
    @example(Hypergraph(4, (frozenset({3}), frozenset({1}), frozenset({4}))))  # k_max = 1
    @example(Hypergraph(8, (frozenset(range(1, 9)),)))  # one edge, of size k_max
    @example(Hypergraph(9, (frozenset({2, 5, 9}),)))  # one edge, below n
    def test_entries_match_the_sorted_merge(self, h):
        t = banerjee_tensor(h)
        expected = reference_banerjee_entries(h)
        assert list(t.entries.items()) == list(expected.items())  # same keys, values, order
        # the keys reach SymTensor through _trusted, so nothing else checks them
        assert all(len(key) == h.k_max and list(key) == sorted(key) for key in t.entries)
        assert (t.order, t.dim) == (h.k_max, h.n)


class TestComparison:
    def test_sample_report(self, sample):
        report = compare_tensors(sample)
        assert report.order == 3
        assert (report.layered_dim, report.banerjee_dim) == (9, 7)
        assert (report.layered_total_elements, report.banerjee_total_elements) == (729, 343)
        assert (report.layered_nnz_positions, report.banerjee_nnz_positions) == (42, 32)
        assert (report.layered_describe_count, report.banerjee_describe_count) == (7, 7)
        assert report.layered_entry_value == Fraction(1, 2)
        assert report.banerjee_entry_values == {
            1: Fraction(1),
            2: Fraction(1, 3),
            3: Fraction(1, 2),
        }

    def test_nnz_formulas(self):
        rng = random.Random(603)
        # at max_k=8 many Banerjee keys repeat indices, so their orbit sizes are below k!
        for max_k in [4] * 30 + [8] * 10:
            h = random_hypergraph(rng, max_n=8, max_k=max_k)
            report = compare_tensors(h)
            k = h.k_max
            assert report.layered_nnz_positions == math.factorial(k) * h.p
            assert report.banerjee_nnz_positions == sum(
                banerjee_alpha(k, len(e)) for e in h.edges
            )
            assert report.banerjee_describe_count == sum(
                partitions_count(k, len(e)) for e in h.edges
            )
            # Every field agrees with the two tensors built in full.
            layered, rival = e_adjacency_tensor(h), banerjee_tensor(h)
            assert report.order == layered.order == rival.order
            assert (report.layered_dim, report.banerjee_dim) == (layered.dim, rival.dim)
            assert report.layered_total_elements == layered.dim**k
            assert report.banerjee_total_elements == rival.dim**k
            assert report.layered_nnz_positions == layered.nnz_positions()
            assert report.banerjee_nnz_positions == rival.nnz_positions()
            assert report.layered_describe_count == len(layered.entries)
            # A key's support is its edge, and its multiplicities a partition of k.
            shapes, values_by_size = {}, {}
            for key, value in rival.entries.items():
                shapes.setdefault(frozenset(key), set()).add(tuple(sorted(Counter(key).values())))
                values_by_size.setdefault(len(set(key)), set()).add(value)
            assert report.banerjee_describe_count == sum(len(v) for v in shapes.values())
            assert set(layered.entries.values()) == {report.layered_entry_value}
            assert report.banerjee_entry_values == {s: v for s, (v,) in values_by_size.items()}

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="no edges"):
            compare_tensors(Hypergraph(3))
