from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgtensor import (
    Hypergraph,
    SymTensor,
    check_eigenpair,
    e_adjacency_tensor,
    gershgorin_disks,
    graph_consistency_check,
    layer_tensor_degree_normalized,
    layer_tensor_raw,
    parse_hypergraph,
    power_iteration,
    spectral_bound,
    symtensor,
)
from hgtensor.spectral import _slice_masses

from conftest import random_hypergraph, random_uniform_hypergraph
from matrices import adjacency_matrix_zhou, laplacian, scale_add_identity, unit_weights

K3 = "3\n1 2\n2 3\n1 3\n"

exact = st.integers(-4, 4) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def eigen_cases(draw):
    """(tensor, value, x, tol): exact values, some Laplacians, x with zeros; dim 0 included."""
    order, dim = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    key = st.lists(st.integers(1, dim), min_size=order, max_size=order)
    keys = draw(st.lists(key, max_size=8)) if dim else []
    t = SymTensor(order, dim, {tuple(sorted(k)): draw(exact) for k in keys})
    if draw(st.booleans()):
        t = laplacian(t, draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)))
    x = draw(st.lists(exact | st.just(0), min_size=dim, max_size=dim))
    return t, draw(exact), x, draw(st.sampled_from([0, Fraction(1, 2), 3]))


def reference_check(t: SymTensor, value, x, tol):
    """The residual loop over apply's Fractions, one subtraction, product and power per index."""
    contracted = t.apply(x)
    residual = max(
        (abs(contracted[i] - value * x[i] ** (t.order - 1)) for i in range(t.dim)),
        default=Fraction(0),
    )
    threshold = tol * (1 + abs(value))
    return residual, threshold, residual <= threshold


def reference_unrolled(width: int, scaled: bool):
    """The per-index product loop, in the shape of symtensor._unrolled: bare keys fold with c = 1.0."""

    def fold(entries, xs, out):
        for key, c in entries if scaled else zip(entries, repeat(1.0)):
            for i in key:
                product = c
                for j in key:
                    if j != i:
                        product *= xs[j]
                out[i] += product

    return fold


@pytest.fixture
def k3_tensor() -> SymTensor:
    return e_adjacency_tensor(parse_hypergraph(K3))


class TestCheckEigenpair:
    def test_regular_pair_is_exact(self, k3_tensor):
        ones = [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
        check = check_eigenpair(k3_tensor, Fraction(2), ones)
        assert check.passed and check.residual == 0

    def test_padding_axis_zero_pair(self, k3_tensor):
        axis = [Fraction(0)] * 3 + [Fraction(1)]
        assert check_eigenpair(k3_tensor, Fraction(0), axis).passed

    def test_wrong_value_fails(self, k3_tensor):
        ones = [Fraction(1)] * 4
        check = check_eigenpair(k3_tensor, Fraction(1), ones)
        assert not check.passed
        assert check.residual == 1

    def test_tolerance_scales_with_value(self, k3_tensor):
        ones = [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
        loose = check_eigenpair(k3_tensor, Fraction(201, 100), ones, tol=Fraction(1, 100))
        assert loose.threshold == Fraction(1, 100) * (1 + Fraction(201, 100))
        assert loose.passed

    def test_shift_keeps_eigenpairs(self, k3_tensor):
        ones = [Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
        alpha, beta = Fraction(3, 2), Fraction(2)
        shifted = scale_add_identity(k3_tensor, alpha, beta)
        assert check_eigenpair(shifted, alpha * 2 + beta, ones).passed
        axis = [Fraction(0)] * 3 + [Fraction(1)]
        assert check_eigenpair(shifted, beta, axis).passed


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(eigen_cases())
    def test_exact_residual_matches_the_fraction_loop(self, case):
        t, value, x, tol = case
        for v in (value, float(value)):
            check = check_eigenpair(t, v, x, tol)
            got = (check.residual, check.threshold, check.passed)
            expected = reference_check(t, v, x, tol)
            assert got == expected
            assert [type(g) for g in got] == [type(e) for e in expected]
        if t.dim:  # against an exact tensor, a float value keeps a float residual
            assert type(check.residual) is float
        assert type(check_eigenpair(t, value, x, tol).residual) is Fraction


class TestGershgorin:
    def test_sample_disks(self, sample):
        disks = gershgorin_disks(e_adjacency_tensor(sample))
        assert [c for c, _ in disks] == [0] * 9
        assert [r for _, r in disks] == [2, 2, 2, 3, 1, 1, 3, 2, 5]

    def test_diagonal_goes_to_the_center(self, k3_tensor):
        shifted = scale_add_identity(k3_tensor, Fraction(1), Fraction(5))
        disks = gershgorin_disks(shifted)
        assert [c for c, _ in disks] == [5, 5, 5, 5]
        assert [r for _, r in disks] == [2, 2, 2, 0]


class TestGershgorinEdgeCases:
    def test_order_one_keys_are_all_diagonal(self):
        t = SymTensor(1, 3, {(1,): Fraction(2), (3,): Fraction(-1, 2)})
        assert gershgorin_disks(t) == ((2, 0), (0, 0), (Fraction(-1, 2), 0))

    def test_negative_off_diagonal_values_count_by_magnitude(self):
        t = SymTensor(3, 3, {(1, 2, 3): Fraction(-1, 2), (1, 1, 2): Fraction(-3), (2, 2, 2): Fraction(4)})
        assert gershgorin_disks(t) == ((0, 7), (4, 4), (0, 1))
        flipped = SymTensor(3, 3, {key: abs(value) for key, value in t.entries.items()})
        assert [r for _, r in gershgorin_disks(flipped)] == [7, 4, 1]


class TestBound:
    def test_sample_bound(self, sample):
        report = spectral_bound(sample)
        assert (report.delta, report.delta_star, report.bound) == (3, 5, 5)

    def test_uniform_case_has_no_padding_degrees(self):
        report = spectral_bound(parse_hypergraph(K3))
        assert (report.delta, report.delta_star, report.bound) == (2, 0, 2)

    def test_bound_dominates_every_disk(self):
        rng = random.Random(701)
        for _ in range(40):
            h = random_hypergraph(rng)
            report = spectral_bound(h)
            assert report.bound == max(c + r for c, r in report.disks)

    def test_singleton_heavy_family_is_dominated_by_padding(self):
        edges = tuple(frozenset({v}) for v in range(1, 6)) + (frozenset(range(1, 7)),)
        report = spectral_bound(Hypergraph(6, edges))
        assert report.delta == 2
        assert report.delta_star == 5
        assert report.bound == 5

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="at least one edge"):
            spectral_bound(Hypergraph(3))


@st.composite
def bound_inputs(draw) -> Hypergraph:
    """Hypergraphs on 1-7 vertices with 0-2 more isolated: edges capped at 1-n vertices, maybe one of all n."""
    n = draw(st.integers(1, 7))
    edge = st.frozensets(st.integers(1, n), min_size=1, max_size=draw(st.integers(1, n)))
    edges = draw(st.lists(edge, min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        edges.append(frozenset(range(1, n + 1)))
    return Hypergraph(n + draw(st.integers(0, 2)), tuple(dict.fromkeys(edges)))


class TestClosedFormBound:
    """spectral_bound counts the disks off the edges; the built tensor's disks cross-check them."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bound_inputs())
    @example(Hypergraph(4, (frozenset({1}), frozenset({3}))))  # k_max = 1, isolated vertices 2 and 4
    @example(Hypergraph(1, (frozenset({1}),)))  # one edge of size 1 holding every vertex
    @example(Hypergraph(5, (frozenset(range(1, 6)),)))  # one edge holding every vertex
    @example(Hypergraph(6, (frozenset({1}), frozenset({2, 3, 4}))))  # isolated vertices 5 and 6
    def test_disks_and_degrees_match_the_built_tensor(self, h):
        report = spectral_bound(h)
        assert report.disks == gershgorin_disks(e_adjacency_tensor(h))
        assert (report.delta, report.delta_star, report.bound) == _slice_masses(h)[2]
        assert report.bound == max(c + r for c, r in report.disks)
        values = [v for disk in report.disks for v in disk]
        assert {type(v) for v in values} == {Fraction}
        # one shared zero and one shared Fraction per distinct center or radius
        assert len(set(map(id, values))) == len(set(values))

    def test_order_one_disks_hold_the_diagonal(self):
        report = spectral_bound(Hypergraph(4, (frozenset({1}), frozenset({3}))))
        assert report.disks == ((1, 0), (0, 0), (1, 0), (0, 0))
        assert (report.delta, report.delta_star, report.bound) == (1, 0, 1)


class TestPowerIteration:
    def test_triangle(self, k3_tensor):
        pair = power_iteration(k3_tensor)
        assert pair.converged
        assert pair.value == pytest.approx(2.0, abs=1e-10)
        assert pair.vector[3] == 0.0
        assert pair.residual <= 1e-9

    def test_single_big_edge_is_one_regular(self):
        t = layer_tensor_degree_normalized(Hypergraph(3, (frozenset({1, 2, 3}),)))
        pair = power_iteration(t)
        assert pair.converged and pair.iterations == 1
        assert pair.value == pytest.approx(1.0, abs=1e-12)
        assert pair.vector == (1.0, 1.0, 1.0)

    def test_equal_row_sums_converge_immediately(self):
        t = SymTensor(2, 2, {(1, 2): Fraction(3)})
        pair = power_iteration(t)
        assert pair.converged and pair.value == pytest.approx(3.0)

    def test_reducible_blocks_stall_with_a_bracket(self):
        t = SymTensor(2, 2, {(1, 1): Fraction(2), (2, 2): Fraction(1)})
        pair = power_iteration(t, max_iter=50)
        assert not pair.converged
        assert pair.iterations == 50
        assert pair.bracket_low == pytest.approx(1.0)
        assert pair.bracket_high == pytest.approx(2.0)
        assert pair.value == pytest.approx(1.5)

    def test_zero_slice_indices_stay_out_of_the_support(self):
        h = Hypergraph(5, (frozenset({1, 2}),))
        pair = power_iteration(e_adjacency_tensor(h))
        assert pair.vector[2:] == (0.0, 0.0, 0.0, 0.0)
        assert pair.value == pytest.approx(1.0)

    def test_shift_property_on_convergent_cases(self):
        triangle = SymTensor(
            2, 3, {(1, 2): Fraction(1), (1, 3): Fraction(1), (2, 3): Fraction(1)}
        )
        rng = random.Random(702)
        base = power_iteration(triangle)
        assert base.converged
        for _ in range(10):
            alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            beta = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            shifted = power_iteration(scale_add_identity(triangle, alpha, beta))
            assert shifted.converged
            assert shifted.value == pytest.approx(
                float(alpha) * base.value + float(beta), abs=1e-8
            )

    def test_shifted_padded_tensor_stalls_without_crashing(self, k3_tensor):
        shifted = scale_add_identity(k3_tensor, Fraction(1), Fraction(1, 2))
        pair = power_iteration(shifted)
        assert not pair.converged
        assert pair.bracket_low <= 2.5 <= pair.bracket_high

    def test_bounded_by_the_degree_bound(self):
        rng = random.Random(703)
        checked = 0
        while checked < 40:
            h = random_hypergraph(rng)
            if h.k_max < 2:
                continue
            pair = power_iteration(e_adjacency_tensor(h), max_iter=300)
            assert pair.value <= spectral_bound(h).bound + 1e-8
            checked += 1

    def test_generated_fold_matches_the_per_index_loop(self, monkeypatch):
        h = random_hypergraph(random.Random(727), max_n=60, max_k=5, max_edges=150)
        assert (h.n, h.p, h.k_max) == (57, 136, 5)
        t = e_adjacency_tensor(h)
        pair = power_iteration(t)
        monkeypatch.setattr(symtensor, "_unrolled", reference_unrolled)
        assert power_iteration(t) == pair

    def test_validation(self):
        with pytest.raises(ValueError, match="order at least 2"):
            power_iteration(SymTensor(1, 2, {(1,): Fraction(1)}))
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration(SymTensor(2, 2, {}))
        with pytest.raises(ValueError, match="nonnegative tensor"):
            power_iteration(SymTensor(2, 2, {(1, 2): Fraction(-1)}))
        for bad in (float("nan"), float("inf")):  # NaN is not below 0: both used to run every iteration
            with pytest.raises(ValueError, match="^power iteration needs finite values$"):
                power_iteration(SymTensor(2, 2, {(1, 2): bad, (1, 1): 1.0}))
        with pytest.raises(ValueError, match="nonnegative tensor"):
            power_iteration(SymTensor(2, 2, {(1, 2): float("-inf")}))
        t = SymTensor(2, 2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError, match="max_iter"):
            power_iteration(t, max_iter=0)
        with pytest.raises(ValueError, match="tolerance"):
            power_iteration(t, tol=-1.0)


class TestGraphCase:
    def test_triangle_report(self):
        report = graph_consistency_check(parse_hypergraph(K3))
        assert report.c2 == 1
        assert report.block_ok
        assert report.graph_value == pytest.approx(2.0, abs=1e-10)
        assert report.layered_value == pytest.approx(2.0, abs=1e-10)
        assert report.relation_ok
        assert report.zero_eigenpair_ok

    def test_single_edge_graph(self):
        report = graph_consistency_check(parse_hypergraph("2\n1 2\n"))
        assert report.block_ok and report.relation_ok and report.zero_eigenpair_ok
        assert report.graph_value == pytest.approx(1.0)

    def test_block_structure_on_random_graphs(self):
        rng = random.Random(704)
        for _ in range(15):
            g = None
            while g is None or g.p == 0:
                n = rng.randint(2, 7)
                pairs = [
                    frozenset({u, v})
                    for u in range(1, n + 1)
                    for v in range(u + 1, n + 1)
                    if rng.random() < 0.5
                ]
                g = Hypergraph(n, tuple(pairs)) if pairs else None
            report = graph_consistency_check(g)
            assert report.block_ok and report.zero_eigenpair_ok

    def test_raw_layer_is_the_upper_triangle_of_the_bretto_matrix(self):
        # graph_consistency_check takes the matrix view A from layer_tensor_raw;
        # Zhou's matrix at unit weights is Bretto's
        rng = random.Random(705)
        for _ in range(40):
            g = random_uniform_hypergraph(rng, k=2, max_n=12, max_edges=20)
            a = adjacency_matrix_zhou(unit_weights(g))
            upper = {
                (u, v): a[u - 1][v - 1]
                for u in range(1, g.n + 1)
                for v in range(u, g.n + 1)
                if a[u - 1][v - 1] != 0
            }
            t = layer_tensor_raw(g, 2)
            assert (t.order, t.dim) == (2, g.n)
            assert t.entries == upper

    def test_rejects_non_graphs(self, sample):
        with pytest.raises(ValueError, match="2-uniform"):
            graph_consistency_check(sample)
        with pytest.raises(ValueError, match="2-uniform"):
            graph_consistency_check(Hypergraph(3))
