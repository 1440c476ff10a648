from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hgtensor import (
    HomogeneousPolynomial,
    Hypergraph,
    SymTensor,
    dnf_extract,
    dnf_extract_structural,
    e_adjacency_tensor,
    homogenize_step,
    hypergraph_polynomial,
    layer_tensor_degree_normalized,
    poly_from_tensor,
    tensor_from_poly,
)

from conftest import random_hypergraph


class TestHomogeneousPolynomial:
    def test_canonicalizes_and_drops_zeros(self):
        p = HomogeneousPolynomial(2, 3, {(3, 1): Fraction(2), (2, 2): Fraction(0)})
        assert p.monomials == {(1, 3): Fraction(2)}

    def test_validation(self):
        with pytest.raises(ValueError, match="degree"):
            HomogeneousPolynomial(0, 3)
        with pytest.raises(ValueError, match="does not have degree"):
            HomogeneousPolynomial(2, 3, {(1,): Fraction(1)})
        with pytest.raises(ValueError, match="outside"):
            HomogeneousPolynomial(2, 3, {(1, 4): Fraction(1)})
        with pytest.raises(ValueError, match="conflicting"):
            HomogeneousPolynomial(2, 3, {(1, 3): Fraction(1), (3, 1): Fraction(1)})

    @pytest.mark.parametrize("key", [(True, 2), (1.5, 2), (2, "3")])
    def test_non_integer_index_rejected(self, key):
        with pytest.raises(ValueError, match=r"^monomial .* has a non-integer index$"):
            HomogeneousPolynomial(2, 3, {key: 1})

    def test_zero_polynomial(self):
        p = HomogeneousPolynomial(3, 5)
        assert p.monomials == {}


class TestTensorPolyBridge:
    def test_layer_polynomials(self, sample):
        layer1 = Hypergraph(7, (frozenset({5}), frozenset({4})))
        p1 = poly_from_tensor(layer_tensor_degree_normalized(layer1))
        assert p1.monomials == {(4,): Fraction(1), (5,): Fraction(1)}
        layer2 = Hypergraph(7, (frozenset({6, 7}), frozenset({3, 4}), frozenset({4, 7})))
        p2 = poly_from_tensor(layer_tensor_degree_normalized(layer2))
        assert p2.monomials == {
            (3, 4): Fraction(2),
            (4, 7): Fraction(2),
            (6, 7): Fraction(2),
        }

    def test_tensor_from_poly_spreads_coefficients(self):
        p = HomogeneousPolynomial(3, 3, {(1, 2, 3): Fraction(6)})
        t = tensor_from_poly(p)
        assert t.entries == {(1, 2, 3): Fraction(1)}

    def test_repeated_variable_rejected(self):
        p = HomogeneousPolynomial(2, 2, {(1, 1): Fraction(1)})
        with pytest.raises(ValueError, match="repeats"):
            tensor_from_poly(p)

    def test_roundtrip_on_layered_tensors(self):
        rng = random.Random(501)
        for _ in range(40):
            h = random_hypergraph(rng)
            t = e_adjacency_tensor(h)
            assert tensor_from_poly(poly_from_tensor(t)) == t

    def test_float_values_are_multiplied_exactly(self):
        # 0.1 * 6 in floats is 0.6000000000000001 and 1e308 * 6 overflows to inf
        p = poly_from_tensor(SymTensor(3, 3, {(1, 2, 3): 0.1}))
        assert p.monomials == {(1, 2, 3): Fraction(0.1) * 6}
        back = tensor_from_poly(p).entries[(1, 2, 3)]
        assert type(back) is Fraction and back == Fraction(0.1)
        huge = poly_from_tensor(SymTensor(3, 3, {(1, 2, 3): 1e308}))
        assert huge.monomials == {(1, 2, 3): Fraction(1e308) * 6}


class TestHomogenizeStep:
    def test_frozen_example(self):
        r1 = HomogeneousPolynomial(1, 7, {(4,): Fraction(3), (5,): Fraction(3)})
        p2 = HomogeneousPolynomial(
            2, 7, {(3, 4): Fraction(2), (6, 7): Fraction(2), (4, 7): Fraction(2)}
        )
        r2 = homogenize_step(r1, p2, Fraction(3, 2), 8)
        assert r2.degree == 2 and r2.var_count == 8
        assert r2.monomials == {
            (4, 8): Fraction(3),
            (5, 8): Fraction(3),
            (3, 4): Fraction(3),
            (6, 7): Fraction(3),
            (4, 7): Fraction(3),
        }

    def test_validation(self):
        r = HomogeneousPolynomial(1, 3, {(1,): Fraction(1)})
        nxt = HomogeneousPolynomial(2, 3, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError, match="collides"):
            homogenize_step(r, nxt, Fraction(1), 2)
        with pytest.raises(ValueError, match="fresh variable must be 4"):
            homogenize_step(r, nxt, Fraction(1), 9)
        with pytest.raises(ValueError, match="degree 2"):
            homogenize_step(r, HomogeneousPolynomial(3, 3), Fraction(1), 4)
        with pytest.raises(ValueError, match="positive"):
            homogenize_step(r, nxt, Fraction(-1), 4)
        wide = HomogeneousPolynomial(2, 5, {(1, 5): Fraction(1)})
        with pytest.raises(ValueError, match="already exist"):
            homogenize_step(r, wide, Fraction(1), 4)


class TestHypergraphPolynomial:
    def test_sample_handshake(self, sample):
        r = hypergraph_polynomial(sample)
        assert r.degree == 3 and r.var_count == 9
        three = Fraction(3)
        assert r.monomials == {
            (1, 2, 3): three,
            (1, 2, 7): three,
            (3, 4, 9): three,
            (4, 7, 9): three,
            (4, 8, 9): three,
            (5, 8, 9): three,
            (6, 7, 9): three,
        }
        assert sum(r.monomials.values()) == 21

    def test_sample_unit_policy(self, sample):
        r = hypergraph_polynomial(sample, "unit")
        assert r.monomials[(4, 8, 9)] == 1
        assert r.monomials[(3, 4, 9)] == 2
        assert r.monomials[(1, 2, 3)] == 3

    def test_all_singletons(self):
        h = Hypergraph(2, (frozenset({1}), frozenset({2})))
        r = hypergraph_polynomial(h)
        assert r.degree == 1 and r.var_count == 2
        assert r.monomials == {(1,): Fraction(1), (2,): Fraction(1)}

    def test_matches_the_tensor_route(self):
        rng = random.Random(502)
        for _ in range(60):
            h = random_hypergraph(rng)
            assert tensor_from_poly(hypergraph_polynomial(h)) == e_adjacency_tensor(h)


class TestDnf:
    def test_sample_partition(self, sample):
        t = e_adjacency_tensor(sample)
        assert dnf_extract(t, 7, 1) == {frozenset({4}), frozenset({5})}
        assert dnf_extract(t, 7, 2) == {
            frozenset({3, 4}),
            frozenset({6, 7}),
            frozenset({4, 7}),
        }
        assert dnf_extract(t, 7, 3) == {frozenset({1, 2, 3}), frozenset({1, 2, 7})}

    def test_missing_size_gives_empty_set(self):
        h = Hypergraph(3, (frozenset({1}), frozenset({1, 2, 3})))
        t = e_adjacency_tensor(h)
        assert dnf_extract(t, 3, 2) == set()
        assert dnf_extract_structural(t, 3, 2) == set()

    def test_structural_route_agrees(self):
        rng = random.Random(503)
        for _ in range(50):
            h = random_hypergraph(rng)
            t = e_adjacency_tensor(h)
            for size in range(1, h.k_max + 1):
                assert dnf_extract(t, h.n, size) == dnf_extract_structural(t, h.n, size)

    def test_extracted_sets_are_the_edges(self):
        rng = random.Random(504)
        for _ in range(30):
            h = random_hypergraph(rng)
            t = e_adjacency_tensor(h)
            recovered = set()
            for size in range(1, h.k_max + 1):
                recovered |= dnf_extract(t, h.n, size)
            assert recovered == set(h.edges)

    def test_size_bounds(self, sample):
        t = e_adjacency_tensor(sample)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                dnf_extract(t, 7, bad)
            with pytest.raises(ValueError, match="out of range"):
                dnf_extract_structural(t, 7, bad)

    def test_structural_route_rejects_malformed_keys(self):
        # n = 3, order 3: a 2-edge must carry the padding (5,), not (4,).
        wrong_padding = SymTensor(3, 5, {(1, 2, 3): Fraction(1, 2), (1, 2, 4): Fraction(1, 2)})
        with pytest.raises(ValueError, match="padding"):
            dnf_extract_structural(wrong_padding, 3, 3)
        repeated = SymTensor(3, 5, {(1, 1, 5): Fraction(1, 2)})
        with pytest.raises(ValueError, match="repeats an index"):
            dnf_extract_structural(repeated, 3, 2)

    def test_dim_mismatch(self, sample):
        t = e_adjacency_tensor(sample)
        with pytest.raises(ValueError, match="does not match"):
            dnf_extract(t, 6, 1)
