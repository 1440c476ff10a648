"""The unrolled builders against the paper's single rounds, folded one at a time.

``hypergraph_polynomial`` and ``layered_uniform`` build in one pass per layer
what k_max - 1 rounds of ``homogenize_step``, or of ``vertex_augment`` and
``merge``, build one fresh vertex at a time.  Folding those public rounds here
gives the reference: each builder must equal it field for field, in the same
order, under the unit, handshake and explicit coefficient policies.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgtensor import (
    HomogeneousPolynomial,
    Hypergraph,
    LayeredUniform,
    WeightedHypergraph,
    decompose,
    homogenize_step,
    hypergraph_polynomial,
    layer_coefficients,
    layer_tensor_degree_normalized,
    layered_uniform,
    merge,
    poly_from_tensor,
    vertex_augment,
)

ROUNDS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# k_max = 1 with vertex 1 isolated; vertices 4 and 6 isolated, sizes out of order, explicit policy
K_MAX_ONE = (Hypergraph(3, (frozenset({3}), frozenset({2}))), "handshake")
EXPLICIT = (
    Hypergraph(6, (frozenset({1, 2, 3}), frozenset({5}), frozenset({2, 3}))),
    [Fraction(1, 2), Fraction(3), Fraction(7, 5)],
)


@st.composite
def cases(draw) -> tuple[Hypergraph, object]:
    """A hypergraph on up to 9 vertices with 1..8 edges of 1..5 vertices in drawn order, and a policy."""
    n = draw(st.integers(1, 9))
    edge = st.frozensets(st.integers(1, n), min_size=1, max_size=min(n, 5))
    h = Hypergraph(n, tuple(draw(st.lists(edge, min_size=1, max_size=8, unique=True))))
    coefficient = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    explicit = st.lists(coefficient, min_size=h.k_max, max_size=h.k_max)
    return h, draw(st.sampled_from(["unit", "handshake"]) | explicit)


@ROUNDS
@given(cases())
@example(K_MAX_ONE)
@example(EXPLICIT)
def test_hypergraph_polynomial_equals_the_homogenization_rounds(case):
    h, policy = case
    dec = decompose(h)
    coefficients = layer_coefficients(policy, dec.k_max)

    def layer_polynomial(k):
        return poly_from_tensor(layer_tensor_degree_normalized(dec.layer(k), k))

    p1 = layer_polynomial(1)
    r = HomogeneousPolynomial(1, p1.var_count, {key: coefficients[0] * c for key, c in p1.monomials.items()})
    for k in range(1, dec.k_max):
        r = homogenize_step(r, layer_polynomial(k + 1), coefficients[k], h.n + k)
    unrolled = hypergraph_polynomial(h, policy)
    assert (unrolled.degree, unrolled.var_count) == (r.degree, r.var_count)
    assert list(unrolled.monomials.items()) == list(r.monomials.items())  # dict equality ignores order


@ROUNDS
@given(cases())
@example(K_MAX_ONE)
@example(EXPLICIT)
def test_layered_uniform_equals_the_augment_and_merge_rounds(case):
    h, policy = case
    dec = decompose(h)
    coefficients = layer_coefficients(policy, dec.k_max)

    def weighted_layer(k):
        return WeightedHypergraph(dec.layer(k), (coefficients[k - 1],) * dec.layer(k).p)

    current = weighted_layer(1)
    for k in range(1, dec.k_max):
        current = merge(vertex_augment(current, h.n + k), weighted_layer(k + 1))
    origin = tuple(h.edges.index(frozenset(i for i in e if i <= h.n)) + 1 for e in current.base.edges)
    # the edges compare as tuples, so their order counts, as do the weights' and origin's
    assert layered_uniform(h, policy) == LayeredUniform(current, h.n, dec.k_max, origin)
