"""Zhou's weighted adjacency matrix, kept beside the tests as a cross-check.

H W H^T - D_v is built from the incidence matrix by an actual matrix product,
so it checks the package's direct counting (``adjacency_matrix_bretto``)
rather than repeating it.  The product is O(n^2 * p) in ``Fraction``s, which
is why it serves the tests and is not part of the package.
"""

from __future__ import annotations

from fractions import Fraction

from hgtensor import Hypergraph, WeightedHypergraph

Matrix = list[list[Fraction]]


def unit_weights(h: Hypergraph) -> WeightedHypergraph:
    return WeightedHypergraph(h, (Fraction(1),) * h.p)


def incidence_matrix(h: Hypergraph) -> Matrix:
    """n x p matrix with entry 1 exactly when vertex v lies in edge e."""
    one, zero = Fraction(1), Fraction(0)
    return [[one if v in e else zero for e in h.edges] for v in range(1, h.n + 1)]


def adjacency_matrix_zhou(hw: WeightedHypergraph) -> Matrix:
    """Weighted adjacency H W H^T - D_v, with D_v the weighted degree diagonal."""
    h = hw.base
    inc = incidence_matrix(h)
    hw_prod = [[inc[v][j] * hw.weights[j] for j in range(h.p)] for v in range(h.n)]
    a = [
        [sum((hw_prod[u][j] * inc[v][j] for j in range(h.p)), Fraction(0)) for v in range(h.n)]
        for u in range(h.n)
    ]
    for v in range(h.n):
        weighted_degree = sum((w for e, w in zip(h.edges, hw.weights) if v + 1 in e), Fraction(0))
        a[v][v] -= weighted_degree
    return a
