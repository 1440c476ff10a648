"""Test inputs the package does not build: Zhou's matrix and two diagonal shifts.

Zhou's weighted adjacency matrix is kept beside the tests as a cross-check.
At unit weights it is Bretto's matrix, whose upper triangle is the raw 2-layer
tensor that ``graph_consistency_check`` reads.  H W H^T - D_v is built from the
incidence matrix by an actual matrix product, so it checks the package's direct
counting (``layer_tensor_raw``) rather than repeating it.  The product is
O(n^2 * p) in ``Fraction``s, which is why it serves the tests and is not part
of the package.

``scale_add_identity`` and ``laplacian`` add diagonal keys, which repeat an
index, and ``laplacian`` negates every value: inputs that the paper's tensors
never hold, drawn to reach the kernels' repeated-index and negative paths.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from hgtensor import Hypergraph, SymTensor, WeightedHypergraph

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


def scale_add_identity(t: SymTensor, alpha: Fraction, beta: Fraction) -> SymTensor:
    """alpha * t + beta * I, with I the diagonal identity."""
    entries = {key: alpha * value for key, value in t.entries.items()} if alpha != 0 else {}
    if beta != 0:
        for j in range(1, t.dim + 1):
            diag = (j,) * t.order
            entries[diag] = entries.get(diag, Fraction(0)) + beta
    return SymTensor(t.order, t.dim, entries)


def laplacian(a: SymTensor, degree_seq: Sequence[int]) -> SymTensor:
    """I_deg - a, where I_deg has diagonal 1 exactly at positive-degree indices."""
    entries = {key: -value for key, value in a.entries.items()}
    for j, d in enumerate(degree_seq, start=1):
        if d > 0:
            diag = (j,) * a.order
            entries[diag] = entries.get(diag, Fraction(0)) + 1
    return SymTensor(a.order, a.dim, entries)
