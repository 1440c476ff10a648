"""Split a general hypergraph into layers, make it uniform, and read facts back off its tensor.

``decompose`` splits a hypergraph into its cardinality layers, and the three
``layer_tensor_*`` builders give each uniform layer its order-k tensor.
A hypergraph with edge cardinalities up to k_max gains k_max - 1 special
vertices, indexed n+1..n+k_max-1.  Every edge of size s is padded with the
suffix {n+s, ..., n+k_max-1}, which records s in the padded edge itself and
makes the construction reversible.  The paper's iterative route, rounds of
``vertex_augment`` and ``merge`` over the weighted cardinality layers, gives the
same family; ``layered_uniform`` builds it unrolled.  Both routes feed the
symmetric e-adjacency tensor, which keeps the layers apart: each key's padding
names the layer of its edge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import eq, getitem
from typing import Iterable

from .hypergraph import Hypergraph, WeightedHypergraph, _integer, _rational, _trusted, degrees
from .symtensor import Key, SymTensor, _quotient, _slice_numerators, _total

CoefficientPolicy = str | list[Fraction] | tuple[Fraction, ...]


def decompose(h: Hypergraph) -> tuple[Hypergraph, ...]:
    """The cardinality layers of h: layer k, at index k - 1, holds exactly the edges of size k.

    Every layer keeps the full vertex set, so it is k-uniform by construction
    (possibly edgeless), and each edge of h lies in exactly one layer.
    """
    if h.p == 0:
        raise ValueError("cannot decompose a hypergraph with no edges")
    grouped: list[list] = [[] for _ in range(h.k_max)]
    for e in h.edges:
        grouped[len(e) - 1].append(e)
    return tuple(_trusted(Hypergraph, h.n, tuple(g)) for g in grouped)


def _uniform_size(h: Hypergraph) -> int | None:
    """The one edge size of a uniform hypergraph; None when it has no edges."""
    sizes = {len(e) for e in h.edges}
    if len(sizes) > 1:
        raise ValueError("hypergraph is not uniform")
    return sizes.pop() if sizes else None


def _uniform_cardinality(hk: Hypergraph, k: int | None) -> int:
    if k is not None:
        _integer(k, "tensor order")
    inferred = _uniform_size(hk)
    if inferred is None:
        if k is None:
            raise ValueError("edgeless hypergraph: the uniform cardinality must be given")
        _integer(k, "tensor order", 1)
        return k
    if k is not None and k != inferred:
        raise ValueError(f"hypergraph is {inferred}-uniform, not {k}-uniform")
    return inferred


def layer_tensor_raw(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Order-k tensor with value 1 at each edge's canonical key."""
    k = _uniform_cardinality(hk, k)
    # the edges of a validated uniform hypergraph give distinct canonical keys
    return _trusted(SymTensor, k, hk.n, dict.fromkeys((tuple(sorted(e)) for e in hk.edges), Fraction(1)))


def layer_tensor_degree_normalized(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Order-k tensor with value 1/(k-1)! at each edge's canonical key.

    Normalized so that each mode-i slice sums to the degree of vertex i.
    """
    k = _uniform_cardinality(hk, k)
    value = Fraction(1, math.factorial(k - 1))
    # the edges of a validated uniform hypergraph give distinct canonical keys
    return _trusted(SymTensor, k, hk.n, {tuple(sorted(e)): value for e in hk.edges})


def layer_tensor_eigen_normalized(hk: Hypergraph, k: int | None = None) -> SymTensor:
    """Degree-normalized variant scaled by the product of d_i^(-1/k).

    Degrees are taken within ``hk`` itself.  The k-th roots make the entries
    floating point; vertices of degree zero never occur in a stored key.
    """
    k = _uniform_cardinality(hk, k)
    deg = degrees(hk)
    base = 1.0 / math.factorial(k - 1)
    entries: dict[Key, float] = {}
    for e in hk.edges:
        key = tuple(sorted(e))
        value = base
        for i in key:
            value *= deg[i - 1] ** (-1.0 / k)
        entries[key] = value
    return SymTensor(k, hk.n, entries)


def layer_coefficients(policy: CoefficientPolicy, k_max: int) -> tuple[Fraction, ...]:
    """Per-cardinality weights c_1..c_k_max attached to the layers.

    ``"unit"`` takes every c_k = 1.  ``"handshake"`` takes c_k = k_max/k,
    which makes the tensor's total weight count each edge k_max times, the
    way every graph edge is counted twice in a degree sum.  An explicit
    list or tuple of k_max positive rationals is accepted as-is.
    """
    _integer(k_max, "k_max", 1)
    if policy == "unit":
        return (Fraction(1),) * k_max
    if policy == "handshake":
        return tuple(Fraction(k_max, k) for k in range(1, k_max + 1))
    if not isinstance(policy, (list, tuple)):
        raise ValueError(f"unknown coefficient policy {policy!r}")
    coefficients = tuple(_rational(c, "layer coefficient") for c in policy)
    if len(coefficients) != k_max:
        raise ValueError(f"need {k_max} coefficients, got {len(coefficients)}")
    if any(c <= 0 for c in coefficients):
        raise ValueError("coefficients must be positive")
    return coefficients


def vertex_augment(hw: WeightedHypergraph, y: int) -> WeightedHypergraph:
    """Adjoin the fresh vertex y to the vertex set and to every edge.

    A k-uniform weighted hypergraph becomes (k+1)-uniform; weights are kept.
    """
    _integer(y, "fresh vertex")
    _uniform_size(hw.base)
    n = hw.base.n
    if y <= n:
        raise ValueError(f"vertex {y} is already present")
    if y != n + 1:
        raise ValueError(f"augmenting vertex must be the next index {n + 1}, got {y}")
    edges = tuple(e | {y} for e in hw.base.edges)
    return WeightedHypergraph(Hypergraph(n + 1, edges), hw.weights)


def merge(a: WeightedHypergraph, b: WeightedHypergraph) -> WeightedHypergraph:
    """Union of two k-uniform weighted hypergraphs with disjoint edge families.

    Each edge keeps the weight it had in its operand; the vertex set is the
    union of the operands' vertex sets.
    """
    size_a = _uniform_size(a.base)
    size_b = _uniform_size(b.base)
    if size_a is not None and size_b is not None and size_a != size_b:
        raise ValueError(f"cannot merge {size_a}-uniform with {size_b}-uniform")
    if set(a.base.edges) & set(b.base.edges):
        raise ValueError("edge families must be disjoint")
    n = max(a.base.n, b.base.n)
    edges = a.base.edges + b.base.edges
    weights = a.weights + b.weights
    return WeightedHypergraph(_trusted(Hypergraph, n, edges), weights)


@dataclass(frozen=True)
class LayeredUniform:
    """The k_max-uniform weighted hypergraph produced by padding the layers.

    ``origin[j]`` is the 1-based id of the original edge that produced
    uniform edge j+1, so the construction stays explicitly reversible.
    """

    uniform: WeightedHypergraph
    n_original: int
    k_max: int
    origin: tuple[int, ...]


def layered_uniform(h: Hypergraph, policy: CoefficientPolicy = "handshake") -> LayeredUniform:
    """Uniformize as iterated augment-and-merge over the cardinality layers would.

    Round k augments the running k-uniform family by the fresh vertex n+k and
    merges in the weighted (k+1)-layer.  Unrolled, each edge e of size s becomes
    e + {n+s, ..., n+k_max-1} with weight c_s, so each layer is padded once.
    """
    layers = decompose(h)
    k = len(layers)
    coefficients = layer_coefficients(policy, k)
    sizes = (s for s, layer in enumerate(layers, start=1) if layer.edges)
    suffixes = _padding_suffixes(h.n, k, sizes)
    edges = tuple(e.union(suffixes[s]) for s, layer in enumerate(layers, start=1) for e in layer.edges)
    weights = tuple(c for c, layer in zip(coefficients, layers) for _ in layer.edges)
    uniform = WeightedHypergraph(_trusted(Hypergraph, h.n + k - 1, edges), weights)
    # the layers come in size order, so the edges are stably sorted by size
    origin = sorted(range(1, h.p + 1), key=lambda i: len(h.edges[i - 1]))
    return LayeredUniform(uniform, h.n, k, tuple(origin))


def tensor_from_layered_uniform(lu: LayeredUniform) -> SymTensor:
    """Expand a padded uniform family into its symmetric tensor.

    An edge whose original part has size s contributes its canonical key
    with value w * s / k_max!; under the handshake policy every value is
    1/(k_max-1)!.
    """
    k = lu.k_max
    entries: dict[tuple[int, ...], Fraction] = {}
    for e, w in zip(lu.uniform.base.edges, lu.uniform.weights):
        original_size = sum(1 for i in e if i <= lu.n_original)
        key = tuple(sorted(e))
        entries[key] = w * Fraction(original_size, math.factorial(k))
    return SymTensor(k, lu.uniform.base.n, entries)


def _padding_suffixes(n: int, k: int, sizes: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """{s: (n+s, ..., n+k-1)}, the padding suffix of an edge of size s, for each size given.

    Only the sizes that occur get a suffix, so the table is no larger than the
    keys it pads: one edge of k vertices gets one empty suffix, not k²/2 indices.
    """
    return {s: tuple(range(n + s, n + k)) for s in set(sizes)}


def e_adjacency_tensor(h: Hypergraph) -> SymTensor:
    """Symmetric order-k_max tensor encoding all of h in one object.

    Every edge e of size s occupies the single canonical key
    sorted(e) + (n+s, ..., n+k_max-1) with value 1/(k_max-1)!.
    """
    if h.p == 0:
        raise ValueError("cannot build a tensor for a hypergraph with no edges")
    sizes = set(map(len, h.edges))
    k = max(sizes)
    value = Fraction(1, math.factorial(k - 1))
    suffixes = _padding_suffixes(h.n, k, sizes)
    entries = {tuple(sorted(e)) + suffixes[len(e)]: value for e in h.edges}
    return _trusted(SymTensor, k, h.n + k - 1, entries)


def _as_int(numerator, den: int | None, what: str) -> int:
    """A slice sum from ``_slice_numerators`` as a nonnegative int, or the error naming it."""
    if numerator < 0 or numerator % (den or 1):
        raise ValueError(f"{what} is {_quotient(numerator, den)}, not a nonnegative integer")
    return int(numerator) // (den or 1)


def _slice_ints(sums: dict, den: int | None, indices: Iterable[int]) -> list[int]:
    """The slice sums at the given indices as nonnegative ints, checked in the order given.

    Equal counts share one numerator object, so each object is divided once:
    one edge of k vertices gives k equal numerators of about log2(k!) bits.
    """
    ints: dict[int, int] = {}
    out = []
    for i in indices:
        s = sums.get(i, 0)
        if id(s) not in ints:
            ints[id(s)] = _as_int(s, den, f"slice sum {i}")
        out.append(ints[id(s)])
    return out


def _layered_order(t: SymTensor, n: int) -> int:
    """The order k of t, after checking that t has the layered shape dim = n + k - 1, n >= 0."""
    _integer(n, "vertex count", 0)
    k = t.order
    if t.dim != n + k - 1:
        raise ValueError(f"tensor dim {t.dim} does not match n={n}, order {k}")
    return k


def vertex_degrees_from_tensor(t: SymTensor, n: int) -> tuple[int, ...]:
    """Original vertex degrees, read as the first n slice sums."""
    _integer(n, "vertex count")
    if not 0 <= n <= t.dim:
        raise ValueError(f"original vertex count {n} outside [0, {t.dim}]")
    sums, den = _slice_numerators(t.entries, t.order)
    result = [0] * n
    touched = sorted(i for i in sums if i <= n)  # in index order, so the first bad sum is named
    for i, d in zip(touched, _slice_ints(sums, den, touched)):
        result[i - 1] = d
    return tuple(result)


def layer_counts_from_tensor(t: SymTensor, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cumulative and per-size edge counts read off the special slices.

    Returns (cumulative, per_size), both indexed by cardinality 1..k_max:
    cumulative[j-1] counts edges of size <= j.  The last cumulative value is
    the edge count: no slice carries it, so it is the slice sums' total / k_max.
    """
    k = _layered_order(t, n)
    sums, den = _slice_numerators(t.entries, k)
    cumulative = _slice_ints(sums, den, range(n + 1, n + k))
    total = Fraction(_total(sums, den))
    cumulative.append(_as_int(total.numerator, total.denominator * k, "total_sum / order"))
    per_size = []
    previous = 0
    for j, c in enumerate(cumulative, start=1):
        if c < previous:
            raise ValueError(f"cumulative counts decrease at cardinality {j}")
        per_size.append(c - previous)
        previous = c
    return tuple(cumulative), tuple(per_size)


def reconstruct(t: SymTensor, n: int) -> Hypergraph:
    """Invert e_adjacency_tensor: drop the padding suffix from every key.

    Each canonical key must consist of distinct indices, so at most k_max - 1
    lie above n and the part at or below n is an edge of some size s >= 1; the
    part above n must be exactly the suffix {n+s, ..., n+k_max-1}.  Canonical
    keys are sorted, so the original part is the prefix of indices <= n and one
    bisection splits each key.  The keys are split and checked in C-level
    passes; only a tensor that fails a check is walked key by key, so the
    first bad key in key order is named.
    """
    k = _layered_order(t, n)
    keys = sorted(t.entries)
    cuts = list(map(bisect_right, keys, repeat(n)))
    suffixes = _padding_suffixes(n, k, cuts)
    edges = tuple(map(frozenset, map(getitem, keys, map(slice, cuts))))
    paddings = map(getitem, keys, map(slice, cuts, repeat(None)))
    # with its padding the suffix, a key repeats an index exactly when its edge is shorter than its prefix
    if not all(map(eq, paddings, map(suffixes.__getitem__, cuts))) or not all(map(eq, map(len, edges), cuts)):
        for key in keys:  # name the first bad key, in key order
            if len(set(key)) != len(key):
                raise ValueError(f"key {key} repeats an index")
            s = bisect_right(key, n)
            if key[s:] != suffixes[s]:
                raise ValueError(
                    f"key {key} has padding {key[s:]}, expected {suffixes[s]}"
                )
    return _trusted(Hypergraph, n, edges)
