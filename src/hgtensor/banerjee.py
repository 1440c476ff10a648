"""The classical all-positions tensor of a general hypergraph, for comparison.

An edge of size s is spread over every order-k_max position that uses each
of its vertices at least once, with the constant value s/alpha(k_max, s);
alpha counts those positions, so each incident edge contributes exactly 1
to a vertex's slice sum.  No extra vertices are introduced, at the price of
size-dependent entry values and a denser tensor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from operator import itemgetter

from .hypergraph import Hypergraph, _integer, _trusted
from .symtensor import SymTensor
from .uniformize import e_adjacency_tensor

KEY_CAP = 10**6
PARTITION_CAP = 10**7


def partitions_count(m: int, s: int) -> int:
    """Number of partitions of m into exactly s positive parts.

    Removing one from each part maps these onto the partitions of m - s into
    parts of size at most s, so one coin-change table over part sizes
    1..min(s, m - s) counts them.  Zero for negative input and for s > m;
    p_0(0) = 1.  Tables of more than PARTITION_CAP additions are refused.
    """
    _integer(m, "m")
    _integer(s, "s")
    if m < 0 or s < 0 or s > m:
        return 0
    rest = m - s
    additions = rest * min(s, rest)
    if additions > PARTITION_CAP:
        # a power of ten: the product of two 4300-digit inputs is past the printing limit
        estimate = f"about 10^{math.log10(additions):.1f} additions"
        raise ValueError(f"the partition table needs {estimate}, above the cap of {PARTITION_CAP}")
    ways = [1] + [0] * rest
    for part in range(1, min(s, rest) + 1):
        for total in range(part, rest + 1):
            ways[total] += ways[total - part]
    return ways[rest]


def banerjee_alpha(k_max: int, s: int) -> int:
    """Positions an s-vertex edge occupies in an order-k_max tensor.

    That is the number of surjections from k_max slots onto s labels,
    computed by inclusion-exclusion as sum_j (-1)^j C(s, j) (s - j)^k_max,
    with the signed binomial c = (-1)^j C(s, j) updated in place.
    """
    _integer(k_max, "k_max")
    _integer(s, "s")
    if not 1 <= s <= k_max:
        raise ValueError(f"need 1 <= s <= k_max, got s={s}, k_max={k_max}")
    total, c = 0, 1
    for j in range(s):  # the j = s term is 0^k_max = 0
        total += c * (s - j) ** k_max
        c = -c * (s - j) // (j + 1)
    return total


def banerjee_tensor(h: Hypergraph) -> SymTensor:
    """Order-k_max tensor over the original n vertices only.

    An s-edge holds value s/alpha(k_max, s) at its C(k_max - 1, s - 1) keys:
    its s vertices plus a multiset of k_max - s more drawn from the edge.  A
    key's support identifies its edge, so edges never share a key.  Builds of
    more than KEY_CAP keys, about 190 MB at k_max = 12, are refused up front.
    """
    if h.p == 0:
        raise ValueError("cannot build a tensor for a hypergraph with no edges")
    k = h.k_max
    keys = sum(math.comb(k - 1, len(e) - 1) for e in h.edges)
    if keys > KEY_CAP:
        raise ValueError(f"the banerjee tensor needs {keys} keys, above the cap of {KEY_CAP}")
    values = {s: Fraction(s, banerjee_alpha(k, s)) for s in {len(e) for e in h.edges}}
    if k == 1:  # all singletons; itemgetter(0) would give a scalar, not a key
        return _trusted(SymTensor, 1, h.n, dict.fromkeys(map(tuple, h.edges), values[1]))
    # A nondecreasing pattern of positions, mapped through an edge's sorted
    # members, is one of its keys already sorted: one getter per pattern per size.
    getters = {
        s: [itemgetter(*sorted((*range(s), *x))) for x in combinations_with_replacement(range(s), k - s)]
        for s in values
    }
    entries: dict[tuple[int, ...], Fraction] = {}
    for e in h.edges:
        members = sorted(e)
        entries.update(zip([g(members) for g in getters[len(e)]], repeat(values[len(e)])))
    return _trusted(SymTensor, k, h.n, entries)


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side cost and shape figures for the two tensor models."""

    order: int
    layered_dim: int
    banerjee_dim: int
    layered_total_elements: int
    banerjee_total_elements: int
    layered_nnz_positions: int
    banerjee_nnz_positions: int
    layered_describe_count: int
    banerjee_describe_count: int
    layered_entry_value: Fraction
    banerjee_entry_values: dict[int, Fraction]


def compare_tensors(h: Hypergraph) -> ComparisonReport:
    """Collect the headline numbers of both tensors of h.

    The built tensors give the dims and refuse oversized or edgeless input.
    Nonzero positions are p * k_max! and sum_s count_s * alpha(k_max, s); the
    describe counts, the independent values that write each tensor down, are p
    and sum_s count_s * p_s(k_max), with p_s counting partitions into s parts.
    """
    layered = e_adjacency_tensor(h)
    rival = banerjee_tensor(h)
    k = h.k_max
    size_counts = sorted(Counter(len(e) for e in h.edges).items())
    alphas = {s: banerjee_alpha(k, s) for s, _ in size_counts}
    return ComparisonReport(
        order=k,
        layered_dim=layered.dim,
        banerjee_dim=rival.dim,
        layered_total_elements=layered.dim**k,
        banerjee_total_elements=rival.dim**k,
        layered_nnz_positions=h.p * math.factorial(k),
        banerjee_nnz_positions=sum(c * alphas[s] for s, c in size_counts),
        layered_describe_count=h.p,
        banerjee_describe_count=sum(c * partitions_count(k, s) for s, c in size_counts),
        layered_entry_value=Fraction(1, math.factorial(k - 1)),
        banerjee_entry_values={s: Fraction(s, a) for s, a in alphas.items()},
    )
