"""Eigenpair checking, localization disks, degree bounds, and power iteration."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, itemgetter
from typing import Sequence

from .hypergraph import Hypergraph, _integer
from .symtensor import SymTensor, _exact_sums, _float_fold, _float_plan, _rational, _slice_list, _value_objects
from .symtensor import layer_tensor_raw
from .uniformize import e_adjacency_tensor


@dataclass(frozen=True)
class EigenCheck:
    residual: Fraction | float
    threshold: Fraction | float
    passed: bool


def check_eigenpair(t: SymTensor, value, x: Sequence, tol=0) -> EigenCheck:
    """Verify (value, x) against the componentwise eigen equations.

    Component i must satisfy (t x^{m-1})_i = value * x_i^{m-1}; the check
    passes when the largest residual is at most tol * (1 + |value|).  With
    rational inputs and tol = 0 this is an exact test.
    """
    if not tol >= 0:  # a negative or NaN tolerance would fail every pair
        raise ValueError("tolerance must be nonnegative")
    m = t.order
    objects = _value_objects(t.entries.values()).values()  # one test per value object
    if len(x) != t.dim or not _rational(chain([value], x, objects)):  # apply names a bad length
        contracted = t.apply(x)
        residual = max((abs(contracted[i] - value * x[i] ** (m - 1)) for i in range(t.dim)), default=Fraction(0))
    else:  # |s_i/scale - value * x_i^(m-1)| over one denominator: integers until the end
        sums, xs, value_den, scale = _exact_sums(t.entries, m, x)  # order 1 reads no x
        top, den = value.numerator * value_den, value.denominator
        numerator = max((abs(s * den - top * c ** (m - 1)) for s, c in zip(sums[1:], xs[1:])), default=0)
        residual = Fraction(numerator, scale * den)
    threshold = tol * (1 + abs(value))
    return EigenCheck(residual, threshold, residual <= threshold)


def gershgorin_disks(t: SymTensor) -> tuple[tuple[Fraction | float, Fraction | float], ...]:
    """Per-index (center, radius): the diagonal entry and its off-diagonal slice mass.

    The radii are the slice sums of the off-diagonal entries with each value
    taken absolutely.  The sign of each distinct value object is tested once,
    and each negative one is negated once.  With no diagonal key and no
    negative value, as in the layered tensor, ``t.entries`` is passed as it
    is; otherwise it is copied in key order in C-level passes.
    """
    centers = [Fraction(0)] * t.dim
    keys = off_diagonal = t.entries
    # a sorted key with equal ends repeats one index
    diagonal = list(compress(keys, map(eq, map(itemgetter(0), keys), map(itemgetter(-1), keys))))
    if diagonal:
        off_diagonal = dict(keys)
        for key in diagonal:
            centers[key[0] - 1] = off_diagonal.pop(key)
    values = off_diagonal.values()
    # abs would build a new Fraction for every nonnegative value too
    negated = {i: -v for i, v in _value_objects(values).items() if v < 0}
    if negated:
        off_diagonal = dict(zip(off_diagonal, map(negated.get, map(id, values), values)))
    return tuple(zip(centers, _slice_list(off_diagonal, t.order, t.dim)))


@dataclass(frozen=True)
class BoundReport:
    """Degree data bounding every eigenvalue modulus of the layered tensor."""

    delta: int
    delta_star: int
    bound: int
    disks: tuple[tuple[Fraction | float, Fraction | float], ...]


def _slice_masses(h: Hypergraph) -> tuple[Counter, list[int], tuple[int, int, int]]:
    """(degrees, padding, bound): the layered tensor's slice sums, counted from the edges alone.

    ``degrees`` counts each vertex's edges; ``padding[j-1]`` counts the edges of
    size <= j, the ones padding vertex n+j lies on, for j in 1..k_max-1.
    ``bound`` is (Delta, Delta*, max of the two), Delta the largest degree and
    Delta* the largest padding count.
    """
    if h.p == 0:
        raise ValueError("the bound needs at least one edge")
    sizes = Counter(map(len, h.edges))
    padding = list(accumulate(map(sizes.__getitem__, range(1, max(sizes)))))
    degrees = Counter(chain.from_iterable(h.edges))
    delta, delta_star = max(degrees.values()), max(padding, default=0)
    return degrees, padding, (delta, delta_star, max(delta, delta_star))


def spectral_bound(h: Hypergraph) -> BoundReport:
    """max(Delta, Delta*) for the layered tensor of h, with its Gershgorin disks.

    Delta is the largest vertex degree; Delta* is the largest padding-vertex
    degree.  Padding vertex n+i lies on the edges of size <= i, so Delta* is
    the count of edges smaller than k_max.  Every key of the layered tensor
    holds 1/(k_max-1)! at each of its k_max! positions, so slice i sums to the
    number of keys holding i: the degree of i.  For k_max >= 2 no key is
    diagonal, so each disk is (0, that degree) and the bound dominates them
    all.  For k_max = 1 every key (i,) is diagonal, holding 1: the disk of a
    vertex on an edge is (1, 0).  The disks are counted from the edges, as
    ``gershgorin_disks(e_adjacency_tensor(h))`` would give them, with no
    tensor built; equal values share one ``Fraction``.
    """
    degrees, padding, bound = _slice_masses(h)
    shared = {c: Fraction(c) for c in {0, *degrees.values(), *padding}}
    masses = list(map(shared.__getitem__, chain(map(degrees.get, range(1, h.n + 1), repeat(0)), padding)))
    zero = repeat(shared[0])
    disks = tuple(zip(zero, masses) if padding else zip(masses, zero))  # no padding: k_max = 1
    return BoundReport(*bound, disks)


@dataclass(frozen=True)
class EigenPair:
    """Result of the bracketed power iteration.

    ``value`` is the midpoint of the final ratio bracket; ``converged`` says
    whether the bracket closed within tolerance before the iteration cap.
    """

    value: float
    vector: tuple[float, ...]
    residual: float
    iterations: int
    converged: bool
    bracket_low: float
    bracket_high: float


def power_iteration(t: SymTensor, tol: float = 1e-10, max_iter: int = 10000) -> EigenPair:
    """Dominant eigenvalue of a nonnegative symmetric tensor, with brackets.

    Starts from the all-ones vector on the support (indices with a nonzero
    slice; zero-slice indices stay pinned at 0) and repeats
    x <- normalize((t x^{m-1})^{1/(m-1)}).  At each step the componentwise
    ratios (t x^{m-1})_i / x_i^{m-1} bracket the dominant eigenvalue from
    below and above.  Iteration stops in one of three ways: the bracket
    closes to within tol, the cap of max_iter steps is reached, or a support
    component of the next x underflows.  ``converged`` says whether the
    bracket closed; reducible inputs may stall with it open, which is
    reported rather than raised.  Values whose first contraction overflows
    are refused: every later x is at most 1, so that contraction is the
    largest.
    """
    m = t.order
    if m < 2:
        raise ValueError("power iteration needs a tensor of order at least 2")
    if not tol >= 0:  # a NaN tolerance would never be met
        raise ValueError("tolerance must be nonnegative")
    _integer(max_iter, "max_iter", 1)
    values = _value_objects(t.entries.values()).values()  # one test per value object
    if any(v < 0 for v in values):
        raise ValueError("power iteration needs a nonnegative tensor")
    if any(not v < math.inf for v in values):  # NaN compares false, so only this test catches it
        raise ValueError("power iteration needs finite values")
    support = sorted(set(chain.from_iterable(t.entries)))
    if not support:
        raise ValueError("power iteration needs a nonzero tensor")

    plan = _float_plan(t.entries, m)
    # x and each contraction are indexed from 1, as _float_fold reads and writes them: slot 0 is padding
    size, power, root = t.dim + 1, m - 1, 1.0 / (m - 1)
    x = [0.0] * size
    for i in support:
        x[i] = 1.0
    contracted = _float_fold(plan, x)
    # with finite nonnegative values, x = 1 gives the largest contraction: every later x is at most 1
    if not max(contracted) < math.inf:
        raise ValueError("power iteration needs values whose contraction stays finite")
    for iterations in range(1, max_iter + 1):
        ratios = [contracted[i] / x[i] ** power for i in support]
        low, high = min(ratios), max(ratios)
        if high - low <= tol or iterations == max_iter:
            break
        # _float_fold leaves slot 0 and every index off the support at 0.0, and 0.0 ** root is 0.0
        nxt = [c ** root for c in contracted]
        top = max(nxt)  # every component is finite and nonnegative: slot 0's 0.0 never wins
        nxt = [v / top for v in nxt]
        if min(map(nxt.__getitem__, support)) ** power < 1e-300:
            # a support component underflowed: the next ratios would divide by ~0
            break
        x = nxt
        contracted = _float_fold(plan, x)
    converged = high - low <= tol

    value = (low + high) / 2.0
    residual = max(abs(contracted[i] - value * x[i] ** power) for i in range(1, size))
    return EigenPair(
        value=value,
        vector=tuple(islice(x, 1, None)),
        residual=residual,
        iterations=iterations,
        converged=converged,
        bracket_low=low,
        bracket_high=high,
    )


@dataclass(frozen=True)
class GraphCaseReport:
    """Agreement checks between a graph's matrix view and its layered tensor."""

    c2: Fraction
    block_ok: bool
    graph_value: float
    layered_value: float
    graph_converged: bool
    layered_converged: bool
    relation_ok: bool
    zero_eigenpair_ok: bool


def graph_consistency_check(g: Hypergraph) -> GraphCaseReport:
    """For a 2-uniform hypergraph, confirm the layered tensor is the bordered matrix.

    The order-2 layered tensor must look like [[c_2 A, 0], [0, 0]] with A the
    shared-edge adjacency matrix and c_2 = 1 under the handshake policy, its
    dominant eigenvalue must be c_2 times the matrix one within 1e-8, and the
    padding axis must carry an exact zero eigenpair.  A is the raw 2-layer
    tensor: one canonical key per edge, the nonzero upper triangle.
    """
    if g.p == 0 or any(len(e) != 2 for e in g.edges):
        raise ValueError("graph consistency check needs a 2-uniform hypergraph with edges")
    t = e_adjacency_tensor(g)
    a = layer_tensor_raw(g, 2)
    c2 = Fraction(1)

    # equal key maps: the n x n block is c_2 A = A and no key touches index n+1
    block_ok = t.entries == a.entries
    graph_pair = power_iteration(a)
    layered_pair = power_iteration(t)
    relation_ok = (
        graph_pair.converged
        and layered_pair.converged
        and abs(layered_pair.value - graph_pair.value) <= 1e-8
    )

    axis = [Fraction(0)] * g.n + [Fraction(1)]
    zero_ok = check_eigenpair(t, Fraction(0), axis, 0).passed

    return GraphCaseReport(
        c2=c2,
        block_ok=block_ok,
        graph_value=graph_pair.value,
        layered_value=layered_pair.value,
        graph_converged=graph_pair.converged,
        layered_converged=layered_pair.converged,
        relation_ok=relation_ok,
        zero_eigenpair_ok=zero_ok,
    )
