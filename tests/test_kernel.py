"""Slice-sum, contraction and key-splitting kernels against the per-index loops they replaced.

``reference_slice_sum``, ``reference_apply`` and ``reference_gershgorin``
are the original hand-written loops, kept as the reference with ``self``
renamed to ``t`` and the keys taken in sorted order, the order every float
sum adds in.  Exact results must be equal; float results must be
equal bit for bit, since the kernels add the same products in the same order:
keys of distinct indices up to ``_CHUNK`` wide go through one unrolled loop
per width, every other key through one ``math.prod`` per target, and the
exact kernel divides each key's product by one factor per target.
``reference_power_iteration`` runs ``power_iteration``'s loop on
``reference_apply`` and must return the same ``EigenPair`` bit for bit.
``reference_reconstruct`` and ``reference_padding_evaluation`` test every
index of a key against n, where the kernels split each sorted key once;
``reference_dnf`` is the paper's differencing of two padding evaluations of the
booleanized keys, which ``dnf_extract`` reads off each key's smallest padding index.
``_arrangements`` counts a key's orbit with a ``Counter``, against which the
one orbit-size rule, ``multiplicity_weight``, is held.  ``reference_coo`` is
the COO writer that joined ``str`` of every index and formatted every value.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgtensor import (
    EigenPair,
    Hypergraph,
    SymTensor,
    banerjee_tensor,
    check_eigenpair,
    dnf_extract,
    e_adjacency_tensor,
    gershgorin_disks,
    laplacian,
    layer_counts_from_tensor,
    layer_tensor_eigen_normalized,
    multiplicity_weight,
    parse_hypergraph,
    poly_from_tensor,
    power_iteration,
    reconstruct,
    vertex_degrees_from_tensor,
)
from hgtensor.symtensor import _CHUNK, _LINEAR_CHUNK, _coo_rows, _exact_unrolled, _float_plan, _slice_numerators, _unrolled
from hgtensor.symtensor import format_value
from hgtensor.uniformize import _layered_order

from test_growth import pairs_text

KERNEL = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _arrangements(key):
    """Distinct orderings of a multiset of indices."""
    total = math.factorial(len(key))
    for c in Counter(key).values():
        total //= math.factorial(c)
    return total


def reference_slice_sum(t: SymTensor, i: int):
    total = Fraction(0)
    for key, value in sorted(t.entries.items()):
        if i in key:
            rest = list(key)
            rest.remove(i)
            total += value * _arrangements(rest)
    return total


def reference_apply(t: SymTensor, x) -> list:
    out: list = [Fraction(0)] * t.dim
    for key in sorted(t.entries):
        value = t.entries[key]
        for i in sorted(set(key)):
            rest = list(key)
            rest.remove(i)
            prod = value * _arrangements(rest)
            for j in rest:
                prod = prod * x[j - 1]
            out[i - 1] = out[i - 1] + prod
    return out


def reference_gershgorin(t: SymTensor):
    diagonal = {}
    radii = [Fraction(0)] * t.dim
    for key, value in sorted(t.entries.items()):
        first = key[0]
        if all(i == first for i in key):
            diagonal[first] = value
            continue
        for i in sorted(set(key)):
            rest = list(key)
            rest.remove(i)
            radii[i - 1] += abs(value) * _arrangements(rest)
    disks = []
    for i in range(1, t.dim + 1):
        disks.append((diagonal.get(i, Fraction(0)), radii[i - 1]))
    return tuple(disks)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def _fresh(value):
    """An equal value, in a new object unless it is a small int."""
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    return type(value)(repr(value))


@st.composite
def tensors(draw, orders=st.integers(1, 4), values=rationals):
    """Small tensors whose keys may repeat indices, with signed values.

    Every key holds one value object, an object drawn from a small pool, a
    new object of its own, or a mix of the last two: the slice sums count the
    keys of a tensor with one value object and walk any other.
    """
    order = draw(orders)
    dim = draw(st.integers(1, 5))
    keys = draw(st.lists(st.lists(st.integers(1, dim), min_size=order, max_size=order), max_size=8))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    sharing = draw(st.sampled_from(["one", "pooled", "fresh", "mixed"]))
    entries = {}
    for key in keys:
        value = pool[0] if sharing == "one" else draw(st.sampled_from(pool))
        fresh = sharing == "fresh" or (sharing == "mixed" and draw(st.booleans()))
        entries[tuple(sorted(key))] = _fresh(value) if fresh else value
    return SymTensor(order, dim, entries)


@st.composite
def hypergraphs(draw, uniform: bool = False):
    n = draw(st.integers(1, 6))
    size = st.just(draw(st.integers(1, n))) if uniform else st.integers(1, n)
    edges = draw(
        st.lists(
            size.flatmap(lambda s: st.sets(st.integers(1, n), min_size=s, max_size=s)),
            min_size=1,
            max_size=8,
            unique_by=frozenset,
        )
    )
    return Hypergraph(n, tuple(frozenset(e) for e in edges))


def vectors(t: SymTensor, elements):
    return st.lists(elements, min_size=t.dim, max_size=t.dim)


def assert_matches_reference(t: SymTensor) -> None:
    expected = [reference_slice_sum(t, i) for i in range(1, t.dim + 1)]
    assert t.slice_sums() == expected
    assert [t.slice_sum(i) for i in range(1, t.dim + 1)] == expected
    assert gershgorin_disks(t) == reference_gershgorin(t)


@KERNEL
@given(st.lists(st.integers(-3, 4), max_size=14))
def test_multiplicity_weight_on_unsorted_sequences(key):
    # repeats need not be adjacent: the run walk must sort first
    assert multiplicity_weight(key) == _arrangements(key)


@st.composite
def banerjee_tensors(draw):
    """Banerjee tensors of orders 5-8, whose keys repeat an edge's vertices in long runs."""
    n = draw(st.integers(5, 8))
    order = draw(st.integers(5, n))
    top = st.frozensets(st.integers(1, n), min_size=order, max_size=order)
    smaller = st.frozensets(st.integers(1, n), min_size=1, max_size=order - 1)
    edges = [draw(top), *draw(st.lists(smaller, min_size=1, max_size=3, unique=True))]
    return banerjee_tensor(Hypergraph(n, tuple(edges)))


@KERNEL
@given(banerjee_tensors(), st.data())
def test_banerjee_tensors_of_high_order(t, data):
    assert 5 <= t.order <= 8
    assert_matches_reference(t)
    for x in (data.draw(vectors(t, rationals)), data.draw(vectors(t, floats))):
        assert t.apply(x) == reference_apply(t, x)
    assert t.nnz_positions() == sum(_arrangements(key) for key in t.entries)
    expected = {key: value * _arrangements(key) for key, value in t.entries.items()}
    assert poly_from_tensor(t).monomials == expected


@KERNEL
@given(st.data())
def test_exact_apply_on_rational_vectors(data):
    t = data.draw(tensors())
    x = data.draw(vectors(t, rationals | st.just(Fraction(0))))
    applied = t.apply(x)
    assert applied == reference_apply(t, x)
    assert all(type(v) is Fraction for v in applied)
    assert_matches_reference(t)


@KERNEL
@given(st.data())
def test_repeated_indices_from_scale_add_identity(data):
    t = data.draw(tensors(orders=st.integers(2, 4)))
    shifted = t.scale_add_identity(data.draw(rationals), data.draw(rationals))
    x = data.draw(vectors(shifted, rationals))
    assert shifted.apply(x) == reference_apply(shifted, x)
    assert_matches_reference(shifted)


@KERNEL
@given(st.data())
def test_laplacian_with_negative_values(data):
    h = data.draw(hypergraphs())
    a = e_adjacency_tensor(h)
    degree_seq = data.draw(st.lists(st.integers(0, 3), min_size=a.dim, max_size=a.dim))
    lap = laplacian(a, degree_seq)
    x = data.draw(vectors(lap, rationals))
    assert lap.apply(x) == reference_apply(lap, x)
    assert_matches_reference(lap)


@KERNEL
@given(st.data())
def test_order_one(data):
    t = data.draw(tensors(orders=st.just(1)))
    for x in (data.draw(vectors(t, rationals)), data.draw(vectors(t, floats))):
        assert t.apply(x) == reference_apply(t, x)
    assert_matches_reference(t)
    assert all(radius == 0 for _, radius in gershgorin_disks(t))


@KERNEL
@given(st.data())
def test_float_valued_eigen_normalized_tensors(data):
    t = layer_tensor_eigen_normalized(data.draw(hypergraphs(uniform=True)))
    x = data.draw(vectors(t, floats))
    assert t.apply(x) == reference_apply(t, x)
    assert_matches_reference(t)


@KERNEL
@given(tensors(values=floats))
def test_float_slice_sums_and_radii_are_bit_identical(t):
    # float values take the per-target walk in key order, shared or not
    assert_matches_reference(t)


def float_reads(t: SymTensor) -> list:
    """Every sum read off t, with each float as its exact hex form, so equal means bit-equal."""
    disks = [v for disk in gershgorin_disks(t) for v in disk]
    reads = [*t.slice_sums(), *(t.slice_sum(i) for i in range(1, t.dim + 1)), t.total_sum(), *disks]
    return [v.hex() if isinstance(v, float) else v for v in reads]


def assert_insertion_order_is_invisible(t: SymTensor) -> None:
    backwards = SymTensor(t.order, t.dim, dict(reversed(t.entries.items())))
    assert backwards == t
    assert float_reads(backwards) == float_reads(t)
    # the slice sums add what the contraction adds against all ones, in the same order
    sums, applied = t.slice_sums(), t.apply([1.0] * t.dim)
    assert [float(v).hex() for v in sums] == [float(v).hex() for v in applied]


def test_float_sums_in_key_order_whatever_the_insertion_order():
    # 1e16 and -1e16 cancel exactly only when they are added next to each other:
    # summed in insertion order, the two tensors' total_sum read 0.0 and 2.0
    assert_insertion_order_is_invisible(SymTensor(2, 4, {(1, 4): 1.0, (1, 2): 1e16, (1, 3): -1e16}))


@KERNEL
@given(tensors(values=floats | st.sampled_from([1e16, -1e16, 3e-16])))
def test_float_sums_do_not_depend_on_insertion_order(t):
    assert_insertion_order_is_invisible(t)


@pytest.mark.parametrize(
    "read",
    [
        lambda t: vertex_degrees_from_tensor(t, 40),
        lambda t: layer_counts_from_tensor(t, 40),
        SymTensor.slice_sums,
        gershgorin_disks,
        lambda t: dnf_extract(t, 40, 1),
    ],
    ids=["degrees", "layer counts", "slice sums", "gershgorin", "dnf"],
)
def test_layered_readers_keep_nothing_per_key(read):
    # every key of the layered tensor holds one value object, so the slice sums
    # count index occurrences at once: no (key, value) pair or copy per key
    t = e_adjacency_tensor(Hypergraph(40, tuple(map(frozenset, combinations(range(1, 41), 3)))))
    assert len(t.entries) == 9880
    tracemalloc.start()
    try:
        read(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(t.entries), f"{peak / len(t.entries):.1f} B per key"


@st.composite
def distinct_key_tensors(draw, widths=st.integers(2, 70), values=rationals):
    """Tensors of order 2-70 whose keys hold distinct indices: each leaves out 0-3 of 1..dim.

    A value may also be 1/(m−1)!, the layered tensor's, whose float coefficient is 1.0, so runs
    of bare keys and of (key, c) pairs alternate.
    """
    order = draw(widths)
    dim = order + draw(st.integers(0, 3))
    left_out = st.sets(st.integers(1, dim), min_size=dim - order, max_size=dim - order)
    keys = draw(st.lists(left_out, min_size=1, max_size=4))
    unit = Fraction(1, math.factorial(order - 1))
    entries = {tuple(i for i in range(1, dim + 1) if i not in out): draw(st.just(unit) | values) for out in keys}
    return SymTensor(order, dim, entries)


@KERNEL
@given(st.data())
def test_float_apply_is_bit_identical(data):
    # the distinct-key tensors cross _CHUNK, where keys leave the unrolled loops
    for t in (data.draw(tensors()), data.draw(distinct_key_tensors())):
        x = data.draw(vectors(t, floats))
        applied = t.apply(x)
        assert applied == reference_apply(t, x)
        if t.order > 1:
            assert all(type(v) is float for v in applied)


@KERNEL
@given(st.data())
def test_exact_apply_with_zero_and_negative_components(data):
    # a key of distinct indices divides one product by each component; a zero component
    # leaves the division to the per-target products, and a negative one must divide exactly
    t = data.draw(distinct_key_tensors(st.integers(2, 8)) | hypergraphs().map(e_adjacency_tensor))
    x = data.draw(vectors(t, rationals.filter(bool)))
    x[data.draw(st.integers(0, t.dim - 1))] *= -1
    assert t.apply(x) == reference_apply(t, x)
    x[data.draw(st.integers(0, t.dim - 1))] = Fraction(0)
    assert t.apply(x) == reference_apply(t, x)


@st.composite
def residual_cases(draw):
    """(t, x): a layered, Banerjee or shifted tensor, and x with a negative and a zero component."""
    kind = draw(st.sampled_from(["layered", "banerjee", "shifted"]))
    if kind == "banerjee":
        t = draw(banerjee_tensors())
    else:
        t = e_adjacency_tensor(draw(hypergraphs()))
    if kind == "shifted":  # diagonal keys repeat an index
        t = t.scale_add_identity(draw(rationals), draw(rationals.filter(bool)))
    x = draw(vectors(t, rationals))
    x[draw(st.integers(0, t.dim - 1))] *= -1
    x[draw(st.integers(0, t.dim - 1))] = Fraction(0)
    return t, x


def wide_case(width: int) -> tuple[SymTensor, list]:
    """(t, x): two keys of ``width`` distinct indices over width + 1; x is 0 at index 1, which only the first holds.

    The reference contraction of a key of w indices makes about w² Fraction products, 0.2 s
    at w = 256, so the widths around the exact loop's cap are fixed examples, not drawn.
    """
    keys = (tuple(range(1, width + 1)), tuple(range(2, width + 2)))
    t = SymTensor(width, width + 1, dict(zip(keys, (Fraction(-2, 3), Fraction(5, 2)))))
    x = [Fraction(i % 4 + 1, i % 3 + 1) for i in range(width + 1)]
    x[0], x[width // 2] = Fraction(0), -x[width // 2]
    return t, x


@KERNEL
@given(residual_cases(), rationals)
@example(wide_case(_LINEAR_CHUNK - 1), Fraction(3, 2))
@example(wide_case(_LINEAR_CHUNK), Fraction(-1, 4))
@example(wide_case(_LINEAR_CHUNK + 1), Fraction(0))
def test_exact_residual_matches_the_reference_contraction(case, value):
    # the generated exact loop takes keys of distinct indices with no zero x; a zero x hands
    # its key to the per-target walk, and a negative one must divide exactly
    t, x = case
    applied = reference_apply(t, x)
    expected = max(abs(applied[i] - value * x[i] ** (t.order - 1)) for i in range(t.dim))
    assert check_eigenpair(t, value, x, 0).residual == expected


def test_exact_loop_compiles_once_per_width_up_to_its_cap():
    _exact_unrolled.cache_clear()
    compiled = 0
    for width in (2, 3, _LINEAR_CHUNK, _LINEAR_CHUNK + 1):
        keys = (tuple(range(1, width + 1)), tuple(range(2, width + 2)))
        t = SymTensor(width, width + 1, dict(zip(keys, (Fraction(1, 3), Fraction(-2)))))
        x = [Fraction(i % 4 + 1, i % 3 + 1) for i in range(t.dim)]
        assert t.apply(x) == t.apply(x)
        assert check_eigenpair(t, Fraction(1), x, 0).residual > 0
        compiled += width <= _LINEAR_CHUNK  # a wider key takes the per-target walk
        assert _exact_unrolled.cache_info().misses == compiled


@KERNEL
@given(hypergraphs().filter(lambda h: h.k_max >= 2))
def test_layered_plan_is_one_run_of_bare_keys(h):
    # every key of the layered tensor has distinct indices and the coefficient 1/(k-1)!·(k-1)! = 1.0
    t = e_adjacency_tensor(h)
    [(fold, entries)] = _float_plan(t.entries, t.order)
    assert fold is _unrolled(t.order, False)
    assert entries == sorted(t.entries)


def reference_power_iteration(t: SymTensor, tol: float, max_iter: int) -> EigenPair:
    """power_iteration's loop with reference_apply as the contraction."""
    m = t.order
    support = sorted({i for key in t.entries for i in key})
    x = [0.0] * t.dim
    for i in support:
        x[i - 1] = 1.0
    converged = False
    iterations = 0
    while True:
        contracted = [float(v) for v in reference_apply(t, x)]
        ratios = [contracted[i - 1] / x[i - 1] ** (m - 1) for i in support]
        low, high = min(ratios), max(ratios)
        iterations += 1
        if high - low <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        nxt = [0.0] * t.dim
        for i in support:
            nxt[i - 1] = contracted[i - 1] ** (1.0 / (m - 1))
        top = max(nxt)
        nxt = [v / top for v in nxt]
        if min(nxt[i - 1] for i in support) ** (m - 1) < 1e-300:
            break
        x = nxt
    value = (low + high) / 2.0
    residual = max(abs(contracted[i] - value * x[i] ** (m - 1)) for i in range(t.dim))
    return EigenPair(value, tuple(x), residual, iterations, converged, low, high)


def bits(pair: EigenPair) -> list:
    """The fields of an EigenPair with every float as its exact hex form, so -0.0 and NaN compare too."""
    hexed = [tuple(map(float.hex, f)) if isinstance(f, tuple) else f for f in dataclasses.astuple(pair)]
    return [f.hex() if isinstance(f, float) else f for f in hexed]


nonnegative = st.builds(Fraction, st.integers(0, 6), st.integers(1, 5))


@st.composite
def eigen_tensors(draw):
    """Nonnegative tensors of order 2 or more: layered, shifted by scale_add_identity, or wide."""
    kind = draw(st.sampled_from(["layered", "shifted", "wide"]))
    if kind == "wide":  # distinct keys on both sides of _CHUNK
        widths = st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1])
        return draw(distinct_key_tensors(widths, nonnegative.filter(bool) | st.floats(0.01, 10)))
    t = e_adjacency_tensor(draw(hypergraphs().filter(lambda h: h.k_max >= 2)))
    if kind == "shifted":  # diagonal keys with a repeated index fall between keys of distinct indices
        t = t.scale_add_identity(draw(nonnegative), draw(nonnegative.filter(bool)))
    return t


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(eigen_tensors(), st.sampled_from([0.0, 1e-10, 1e-3]), st.integers(1, 40))
def test_power_iteration_matches_the_reference_loop(t, tol, max_iter):
    assert bits(power_iteration(t, tol, max_iter)) == bits(reference_power_iteration(t, tol, max_iter))


# power_iteration keeps x indexed from 1 with slot 0 as padding, which must enter no max or min.
# The first two overflow their coefficient, so the components turn inf, then NaN: a NaN at index 1
# stays the max, where a padding 0.0 ahead of it would win and divide by zero.  The last two keep
# index 1, or the layered tensor's padding indices 4 and 5, off the support
BUFFER_EDGES = {
    "overflow at index 1": SymTensor(3, 3, {(1, 2, 3): 1e308}),
    "overflow on two keys": SymTensor(2, 3, {(1, 2): 1e308, (2, 3): 1e308}),
    "index 1 off the support": SymTensor(3, 5, {(2, 3, 5): 1e300, (2, 4, 5): 1.0}),
    "padding off the support": e_adjacency_tensor(parse_hypergraph("3\n1 2 3\n")),
}


@pytest.mark.parametrize("max_iter", [1, 2, 5, 40])
@pytest.mark.parametrize("tol", [0.0, 1e-10])
@pytest.mark.parametrize("name", BUFFER_EDGES)
def test_power_iteration_matches_the_reference_loop_at_the_buffer_edges(name, tol, max_iter):
    t = BUFFER_EDGES[name]
    assert bits(power_iteration(t, tol, max_iter)) == bits(reference_power_iteration(t, tol, max_iter))


def test_power_iteration_working_set_per_key():
    # 2001 keys of 20 distinct indices: one (key, coefficient) pair each, no term per target
    t = e_adjacency_tensor(parse_hypergraph(pairs_text(20, seed=1)))
    power_iteration(t, max_iter=1)  # the unrolled loop of width 20 is compiled once
    tracemalloc.start()
    try:
        power_iteration(t, max_iter=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 256 * len(t.entries), f"{peak / len(t.entries):.0f} B per key"


def test_apply_of_order_3000():
    # two terms of 2999 factors each: one expression of them fails to compile before 3.13
    t = SymTensor(3000, 2, {(1,) * 1500 + (2,) * 1500: Fraction(1, 7)})
    x = [Fraction(2, 3), Fraction(-1, 2)]
    assert t.apply(x) == reference_apply(t, x)


def _reference_int(value, what: str) -> int:
    """A reference slice sum as an int, raising the message the integer readers give."""
    if value.denominator != 1 or value < 0:
        raise ValueError(f"{what} is {value}, not a nonnegative integer")
    return int(value)


def reference_degrees(t: SymTensor, n: int) -> tuple[int, ...]:
    sums = (reference_slice_sum(t, i) for i in range(1, n + 1))
    return tuple(_reference_int(s, f"slice sum {i}") for i, s in enumerate(sums, start=1))


def reference_layer_counts(t: SymTensor, n: int):
    k = t.order
    sums = [reference_slice_sum(t, i) for i in range(1, t.dim + 1)]
    cumulative = [_reference_int(sums[i - 1], f"slice sum {i}") for i in range(n + 1, n + k)]
    cumulative.append(_reference_int(sum(sums) / k, "total_sum / order"))
    for j in range(1, k):
        if cumulative[j] < cumulative[j - 1]:
            raise ValueError(f"cumulative counts decrease at cardinality {j + 1}")
    return tuple(cumulative), tuple(b - a for a, b in zip([0, *cumulative], cumulative))


def outcome(read, t: SymTensor, n: int):
    """The reader's result, or the message of the ValueError it raised."""
    try:
        return read(t, n)
    except ValueError as exc:
        return f"error: {exc}"


@st.composite
def layered_shape_tensors(draw):
    """Rational tensors of dim n + order - 1, whose slice sums may be fractional or negative."""
    order = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    dim = n + order - 1
    shared = Fraction(1, math.factorial(order - 1))
    values = st.sampled_from([shared, 2 * shared, Fraction(1)]) | rationals
    keys = draw(st.lists(st.lists(st.integers(1, dim), min_size=order, max_size=order), max_size=6))
    entries = {tuple(sorted(key)): draw(values) for key in keys}
    return SymTensor(order, dim, entries), n


@KERNEL
@given(st.data())
def test_integer_readers_on_mixed_hypergraphs(data):
    h = data.draw(hypergraphs())
    t = e_adjacency_tensor(h)
    degrees = vertex_degrees_from_tensor(t, h.n)
    assert degrees == reference_degrees(t, h.n)
    assert all(type(d) is int for d in degrees)
    cumulative, per_size = layer_counts_from_tensor(t, h.n)
    assert (cumulative, per_size) == reference_layer_counts(t, h.n)
    assert cumulative[-1] == h.p and all(type(c) is int for c in cumulative + per_size)


def test_total_of_long_numerators_counts_their_shares():
    # one edge of 1200 vertices makes den over 10 000 bits long: 2399 numerators, few objects
    edges = (frozenset(range(1, 1201)), frozenset({1, 2}), frozenset({3}), frozenset({2, 5, 7}))
    h = Hypergraph(1200, edges)
    t = e_adjacency_tensor(h)
    sums, den = _slice_numerators(t.entries, t.order)
    assert den.bit_length() > 10_000 and len({id(s) for s in sums.values()}) < 10
    assert t.total_sum() == Fraction(sum(sums.values()), den) == h.k_max * h.p
    cumulative, per_size = layer_counts_from_tensor(t, h.n)
    assert cumulative[:3] == (1, 2, 3) and cumulative[-2:] == (3, 4)
    assert per_size == (1, 1, 1) + (0,) * 1196 + (1,)


@KERNEL
@given(layered_shape_tensors())
def test_integer_readers_raise_the_reference_messages(case):
    t, n = case
    for read, reference in (
        (vertex_degrees_from_tensor, reference_degrees),
        (layer_counts_from_tensor, reference_layer_counts),
    ):
        assert outcome(read, t, n) == outcome(reference, t, n)


@pytest.mark.parametrize(
    "read, entries, n, message",
    [
        (vertex_degrees_from_tensor, {(1, 3): Fraction(1, 2), (2, 2): Fraction(-1)}, 3, "slice sum 1 is 1/2"),
        (vertex_degrees_from_tensor, {(2, 2): Fraction(-1), (1, 4): Fraction(1)}, 3, "slice sum 2 is -1"),
        (layer_counts_from_tensor, {(1, 2): Fraction(1, 3)}, 2, "total_sum / order is 1/3"),
    ],
)
def test_integer_reader_messages_name_the_first_bad_slice(read, entries, n, message):
    t = SymTensor(2, n + 1, entries)
    assert outcome(read, t, n) == f"error: {message}, not a nonnegative integer"


def test_slice_sum_reads_one_index_of_a_huge_dim():
    tracemalloc.start()
    try:
        for value in (Fraction(1, 2), 0.5):  # the exact and the float branch
            t = SymTensor(3, 10**7, {(2, 5, 10**7): value})
            assert t.slice_sum(10**7) == 1
            assert t.slice_sum(3) == 0
            assert t.total_sum() == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # a dim-long list would take 80 MB


def reference_reconstruct(t: SymTensor, n: int) -> tuple[frozenset[int], ...]:
    k = _layered_order(t, n)
    edges = []
    for key, _ in t.canonical_items():
        if len(set(key)) != len(key):
            raise ValueError(f"key {key} repeats an index")
        original = tuple(i for i in key if i <= n)
        padding = tuple(i for i in key if i > n)
        expected = tuple(range(n + len(original), n + k))
        if padding != expected:
            raise ValueError(
                f"key {key} has padding {padding}, expected {expected}"
            )
        edges.append(frozenset(original))
    return tuple(edges)


def reference_padding_evaluation(monomials, n: int, zeros: int) -> dict:
    out = {}
    for key, coefficient in monomials.items():
        padding = [i - n for i in key if i > n]
        if any(j <= zeros for j in padding):
            continue
        zpart = tuple(i for i in key if i <= n)
        out[zpart] = out.get(zpart, 0) + coefficient
    return out


def reference_dnf(t: SymTensor, n: int, size: int) -> set:
    for key in t.entries:
        if len(set(key)) != len(key):
            raise ValueError(f"key {key} repeats an index")
    booleanized = dict.fromkeys(t.entries, 1)
    kept = reference_padding_evaluation(booleanized, n, size - 1)
    # zeroing every padding variable isolates the top size: nothing to subtract
    dropped = reference_padding_evaluation(booleanized, n, size) if size < t.order else {}
    return {frozenset(key) for key, count in kept.items() if count != dropped.get(key, 0)}


@st.composite
def padded_key_tensors(draw):
    """Layered-shape tensors whose keys are padded edges, some with faulty padding.

    Each key is an edge with its own padding suffix, an edge with distinct
    padding indices drawn at random (often a non-suffix), or any key at all
    over [1, dim], which may repeat original or padding indices.
    """
    order = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    dim = n + order - 1
    specials = st.integers(n + 1, dim) if order > 1 else st.nothing()
    entries = {}
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, min(n, order)))
        edge = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        suffix = list(range(n + size, n + order))
        kind = draw(st.sampled_from(["suffix", "suffix", "random padding", "any"]))
        if kind == "suffix":
            key = edge + suffix
        elif kind == "random padding":
            padding = st.lists(specials, min_size=len(suffix), max_size=len(suffix), unique=True)
            key = edge + draw(padding)
        else:
            key = draw(st.lists(st.integers(1, dim), min_size=order, max_size=order))
        entries[tuple(sorted(key))] = draw(rationals.filter(bool))
    return SymTensor(order, dim, entries), n


@KERNEL
@given(padded_key_tensors())
def test_reconstruct_matches_the_per_index_split(case):
    t, n = case
    rebuilt = outcome(reconstruct, t, n)
    expected = outcome(reference_reconstruct, t, n)
    assert (rebuilt if isinstance(rebuilt, str) else rebuilt.edges) == expected


@KERNEL
@given(padded_key_tensors())
def test_dnf_matches_the_padding_differencing(case):
    t, n = case
    for size in range(1, t.order + 1):
        expected = outcome(lambda t, n: reference_dnf(t, n, size), t, n)
        assert outcome(lambda t, n: dnf_extract(t, n, size), t, n) == expected


def reference_coo(t: SymTensor) -> str:
    lines = [f"symtensor v1 order={t.order} dim={t.dim}\n"]
    for key, value in t.canonical_items():
        lines.append(f"{' '.join(map(str, key))} {format_value(value)}\n")
    return "".join(lines)


coo_values = (
    st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 12))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e-300, -1e-300, 0.123456789012, -98765.4321098, 1 / 3, 7])
)


# (order, dim) pairs with at least 8·(dim+1) canonical keys, enough to reach the index-text rows:
# most keys of orders 2-3 over dim 10-20 hold distinct indices, every key of orders 6-8 over
# dim 3-4 and of order 200 over dim 2 repeats one
DENSE_SHAPES = [(2, 20), (3, 10), (6, 4), (7, 3), (8, 3), (8, 4), (200, 2)]


@st.composite
def coo_tensors(draw, dense=False):
    """Tensors whose values are shared objects, new per key, or a mix, on either side of the writer's rule.

    Sparse draws (orders 1-6, dim 1-6 or 10**7, up to 12 keys) hold fewer than 8·(dim+1) keys
    and take the ``%d`` rows.  Dense draws hold exactly 8·(dim+1) keys or one fewer, the
    boundary, or up to 24 keys more, and take the index-text rows from 8·(dim+1) keys on.
    """
    if dense:
        order, dim = draw(st.sampled_from(DENSE_SHAPES))
        every = list(combinations_with_replacement(range(1, dim + 1), order))
        need = 8 * (dim + 1)
        count = draw(st.integers(need - 1, need + 24))
        keys = draw(st.permutations(every))[:count]
    else:
        order = draw(st.integers(1, 6))
        dim = draw(st.integers(1, 6) | st.just(10**7))
        index = st.integers(1, dim) if dim < 10 else st.sampled_from([1, 2, 999, dim - 1, dim])
        key = st.lists(index, min_size=order, max_size=order).map(lambda k: tuple(sorted(k)))
        keys = draw(st.lists(key, max_size=12, unique=True))
    pool = draw(st.lists(coo_values, min_size=1, max_size=3))
    if draw(st.booleans()):  # equal to pool[0], yet written num/den where pool[0] is a float
        pool.append(Fraction(pool[0]))
    sharing = draw(st.sampled_from(["shared", "fresh", "mixed"]))
    entries = {}
    for k in keys:
        value = draw(st.sampled_from(pool))
        fresh = sharing == "fresh" or (sharing == "mixed" and draw(st.booleans()))
        entries[k] = _fresh(value) if fresh else value
    return SymTensor(order, dim, entries)


@KERNEL
@given(coo_tensors())
def test_coo_matches_the_joined_indices(t):
    assert t.to_coo() == reference_coo(t)


@KERNEL
@given(coo_tensors(dense=True))
def test_coo_index_texts_match_the_joined_indices(t):
    assert t.to_coo() == reference_coo(t)


def test_coo_lines_keep_no_string_per_key():
    # an eigen-normalized tensor holds one float object per key: a memo keyed
    # by value object would keep a formatted string for every one of them
    n = 20000
    path = [frozenset({i, i + 1, i + 2}) for i in range(1, n - 1)]
    fans = [frozenset({1, i, i + n // 2}) for i in range(2, n // 2, 7)]
    t = layer_tensor_eigen_normalized(Hypergraph(n, tuple(path + fans)))
    assert len({id(v) for v in t.entries.values()}) == len(t.entries)
    tracemalloc.start()
    try:
        deque(t._coo_lines(), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(t.entries)  # the sorted keys; each line takes over 60 bytes


def test_coo_rows_from_index_texts_from_eight_keys_per_index():
    # order 200 over dim 2: the texts of indices 0..2 cost no more than 24 sorted keys
    keys = list(combinations_with_replacement(range(1, 3), 200))
    for count, texts in ((23, 0), (24, 1)):
        _coo_rows.cache_clear()
        t = SymTensor(200, 2, dict.fromkeys(keys[:count], Fraction(1, 3)))
        assert t.to_coo() == reference_coo(t)
        assert _coo_rows.cache_info().misses == texts


def test_coo_rows_of_keys_past_the_cap_take_the_row_format():
    # order _LINEAR_CHUNK + 1 over dim 2, with 8·(dim+1) keys: a loop of that width is not compiled
    keys = list(combinations_with_replacement(range(1, 3), _LINEAR_CHUNK + 1))[:24]
    t = SymTensor(_LINEAR_CHUNK + 1, 2, dict.fromkeys(keys, Fraction(1, 3)))
    misses = _coo_rows.cache_info().misses
    assert t.to_coo() == reference_coo(t)
    assert _coo_rows.cache_info().misses == misses


def test_coo_index_texts_keep_no_string_per_key():
    # every 3-subset of 20 vertices: dim 20 against 1140 keys, one float object per key
    t = layer_tensor_eigen_normalized(Hypergraph(20, tuple(map(frozenset, combinations(range(1, 21), 3)))))
    assert len({id(v) for v in t.entries.values()}) == len(t.entries) >= 8 * (t.dim + 1)
    assert t.to_coo() == reference_coo(t)  # the first call generates the rows loop of width 3
    tracemalloc.start()
    try:
        deque(t._coo_lines(), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(t.entries)  # the sorted keys and 21 index texts; each line takes over 60 bytes
