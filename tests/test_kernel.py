"""The one leave-one-out kernel against the per-index loops it replaced.

``reference_slice_sum``, ``reference_apply`` and ``reference_gershgorin``
are the original hand-written loops, kept verbatim (with ``self`` renamed to
``t``) as the reference.  Exact results must be equal; float results must be
equal bit for bit, since the kernel adds the same terms in the same order.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor import (
    Hypergraph,
    SymTensor,
    e_adjacency_tensor,
    gershgorin_disks,
    laplacian,
    layer_tensor_eigen_normalized,
)

KERNEL = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _arrangements(key):
    """Distinct orderings of a multiset of indices."""
    total = math.factorial(len(key))
    for c in Counter(key).values():
        total //= math.factorial(c)
    return total


def reference_slice_sum(t: SymTensor, i: int):
    total = Fraction(0)
    for key, value in t.entries.items():
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
    for key, value in t.entries.items():
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


@st.composite
def tensors(draw, orders=st.integers(1, 4)):
    """Small tensors whose keys may repeat indices, with signed rational values."""
    order = draw(orders)
    dim = draw(st.integers(1, 5))
    keys = draw(st.lists(st.lists(st.integers(1, dim), min_size=order, max_size=order), max_size=8))
    entries = {tuple(sorted(key)): draw(rationals) for key in keys}
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
@given(st.data())
def test_float_apply_is_bit_identical(data):
    t = data.draw(tensors())
    x = data.draw(vectors(t, floats))
    applied = t.apply(x)
    assert applied == reference_apply(t, x)
    if t.order > 1:
        assert all(type(v) is float for v in applied)
