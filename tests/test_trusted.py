"""Builders that skip the public constructors' checks, held to those checks.

Package builders whose output is canonical by construction hand it to its
type without a second validation.  Every such result must equal the same
type rebuilt through its validating constructor from the same fields, with
exact coefficients kept as ``Fraction`` (``Fraction(1) == 1.0`` would hide a
float).  The parser must answer any text with such a hypergraph or with a
``ValueError`` that names the line, and each object is validated once.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hgtensor.hypergraph as hypergraph_module
import hgtensor.polynomials as polynomials_module
import hgtensor.symtensor as symtensor_module
from hgtensor import (
    Hypergraph,
    banerjee_tensor,
    decompose,
    direct_sum,
    dnf_extract,
    e_adjacency_tensor,
    graph_consistency_check,
    hypergraph_polynomial,
    layer_counts_from_tensor,
    layer_tensor_degree_normalized,
    layer_tensor_eigen_normalized,
    layer_tensor_raw,
    layered_uniform,
    parse_hypergraph,
    poly_from_tensor,
    reconstruct,
    tensor_from_poly,
    two_section,
    vertex_degrees_from_tensor,
)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

PARSER_MESSAGES = (
    "missing header: expected a vertex count line",
    "duplicate hyperedge in edge family",
)


def rebuilt(obj):
    """The same object passed through its type's validating constructor."""
    return type(obj)(*(getattr(obj, f.name) for f in fields(obj)))


def assert_validated_equal(obj) -> None:
    assert rebuilt(obj) == obj


def assert_exact(values) -> None:
    assert all(type(v) is Fraction for v in values)


def hg_text(h: Hypergraph) -> str:
    return f"{h.n}\n" + "".join(" ".join(map(str, sorted(e))) + "\n" for e in h.edges)


@st.composite
def mixed_hypergraphs(draw) -> Hypergraph:
    """Nonempty hypergraphs on up to 7 vertices with edges of 1..5 vertices."""
    n = draw(st.integers(1, 7))
    edge = st.frozensets(st.integers(1, n), min_size=1, max_size=min(n, 5))
    return Hypergraph(n, tuple(draw(st.lists(edge, min_size=1, max_size=8, unique=True))))


class TestTrustedBuilders:
    @PROPERTY
    @given(mixed_hypergraphs())
    def test_hypergraph_builders(self, h):
        parsed = parse_hypergraph(hg_text(h))
        assert parsed == h
        layers = decompose(h).layers
        padded = layered_uniform(h).uniform.base  # every layer padded with its suffix, unchecked
        results = [parsed, *layers, direct_sum(layers), two_section(h), padded]
        results.append(reconstruct(e_adjacency_tensor(h), h.n))
        for g in results:
            assert_validated_equal(g)
        assert set(results[-1].edges) == set(h.edges)

    @PROPERTY
    @given(mixed_hypergraphs())
    def test_tensor_and_polynomial_builders(self, h):
        t = e_adjacency_tensor(h)
        rival = banerjee_tensor(h)
        p = poly_from_tensor(t)
        homogenized = hypergraph_polynomial(h)
        back = tensor_from_poly(p)
        builders = (layer_tensor_degree_normalized, layer_tensor_raw)
        layers = enumerate(decompose(h).layers, start=1)
        layer_tensors = [build(layer, k) for k, layer in layers for build in builders]
        for obj in (t, rival, back, *layer_tensors):
            assert_validated_equal(obj)
            assert_exact(obj.entries.values())
        for obj in (p, homogenized):
            assert_validated_equal(obj)
            assert_exact(obj.monomials.values())
        assert back == t
        assert homogenized == p

    @PROPERTY
    @given(mixed_hypergraphs())
    def test_float_tensor_gives_fraction_coefficients(self, h):
        layer = decompose(h).layer(h.k_max)
        p = poly_from_tensor(layer_tensor_eigen_normalized(layer))
        assert_validated_equal(p)
        assert_exact(p.monomials.values())


class TestParserFuzz:
    tokens = st.sampled_from(["-1", "0", "1", "2", "3", "4", "9", "+2", "1_0", "x", "1.5", "#"])
    lines = st.lists(tokens, max_size=4).map(" ".join)
    hg_like = st.lists(lines, max_size=6).map("\n".join)
    any_text = st.text(alphabet=" \t\n\r#-+_x0123456789", max_size=40) | st.text(max_size=40)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(hg_like | any_text)
    def test_any_text_parses_or_names_its_fault(self, text):
        try:
            h = parse_hypergraph(text)
        except ValueError as exc:
            message = str(exc)
            assert re.match(r"line [1-9][0-9]*: ", message) or message in PARSER_MESSAGES
        else:
            assert_validated_equal(h)

    def test_line_errors_come_before_the_duplicate_edge(self):
        with pytest.raises(ValueError) as info:
            parse_hypergraph("3\n1 2\n2 1\n1 9\n")
        assert str(info.value) == "line 4: vertex index 9 out of range [1, 3]"


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of the canonical-key validator and of the per-edge check."""
    counter: Counter = Counter()

    def counting(name, real):
        def wrapper(*args):
            counter[name] += 1
            return real(*args)

        return wrapper

    canonical = counting("_canonical", symtensor_module._canonical)
    monkeypatch.setattr(symtensor_module, "_canonical", canonical)
    monkeypatch.setattr(polynomials_module, "_canonical", canonical)
    monkeypatch.setattr(
        hypergraph_module, "_as_edge", counting("_as_edge", hypergraph_module._as_edge)
    )
    return counter


K6_TEXT = "8\n1\n1 2\n2 3 4\n1 2 3 4 5\n3 4 5 6 7 8\n2 5\n"


class TestValidatedOnce:
    def test_retrieval_requests(self, calls):
        h = parse_hypergraph(K6_TEXT)
        t = e_adjacency_tensor(h)
        vertex_degrees_from_tensor(t, h.n)
        layer_counts_from_tensor(t, h.n)
        reconstruct(t, h.n)
        dnf_extract(t, h.n, 2)
        t.to_coo()
        assert calls == {}

    def test_banerjee_tensor(self, calls):
        banerjee_tensor(parse_hypergraph(K6_TEXT))
        assert calls["_canonical"] == 0

    def test_homogenization_checks_each_layer_tensor_and_the_scaling(self, calls):
        h = parse_hypergraph(K6_TEXT)
        assert h.k_max == 6
        hypergraph_polynomial(h)
        assert calls == {}  # no layer tensor, homogenization step or scaling validates again

    def test_graph_check(self, calls):
        graph_consistency_check(parse_hypergraph("5\n1 2\n2 3\n3 4\n4 5\n1 5\n1 3\n"))
        assert calls["_canonical"] == 0  # the raw 2-layer tensor is canonical by construction
