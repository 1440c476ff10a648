"""Error branches no other test reaches, each with its message word for word."""

from __future__ import annotations

import re

import pytest

from hgtensor import (
    HomogeneousPolynomial,
    Hypergraph,
    SymTensor,
    banerjee_alpha,
    check_eigenpair,
    decompose,
    degree,
    dnf_extract,
    dnf_extract_structural,
    is_k_adjacent,
    layer_coefficients,
    layer_counts_from_tensor,
    layer_tensor_raw,
    partitions_count,
    power_iteration,
    reconstruct,
    vertex_degrees_from_tensor,
)

TRIANGLE = SymTensor(2, 3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
PATH = Hypergraph(3, [{1, 2}, {2, 3}])

CASES = {
    "float vertex": (lambda: Hypergraph(3, ((1.5,),)), "vertex index must be an integer, got 1.5"),
    "bool vertex": (lambda: Hypergraph(3, ((True,),)), "vertex index must be an integer, got True"),
    # positions and vertex sets are checked as keys and edges are
    "float position": (lambda: TRIANGLE.get((1.0, 2)), "index (1.0, 2) has a non-integer index"),
    "bool position": (lambda: TRIANGLE.get((True, 2)), "index (True, 2) has a non-integer index"),
    "bool degree vertex": (lambda: degree(PATH, True), "vertex index must be an integer, got True"),
    "float adjacency vertex": (lambda: is_k_adjacent(PATH, [1.5]), "vertex index must be an integer, got 1.5"),
    "negative variable count": (
        lambda: HomogeneousPolynomial(2, -1),
        "variable count must be nonnegative",
    ),
    "dnf on a repeated index": (
        lambda: dnf_extract(SymTensor(2, 2, {(1, 1): 1}), 1, 1),
        "key (1, 1) repeats an index",
    ),
    "negative tensor dim": (lambda: SymTensor(2, -1, {}), "tensor dimension must be nonnegative"),
    # a slice index is checked as a key's component is, and a vertex count as a vertex index
    "slice sum at 0": (lambda: TRIANGLE.slice_sum(0), "index (0,) has an index outside [1, 3]"),
    "float slice sum": (lambda: TRIANGLE.slice_sum(1.5), "index (1.5,) has a non-integer index"),
    "bool slice sum": (lambda: TRIANGLE.slice_sum(True), "index (True,) has a non-integer index"),
    "bool degrees vertex count": (
        lambda: vertex_degrees_from_tensor(TRIANGLE, True),
        "vertex count must be an integer, got True",
    ),
    "float layer counts vertex count": (
        lambda: layer_counts_from_tensor(TRIANGLE, 2.0),
        "vertex count must be an integer, got 2.0",
    ),
    # one vertex-count rule for the hypergraph and the layered readers
    "float hypergraph vertex count": (
        lambda: Hypergraph(2.5, ((1, 2),)),
        "vertex count must be an integer, got 2.5",
    ),
    "bool hypergraph vertex count": (
        lambda: Hypergraph(True, ((1,),)),
        "vertex count must be an integer, got True",
    ),
    "float reconstruct vertex count": (
        lambda: reconstruct(TRIANGLE, 2.0),
        "vertex count must be an integer, got 2.0",
    ),
    # k_max is an integer by the same rule
    "float unit-policy k_max": (
        lambda: layer_coefficients("unit", 2.5),
        "k_max must be an integer, got 2.5",
    ),
    "bool handshake-policy k_max": (
        lambda: layer_coefficients("handshake", True),
        "k_max must be an integer, got True",
    ),
    # both DNF readers check the size, then the layered shape, then the range
    "float dnf size": (lambda: dnf_extract(TRIANGLE, 2, 1.5), "size must be an integer, got 1.5"),
    "bool structural dnf size": (
        lambda: dnf_extract_structural(TRIANGLE, 2, True),
        "size must be an integer, got True",
    ),
    "dnf shape before size range": (
        lambda: dnf_extract(TRIANGLE, 3, 9),
        "tensor dim 3 does not match n=3, order 2",
    ),
    "structural dnf shape before size range": (
        lambda: dnf_extract_structural(TRIANGLE, 3, 9),
        "tensor dim 3 does not match n=3, order 2",
    ),
    "structural dnf size out of range": (
        lambda: dnf_extract_structural(TRIANGLE, 2, 3),
        "size 3 out of range [1, 2]",
    ),
    # orders, dimensions and layer indices are integers by the same rule
    "bool tensor order": (lambda: SymTensor(True, 3, {(1,): 1}), "tensor order must be an integer, got True"),
    "float tensor dim": (lambda: SymTensor(2, 3.5, {(1, 2): 1}), "tensor dimension must be an integer, got 3.5"),
    "float polynomial degree": (
        lambda: HomogeneousPolynomial(2.0, 3, {(1, 2): 1}),
        "polynomial degree must be an integer, got 2.0",
    ),
    "bool variable count": (lambda: HomogeneousPolynomial(2, True), "variable count must be an integer, got True"),
    "float layer index": (lambda: decompose(PATH).layer(2.0), "layer index must be an integer, got 2.0"),
    "bool layer index": (lambda: decompose(PATH).layer(True), "layer index must be an integer, got True"),
    "bool layer tensor order": (
        lambda: layer_tensor_raw(Hypergraph(3), True),
        "tensor order must be an integer, got True",
    ),
    # the counting and solver arguments are integers by the same rule
    "float partition total": (lambda: partitions_count(2.0, 1), "m must be an integer, got 2.0"),
    "bool partition total": (lambda: partitions_count(True, 1), "m must be an integer, got True"),
    "float part count": (lambda: partitions_count(3, 1.0), "s must be an integer, got 1.0"),
    "float alpha k_max": (lambda: banerjee_alpha(3.0, 2), "k_max must be an integer, got 3.0"),
    "bool alpha size": (lambda: banerjee_alpha(3, True), "s must be an integer, got True"),
    "float max_iter": (lambda: power_iteration(TRIANGLE, max_iter=2.5), "max_iter must be an integer, got 2.5"),
    "bool max_iter": (lambda: power_iteration(TRIANGLE, max_iter=True), "max_iter must be an integer, got True"),
    # check_eigenpair refuses a tolerance as power_iteration does
    "negative eigenpair tolerance": (
        lambda: check_eigenpair(TRIANGLE, 2, [1, 1, 1], tol=-1),
        "tolerance must be nonnegative",
    ),
    "NaN eigenpair tolerance": (
        lambda: check_eigenpair(TRIANGLE, 2, [1, 1, 1], tol=float("nan")),
        "tolerance must be nonnegative",
    ),
    "degrees below 0": (
        lambda: vertex_degrees_from_tensor(TRIANGLE, -1),
        "original vertex count -1 outside [0, 3]",
    ),
    "degrees above dim": (
        lambda: vertex_degrees_from_tensor(TRIANGLE, 4),
        "original vertex count 4 outside [0, 3]",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_message(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_symtensor_repr():
    assert repr(TRIANGLE) == "SymTensor(order=2, dim=3, nnz_keys=3)"
