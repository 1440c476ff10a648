"""Error branches no other test reaches, each with its message word for word."""

from __future__ import annotations

import re

import pytest

from hgtensor import (
    HomogeneousPolynomial,
    Hypergraph,
    SymTensor,
    WeightedHypergraph,
    banerjee_alpha,
    check_eigenpair,
    dnf_extract,
    dnf_extract_structural,
    homogenize_step,
    hypergraph_polynomial,
    layer_coefficients,
    layer_counts_from_tensor,
    layer_tensor_raw,
    layered_uniform,
    partitions_count,
    poly_from_tensor,
    power_iteration,
    reconstruct,
    vertex_augment,
    vertex_degrees_from_tensor,
)

TRIANGLE = SymTensor(2, 3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
PATH = Hypergraph(3, [{1, 2}, {2, 3}])

CASES = {
    "float vertex": (lambda: Hypergraph(3, ((1.5,),)), "vertex index must be an integer, got 1.5"),
    "bool vertex": (lambda: Hypergraph(3, ((True,),)), "vertex index must be an integer, got True"),
    # positions are checked as keys are
    "float position": (lambda: TRIANGLE.get((1.0, 2)), "index (1.0, 2) has a non-integer index"),
    "bool position": (lambda: TRIANGLE.get((True, 2)), "index (True, 2) has a non-integer index"),
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
    # orders and dimensions are integers by the same rule
    "bool tensor order": (lambda: SymTensor(True, 3, {(1,): 1}), "tensor order must be an integer, got True"),
    "float tensor dim": (lambda: SymTensor(2, 3.5, {(1, 2): 1}), "tensor dimension must be an integer, got 3.5"),
    "float polynomial degree": (
        lambda: HomogeneousPolynomial(2.0, 3, {(1, 2): 1}),
        "polynomial degree must be an integer, got 2.0",
    ),
    "bool variable count": (lambda: HomogeneousPolynomial(2, True), "variable count must be an integer, got True"),
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
    # one bounds rule: each message below comes from the type-and-range check every count shares
    "zero tensor order": (lambda: SymTensor(0, 2, {}), "tensor order must be at least 1"),
    "zero edgeless layer tensor order": (
        lambda: layer_tensor_raw(Hypergraph(3), 0),
        "tensor order must be at least 1",
    ),
    "order checked before dim": (lambda: SymTensor(0, 2.5, {}), "tensor order must be at least 1"),
    "zero polynomial degree": (lambda: HomogeneousPolynomial(0, 3), "polynomial degree must be at least 1"),
    "zero max_iter": (lambda: power_iteration(TRIANGLE, max_iter=0), "max_iter must be at least 1"),
    "zero k_max": (lambda: layer_coefficients("unit", 0), "k_max must be at least 1"),
    "negative hypergraph vertex count": (lambda: Hypergraph(-1), "vertex count must be nonnegative"),
    "hypergraph vertex above n": (
        lambda: Hypergraph(3, [{1, 4}]),
        "vertex index 4 out of range [1, 3]",
    ),
    "dnf size 0": (lambda: dnf_extract(TRIANGLE, 2, 0), "size 0 out of range [1, 2]"),
    # the fresh variable is an integer before it is compared with the variable count
    "float fresh variable": (
        lambda: homogenize_step(HomogeneousPolynomial(1, 3), HomogeneousPolynomial(2, 3), 1, 4.0),
        "fresh variable must be an integer, got 4.0",
    ),
    "bool fresh variable": (
        lambda: homogenize_step(HomogeneousPolynomial(1, 0), HomogeneousPolynomial(2, 0), 1, True),
        "fresh variable must be an integer, got True",
    ),
    # a zero entry claims its canonical key too, so every order of the entries is refused
    "zero then nonzero key": (
        lambda: SymTensor(2, 3, {(2, 1): 0, (1, 2): 5}),
        "conflicting entries for canonical key (1, 2)",
    ),
    "nonzero then zero key": (
        lambda: SymTensor(2, 3, {(1, 2): 5, (2, 1): 0}),
        "conflicting entries for canonical key (1, 2)",
    ),
    "two zeros on one key": (
        lambda: SymTensor(2, 3, {(2, 1): 0, (1, 2): 0}),
        "conflicting entries for canonical key (1, 2)",
    ),
    "zero then nonzero monomial": (
        lambda: HomogeneousPolynomial(2, 3, {(3, 1): 0, (1, 3): 2}),
        "conflicting entries for canonical monomial (1, 3)",
    ),
    "nonzero then zero monomial": (
        lambda: HomogeneousPolynomial(2, 3, {(1, 3): 2, (3, 1): 0}),
        "conflicting entries for canonical monomial (1, 3)",
    ),
    "two zeros on one monomial": (
        lambda: HomogeneousPolynomial(2, 3, {(3, 1): 0, (1, 3): 0}),
        "conflicting entries for canonical monomial (1, 3)",
    ),
    # a value is an int (not a bool), a Fraction or a float, checked before any use of it
    "string tensor value": (
        lambda: SymTensor(2, 3, {(1, 2): "x"}),
        "key (1, 2) has a non-numeric value 'x'",
    ),
    "string coefficient": (
        lambda: HomogeneousPolynomial(1, 2, {(1,): "1/2"}),
        "monomial (1,) has a non-numeric value '1/2'",
    ),
    "None coefficient": (
        lambda: HomogeneousPolynomial(1, 2, {(1,): None}),
        "monomial (1,) has a non-numeric value None",
    ),
    # a rational input is an int (not a bool), a Fraction or a finite float before it is exact
    "infinite coefficient": (
        lambda: HomogeneousPolynomial(1, 1, {(1,): float("inf")}),
        "monomial (1,) coefficient must be a finite number, got inf",
    ),
    "NaN coefficient": (
        lambda: HomogeneousPolynomial(2, 3, {(3, 1): float("nan")}),
        "monomial (1, 3) coefficient must be a finite number, got nan",
    ),
    "string edge weight": (
        lambda: WeightedHypergraph(PATH, (1, "x")),
        "edge weight must be a finite number, got 'x'",
    ),
    "bool edge weight": (
        lambda: WeightedHypergraph(PATH, (True, 1)),
        "edge weight must be a finite number, got True",
    ),
    "infinite edge weight": (
        lambda: WeightedHypergraph(PATH, (1, float("inf"))),
        "edge weight must be a finite number, got inf",
    ),
    "infinite layer coefficient": (
        lambda: layer_coefficients([1, float("-inf")], 2),
        "layer coefficient must be a finite number, got -inf",
    ),
    "string layer coefficient": (
        lambda: layer_coefficients([1, "2"], 2),
        "layer coefficient must be a finite number, got '2'",
    ),
    "bool layer coefficient": (
        lambda: layer_coefficients([True, 1], 2),
        "layer coefficient must be a finite number, got True",
    ),
    "string homogenization coefficient": (
        lambda: homogenize_step(HomogeneousPolynomial(1, 3), HomogeneousPolynomial(2, 3), "1/2", 4),
        "layer coefficient must be a finite number, got '1/2'",
    ),
    "NaN homogenization coefficient": (
        lambda: homogenize_step(HomogeneousPolynomial(1, 3), HomogeneousPolynomial(2, 3), float("nan"), 4),
        "layer coefficient must be a finite number, got nan",
    ),
    # the augmenting vertex is an integer before it is compared with the vertex count
    "string augmenting vertex": (
        lambda: vertex_augment(WeightedHypergraph(PATH, (1, 1)), "4"),
        "fresh vertex must be an integer, got '4'",
    ),
    "bool augmenting vertex on an edgeless base": (
        lambda: vertex_augment(WeightedHypergraph(Hypergraph(0), ()), True),
        "fresh vertex must be an integer, got True",
    ),
    # a policy is a name or a list or tuple of coefficients, and weights are a list or tuple
    "int coefficient policy": (lambda: layer_coefficients(3, 2), "unknown coefficient policy 3"),
    "bytes coefficient policy": (lambda: layer_coefficients(b"unit", 4), "unknown coefficient policy b'unit'"),
    "int layered_uniform policy": (lambda: layered_uniform(PATH, 5), "unknown coefficient policy 5"),
    "None polynomial policy": (lambda: hypergraph_polynomial(PATH, None), "unknown coefficient policy None"),
    "int edge weights": (lambda: WeightedHypergraph(PATH, 3), "edge weights must be a list or tuple, got 3"),
    # a tensor value becomes a coefficient exactly, so it must be finite
    "NaN tensor value to polynomial": (
        lambda: poly_from_tensor(SymTensor(3, 3, {(1, 2, 3): float("nan")})),
        "key (1, 2, 3) value must be a finite number, got nan",
    ),
    "infinite tensor value to polynomial": (
        lambda: poly_from_tensor(SymTensor(3, 3, {(1, 2, 3): float("inf")})),
        "key (1, 2, 3) value must be a finite number, got inf",
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
