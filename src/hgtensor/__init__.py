"""One symmetric tensor for a whole non-uniform hypergraph.

The package decomposes a general hypergraph into uniform cardinality
layers, pads every edge with shared special vertices until the family is
uniform, and stores the result as one sparse symmetric tensor with exact
rational entries.  Degrees, edge-size counts, the edge family itself, and a
boolean normal form can all be read back off the tensor; spectral helpers
bound and approximate its dominant eigenvalue.
"""

from .banerjee import (
    ComparisonReport,
    banerjee_alpha,
    banerjee_tensor,
    compare_tensors,
    partitions_count,
)
from .hypergraph import Hypergraph, WeightedHypergraph, degrees, parse_hypergraph
from .polynomials import (
    HomogeneousPolynomial,
    dnf_extract,
    dnf_extract_structural,
    homogenize_step,
    hypergraph_polynomial,
    poly_from_tensor,
    tensor_from_poly,
)
from .spectral import (
    BoundReport,
    EigenCheck,
    EigenPair,
    GraphCaseReport,
    check_eigenpair,
    gershgorin_disks,
    graph_consistency_check,
    power_iteration,
    spectral_bound,
)
from .symtensor import SymTensor, format_value, multiplicity_weight
from .uniformize import (
    LayeredUniform,
    decompose,
    e_adjacency_tensor,
    layer_coefficients,
    layer_counts_from_tensor,
    layer_tensor_degree_normalized,
    layer_tensor_eigen_normalized,
    layer_tensor_raw,
    layered_uniform,
    merge,
    reconstruct,
    tensor_from_layered_uniform,
    vertex_augment,
    vertex_degrees_from_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ComparisonReport",
    "EigenCheck",
    "EigenPair",
    "GraphCaseReport",
    "HomogeneousPolynomial",
    "Hypergraph",
    "LayeredUniform",
    "SymTensor",
    "WeightedHypergraph",
    "banerjee_alpha",
    "banerjee_tensor",
    "check_eigenpair",
    "compare_tensors",
    "decompose",
    "degrees",
    "dnf_extract",
    "dnf_extract_structural",
    "e_adjacency_tensor",
    "format_value",
    "gershgorin_disks",
    "graph_consistency_check",
    "homogenize_step",
    "hypergraph_polynomial",
    "layer_coefficients",
    "layer_counts_from_tensor",
    "layer_tensor_degree_normalized",
    "layer_tensor_eigen_normalized",
    "layer_tensor_raw",
    "layered_uniform",
    "merge",
    "multiplicity_weight",
    "parse_hypergraph",
    "partitions_count",
    "poly_from_tensor",
    "power_iteration",
    "reconstruct",
    "spectral_bound",
    "tensor_from_layered_uniform",
    "tensor_from_poly",
    "vertex_augment",
    "vertex_degrees_from_tensor",
]
