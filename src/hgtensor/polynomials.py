"""Homogeneous polynomials attached to symmetric tensors.

The variables are numbered like tensor indices: 1..n are original-vertex
variables (written z_i), anything above n is a padding variable (written
y_j for index n+j).  A symmetric tensor and its polynomial determine each
other through the multiplicity weight of each canonical key.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add

from .hypergraph import Hypergraph, _integer, _rational, _trusted
from .symtensor import SymTensor, _canonical, multiplicity_weight
from .uniformize import (
    CoefficientPolicy,
    _layered_order,
    _padding_suffixes,
    decompose,
    layer_coefficients,
    reconstruct,
)

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """A homogeneous polynomial as a map from sorted variable tuples to coefficients.

    Every monomial key has exactly ``degree`` entries (repeats allowed) drawn
    from 1..var_count; zero coefficients are dropped, so the zero polynomial
    is the empty map.
    """

    degree: int
    var_count: int
    monomials: dict[Monomial, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _integer(self.degree, "polynomial degree", 1)
        _integer(self.var_count, "variable count", 0)
        length = f"have degree {self.degree}"
        canonical = _canonical(self.monomials, self.degree, self.var_count, "monomial", length)
        monomials = {key: _rational(c, f"monomial {key} coefficient") for key, c in canonical.items()}
        object.__setattr__(self, "monomials", monomials)


def poly_from_tensor(t: SymTensor) -> HomogeneousPolynomial:
    """The polynomial whose coefficient on each key is value * orbit size, multiplied exactly."""
    monomials = {key: _rational(v, f"key {key} value") * multiplicity_weight(key) for key, v in t.entries.items()}
    return _trusted(HomogeneousPolynomial, t.order, t.dim, monomials)


def tensor_from_poly(p: HomogeneousPolynomial) -> SymTensor:
    """Inverse of poly_from_tensor for polynomials with all-distinct variables.

    Each monomial must use ``degree`` distinct variables; its coefficient is
    spread evenly over the degree! positions of the canonical key.
    """
    entries: dict[Monomial, Fraction] = {}
    for key, coefficient in p.monomials.items():
        if len(set(key)) != len(key):
            raise ValueError(f"monomial {key} repeats a variable; cannot form a sparse key")
        entries[key] = coefficient / multiplicity_weight(key)
    return _trusted(SymTensor, p.degree, p.var_count, entries)


def homogenize_step(
    r: HomogeneousPolynomial,
    p_next: HomogeneousPolynomial,
    c_next: Fraction,
    y_index: int,
) -> HomogeneousPolynomial:
    """One homogenization round: multiply r by a fresh variable, add c * p_next.

    ``y_index`` must be the next free variable index; ``p_next`` has degree
    r.degree + 1 and uses only variables that already exist.
    """
    _integer(y_index, "fresh variable")
    if y_index <= r.var_count:
        raise ValueError(f"variable {y_index} collides with an existing variable")
    if y_index != r.var_count + 1:
        raise ValueError(f"fresh variable must be {r.var_count + 1}, got {y_index}")
    if p_next.degree != r.degree + 1:
        raise ValueError(
            f"expected a polynomial of degree {r.degree + 1}, got {p_next.degree}"
        )
    if p_next.var_count > r.var_count:
        raise ValueError("p_next may only use variables that already exist")
    c_next = _rational(c_next, "layer coefficient")
    if c_next <= 0:
        raise ValueError("layer coefficient must be positive")
    monomials = {key + (y_index,): c for key, c in r.monomials.items()}
    monomials.update({key: c_next * c for key, c in p_next.monomials.items()})
    return _trusted(HomogeneousPolynomial, r.degree + 1, r.var_count + 1, monomials)


def hypergraph_polynomial(
    h: Hypergraph, policy: CoefficientPolicy = "handshake"
) -> HomogeneousPolynomial:
    """Homogenized polynomial of degree k_max over n + k_max - 1 variables, one monomial per edge.

    With P_s the degree-normalized layer-s polynomial, the rounds of ``homogenize_step``,
    r_{k+1} = y_{n+k} * r_k + c_{k+1} * P_{k+1} from r_1 = c_1 * P_1, unroll to
    r = sum over s of c_s * P_s * y_{n+s} * ... * y_{n+k_max-1}: each layer takes its suffix once.
    Every monomial of P_s has distinct variables and coefficient s!/(s-1)! = s, so layer s adds
    its sorted edges, each followed by the suffix, with the one coefficient c_s * s.
    """
    layers = decompose(h)
    k = len(layers)
    sizes = (s for s, layer in enumerate(layers, start=1) if layer.edges)
    suffixes = _padding_suffixes(h.n, k, sizes)
    monomials: dict[Monomial, Fraction] = {}
    for s, (c, layer) in enumerate(zip(layer_coefficients(policy, k), layers), start=1):
        if layer.edges:  # an empty layer adds nothing and has no suffix
            keys = map(add, map(tuple, map(sorted, layer.edges)), repeat(suffixes[s]))
            monomials.update(zip(keys, repeat(c * s)))
    return _trusted(HomogeneousPolynomial, k, h.n + k - 1, monomials)


def _dnf_order(t: SymTensor, n: int, size: int) -> int:
    """The order k of t, after checking the layered shape and that size is an integer in [1, k]."""
    _integer(size, "size")  # the type before the shape, the range after it
    k = _layered_order(t, n)
    _integer(size, "size", 1, k)
    return k


def dnf_extract(t: SymTensor, n: int, size: int) -> set[frozenset[int]]:
    """Edges of the given size: the keys whose smallest padding variable is y_size.

    The paper differences 0/1 padding settings of the booleanized polynomial.  With
    the first z padding variables set to 0 and the rest to 1, a monomial survives
    exactly when its smallest padding variable lies above y_z; a key of the top
    size has none and counts as y_{k_max}.  The settings z = size-1 and z = size
    therefore differ by exactly the keys whose smallest padding variable is y_size.
    Keys are sorted, so the original variables are a prefix and that variable
    comes right after it.
    """
    k = _dnf_order(t, n, size)
    edges: set[frozenset[int]] = set()
    for key in t.entries:
        if len(set(key)) != len(key):
            raise ValueError(f"key {key} repeats an index")
        s = bisect_right(key, n)
        if (key[s] if s < k else n + k) == n + size:
            edges.add(frozenset(key[:s]))
    return edges


def dnf_extract_structural(t: SymTensor, n: int, size: int) -> set[frozenset[int]]:
    """Edges of the given size among reconstruct(t, n), which rejects malformed keys."""
    _dnf_order(t, n, size)
    return {e for e in reconstruct(t, n).edges if len(e) == size}
