"""Load hgtensor from the checkout and run one CLI-shaped request in process.

Each request calls the same public functions, in the same order, as the
matching ``hgtensor.cli._cmd_*`` handler, without argparse, file reading or
print.  Functions are looked up on their modules at call time so that the
tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

MODULES = ("hypergraph", "uniformize", "polynomials", "spectral", "banerjee", "symtensor")


def modules() -> SimpleNamespace:
    """The imported hgtensor modules by name, importing them if needed."""
    return SimpleNamespace(**{m: importlib.import_module(f"hgtensor.{m}") for m in MODULES})


def load(src: Path) -> SimpleNamespace:
    """Import hgtensor afresh from ``src`` and return its modules by name.

    Earlier imports are dropped first, so the import is paid again each
    time; the benchmark's set-up time counts it.
    """
    src = src.resolve()
    for name in [m for m in sys.modules if m == "hgtensor" or m.startswith("hgtensor.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("hgtensor")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hgtensor was imported from {package.__file__}, not from {src}")
    return modules()


def build(hg: SimpleNamespace, text: str, kinds) -> list:
    """The set-up work for one input: parse it and build the tensors its requests use."""
    h = hg.hypergraph.parse_hypergraph(text)
    tensors = [hg.uniformize.e_adjacency_tensor(h)]
    if "banerjee" in kinds or "compare" in kinds:
        tensors.append(hg.banerjee.banerjee_tensor(h))
    return tensors


def run(hg: SimpleNamespace, kind: str, text: str | None, param):
    """One request; returns the package's own result object."""
    if kind == "alpha":
        return hg.banerjee.banerjee_alpha(*param)
    h = hg.hypergraph.parse_hypergraph(text)
    if kind == "poly":
        return hg.polynomials.hypergraph_polynomial(h, "handshake")
    if kind == "bound":
        return hg.spectral.spectral_bound(h)
    if kind == "compare":
        return hg.banerjee.compare_tensors(h)
    if kind == "banerjee":
        return hg.banerjee.banerjee_tensor(h).to_coo()
    t = hg.uniformize.e_adjacency_tensor(h)
    if kind == "degrees":
        return hg.uniformize.vertex_degrees_from_tensor(t, h.n)
    if kind == "cardinalities":
        return hg.uniformize.layer_counts_from_tensor(t, h.n)
    if kind == "reconstruct":
        return hg.uniformize.reconstruct(t, h.n)
    if kind == "dnf":
        return hg.polynomials.dnf_extract(t, h.n, param)
    if kind == "tensor":
        return t.to_coo()
    if kind == "eig":
        return hg.spectral.power_iteration(t, tol=1e-10, max_iter=10000)
    if kind == "eigcheck":
        return hg.spectral.check_eigenpair(t, Fraction(param), [Fraction(1)] * t.dim, 0)
    raise ValueError(f"unknown request kind {kind!r}")


def plain(kind: str, result):
    """The result as plain Python values, the form the oracle compares."""
    if kind == "reconstruct":
        return (result.n, sorted(tuple(sorted(e)) for e in result.edges))
    if kind == "dnf":
        return sorted(tuple(sorted(e)) for e in result)
    if kind == "poly":
        return (result.degree, result.var_count, result.monomials)
    if kind == "bound":
        return (result.delta, result.delta_star, result.bound, result.disks)
    if kind == "compare":
        return dataclasses.asdict(result)
    if kind == "eigcheck":
        return (result.residual, result.threshold, result.passed)
    if kind == "eig":
        return {
            "converged": result.converged,
            "value": result.value,
            "vector": result.vector,
            "iterations": result.iterations,
            "low": result.bracket_low,
            "high": result.bracket_high,
        }
    return result
