"""Command line front end.

Every subcommand writes deterministic text to stdout.  Exit codes: 0 on
success, 1 on validation errors, 2 when the eigensolver fails to converge
(its partial output is still printed), 64 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from fractions import Fraction

from .banerjee import banerjee_alpha, banerjee_tensor, compare_tensors, partitions_count
from .hypergraph import Hypergraph, parse_hypergraph
from .layers import decompose
from .polynomials import dnf_extract, hypergraph_polynomial
from .spectral import graph_consistency_check, power_iteration, spectral_bound
from .symtensor import (
    format_value,
    layer_tensor_degree_normalized,
    layer_tensor_eigen_normalized,
    layer_tensor_raw,
)
from .uniformize import (
    e_adjacency_tensor,
    layer_counts_from_tensor,
    reconstruct,
    vertex_degrees_from_tensor,
)

EX_OK = 0
EX_DATA = 1
EX_NO_CONVERGENCE = 2
EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_hypergraph(path: str) -> Hypergraph:
    if path == "-":
        return parse_hypergraph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_hypergraph(handle.read())


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_info(args) -> int:
    h = _read_hypergraph(args.path)
    lines = [f"n={h.n}", f"edges={h.p}", f"k_max={h.k_max}"]
    if h.p:
        dec = decompose(h)
        for k in range(1, dec.k_max + 1):
            lines.append(f"size_{k}={dec.layer(k).p}")
    print("\n".join(lines))
    return EX_OK


def _cmd_layers(args) -> int:
    h = _read_hypergraph(args.path)
    dec = decompose(h)
    lines = []
    for k in range(1, dec.k_max + 1):
        layer = dec.layer(k)
        noun = "edge" if layer.p == 1 else "edges"
        lines.append(f"layer {k}: {layer.p} {noun}")
        for e in layer.edges:
            lines.append("  " + " ".join(str(v) for v in sorted(e)))
    print("\n".join(lines))
    return EX_OK


def _cmd_tensor(args) -> int:
    h = _read_hypergraph(args.path)
    if args.layer is not None:
        if args.model is not None:
            raise _UsageError("--layer and --model are mutually exclusive")
        dec = decompose(h)
        builder = {
            "raw": layer_tensor_raw,
            "degree": layer_tensor_degree_normalized,
            "eigen": layer_tensor_eigen_normalized,
        }[args.normalization]
        t = builder(dec.layer(args.layer), args.layer)
    else:
        model = args.model or "layered"
        t = e_adjacency_tensor(h) if model == "layered" else banerjee_tensor(h)
    sys.stdout.write(t.to_coo())
    return EX_OK


def _cmd_poly(args) -> int:
    h = _read_hypergraph(args.path)
    poly = hypergraph_polynomial(h, args.policy)
    lines = [f"poly v1 degree={poly.degree} vars={poly.var_count}"]
    for key in sorted(poly.monomials):
        variables = "*".join(
            f"z_{i}" if i <= h.n else f"y_{i - h.n}" for i in key
        )
        lines.append(f"{format_value(poly.monomials[key])} * {variables}")
    print("\n".join(lines))
    return EX_OK


def _cmd_degrees(args) -> int:
    h = _read_hypergraph(args.path)
    t = e_adjacency_tensor(h)
    for i, d in enumerate(vertex_degrees_from_tensor(t, h.n), start=1):
        print(f"{i} {d}")
    return EX_OK


def _cmd_cardinalities(args) -> int:
    h = _read_hypergraph(args.path)
    t = e_adjacency_tensor(h)
    cumulative, per_size = layer_counts_from_tensor(t, h.n)
    lines = [f"cumulative_{j}={c}" for j, c in enumerate(cumulative, start=1)]
    lines += [f"size_{j}={c}" for j, c in enumerate(per_size, start=1)]
    print("\n".join(lines))
    return EX_OK


def _cmd_reconstruct(args) -> int:
    h = _read_hypergraph(args.path)
    rebuilt = reconstruct(e_adjacency_tensor(h), h.n)
    lines = [str(rebuilt.n)]
    for e in rebuilt.edges:
        lines.append(" ".join(str(v) for v in sorted(e)))
    print("\n".join(lines))
    return EX_OK


def _cmd_dnf(args) -> int:
    h = _read_hypergraph(args.path)
    edges = dnf_extract(e_adjacency_tensor(h), h.n, args.size)
    for e in sorted(edges, key=sorted):
        print(" ".join(str(v) for v in sorted(e)))
    return EX_OK


def _cmd_partitions(args) -> int:
    if args.m < 1 or args.s < 1:
        raise ValueError("m and s must be positive")
    print(partitions_count(args.m, args.s))
    return EX_OK


def _cmd_alpha(args) -> int:
    print(banerjee_alpha(args.k, args.s))
    return EX_OK


def _cmd_compare(args) -> int:
    report = compare_tensors(_read_hypergraph(args.path))
    pairs = []  # (name, text); ints print with str, as format_value rounds them past 2**53
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        per_size = value.items() if isinstance(value, dict) else [(None, value)]
        for s, v in per_size:
            name = field.name if s is None else f"{field.name[:-1]}_size_{s}"
            pairs.append((name, format_value(v) if isinstance(v, Fraction) else str(v)))
    if args.format == "keyvalue":
        print("\n".join(f"{name}={text}" for name, text in pairs))
        return EX_OK
    models = ("layered", "banerjee")
    table: dict[str, dict[str, str]] = {}  # metric -> {model: cell}
    for name, text in pairs:
        model, _, metric = name.partition("_")  # an unprefixed name is shared
        row = table.setdefault(re.sub(r"_size_(\d+)$", r"[s=\1]", metric or model), {})
        row.update(dict.fromkeys([model] if metric else models, text))
    rows = [["metric", *models]]
    rows += [[metric, *(row.get(m, "-") for m in models)] for metric, row in table.items()]
    widths = [max(len(row[c]) for row in rows) for c in range(3)]
    for row in rows:
        print(row[0].ljust(widths[0]), *(cell.rjust(w) for cell, w in zip(row[1:], widths[1:])), sep="  ")
    return EX_OK


def _cmd_bound(args) -> int:
    h = _read_hypergraph(args.path)
    report = spectral_bound(h)
    print(f"delta={report.delta}")
    print(f"delta_star={report.delta_star}")
    print(f"bound={report.bound}")
    return EX_OK


def _cmd_eig(args) -> int:
    h = _read_hypergraph(args.path)
    pair = power_iteration(e_adjacency_tensor(h), tol=args.tol, max_iter=args.max_iter)
    lines = [
        f"converged={_bool(pair.converged)}",
        f"iterations={pair.iterations}",
        f"lambda={pair.value:.12g}",
        f"bracket_low={pair.bracket_low:.12g}",
        f"bracket_high={pair.bracket_high:.12g}",
        f"bracket_width={pair.bracket_high - pair.bracket_low:.12g}",
        f"residual={pair.residual:.12g}",
    ]
    for i, component in enumerate(pair.vector, start=1):
        lines.append(f"x_{i}={component:.12g}")
    print("\n".join(lines))
    return EX_OK if pair.converged else EX_NO_CONVERGENCE


def _cmd_graph_check(args) -> int:
    h = _read_hypergraph(args.path)
    report = graph_consistency_check(h)
    lines = [
        f"c2={format_value(report.c2)}",
        f"block_ok={_bool(report.block_ok)}",
        f"graph_lambda={report.graph_value:.12g}",
        f"layered_lambda={report.layered_value:.12g}",
        f"graph_converged={_bool(report.graph_converged)}",
        f"layered_converged={_bool(report.layered_converged)}",
        f"relation_ok={_bool(report.relation_ok)}",
        f"zero_eigenpair_ok={_bool(report.zero_eigenpair_ok)}",
    ]
    print("\n".join(lines))
    return EX_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="hgtensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_path(p):
        p.add_argument("path", nargs="?", default="-", help="HG v1 file, or - for stdin")
        return p

    with_path(sub.add_parser("info", help="basic counts")).set_defaults(run=_cmd_info)
    with_path(sub.add_parser("layers", help="cardinality layers")).set_defaults(run=_cmd_layers)

    tensor = with_path(sub.add_parser("tensor", help="tensor in COO text form"))
    tensor.add_argument("--model", choices=("layered", "banerjee"), default=None)
    tensor.add_argument("--layer", type=int, default=None, help="emit one layer's tensor instead")
    tensor.add_argument("--normalization", choices=("raw", "degree", "eigen"), default="degree")
    tensor.set_defaults(run=_cmd_tensor)

    poly = with_path(sub.add_parser("poly", help="homogenized polynomial"))
    poly.add_argument("--policy", choices=("unit", "handshake"), default="handshake")
    poly.set_defaults(run=_cmd_poly)

    with_path(sub.add_parser("degrees", help="vertex degrees read off the tensor")).set_defaults(
        run=_cmd_degrees
    )
    with_path(
        sub.add_parser("cardinalities", help="edge-size counts read off the tensor")
    ).set_defaults(run=_cmd_cardinalities)
    with_path(
        sub.add_parser("reconstruct", help="hypergraph rebuilt from its tensor")
    ).set_defaults(run=_cmd_reconstruct)

    dnf = with_path(sub.add_parser("dnf", help="edges of one size via boolean differencing"))
    dnf.add_argument("--size", type=int, required=True)
    dnf.set_defaults(run=_cmd_dnf)

    partitions = sub.add_parser("partitions", help="partition count p_s(m)")
    partitions.add_argument("--m", type=int, required=True)
    partitions.add_argument("--s", type=int, required=True)
    partitions.set_defaults(run=_cmd_partitions)

    alpha = sub.add_parser("alpha", help="positions of an s-edge at order k")
    alpha.add_argument("--k", type=int, required=True)
    alpha.add_argument("--s", type=int, required=True)
    alpha.set_defaults(run=_cmd_alpha)

    compare = with_path(sub.add_parser("compare", help="layered vs all-positions tensor"))
    compare.add_argument("--format", choices=("keyvalue", "text"), default="keyvalue")
    compare.set_defaults(run=_cmd_compare)

    with_path(sub.add_parser("bound", help="degree bound on eigenvalues")).set_defaults(
        run=_cmd_bound
    )

    eig = with_path(sub.add_parser("eig", help="dominant eigenpair by power iteration"))
    eig.add_argument("--tol", type=float, default=1e-10)
    eig.add_argument("--max-iter", type=int, default=10000)
    eig.set_defaults(run=_cmd_eig)

    with_path(
        sub.add_parser("graph-check", help="2-uniform consistency with the matrix view")
    ).set_defaults(run=_cmd_graph_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
