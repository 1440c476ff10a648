"""Command line front end.

Every subcommand writes deterministic text to stdout.  Exit codes: 0 on
success, 1 on validation errors, 2 when the eigensolver fails to converge
(its partial output is still printed), 64 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys

from .banerjee import banerjee_alpha, banerjee_tensor, compare_tensors, partitions_count
from .hypergraph import Hypergraph, _integer, parse_hypergraph
from .polynomials import dnf_extract, hypergraph_polynomial
from .spectral import _slice_masses, graph_consistency_check, power_iteration
from .symtensor import _decimal, format_value
from .uniformize import (
    decompose,
    e_adjacency_tensor,
    layer_counts_from_tensor,
    layer_tensor_degree_normalized,
    layer_tensor_eigen_normalized,
    layer_tensor_raw,
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


def _text(name: str, value) -> str:
    """A report value as text; ints print in full, as format_value rounds them past 2**53."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _decimal(value, name) if isinstance(value, int) else format_value(value)


def _write_lines(lines) -> None:
    """Write an iterator of lines that end in newlines, joined a few thousand at a time.

    One write per line costs more than the join.
    """
    while chunk := "".join(itertools.islice(lines, 4096)):
        sys.stdout.write(chunk)


def _report(pairs) -> None:
    """Print one name=value line per (name, value) pair."""
    print("\n".join(f"{name}={_text(name, value)}" for name, value in pairs))


def _cmd_info(h: Hypergraph, args) -> None:
    pairs = [("n", h.n), ("edges", h.p), ("k_max", h.k_max)]
    if h.p:
        pairs += [(f"size_{k}", layer.p) for k, layer in enumerate(decompose(h), start=1)]
    _report(pairs)


def _cmd_layers(h: Hypergraph, args) -> None:
    for k, layer in enumerate(decompose(h), start=1):
        print(f"layer {k}: {layer.p} {'edge' if layer.p == 1 else 'edges'}")
        _write_lines("  " + line for line in _edge_lines(sorted(e) for e in layer.edges))


def _cmd_tensor(h: Hypergraph, args) -> None:
    if args.layer is not None:
        if args.model is not None:
            raise _UsageError("--layer and --model are mutually exclusive")
        layers = decompose(h)
        _integer(args.layer, "layer index", 1, len(layers))
        builder = {
            "raw": layer_tensor_raw,
            "degree": layer_tensor_degree_normalized,
            "eigen": layer_tensor_eigen_normalized,
        }[args.normalization or "degree"]
        t = builder(layers[args.layer - 1], args.layer)
    elif args.normalization is not None:
        raise _UsageError("--normalization needs --layer")
    else:
        t = banerjee_tensor(h) if args.model == "banerjee" else e_adjacency_tensor(h)
    _write_lines(t._coo_lines())


def _cmd_poly(h: Hypergraph, args) -> None:
    poly = hypergraph_polynomial(h, args.policy)
    monomials = (
        format_value(c) + " * " + "*".join(f"z_{i}" if i <= h.n else f"y_{i - h.n}" for i in key) + "\n"
        for key, c in sorted(poly.monomials.items())
    )
    _write_lines(itertools.chain([f"poly v1 degree={poly.degree} vars={poly.var_count}\n"], monomials))


def _cmd_degrees(h: Hypergraph, args) -> None:
    degrees = vertex_degrees_from_tensor(e_adjacency_tensor(h), h.n)
    _write_lines(f"{i} {d}\n" for i, d in enumerate(degrees, start=1))


def _cmd_cardinalities(h: Hypergraph, args) -> None:
    cumulative, per_size = layer_counts_from_tensor(e_adjacency_tensor(h), h.n)
    pairs = [(f"cumulative_{j}", c) for j, c in enumerate(cumulative, start=1)]
    _report(pairs + [(f"size_{j}", c) for j, c in enumerate(per_size, start=1)])


def _edge_lines(edges):
    """One line per edge, each given as its vertices in ascending order."""
    return (" ".join(map(str, e)) + "\n" for e in edges)


def _cmd_reconstruct(h: Hypergraph, args) -> None:
    rebuilt = reconstruct(e_adjacency_tensor(h), h.n)
    print(rebuilt.n)
    _write_lines(_edge_lines(sorted(e) for e in rebuilt.edges))


def _cmd_dnf(h: Hypergraph, args) -> None:
    edges = dnf_extract(e_adjacency_tensor(h), h.n, args.size)
    _write_lines(_edge_lines(sorted(tuple(sorted(e)) for e in edges)))


def _cmd_partitions(h: None, args) -> None:
    if args.m < 1 or args.s < 1:
        raise ValueError("m and s must be positive")
    print(partitions_count(args.m, args.s))


def _cmd_alpha(h: None, args) -> None:
    k, s = args.k, args.s
    limit = getattr(sys, "get_int_max_str_digits", int)()  # Pythons before 3.10.7 have no limit
    if limit and 1 <= s <= k:  # out of range, banerjee_alpha names the range
        # alpha >= s! * s^(k-s): the first s slots take the s labels in some order, the rest any
        digits = math.floor(math.lgamma(s + 1) / math.log(10) + (k - s) * math.log10(s)) + 1
        if digits > limit:
            too_long = f"above the limit of {limit} digits for printing an integer"
            raise ValueError(f"alpha({k}, {s}) has at least {digits} digits, {too_long}")
    # the estimate can fall short: _decimal still names the digit count
    print(_decimal(banerjee_alpha(k, s), f"alpha({k}, {s})"))


def _cmd_compare(h: Hypergraph, args) -> None:
    report = compare_tensors(h)
    models = ("layered", "banerjee")
    lines, table = [], {}  # table: metric -> {model: cell}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        model, _, metric = field.name.partition("_")  # an unprefixed name is shared
        per_size = value.items() if isinstance(value, dict) else [(None, value)]
        for s, v in per_size:
            name = field.name if s is None else f"{field.name[:-1]}_size_{s}"
            label = (metric or model) if s is None else f"{metric[:-1]}[s={s}]"
            cell = _text(name, v)
            lines.append(f"{name}={cell}")
            table.setdefault(label, {}).update(dict.fromkeys([model] if metric else models, cell))
    if args.format == "keyvalue":
        print("\n".join(lines))
        return
    rows = [["metric", *models]]
    rows += [[metric, *(row.get(m, "-") for m in models)] for metric, row in table.items()]
    widths = [max(len(row[c]) for row in rows) for c in range(3)]
    for row in rows:
        print(row[0].ljust(widths[0]), *(cell.rjust(w) for cell, w in zip(row[1:], widths[1:])), sep="  ")


def _cmd_bound(h: Hypergraph, args) -> None:
    delta, delta_star, bound = _slice_masses(h)[2]
    _report([("delta", delta), ("delta_star", delta_star), ("bound", bound)])


def _cmd_eig(h: Hypergraph, args) -> int:
    pair = power_iteration(e_adjacency_tensor(h), tol=args.tol, max_iter=args.max_iter)
    pairs = [
        ("converged", pair.converged),
        ("iterations", pair.iterations),
        ("lambda", pair.value),
        ("bracket_low", pair.bracket_low),
        ("bracket_high", pair.bracket_high),
        ("bracket_width", pair.bracket_high - pair.bracket_low),
        ("residual", pair.residual),
    ]
    _report(pairs + [(f"x_{i}", component) for i, component in enumerate(pair.vector, start=1)])
    return EX_OK if pair.converged else EX_NO_CONVERGENCE


def _cmd_graph_check(h: Hypergraph, args) -> int:
    report = graph_consistency_check(h)
    # the two eigenvalue fields print as graph_lambda and layered_lambda
    _report((f.name.replace("_value", "_lambda"), getattr(report, f.name)) for f in dataclasses.fields(report))
    return EX_OK if report.graph_converged and report.layered_converged else EX_NO_CONVERGENCE


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
    tensor.add_argument("--normalization", choices=("raw", "degree", "eigen"), help="with --layer; default degree")
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
    try:
        args = _build_parser().parse_args(argv)
        h = _read_hypergraph(args.path) if "path" in args else None
        code = args.run(h, args) or EX_OK
        sys.stdout.flush()  # a closed stdout fails here, inside the try, not at exit
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except BrokenPipeError:
        # the reader stopped reading, as `| head` does; keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_OK
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
