"""General hypergraphs: construction, parsing and vertex degrees."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat, tee
from typing import IO, Iterable

Edge = frozenset[int]


def _integer(value: int, what: str, low: int | None = None, high: int | None = None) -> None:
    """Refuse a count, order or index that is not an int (a bool is not one) or is out of bounds.

    The type is checked first.  With ``high`` the range is [low, high]; with ``low`` alone it
    is a floor, read as "nonnegative" when it is 0.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{what} {value} out of range [{low}, {high}]")
    if low is not None and value < low:
        raise ValueError(f"{what} must be nonnegative" if low == 0 else f"{what} must be at least {low}")


def _rational(value, what: str) -> Fraction:
    """The value as a Fraction; refuse one that is not an int (a bool is not one), a Fraction or a finite float."""
    if not isinstance(value, (int, Fraction, float)) or isinstance(value, bool) or (
        isinstance(value, float) and not math.isfinite(value)
    ):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return Fraction(value)


def _as_edge(vertices: Iterable[int], n: int) -> Edge:
    edge = frozenset(vertices)
    if not edge:
        raise ValueError("hyperedge must contain at least one vertex")
    for v in edge:
        _integer(v, "vertex index", 1, n)
    return edge


def _trusted(cls, *values):
    """cls(*values) without __post_init__: only for values canonical by construction."""
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values, strict=True):
        object.__setattr__(obj, f.name, value)
    return obj


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph on vertices 1..n with a duplicate-free edge family.

    Edge identifiers are 1-based positions in ``edges``.  Isolated vertices
    and the edgeless hypergraph are allowed; empty edges are not.
    """

    n: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self) -> None:
        _integer(self.n, "vertex count", 0)
        normalized = tuple(_as_edge(e, self.n) for e in self.edges)
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate hyperedge in edge family")
        object.__setattr__(self, "edges", normalized)

    @property
    def p(self) -> int:
        return len(self.edges)

    @property
    def k_max(self) -> int:
        """Largest edge cardinality; 0 for the edgeless hypergraph."""
        return max((len(e) for e in self.edges), default=0)


@dataclass(frozen=True)
class WeightedHypergraph:
    """A hypergraph with a strictly positive rational weight per edge."""

    base: Hypergraph
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, (list, tuple)):
            raise ValueError(f"edge weights must be a list or tuple, got {self.weights!r}")
        weights = tuple(_rational(w, "edge weight") for w in self.weights)
        if len(weights) != self.base.p:
            raise ValueError("need exactly one weight per hyperedge")
        if any(w <= 0 for w in weights):
            raise ValueError("edge weights must be positive")
        object.__setattr__(self, "weights", weights)


def _walk(text: str, start: int, n: int) -> list[Edge]:
    """The edges after the header, in file order; raise the message of the first faulty line."""
    edges = []
    for lineno, raw in enumerate(islice(text.splitlines(), start, None), start + 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            edge = frozenset(map(int, tokens))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed vertex index") from None
        if len(edge) != len(tokens):
            raise ValueError(f"line {lineno}: duplicate vertex within hyperedge")
        if min(edge) < 1 or max(edge) > n:
            try:
                _as_edge(edge, n)  # raises, naming the vertex it rejects
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        edges.append(edge)
    return edges


# Up to this many vertices the parser reads each token through a {str(v): v} table of
# 1..n; above it the table falls out of cache and int() is faster.  Parse time, table
# over int, p = 2n mixed edges: 0.69 at n = 2000, 0.82 at 8000, 1.13 at 32 000, 1.63 at
# 64 000 and 1.69 at 128 000.
_VERTEX_TABLE = 1 << 12


def parse_hypergraph(source: str | IO[str]) -> Hypergraph:
    """Parse the HG v1 text format.

    One leading byte-order mark is dropped.  Lines starting with ``#`` and
    blank lines are not significant.  The first significant line is the
    vertex count n; every later significant line is one hyperedge given as
    distinct vertex indices in [1, n].  A faulty text is refused with the
    message of its first faulty line; a duplicate edge is named only when
    every line passes.
    """
    text = (source if isinstance(source, str) else source.read()).removeprefix("\ufeff")
    lines = iter(text.splitlines())  # the list is freed once the edges are read
    for start, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            break
    else:
        raise ValueError("missing header: expected a vertex count line")
    if len(tokens) != 1:
        raise ValueError(f"line {start}: header must be a single integer")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError(f"line {start}: malformed vertex count {tokens[0]!r}") from None
    if n < 0:
        raise ValueError(f"line {start}: vertex count must be nonnegative")
    if "#" in text:
        rows = (tokens for tokens in map(str.split, lines) if tokens and tokens[0][0] != "#")
    else:
        rows = filter(None, map(str.split, lines))
    # compress steps both copies together and keeps every row, as each running
    # token count is positive; the trailing 0 leaves the total for one more next()
    rows, counted = tee(rows)
    totals = accumulate(chain(map(len, counted), (0,)))
    if n <= _VERTEX_TABLE:
        # the table holds 1..n alone, so an out-of-range vertex misses it, and each
        # vertex is one int object however many edges hold it
        numbers = range(1, n + 1)
        vertex = dict(zip(map(str, numbers), numbers)).__getitem__
    else:
        vertex = int
    try:
        edges = list(map(frozenset, map(map, repeat(vertex), compress(rows, totals))))
        # a line with a repeated vertex has fewer vertices than tokens
        if next(totals) != sum(map(len, edges)):
            raise ValueError
        if vertex is int:
            vertices = frozenset().union(*edges)
            if min(vertices, default=1) < 1 or max(vertices, default=n) > n:
                raise ValueError
            del vertices
    except (KeyError, ValueError):  # a faulty line, or a spelling int() takes but the table lacks
        edges = _walk(text, start, n)
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate hyperedge in edge family")
    return _trusted(Hypergraph, n, tuple(edges))


def degrees(h: Hypergraph) -> tuple[int, ...]:
    """Every vertex degree, counted in one pass over the edges."""
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v - 1] += 1
    return tuple(counts)
