"""General hypergraphs: construction, parsing, and classical matrix views."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, islice, repeat, tee
from typing import IO, Iterable

Edge = frozenset[int]
Matrix = list[list[Fraction]]


def _integer(value: int, what: str) -> None:
    """Refuse a count or vertex index that is not an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_edge(vertices: Iterable[int], n: int) -> Edge:
    edge = frozenset(vertices)
    if not edge:
        raise ValueError("hyperedge must contain at least one vertex")
    for v in edge:
        _integer(v, "vertex index")
        if not 1 <= v <= n:
            raise ValueError(f"vertex index {v} out of range [1, {n}]")
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
        _integer(self.n, "vertex count")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
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
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != self.base.p:
            raise ValueError("need exactly one weight per hyperedge")
        if any(w <= 0 for w in weights):
            raise ValueError("edge weights must be positive")
        object.__setattr__(self, "weights", weights)


def _first_fault(text: str, start: int, n: int) -> None:
    """Raise the message of the first faulty line after the header, in file order."""
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
    try:
        edges = list(map(frozenset, map(map, repeat(int), compress(rows, totals))))
        vertices = frozenset().union(*edges)
        # a line with a repeated vertex has fewer vertices than tokens
        if next(totals) != sum(map(len, edges)) or min(vertices, default=1) < 1 or max(vertices, default=n) > n:
            raise ValueError
    except ValueError:  # a malformed, repeated or out-of-range vertex: the walk names its line
        _first_fault(text, start, n)
    del vertices
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate hyperedge in edge family")
    return _trusted(Hypergraph, n, tuple(edges))


def degree(h: Hypergraph, v: int) -> int:
    """Number of hyperedges containing vertex v, checked as an edge's vertices are."""
    _as_edge((v,), h.n)
    return sum(1 for e in h.edges if v in e)


def degrees(h: Hypergraph) -> tuple[int, ...]:
    """Every vertex degree, counted in one pass over the edges."""
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v - 1] += 1
    return tuple(counts)


def _vertex_set(h: Hypergraph, vertices: Iterable[int]) -> Edge:
    """The given vertices as a set, checked nonempty and then as an edge is."""
    s = frozenset(vertices)
    if not s:
        raise ValueError("vertex set must be nonempty")
    return _as_edge(s, h.n)


def _uniform_size(h: Hypergraph) -> int | None:
    """The one edge size of a uniform hypergraph; None when it has no edges."""
    sizes = {len(e) for e in h.edges}
    if len(sizes) > 1:
        raise ValueError("hypergraph is not uniform")
    return sizes.pop() if sizes else None


def adjacency_matrix_bretto(h: Hypergraph) -> Matrix:
    """Symmetric n x n matrix counting shared edges; zero diagonal."""
    a = [[Fraction(0)] * h.n for _ in range(h.n)]
    for e in h.edges:
        for u, v in combinations(e, 2):
            a[u - 1][v - 1] += 1
            a[v - 1][u - 1] += 1
    return a


def two_section(h: Hypergraph) -> Hypergraph:
    """Graph on the same vertices joining every pair co-resident in some edge."""
    pairs = {frozenset(pair) for e in h.edges for pair in combinations(e, 2)}
    ordered = sorted(pairs, key=sorted)
    return _trusted(Hypergraph, h.n, tuple(ordered))


def is_k_adjacent(h: Hypergraph, vertices: Iterable[int]) -> bool:
    """True when the given distinct vertices all lie together in some edge."""
    s = _vertex_set(h, vertices)
    return any(s <= e for e in h.edges)


def is_e_adjacent(h: Hypergraph, vertices: Iterable[int]) -> bool:
    """True when the given vertex set is exactly one of the hyperedges."""
    return _vertex_set(h, vertices) in h.edges
