"""Expected answers computed straight from the edge list, without hgtensor.

Nothing here imports the package under test, so a defect in it cannot make
the oracle agree with it.  The layered tensor of a hypergraph with largest
edge size k holds one key per edge e of size s: sorted(e) followed by the
padding indices n+s..n+k-1, with value 1/(k-1)!.  Every answer the
benchmark checks follows from that and from the counting identities below.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter
from fractions import Fraction

# eig answers are floats; the eigen equation must hold to this relative
# tolerance, far looser than the solver's 1e-10 bracket and far tighter
# than any wrong eigenvalue would give.
EIG_TOLERANCE = 1e-6


def format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def alpha(k: int, s: int) -> int:
    """Surjections from k positions onto s labels, s! * S(k, s).

    S is the Stirling number of the second kind, from the recurrence
    S(i, j) = j S(i-1, j) + S(i-1, j-1).
    """
    row = [1] + [0] * s  # S(0, j)
    for _ in range(k):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, s + 1)]
    return math.factorial(s) * row[s]


def partition_table(m: int) -> list[list[int]]:
    """table[i][j] = partitions of i into exactly j positive parts, i, j <= m."""
    table = [[0] * (m + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for i in range(1, m + 1):
        for j in range(1, i + 1):
            table[i][j] = table[i - j][j] + table[i - 1][j - 1]
    return table


def _multiplicities(parts: int, total: int):
    """Every tuple of ``parts`` positive integers summing to ``total``, largest first.

    In this order the keys v1^c1 v2^c2 ... of a sorted edge come out in
    ascending order: a larger c1 repeats the smallest vertex longer.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in _multiplicities(parts - 1, total - first):
            yield (first,) + rest


def digest(lines) -> str:
    """sha256 of the concatenated lines; expected texts are kept only as digests."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


class Expected:
    """What every request on one input must return."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(sorted(e)) for e in edges]
        self.k = k = max(len(e) for e in self.edges)
        self.dim = n + k - 1
        self.keys = [e + tuple(range(n + len(e), n + k)) for e in self.edges]
        self.degrees = [0] * n
        for e in self.edges:
            for v in e:
                self.degrees[v - 1] += 1
        per_size = Counter(len(e) for e in self.edges)
        self.per_size = tuple(per_size.get(s, 0) for s in range(1, k + 1))
        self.cumulative = tuple(sum(self.per_size[:s]) for s in range(1, k + 1))
        # slice sums of the layered tensor: degrees, then padding index n+j
        # is in every key of an edge of size <= j
        self.slices = tuple(self.degrees) + self.cumulative[:-1]
        self.delta = max(self.degrees)
        self.delta_star = max(self.cumulative[:-1], default=0)
        self.bound = max(self.delta, self.delta_star)

    def layered_coo(self):
        """The lines of the layered tensor's COO text, in order."""
        value = format_fraction(Fraction(1, math.factorial(self.k - 1)))
        yield f"symtensor v1 order={self.k} dim={self.dim}\n"
        for key in sorted(self.keys):
            yield " ".join(map(str, key)) + " " + value + "\n"

    def banerjee_coo(self):
        """The lines of the Banerjee tensor's COO text, in order.

        Each edge's keys come out sorted, and no two edges share a key (a
        key holds exactly its edge's vertices), so merging the edges' key
        streams sorts them without holding every key at once.
        """
        k = self.k

        def rows(e):
            value = format_fraction(Fraction(len(e), alpha(k, len(e))))
            for counts in _multiplicities(len(e), k):
                yield tuple(v for v, c in zip(e, counts) for _ in range(c)), value

        yield f"symtensor v1 order={k} dim={self.n}\n"
        for key, value in heapq.merge(*(rows(e) for e in self.edges)):
            yield " ".join(map(str, key)) + " " + value + "\n"

    def comparison(self) -> dict:
        k, p = self.k, len(self.edges)
        partitions = partition_table(k)
        sizes = sorted({len(e) for e in self.edges})
        return {
            "order": k,
            "layered_dim": self.dim,
            "banerjee_dim": self.n,
            "layered_total_elements": self.dim**k,
            "banerjee_total_elements": self.n**k,
            "layered_nnz_positions": p * math.factorial(k),
            "banerjee_nnz_positions": sum(alpha(k, len(e)) for e in self.edges),
            "layered_describe_count": p,
            "banerjee_describe_count": sum(partitions[k][len(e)] for e in self.edges),
            "layered_entry_value": Fraction(1, math.factorial(k - 1)),
            "banerjee_entry_values": {s: Fraction(s, alpha(k, s)) for s in sizes},
        }

    def contract(self, x) -> list[float]:
        """(T x^{k-1})_i in floats: each key adds the product of its other entries."""
        out = [0.0] * self.dim
        for key in self.keys:
            for i in key:
                prod = 1.0
                for j in key:
                    if j != i:
                        prod *= x[j - 1]
                out[i - 1] += prod
        return out


def eig_problem(expected: Expected, answer: dict) -> str | None:
    """Why an eig answer is wrong, or None when it is right.

    A right answer converged, has its value inside a closed bracket, a
    vector that is positive on every index some key uses, and satisfies
    (T x^{k-1})_i = lambda x_i^{k-1} there.  For a nonnegative tensor and a
    positive vector, the ratios (T x^{k-1})_i / x_i^{k-1} bracket the
    spectral radius, so such a pair is the dominant one.
    """
    if not answer["converged"]:
        return f"not converged after {answer['iterations']} iterations"
    value, x = answer["value"], answer["vector"]
    if not answer["low"] <= value <= answer["high"]:
        return f"lambda {value} outside its bracket"
    if len(x) != expected.dim:
        return f"vector has {len(x)} components, expected {expected.dim}"
    support = sorted({i for key in expected.keys for i in key})
    if any(x[i - 1] <= 0 for i in support):
        return "vector is not positive on the support"
    contracted = expected.contract(x)
    m1 = expected.k - 1
    worst = max(abs(contracted[i - 1] / x[i - 1] ** m1 - value) for i in support)
    if worst > EIG_TOLERANCE * (1 + abs(value)):
        return f"eigen equation off by {worst:.3g}"
    if value > expected.bound * (1 + EIG_TOLERANCE):
        return f"lambda {value} above the degree bound {expected.bound}"
    return None


class Oracle:
    """Checks answers for the inputs of one workload; expected texts are cached as digests."""

    def __init__(self, inputs):
        self.expected = {inp.name: Expected(inp.n, inp.edges) for inp in inputs}
        self._cache: dict[tuple[str, str], object] = {}

    def _memo(self, name: str, kind: str):
        """The expected answer of a costly kind, built once per input."""
        key = (name, kind)
        if key not in self._cache:
            ex = self.expected[name]
            build = {
                "tensor": lambda: digest(ex.layered_coo()),
                "banerjee": lambda: digest(ex.banerjee_coo()),
                "compare": ex.comparison,
            }[kind]
            self._cache[key] = build()
        return self._cache[key]

    def bounds(self) -> dict[str, int]:
        return {name: ex.bound for name, ex in self.expected.items()}

    def prepare(self, kinds) -> None:
        """Build the costly expected answers now, so the first check does not pay for them."""
        for name in self.expected:
            for kind in {"tensor", "banerjee", "compare"}.intersection(kinds):
                self._memo(name, kind)

    def problem(self, kind: str, name: str | None, param, answer) -> str | None:
        """Why ``answer`` to one request is wrong, or None when it is right."""
        if kind == "alpha":
            k, s = param
            want = alpha(k, s)
            return None if answer == want else f"alpha({k}, {s}) = {answer}, expected {want}"
        ex = self.expected[name]
        if kind == "degrees":
            want = tuple(ex.degrees)
        elif kind == "cardinalities":
            want = (ex.cumulative, ex.per_size)
        elif kind == "reconstruct":
            want = (ex.n, sorted(ex.edges))
        elif kind == "dnf":
            want = sorted(e for e in ex.edges if len(e) == param)
        elif kind in ("tensor", "banerjee"):
            want = self._memo(name, kind)
            answer = digest((answer,)) if isinstance(answer, str) else answer
        elif kind == "poly":
            want = (ex.k, ex.dim, {key: Fraction(ex.k) for key in ex.keys})
        elif kind == "bound":
            disks = tuple((Fraction(0), Fraction(r)) for r in ex.slices)
            want = (ex.delta, ex.delta_star, ex.bound, disks)
        elif kind == "compare":
            want = self._memo(name, kind)
        elif kind == "eigcheck":
            residual = max(abs(Fraction(s) - param) for s in ex.slices)
            want = (residual, Fraction(0), residual == 0)
        elif kind == "eig":
            return eig_problem(ex, answer)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        return None if answer == want else f"{kind} answer differs from the oracle"
