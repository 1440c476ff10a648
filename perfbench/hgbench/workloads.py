"""Workload definitions and the seeded input generator.

Inputs follow ``tests/conftest.random_hypergraph``, only larger and with a
fixed shape: exactly n vertices, p distinct edges and largest edge size
k_max.  Vertices are drawn uniformly and a duplicate edge is drawn again.
Edge sizes are spread evenly over 1..k_max (each size about p/k_max times,
in seeded random order) instead of drawn independently, so every seed has
the same size histogram and therefore the same number of tensor keys: the
seed changes which vertices an edge holds, not how much work a request is.
Independent sizes moved the Banerjee key count of 60/300/12 by about 6%
from seed to seed, which is as large as the benchmark's own noise target.

Why each workload exists is noted above its entry in ``WORKLOADS``;
README.md in this directory expands on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Input:
    """One hypergraph as HG v1 text, plus the edge list the oracle reads."""

    name: str
    n: int
    edges: tuple[Edge, ...]
    text: str

    @property
    def k_max(self) -> int:
        return max(len(e) for e in self.edges)


@dataclass(frozen=True)
class Request:
    kind: str
    input: Input | None
    param: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]
    shapes: tuple[tuple[int, int, int], ...]
    per_shape: int = 1
    verbatim: tuple[tuple[str, str], ...] = ()
    alpha_orders: tuple[int, ...] = ()


# The two eigensolver failures recorded in ROADMAP.md, kept verbatim.  At
# the time of writing, power_iteration raises
# ZeroDivisionError on the first and stops unconverged after 997 iterations
# on the second (tests/data/two_blocks.hg).  They stay in the spectral
# workload so that its failed requests are visible until the eigensolver is
# fixed; dropping them would hide a known defect.
TRIANGLE_PLUS_EDGE = "6\n1 2\n2 3\n1 3\n4 5 6\n"
TWO_BLOCKS = "5\n1 2\n3 4\n3 5\n4 5\n"
# The (request kind, input) pairs above that may fail without making a run
# incorrect.  Any other request that raises or does not converge is a
# regression, and so is a wrong answer on any input.
EXPECTED_FAILURES = frozenset({("eig", "triangle_plus_edge"), ("eig", "two_blocks")})

WORKLOADS = {
    # One-shot reads of a built tensor.  The uniformize/symtensor read path
    # does almost all the work (degrees alone is about 75% of a 2000/4000/6
    # request); three sizes expose how each stage grows with nnz.
    "retrieval": Workload(
        name="retrieval",
        kinds=("degrees", "cardinalities", "reconstruct", "dnf", "tensor", "poly", "bound"),
        shapes=((500, 1000, 4), (1000, 2000, 5), (2000, 4000, 6)),
    ),
    # Repeated contraction: apply runs 20-40 times per eig (floats) and once
    # per eigcheck (exact Fractions); retrieval is idle.  Four inputs per
    # shape average out the seed-to-seed spread of the iteration count,
    # which moved one input's eig time by about 12%.
    "spectral": Workload(
        name="spectral",
        kinds=("eig", "eigcheck"),
        shapes=((200, 500, 4), (400, 1000, 5)),
        per_shape=4,
        verbatim=(("triangle_plus_edge", TRIANGLE_PLUS_EDGE), ("two_blocks", TWO_BLOCKS)),
    ),
    # Many keys written per edge: the SymTensor constructor and the
    # enumeration of compositions dominate; the layered tensor is a few ms.
    "compare": Workload(
        name="compare",
        kinds=("compare", "banerjee", "alpha"),
        shapes=((60, 300, 10), (60, 300, 12)),
        alpha_orders=(14, 16, 18),
    ),
}


def random_edges(rng: random.Random, n: int, p: int, k_max: int) -> tuple[Edge, ...]:
    """p distinct edges on vertices 1..n with sizes spread evenly over 1..k_max."""
    sizes = [1 + i % k_max for i in range(p)]
    for s in range(1, k_max + 1):
        if sizes.count(s) > math.comb(n, s):
            raise ValueError(f"{n} vertices hold fewer than {sizes.count(s)} distinct {s}-edges")
    rng.shuffle(sizes)
    seen: set[frozenset[int]] = set()
    edges = []
    for s in sizes:
        edge = tuple(rng.sample(range(1, n + 1), s))
        while frozenset(edge) in seen:
            edge = tuple(rng.sample(range(1, n + 1), s))
        seen.add(frozenset(edge))
        edges.append(edge)
    return tuple(edges)


def hg_text(n: int, edges: tuple[Edge, ...]) -> str:
    return f"{n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


def _read_verbatim(name: str, text: str) -> Input:
    rows = [line.split() for line in text.strip().splitlines()]
    n = int(rows[0][0])
    edges = tuple(tuple(int(v) for v in row) for row in rows[1:])
    return Input(name, n, edges, text)


def make_inputs(workload: Workload, seed: int) -> tuple[Input, ...]:
    """The workload's inputs for one seed; the same seed gives the same inputs."""
    inputs = []
    for n, p, k_max in workload.shapes:
        for copy in range(workload.per_shape):
            rng = random.Random(f"{workload.name}:{seed}:{n}/{p}/{k_max}:{copy}")
            edges = random_edges(rng, n, p, k_max)
            inputs.append(Input(f"{n}/{p}/{k_max}#{copy}", n, edges, hg_text(n, edges)))
    inputs.extend(_read_verbatim(name, text) for name, text in workload.verbatim)
    return tuple(inputs)


def round_requests(
    workload: Workload, inputs: tuple[Input, ...], round_index: int, bounds: dict[str, int]
) -> list[Request]:
    """Every request kind sent to every input once, in a fixed order.

    ``dnf`` asks for one size per request, cycling through 1..k_max from
    round to round; ``eigcheck`` offers the input's degree bound (from
    ``bounds``) as the candidate eigenvalue.
    """
    requests = []
    for inp in inputs:
        for kind in workload.kinds:
            if kind == "alpha":
                continue
            param = None
            if kind == "dnf":
                param = 1 + round_index % inp.k_max
            elif kind == "eigcheck":
                param = bounds[inp.name]
            requests.append(Request(kind, inp, param))
    for k in workload.alpha_orders:
        requests.extend(Request("alpha", None, (k, s)) for s in range(1, k + 1))
    return requests
