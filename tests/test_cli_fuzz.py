"""Any input, any subcommand: the CLI answers with a documented exit code.

Inputs are kept small (n <= 6, edges of at most 5 vertices, counts up to
40) so that no combinatorially large tensor or count can be reached; the
property is that ``main`` returns 0, 1, 2 or 64 and never raises.
"""

from __future__ import annotations

import contextlib
import io
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor.cli import main

FUZZ = settings(max_examples=600, deadline=None, derandomize=True, database=None)

PATH_COMMANDS = [
    ["info"],
    ["layers"],
    ["tensor"],
    ["tensor", "--model", "layered"],
    ["tensor", "--model", "banerjee"],
    *(["tensor", "--layer", "{}", "--normalization", norm] for norm in ("raw", "degree", "eigen")),
    ["tensor", "--layer", "{}", "--model", "layered"],
    ["poly", "--policy", "unit"],
    ["poly", "--policy", "handshake"],
    ["degrees"],
    ["cardinalities"],
    ["reconstruct"],
    ["dnf", "--size", "{}"],
    ["compare", "--format", "keyvalue"],
    ["compare", "--format", "text"],
    ["bound"],
    ["eig", "--max-iter", "300"],
    ["graph-check"],
]


@st.composite
def hg_texts(draw) -> str:
    """HG text with n in -1..6 and up to 6 edges of up to 5 vertex ids in -1..7, or any text.

    Half of them keep every id in range and every edge distinct, so that
    commands get past the parser, and half of those are graphs, so that
    graph-check gets past its 2-uniform check.
    """
    kind = draw(st.sampled_from(["graph", "valid", "wild", "text"]))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "wild":
        n = draw(st.integers(-1, 6))
        edges = draw(st.lists(st.lists(st.integers(-1, 7), min_size=1, max_size=5), max_size=6))
    else:
        n = draw(st.integers(2, 6))
        low, high = (2, 2) if kind == "graph" else (1, 5)
        edge = st.frozensets(st.integers(1, n), min_size=low, max_size=high)
        edges = draw(st.lists(edge, min_size=1, max_size=6, unique=True))
    return f"{n}\n" + "".join(" ".join(map(str, sorted(e))) + "\n" for e in edges)


path_invocations = st.builds(
    lambda command, k, text: ([*(a.format(k) for a in command), "-"], text),
    st.sampled_from(PATH_COMMANDS),
    st.integers(-1, 6),
    hg_texts(),
)
count_invocations = st.builds(
    lambda command, a, b: (command.format(a, b).split(), ""),
    st.sampled_from(["partitions --m {} --s {}", "alpha --k {} --s {}"]),
    st.integers(-3, 40),
    st.integers(-3, 40),
)


@FUZZ
@given(st.one_of(path_invocations, count_invocations))
def test_every_invocation_gets_a_documented_exit_code(invocation):
    argv, text = invocation
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 64)
    if code in (1, 64):
        assert err.getvalue().startswith(("error: ", "usage error: "))
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
