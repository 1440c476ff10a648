"""The HG v1 parser against the line-by-line loop it replaced.

``reference_parse`` is the original parser, kept verbatim (with the name
changed) as the reference: it split and checked one line per loop body and
named the first faulty line.  The parser must give an equal ``Hypergraph``
or the identical message on every text, so its family-wide checks may only
decide whether the line walk runs, never what it says.  The reference knows
no byte-order mark; it is given each text with the one leading U+FEFF that
the parser drops removed.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor import Hypergraph, parse_hypergraph
from hgtensor.hypergraph import Edge, _as_edge, _trusted


def reference_parse(source: str) -> Hypergraph:
    text = source
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if len(tokens) != 1:
                raise ValueError(f"line {lineno}: header must be a single integer")
            try:
                n = int(tokens[0])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed vertex count {tokens[0]!r}") from None
            if n < 0:
                raise ValueError(f"line {lineno}: vertex count must be nonnegative")
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
    if n is None:
        raise ValueError("missing header: expected a vertex count line")
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate hyperedge in edge family")
    return _trusted(Hypergraph, n, tuple(edges))


def outcome(parse, text: str) -> Hypergraph | str:
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(text: str) -> None:
    expected = outcome(reference_parse, text.removeprefix("\ufeff"))
    assert outcome(parse_hypergraph, text) == expected


# few small vertices, so that lines repeat a vertex and edges repeat across lines
TOKENS = ["1", "2", "3", "4", "9", "0", "-1", "+2", "1_0", "03", "٣", "x", "1.5", "#", "#1"]
HEADERS = ["3", "4", "10", "0", "-1", "+3", "x", "3 4", "# header", ""]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\n\n", "\n# comment\n"]
SPACES = [" ", "\t", "  ", "\x0c", "\x1c", "\xa0"]


@st.composite
def hg_texts(draw) -> str:
    lines = [draw(st.sampled_from(HEADERS))]
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=4))
        lines.append(draw(st.sampled_from(SPACES)).join(tokens))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    return draw(st.sampled_from(["", "\ufeff", "# leading comment\n"])) + text


class TestAgainstReference:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(hg_texts() | st.text(alphabet=" \t\n\r\x0c\x1c#-+_x01239٣\ufeff", max_size=40))
    def test_same_hypergraph_or_same_message(self, text):
        assert_same_outcome(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n1 1\nx\n", "line 2: duplicate vertex within hyperedge"),
            ("3\n# c\n\n2 9\n1 x\n", "line 4: vertex index 9 out of range [1, 3]"),
            ("3\n1 2\nx 1 1 9\n", "line 3: malformed vertex index"),
            ("3\n1 2\n2 2 9\n", "line 3: duplicate vertex within hyperedge"),
            ("3\n1 2\n2 1\n3 3\n", "line 4: duplicate vertex within hyperedge"),
            ("3\r\n1 2\x0c0 1\x1c2 1\n", "line 3: vertex index 0 out of range [1, 3]"),
            ("3\n1 2\n3\n2 1\n", "duplicate hyperedge in edge family"),
            ("\ufeff# saved with a mark\n3\n1 2\n9\n", "line 4: vertex index 9 out of range [1, 3]"),
            ("\ufeff\ufeff3\n", "line 1: malformed vertex count '\\ufeff3'"),
        ],
        ids=[
            "repeat-before-malformed",
            "range-before-malformed",
            "malformed-first-in-line",
            "repeat-before-range-in-line",
            "line-fault-after-duplicate-edge",
            "line-breaks-count",
            "duplicate-edge",
            "mark-then-comment",
            "one-mark-only",
        ],
    )
    def test_names_the_first_faulty_line(self, text, message):
        assert outcome(parse_hypergraph, text) == message
        assert_same_outcome(text)

    def test_loose_integer_spellings(self):
        text = "\ufeff10\n+2 1_0 03\n٣\n"
        assert parse_hypergraph(text) == Hypergraph(10, (frozenset({2, 10, 3}), frozenset({3})))
        assert_same_outcome(text)


def test_parse_peak_memory_stays_near_what_the_hypergraph_keeps():
    # every line's token lists held at once, or a second list of lines, would pass 1.4x
    p = 50_000
    text = f"{p}\n" + "".join(f"{i} {i % p + 1}\n" for i in range(1, p + 1))
    tracemalloc.start()
    try:
        h = parse_hypergraph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.p == p
    assert peak <= 1.4 * kept
