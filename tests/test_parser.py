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

from hgtensor import Hypergraph, hypergraph, parse_hypergraph
from hgtensor.hypergraph import _VERTEX_TABLE, Edge, _as_edge, _trusted


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


TEXTS = hg_texts() | st.text(alphabet=" \t\n\r\x0c\x1c#-+_x01239٣\ufeff", max_size=40)
PROPERTY = settings(max_examples=600, deadline=None, derandomize=True, database=None)


class TestAgainstReference:
    @PROPERTY
    @given(TEXTS)
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


class TestAgainstReferenceThroughInt(TestAgainstReference):
    """The same texts with the vertex table's cap below every vertex count, 0 included.

    ``TestAgainstReference`` reads every text whose header is at most the cap,
    nearly all of them, through the table; here each one takes the ``int()`` route.
    """

    @pytest.fixture(autouse=True, scope="class")
    def int_route(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hypergraph, "_VERTEX_TABLE", -1)
            yield

    # hypothesis runs one property per class, so the subclass states its own
    @PROPERTY
    @given(TEXTS)
    def test_same_hypergraph_or_same_message(self, text):
        assert_same_outcome(text)


@pytest.mark.parametrize("n", [_VERTEX_TABLE, _VERTEX_TABLE + 1], ids=["table", "int"])
def test_routes_meet_at_the_cap(n):
    # the cap itself is read through the table, which must still hold vertex n and refuse n + 1
    text = f"{n}\n1 {_VERTEX_TABLE}\n{_VERTEX_TABLE} {_VERTEX_TABLE + 1}\n"
    if n == _VERTEX_TABLE:
        message = f"line 3: vertex index {n + 1} out of range [1, {n}]"
        assert outcome(parse_hypergraph, text) == message
    else:
        edges = (frozenset({1, _VERTEX_TABLE}), frozenset({_VERTEX_TABLE, n}))
        assert parse_hypergraph(text) == Hypergraph(n, edges)
    assert_same_outcome(text)


def test_table_route_shares_one_int_per_vertex():
    # past the interpreter's small-int cache, int() would make a new object per token
    first, second = parse_hypergraph(f"{_VERTEX_TABLE}\n1 300 {_VERTEX_TABLE}\n{_VERTEX_TABLE} 300 2\n").edges
    for v in (300, _VERTEX_TABLE):
        [a] = [u for u in first if u == v]
        [b] = [u for u in second if u == v]
        assert a is b


def peak_over_kept(text: str) -> tuple[Hypergraph, int, int]:
    """The parsed hypergraph, the bytes it keeps and the parse's peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        h = parse_hypergraph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return h, kept, peak


def test_parse_peak_memory_stays_near_what_the_hypergraph_keeps():
    # every line's token lists held at once, or a second list of lines, would pass 1.4x
    p = 50_000
    text = f"{p}\n" + "".join(f"{i} {i % p + 1}\n" for i in range(1, p + 1))
    h, kept, peak = peak_over_kept(text)
    assert h.p == p
    assert peak <= 1.4 * kept


def test_vertex_table_adds_under_a_megabyte_to_the_parse_peak():
    # the largest table, built for a cycle of 2-edges through every one of its vertices
    p = _VERTEX_TABLE
    text = f"{p}\n" + "".join(f"{i} {i % p + 1}\n" for i in range(1, p + 1))
    h, kept, peak = peak_over_kept(text)
    assert h.p == p
    assert peak - kept < 1 << 20
