"""Property tests: the graph parsers refuse bad input only with GraphFormatError."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from relpoly.errors import GraphFormatError  # noqa: E402
from relpoly.graphs import SimpleGraph, parse_edge_list, parse_graph6  # noqa: E402

# deterministic, so the suite stays repeatable
fuzz = settings(max_examples=100, deadline=None, derandomize=True, database=None)

PARSERS = pytest.mark.parametrize("parse", [parse_graph6, parse_edge_list])

# an "n m" header, then "u v" lines, of small and possibly negative integers
edge_list_text = st.from_regex(
    r"-?[0-9]{1,2} -?[0-9]{1,2}(\n-?[0-9]{1,2} -?[0-9]{1,2}){0,4}\n?", fullmatch=True
)
# graph6 data bytes only (63..126), so the size and length checks are reached
graph6_text = st.from_regex(r"[?-~]{0,12}", fullmatch=True)


def parses_or_refuses(parse, text):
    try:
        g = parse(text)
    except GraphFormatError:
        return
    assert isinstance(g, SimpleGraph)


@PARSERS
@fuzz
@given(st.text())
def test_arbitrary_text_is_parsed_or_refused(parse, text):
    parses_or_refuses(parse, text)


@PARSERS
@fuzz
@given(edge_list_text)
@example("-1 0")
def test_edge_list_shaped_text_is_parsed_or_refused(parse, text):
    parses_or_refuses(parse, text)


@fuzz
@given(graph6_text)
def test_graph6_shaped_text_is_parsed_or_refused(text):
    parses_or_refuses(parse_graph6, text)


def test_negative_vertex_count_is_a_format_error():
    with pytest.raises(GraphFormatError, match="negative vertex count"):
        parse_edge_list("-1 0")
