"""graph6 and edge-list round-trips plus diagnostics with line and
column positions.

The round-trip check runs over every isomorphism class up to order 7
and over seeded random graphs of orders 0 to 300, so the encoder and
decoder cannot drift apart silently.  Both directions are also checked
against a per-bit reference codec written from the graph6 definition,
which a mirrored pair of errors would not pass.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from redrank.census import enumerate_graphs
from redrank.formats import (FormatError, graph6_decode, graph6_encode,
                             parse_edge_list, parse_graph6, sniff_format)
from redrank.graphs import Graph


def test_known_encodings():
    assert graph6_encode(Graph.complete(4)) == "C~"
    assert graph6_encode(Graph.path(4)) == "Ch"
    assert graph6_encode(Graph.from_edges(1, [])) == "@"
    assert graph6_decode("C~") == Graph.complete(4)
    assert graph6_decode("Ch") == Graph.path(4)


def test_encode_peak_memory_at_order_2000(traced_peak):
    # the body goes through one bit string and its packed bytes, not one
    # string per output byte (26 MB traced)
    g = Graph.complete(2000)
    assert traced_peak(lambda: graph6_encode(g)) < 8 * 10 ** 6


def test_round_trip_every_class_up_to_seven():
    for order in range(1, 8):
        for g in enumerate_graphs(order):
            assert graph6_decode(graph6_encode(g)) == g


def test_long_form_orders():
    g = Graph.path(63)
    text = graph6_encode(g)
    assert text.startswith("~")
    assert graph6_decode(text) == g
    h = Graph.cycle(100)
    assert graph6_decode(graph6_encode(h)) == h


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_round_trip_random_graphs(n, density, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < density])
    text = graph6_encode(g)
    assert text.startswith("~") == (n >= 63)
    assert len(text) == (1 if n < 63 else 4) + (n * (n - 1) // 2 + 5) // 6
    assert graph6_decode(text) == g
    assert graph6_encode(graph6_decode(text)) == text


def _spec_encode(g: Graph) -> str:
    """graph6 from its definition, one bit at a time: the order (one byte,
    or '~' and 18 bits), then x_{i,j} for i < j column by column, in
    big-endian 6-bit groups padded with zeros, each group plus 63."""
    n = g.n
    groups = [n] if n < 63 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = [g.rows[j] >> i & 1 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for at in range(0, len(bits), 6):
        value = 0
        for bit in bits[at:at + 6]:
            value = 2 * value + bit
        groups.append(value)
    return "".join(chr(63 + value) for value in groups)


def _spec_decode(text: str) -> Graph:
    """The inverse of _spec_encode, one bit at a time."""
    values = [ord(c) - 63 for c in text]
    if values[0] == 63:
        n, body = values[1] << 12 | values[2] << 6 | values[3], values[4:]
    else:
        n, body = values[0], values[1:]
    bits = [value >> (5 - k) & 1 for value in body for k in range(6)]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    assert not any(bits[len(pairs):])
    return Graph.from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])


# every residue mod 6 of the bit count n(n-1)/2 (period 12), and both
# sides of the long form's start at 63
_SPEC_ORDERS = [*range(13), 62, 63, 64, 65, 66, 100, 127, 128, 200, 300]


def test_codec_matches_the_per_bit_definition():
    assert ({n * (n - 1) // 2 % 6 for n in _SPEC_ORDERS}
            == {n * (n - 1) // 2 % 6 for n in range(12)})
    rng = random.Random(6)
    for n in _SPEC_ORDERS:
        for density in (0.0, 0.5, 1.0):
            g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                     if rng.random() < density])
            text = _spec_encode(g)
            assert _spec_decode(text) == g
            assert graph6_encode(g) == text
            assert graph6_decode(text) == g


_P63 = graph6_encode(Graph.path(63))


@pytest.mark.parametrize("text, message, column", [
    ("", "empty graph6 string", 1),
    ("C!", "byte 33 outside graph6 range 63..126", 2),
    ("C\x7f", "byte 127 outside graph6 range 63..126", 2),
    (_P63[:40] + "\x10" + _P63[41:], "byte 16 outside graph6 range 63..126", 41),
    (_P63[:40] + "\u00e9" + _P63[41:], "byte 233 outside graph6 range 63..126",
     41),
    (_P63[:9] + "\u20ac" + _P63[10:], "byte 8364 outside graph6 range 63..126",
     10),
    ("~!??", "byte 33 outside graph6 range 63..126", 2),
    (_P63[:2] + " " + _P63[3:], "byte 32 outside graph6 range 63..126", 3),
    ("~??>" + _P63[4:], "byte 62 outside graph6 range 63..126", 4),
    ("~~?!", "byte 33 outside graph6 range 63..126", 4),
    (_P63[:-1] + "\x7f", "byte 127 outside graph6 range 63..126", 330),
    ("~??", "truncated long-form order", 4),
    ("~~????", "order beyond the supported long form", 2),
    ("~??}", "long-form order 62 must use the short form", 2),
    ("~???", "long-form order 0 must use the short form", 2),
    ("C", "order 4 needs 1 adjacency bytes, found 0", 2),
    (_P63[:-1], "order 63 needs 326 adjacency bytes, found 325", 330),
    ("C~extra", "order 4 needs 1 adjacency bytes, found 6", 3),
    (_P63 + "?", "order 63 needs 326 adjacency bytes, found 327", 331),
    ("DhD", "nonzero padding bits", 3),
    (_P63[:-1] + "K", "nonzero padding bits", 330),
])
def test_decode_error_positions(text, message, column):
    """Message, line and column of each malformed input, as the per-bit
    decoder reported them."""
    with pytest.raises(FormatError) as exc:
        graph6_decode(text, 3)
    assert (exc.value.message, exc.value.line, exc.value.column) == \
        (message, 3, column)


def test_decode_rejects_garbage():
    with pytest.raises(FormatError):
        graph6_decode("")
    with pytest.raises(FormatError):
        graph6_decode("C")          # truncated body
    with pytest.raises(FormatError):
        graph6_decode("C~extra")    # trailing bytes
    with pytest.raises(FormatError):
        graph6_decode("C!")         # byte below range
    err = None
    try:
        graph6_decode("C\x7f")
    except FormatError as e:
        err = e
    assert err is not None
    assert err.line == 1 and err.column == 2
    assert "line 1, column 2" in str(err)


def test_decode_rejects_nonzero_padding():
    # order 5 leaves two padding bits in the final 6-bit group
    text = graph6_encode(Graph.path(5))
    tampered = text[:-1] + chr(((ord(text[-1]) - 63) | 1) + 63)
    assert tampered != text
    with pytest.raises(FormatError) as exc:
        graph6_decode(tampered)
    assert "padding" in str(exc.value)


def test_parse_graph6_stream():
    text = ">>graph6<<\nC~\n\nCh\n"
    graphs = parse_graph6(text)
    assert graphs == [Graph.complete(4), Graph.path(4)]
    assert parse_graph6("") == []
    with pytest.raises(FormatError) as exc:
        parse_graph6("C~\nC!\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("parse, text, line, column", [
    (parse_edge_list, "+5 +\n", 1, 4),
    (parse_edge_list, "   3 x\n", 1, 6),
    (parse_edge_list, "2 1\n\t0  z\n", 2, 5),
    (parse_graph6, "C~\n   C!\n", 2, 5),
])
def test_error_columns_count_from_the_raw_line(parse, text, line, column):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_edge_list_parse():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g == Graph.path(4)
    # comments and blank lines are tolerated
    g = parse_edge_list("# a path\n3 2\n\n0 1\n1 2\n")
    assert g == Graph.path(3)


def test_edge_list_diagnostics():
    with pytest.raises(FormatError) as exc:
        parse_edge_list("4 3\n0 1\n1 2\n")          # fewer edges than stated
    assert "2" in str(exc.value)
    with pytest.raises(FormatError):
        parse_edge_list("4 1\n0 9\n")               # endpoint out of range
    with pytest.raises(FormatError):
        parse_edge_list("4 1\n2 2\n")               # loop
    with pytest.raises(FormatError):
        parse_edge_list("4 2\n0 1\n1 0\n")          # duplicate edge
    with pytest.raises(FormatError):
        parse_edge_list("banana\n")                 # bad header
    with pytest.raises(FormatError):
        parse_edge_list("")


def test_sniff_format():
    assert sniff_format("3 2\n0 1\n1 2\n") == "edges"
    assert sniff_format("C~\n") == "graph6"
    assert sniff_format(">>graph6<<\nC~\n") == "graph6"


@pytest.mark.parametrize("text, expected", [
    ("# a header\n\n  5  0 # five vertices\n", "edges"),
    ("+5 -2\n", "edges"),
    ("\u20035\u00a00\n", "edges"),
    ("3 x\n", "graph6"),
    ("1 2 3\n", "graph6"),
    ("3\n", "graph6"),
    ("# only a comment\n", "graph6"),
])
def test_sniff_format_reads_the_header_as_the_parser_does(text, expected):
    # 'edges' exactly when parse_edge_list accepts the header line's shape
    assert sniff_format(text) == expected
