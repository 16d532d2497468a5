"""Graph interchange formats: graph6 and a plain edge-list format.

graph6 (bit-exact): the order is encoded as byte 63 + n for n <= 62,
or as '~' followed by three bytes carrying an 18-bit big-endian value
for 63 <= n <= 258047.  The upper-triangle adjacency bits follow in
column-major order (x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...), packed
big-endian into 6-bit groups, each emitted as byte value 63 + group;
trailing pad bits are zero.  One graph per line.  Both directions are
linear in the length of the body, which they write out once as a bit
string through a 64-entry table of 6-bit groups.  Decoding pads column
j to n bits, so entry (i, j) of the n x n column-major square is x_{i,j}
above the diagonal and 0 elsewhere: row i is column i OR-ed with the
stride-n slice from i.

Edge list: first line "n m", then m lines "u v" with 0-based vertex
indices; blank lines and '#' comments are ignored anywhere.

All parse failures raise FormatError carrying a 1-based line and,
where it makes sense, a 1-based column.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .graphs import Graph

_OFFSET = 63
_LONG_MARK = 126  # '~'
_MAX_SHORT = 62
_MAX_LONG = 258047
_SIXES = {_OFFSET + k: format(k, "06b") for k in range(64)}  # byte -> group
_GROUPS = {bits: chr(byte) for byte, bits in _SIXES.items()}


class FormatError(ValueError):
    """Malformed graph input, with position information."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


# ── graph6 ───────────────────────────────────────────────────────


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= _MAX_SHORT:
        head = [chr(_OFFSET + n)]
    elif n <= _MAX_LONG:
        head = [chr(_LONG_MARK),
                chr(_OFFSET + (n >> 12 & 63)),
                chr(_OFFSET + (n >> 6 & 63)),
                chr(_OFFSET + (n & 63))]
    else:
        raise ValueError(f"graph6 supports at most {_MAX_LONG} vertices")
    # column j is x_{0,j} .. x_{j-1,j}: bits 0..j-1 of row j, low bit first
    rows = g.rows
    bits = "".join([format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                    for j in range(1, n)])
    bits += "0" * (-len(bits) % 6)
    return "".join(head + list(map(_GROUPS.get, re.findall("......", bits))))


def graph6_decode(text: str, line: int = 1) -> Graph:
    if not text:
        raise FormatError("empty graph6 string", line, 1)
    bad = re.search("[^?-~]", text)  # '?' is 63 and '~' is 126
    if bad:
        raise FormatError(f"byte {ord(bad[0])} outside graph6 range 63..126",
                          line, bad.start() + 1)
    if ord(text[0]) != _LONG_MARK:
        n = ord(text[0]) - _OFFSET
        body_at = 1
    else:
        if len(text) < 4:
            raise FormatError("truncated long-form order", line, len(text) + 1)
        if ord(text[1]) == _LONG_MARK:
            raise FormatError("order beyond the supported long form", line, 2)
        n = ((ord(text[1]) - _OFFSET) << 12 | (ord(text[2]) - _OFFSET) << 6
             | (ord(text[3]) - _OFFSET))
        if n <= _MAX_SHORT:
            raise FormatError(f"long-form order {n} must use the short form",
                              line, 2)
        body_at = 4
    need = (n * (n - 1) // 2 + 5) // 6
    have = len(text) - body_at
    if have != need:
        raise FormatError(
            f"order {n} needs {need} adjacency bytes, found {have}",
            line, body_at + min(have, need) + 1)
    bits = text[body_at:].translate(_SIXES)
    total = n * (n - 1) // 2
    if "1" in bits[total:]:
        # fewer than six pad bits, so all of them sit in the last byte
        raise FormatError("nonzero padding bits", line, len(text))
    # reversed, column i gives the bits v < i of row i (x_{v,i}) and the
    # stride-n slice from i the bits v > i (x_{i,v})
    square = "".join([bits[j * (j - 1) // 2:j * (j + 1) // 2] + "0" * (n - j)
                      for j in range(n)])
    rows = [int(square[i * n:i * n + n][::-1], 2) | int(square[i::n][::-1], 2)
            for i in range(n)]
    return Graph._raw(n, tuple(rows))


def parse_graph6(text: str) -> list[Graph]:
    """All graphs in a graph6 document, one per line; blank lines and
    the conventional '>>graph6<<' header are ignored."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped == ">>graph6<<":
            continue
        try:
            out.append(graph6_decode(stripped, lineno))
        except FormatError as exc:
            # the decoder counts columns in the stripped line
            lead = len(raw) - len(raw.lstrip())
            raise FormatError(exc.message, lineno, exc.column + lead) from None
    return out


# ── edge list ────────────────────────────────────────────────────


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    """(line number, line without its comment) for each line with
    content; the line keeps its leading blanks, so columns count from the
    raw line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def _two_ints(body: str, lineno: int, what: str) -> tuple[int, int]:
    tokens = list(re.finditer(r"\S+", body))
    if len(tokens) != 2:
        raise FormatError(f"{what} needs two integers", lineno, 1)
    values = []
    for token in tokens:
        try:
            values.append(int(token.group()))
        except ValueError:
            raise FormatError(f"{what}: {token.group()!r} is not an integer",
                              lineno, token.start() + 1) from None
    return values[0], values[1]


def parse_edge_list(text: str) -> Graph:
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty edge-list document", 1, 1)
    head_line, head = lines[0]
    n, m = _two_ints(head, head_line, "header")
    if n < 0 or m < 0:
        raise FormatError("header counts must be non-negative", head_line, 1)
    if n > _MAX_LONG:
        raise FormatError(f"order beyond the supported {_MAX_LONG}", head_line, 1)
    if len(lines) - 1 != m:
        raise FormatError(
            f"header announces {m} edges, found {len(lines) - 1} edge lines",
            head_line, 1)
    edges = []
    seen = set()
    for lineno, body in lines[1:]:
        u, v = _two_ints(body, lineno, "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}",
                              lineno, 1)
        if u == v:
            raise FormatError(f"loop at vertex {u}", lineno, 1)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge ({key[0]}, {key[1]})", lineno, 1)
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(n, edges)


def sniff_format(text: str) -> str:
    """Best-effort input classification: 'edges' when the first content
    line is two integers (an edge-list header), else 'graph6'."""
    for lineno, body in _content_lines(text):
        try:
            _two_ints(body, lineno, "header")
        except FormatError:
            return "graph6"
        return "edges"
    return "graph6"
