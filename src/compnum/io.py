"""Text formats: graph6 and edge/arc lists.

graph6 is the standard printable encoding of undirected graphs: a vertex
count followed by the upper-triangle adjacency bits x(0,1), x(0,2), x(1,2),
x(0,3), ... packed big-endian into 6-bit groups, each offset by 63.  The
optional ``>>graph6<<`` header is accepted on input and never emitted.

The edge-list format is a header line ``n m`` followed by m lines, one per
edge ``u v`` or, for digraphs, one per arc ``u > v``.  Serialization is
byte-exact deterministic: edges sorted ascending, one trailing newline per
line.
"""

from __future__ import annotations

from .graph import Digraph, Graph, bits, check_graph


class FormatError(ValueError):
    """Malformed input for one of the text formats."""


GRAPH6_HEADER = ">>graph6<<"


def _decode_g6_size(data: str) -> tuple[int, int]:
    """Return (n, number of characters consumed)."""
    if not data:
        raise FormatError("empty graph6 string")
    c = ord(data[0])
    if not 63 <= c <= 126:
        raise FormatError(f"graph6 character out of range: {data[0]!r}")
    if c != 126:
        return c - 63, 1
    # 18 bits after one "~", 36 bits after two
    start, end = (2, 8) if data[1:2] == "~" else (1, 4)
    if len(data) < end:
        raise FormatError("truncated graph6 size field")
    n = 0
    for ch in data[start:end]:
        if not 63 <= ord(ch) <= 126:
            raise FormatError("graph6 size characters out of range")
        n = (n << 6) | (ord(ch) - 63)
    return n, end


def _encode_g6_size(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    data = text.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    elif data.startswith(">>"):
        raise FormatError(f"malformed header in {text!r}")
    n, used = _decode_g6_size(data)
    payload = data[used:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(payload) < nchars:
        raise FormatError("truncated graph6 bit payload")
    if len(payload) > nchars:
        raise FormatError("trailing data after graph6 payload")
    bitstream = 0
    for ch in payload:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise FormatError(f"graph6 character out of range: {ch!r}")
        bitstream = (bitstream << 6) | (c - 63)
    pad = 6 * nchars - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 payload")
    bitstream >>= pad
    rows = [0] * n
    # bits come most-significant first: pair (0,1), then (0,2), (1,2), ...,
    # so column j's j bits, reversed, are row j's neighbours below j
    column_bits = format(bitstream, f"0{nbits}b") if nbits else ""
    start = 0
    for j in range(1, n):
        below = int(column_bits[start:start + j][::-1], 2)
        start += j
        rows[j] |= below
        for i in bits(below):
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))


def serialize_graph6(graph: Graph) -> str:
    check_graph(graph)
    out = _encode_g6_size(graph.n)
    # column j lists pairs (0, j) .. (j - 1, j): row j's low j bits, reversed
    bitstream = int("0" + "".join(format(graph.rows[j] & ((1 << j) - 1),
                                         f"0{j}b")[::-1]
                                  for j in range(1, graph.n)), 2)
    nbits = graph.n * (graph.n - 1) // 2
    nchars = (nbits + 5) // 6
    bitstream <<= 6 * nchars - nbits
    return out + "".join(chr(((bitstream >> (6 * k)) & 63) + 63)
                         for k in range(nchars - 1, -1, -1))


def parse_graph6_lines(text: str) -> list[Graph]:
    """Decode a multi-line graph6 stream, skipping blank lines."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def parse_edge_list(text: str) -> Graph | Digraph:
    """Parse the ``n m`` edge-list format.

    Lines of the form ``u v`` build a Graph; lines of the form ``u > v``
    build a Digraph.  The two styles cannot be mixed.  The value types
    check vertex range, self-loops and repeats, raised as FormatError.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"malformed header line: {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    directed = any(">" in ln for ln in body)
    pairs = []
    for ln in body:
        parts = ln.split()
        if directed:
            if len(parts) != 3 or parts[1] != ">":
                raise FormatError(f"malformed arc line: {ln!r}")
            u, v = parts[0], parts[2]
        else:
            if len(parts) != 2:
                raise FormatError(f"malformed edge line: {ln!r}")
            u, v = parts
        try:
            pairs.append((int(u), int(v)))
        except ValueError:
            raise FormatError(f"malformed line: {ln!r}") from None
    if directed and len(set(pairs)) != len(pairs):
        raise FormatError("duplicate arc")
    try:
        return (Digraph.from_arcs(n, pairs) if directed
                else Graph.from_edges(n, pairs))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_edge_list(value: Graph | Digraph) -> str:
    if isinstance(value, Graph):
        edges = value.edges()
        lines = [f"{value.n} {len(edges)}"]
        lines.extend(f"{u} {v}" for u, v in edges)
    else:
        lines = [f"{value.n} {len(value.arcs)}"]
        lines.extend(f"{u} > {v}" for u, v in value.arcs)
    return "\n".join(lines) + "\n"
