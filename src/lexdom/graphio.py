"""graph6 and edge-list codecs, named graph families, and corpus loading.

graph6 conventions (short form only):

* order n <= 62: one size byte ``63 + n``;
* 63 <= n <= 128: byte 126 followed by three bytes holding n in 6-bit
  big-endian groups, each offset by 63;
* payload: the upper-triangle adjacency bits in column-major order
  (0,1),(0,2),(1,2),(0,3),... packed into 6-bit groups (most significant
  bit first), zero-padded, each group emitted as ``63 + value``.

The edge-list text format is a ``"n m"`` header line followed by m lines
``"u v"`` with 0-based endpoints.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GraphFormatError
from .graph import MAX_VERTICES, Graph, build_graph

GRAPH6_HEADER = b">>graph6<<"


def _byte_value(data: bytes, offset: int) -> int:
    b = data[offset]
    if not 63 <= b <= 126:
        raise GraphFormatError(f"byte 0x{b:02x} outside graph6 range [63,126]", offset=offset)
    return b - 63


def parse_graph6(data: bytes | str) -> Graph:
    """Parse one graph6 line (optional ``>>graph6<<`` header allowed).  A
    ``str`` must be ASCII.  An error's offset indexes the input as given,
    leading blanks and header included."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphFormatError(f"character {data[exc.start]!r} is not ASCII",
                                   offset=exc.start) from None
    data = data.rstrip()
    start = len(data) - len(data.lstrip())
    if data.startswith(GRAPH6_HEADER, start):
        start += len(GRAPH6_HEADER)
    if start == len(data):
        raise GraphFormatError("empty graph6 input", offset=start)

    if data[start] == 126:
        pos = start + 4
        if len(data) < pos:
            raise GraphFormatError("truncated long-form size", offset=len(data))
        n = 0
        for i in range(start + 1, pos):
            n = n << 6 | _byte_value(data, i)
    else:
        n = _byte_value(data, start)
        pos = start + 1
    if n < 1:
        raise GraphFormatError(f"unsupported graph order {n}", offset=start)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph order {n} exceeds the supported maximum {MAX_VERTICES}", offset=start)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError(
            f"truncated payload: need {nbytes} bytes, have {len(data) - pos}", offset=len(data)
        )
    if len(data) - pos > nbytes:
        raise GraphFormatError("trailing bytes after graph6 payload", offset=pos + nbytes)

    # the bits come in the column-major order write_graph6 emits them
    rows = [0] * n
    k = pos
    value = shift = 0
    for v in range(1, n):
        for u in range(v):
            if not shift:
                value = _byte_value(data, k)
                k += 1
                shift = 6
            shift -= 1
            if value >> shift & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if value & ((1 << shift) - 1):
        raise GraphFormatError("nonzero padding bits", offset=k - 1)
    return Graph(n, tuple(rows))


def write_graph6(g: Graph) -> bytes:
    """Encode a graph; ``parse_graph6(write_graph6(g)) == g`` bit-exactly."""
    out = bytearray()
    if g.n <= 62:
        out.append(63 + g.n)
    else:
        out.append(126)
        out.extend(63 + (g.n >> shift & 0x3F) for shift in (12, 6, 0))
    acc = 0
    nacc = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = acc << 1 | (g.adj[v] >> u & 1)
            nacc += 1
            if nacc == 6:
                out.append(63 + acc)
                acc = nacc = 0
    if nacc:
        out.append(63 + (acc << (6 - nacc)))
    return bytes(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the ``"n m"`` header / ``"u v"`` lines edge-list format.  Blank
    and ``#`` lines are skipped; an error's line number counts every line of
    the input as given."""
    lines = [(i, ln.split()) for i, ln in enumerate(map(str.strip, text.splitlines()), start=1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list input", line=1)
    line, head = lines[0]
    if len(head) != 2:
        raise GraphFormatError("edge-list header must be 'n m'", line=line)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("edge-list header must be two integers", line=line) from None
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines) - 1}", line=line)

    def pairs():
        nonlocal line
        for line, parts in lines[1:]:
            if len(parts) != 2:
                raise GraphFormatError("edge line must be 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("edge endpoints must be integers") from None
            yield u, v

    try:
        return build_graph(n, pairs())
    except GraphFormatError as exc:
        # pairs() and build_graph stop at the first bad edge, the last one read
        raise GraphFormatError(str(exc), line=line) from None


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_corpus(path) -> list[Graph]:
    """Read a file of newline-separated graph6 lines; blank lines ignored.

    Any malformed line aborts the load with its line number.
    """
    graphs = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                graphs.append(parse_graph6(line))
            except GraphFormatError as exc:
                raise GraphFormatError(f"malformed graph6 line: {exc}", line=lineno) from None
    return graphs


# -- named families ----------------------------------------------------

FAMILIES = ("path", "cycle", "complete", "empty", "star", "union", "corona")


class GraphFamilySpec(NamedTuple):
    """Recipe for a named graph family.

    ``params`` holds the family-specific integers; ``subspecs`` holds the
    operands of ``union`` and the base graph of ``corona``.
    """

    family: str
    params: tuple[int, ...] = ()
    subspecs: tuple["GraphFamilySpec", ...] = ()


def generate(spec: GraphFamilySpec) -> Graph:
    """Materialize a family spec as a graph."""
    fam = spec.family
    if fam == "path":
        (n,) = _require_params(spec, 1)
        _require(n >= 1, f"path order must be >= 1, got {n}")
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if fam == "cycle":
        (n,) = _require_params(spec, 1)
        _require(n >= 3, f"cycle order must be >= 3, got {n}")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if fam == "complete":
        (n,) = _require_params(spec, 1)
        _require(n >= 1, f"complete order must be >= 1, got {n}")
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if fam == "empty":
        (n,) = _require_params(spec, 1)
        _require(n >= 1, f"empty order must be >= 1, got {n}")
        return build_graph(n, [])
    if fam == "star":
        (k,) = _require_params(spec, 1)
        _require(k >= 1, f"star leaf count must be >= 1, got {k}")
        return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if fam == "union":
        _require(len(spec.subspecs) == 2 and not spec.params, "union takes exactly two sub-specs")
        return disjoint_union(generate(spec.subspecs[0]), generate(spec.subspecs[1]))
    if fam == "corona":
        _require(len(spec.subspecs) == 1 and len(spec.params) == 1, "corona takes a base spec and k")
        k = spec.params[0]
        _require(k >= 1, f"corona pendant count must be >= 1, got {k}")
        return corona(generate(spec.subspecs[0]), k)
    raise GraphFormatError(f"unknown family {fam!r}; expected one of {FAMILIES}")


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges())
    edges.extend((u + a.n, v + a.n) for u, v in b.edges())
    return build_graph(a.n + b.n, edges)


def corona(base: Graph, k: int) -> Graph:
    """Corona with empty graphs: each base vertex v gains k pendant
    vertices adjacent only to v."""
    edges = list(base.edges())
    for v in range(base.n):
        for j in range(k):
            edges.append((v, base.n + v * k + j))
    return build_graph(base.n * (k + 1), edges)


def parse_family(text: str) -> GraphFamilySpec:
    """Parse a family spec string, e.g. ``path:4``, ``corona(cycle:3,2)``,
    ``union(complete:2,empty:1)``."""
    spec, rest = _parse_family(text.strip())
    if rest:
        raise GraphFormatError(f"trailing characters {rest!r} in family spec")
    return spec


def _parse_family(text: str) -> tuple[GraphFamilySpec, str]:
    name = ""
    i = 0
    while i < len(text) and (text[i].isalpha() or text[i] == "_"):
        name += text[i]
        i += 1
    if name not in FAMILIES:
        raise GraphFormatError(f"unknown family {name!r} in spec {text!r}")
    rest = text[i:]
    if name == "union":
        _require(rest.startswith("("), "union spec needs '(a,b)'")
        a, rest = _parse_family(rest[1:])
        _require(rest.startswith(","), "union spec needs two operands")
        b, rest = _parse_family(rest[1:])
        _require(rest.startswith(")"), "unclosed union spec")
        return GraphFamilySpec("union", (), (a, b)), rest[1:]
    if name == "corona":
        _require(rest.startswith("("), "corona spec needs '(base,k)'")
        base, rest = _parse_family(rest[1:])
        _require(rest.startswith(","), "corona spec needs a pendant count")
        j = 1
        while j < len(rest) and rest[j].isdigit():
            j += 1
        _require(j > 1 and rest[j:j + 1] == ")", "corona spec needs '(base,k)'")
        return GraphFamilySpec("corona", (int(rest[1:j]),), (base,)), rest[j + 1:]
    _require(rest.startswith(":"), f"family {name} needs ':order'")
    j = 1
    while j < len(rest) and rest[j].isdigit():
        j += 1
    _require(j > 1, f"family {name} needs an integer order")
    return GraphFamilySpec(name, (int(rest[1:j]),)), rest[j:]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphFormatError(message)


def _require_params(spec: GraphFamilySpec, count: int) -> tuple[int, ...]:
    _require(len(spec.params) == count and not spec.subspecs,
             f"family {spec.family} takes {count} integer parameter(s)")
    return spec.params
