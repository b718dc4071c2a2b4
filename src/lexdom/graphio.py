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
from .graph import MAX_VERTICES, Graph, build_graph, check_order

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
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"graph order must be in 1..{MAX_VERTICES}, got {n}", line=line)
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


#: The leaf families: each one's least parameter, what that parameter
#: counts, and its edges.  A star on k leaves has k + 1 vertices.
_LEAVES = {
    "path": (1, "order", lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": (3, "order", lambda n: [(i, (i + 1) % n) for i in range(n)]),
    "complete": (1, "order", lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)]),
    "empty": (1, "order", lambda n: []),
    "star": (1, "leaf count", lambda k: [(0, i) for i in range(1, k + 1)]),
}


def generate(spec: GraphFamilySpec) -> Graph:
    """Materialize a family spec as a graph.  The whole spec is checked,
    and refused by order, before any edge list is built."""
    _check_spec(spec)
    return _build(spec)


def _check_spec(spec: GraphFamilySpec) -> None:
    """Check each node of ``spec`` as it would be built: its shape and own
    parameters before its operands, and its order, refused over
    MAX_VERTICES as ``Graph`` refuses it, after them.  A stack of its own
    takes the place of recursion, since a parsed spec may nest deeper
    than the interpreter allows; each level of a spec that passes adds a
    vertex, so ``_build`` recurses less than MAX_VERTICES deep."""
    orders: list[int] = []
    todo = [(spec, False)]
    while todo:
        node, operands_done = todo.pop()
        fam, params, subspecs = node
        if fam in ("union", "corona") and not operands_done:
            if fam == "union":
                _require(len(subspecs) == 2 and not params, "union takes exactly two sub-specs")
            else:
                _require(len(subspecs) == 1 and len(params) == 1, "corona takes a base spec and k")
                _require(params[0] >= 1, f"corona pendant count must be >= 1, got {params[0]}")
            todo.append((node, True))
            todo.extend((sub, False) for sub in reversed(subspecs))
            continue
        if fam == "union":
            n = orders.pop() + orders.pop()
        elif fam == "corona":
            n = orders.pop() * (params[0] + 1)
        elif fam in _LEAVES:
            least, counts, _ = _LEAVES[fam]
            _require(len(params) == 1 and not subspecs,
                     f"family {fam} takes 1 integer parameter(s)")
            _require(params[0] >= least, f"{fam} {counts} must be >= {least}, got {params[0]}")
            n = params[0] + (fam == "star")
        else:
            raise GraphFormatError(f"unknown family {fam!r}; expected one of {FAMILIES}")
        check_order(n)
        orders.append(n)


def _build(spec: GraphFamilySpec) -> Graph:
    fam, params, subspecs = spec
    if fam == "union":
        return disjoint_union(_build(subspecs[0]), _build(subspecs[1]))
    if fam == "corona":
        return corona(_build(subspecs[0]), params[0])
    n = params[0]
    return build_graph(n + (fam == "star"), _LEAVES[fam][2](n))


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
    ``union(complete:2,empty:1)``.  The unions and coronas still open sit
    on a stack, so no nesting depth exhausts the interpreter's."""
    text = text.strip()
    open_specs: list[tuple[str, list[GraphFamilySpec]]] = []
    i = 0
    while True:
        start = i
        while i < len(text) and (text[i].isalpha() or text[i] == "_"):
            i += 1
        name = text[start:i]
        if name not in FAMILIES:
            raise GraphFormatError(f"unknown family {name!r} in spec {text[start:]!r}")
        if name in ("union", "corona"):
            _require(text.startswith("(", i),
                     "union spec needs '(a,b)'" if name == "union" else "corona spec needs '(base,k)'")
            open_specs.append((name, []))
            i += 1
            continue
        _require(text.startswith(":", i), f"family {name} needs ':order'")
        n, i = _integer(text, i + 1)
        _require(n is not None, f"family {name} needs an integer order")
        spec = GraphFamilySpec(name, (n,))
        # close every union and corona whose last operand this was
        while open_specs:
            name, operands = open_specs[-1]
            operands.append(spec)
            if name == "union" and len(operands) == 1:
                _require(text.startswith(",", i), "union spec needs two operands")
                i += 1
                break
            if name == "union":
                _require(text.startswith(")", i), "unclosed union spec")
                spec = GraphFamilySpec("union", (), tuple(operands))
            else:
                _require(text.startswith(",", i), "corona spec needs a pendant count")
                k, i = _integer(text, i + 1)
                _require(k is not None and text.startswith(")", i), "corona spec needs '(base,k)'")
                spec = GraphFamilySpec("corona", (k,), tuple(operands))
            i += 1
            open_specs.pop()
        else:
            break
    if text[i:]:
        raise GraphFormatError(f"trailing characters {text[i:]!r} in family spec")
    return spec


def _integer(text: str, i: int) -> tuple[int | None, int]:
    """The integer whose ASCII digits start at ``text[i]``, or None, and
    the index after them."""
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    try:
        return (int(text[i:j]) if j > i else None), j
    except ValueError:  # more digits than int() converts
        raise GraphFormatError(f"integer of {j - i} digits in family spec") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphFormatError(message)
