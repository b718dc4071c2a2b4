"""Immutable graph value type and vertex-set (bitmask) primitives.

Vertices are dense integer indices ``0..n-1``.  A vertex set is a plain
``int`` bitmask over those indices; bit ``v`` set means vertex ``v`` is a
member.  All solvers trade exclusively in these masks.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from .errors import DomainError, GraphFormatError

#: Hard upper limit on the order of any graph handled by this package.
MAX_VERTICES = 128


def mask_from(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex indices of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int) -> None:
    """Refuse a graph order outside 1..MAX_VERTICES."""
    if not 1 <= n <= MAX_VERTICES:
        raise DomainError(f"graph order must be in 1..{MAX_VERTICES}, got {n}")


def check_tuple(name: str, value) -> None:
    """Refuse a record field that must be a tuple, so that the record
    hashes: a list, say, would make it unhashable."""
    if not isinstance(value, tuple):
        raise DomainError(f"{name} must be a tuple, got {type(value).__name__}")


class CheckedRecord:
    """Base of the namedtuple records that check their fields, listed before
    the namedtuple.  Every construction, ``_make`` and ``_replace`` included,
    runs the record's ``__post_init__`` once."""

    __slots__ = ()

    # __post_init__ keeps its name: perfbench's tracer wraps Graph's to count graphs.
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Graph(CheckedRecord, namedtuple("Graph", "n adj")):
    """Simple undirected graph with adjacency stored as per-vertex bit rows.

    ``adj[v]`` has bit ``u`` set iff ``u ~ v``.  Instances are immutable
    and hashable, hence safe to share between workers and to use as cache
    keys.
    """

    __slots__ = ()

    def __post_init__(self):
        check_order(self.n)
        check_tuple("adj", self.adj)
        if len(self.adj) != self.n:
            raise DomainError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise DomainError(f"row {v} has bits set at positions >= n")
            if row >> v & 1:
                raise DomainError(f"loop at vertex {v}")
        adj = self.adj
        for v, row in enumerate(adj):
            # the neighbours u of v in increasing order, as ``bits`` yields them
            while row:
                low = row & -row
                if not adj[low.bit_length() - 1] >> v & 1:
                    raise DomainError(
                        f"asymmetric adjacency between {low.bit_length() - 1} and {v}")
                row ^= low

    # -- basic accessors ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed_neighborhood(self, v: int) -> int:
        """Closed neighborhood N[v] = N(v) | {v}."""
        self._check_vertex(v)
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degree_extremes(self) -> tuple[int, int]:
        """(minimum degree, maximum degree)."""
        degs = [row.bit_count() for row in self.adj]
        return min(degs), max(degs)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_isolated_vertex(self) -> bool:
        return 0 in self.adj

    def isolated_vertices(self) -> list[int]:
        return [v for v, row in enumerate(self.adj) if row == 0]

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            grown = seen
            for v in bits(frontier):
                grown |= self.adj[v]
            frontier = grown & ~seen
            seen = grown
        return seen == self.full_mask

    # -- set-level helpers ----------------------------------------------

    def open_cover(self, smask: int) -> int:
        """Union of open neighborhoods N(S)."""
        cover = 0
        for v in bits(smask):
            cover |= self.adj[v]
        return cover

    def closed_cover(self, smask: int) -> int:
        """N[S] = N(S) | S."""
        return self.open_cover(smask) | smask

    def epn(self, v: int, smask: int) -> int:
        """External private neighbors of ``v`` with respect to set ``smask``:
        vertices outside S whose only S-neighbor is ``v``."""
        self._check_vertex(v)
        if not smask >> v & 1:
            raise DomainError(f"epn requires v in S; vertex {v} is not a member")
        result = 0
        for u in bits(self.full_mask & ~smask):
            if self.adj[u] & smask == 1 << v:
                result |= 1 << u
        return result

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range for n={self.n}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse.

    Rejects loops and out-of-range endpoints, reporting the offending
    pair's position in the input.
    """
    rows = [0] * n
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge #{i} ({u},{v}) has an endpoint out of range for n={n}")
        if u == v:
            raise GraphFormatError(f"edge #{i} is a loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


class RomanAssignment(CheckedRecord, namedtuple("RomanAssignment", "weights")):
    """Per-vertex weights in {0,1,2} with derived level sets.

    The level sets V0, V1, V2 partition the vertex set; the weight is
    |V1| + 2|V2|.
    """

    __slots__ = ()

    def __post_init__(self):
        check_tuple("weights", self.weights)
        if any(w not in (0, 1, 2) for w in self.weights):
            raise DomainError("Roman weights must be in {0,1,2}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def level_mask(self, level: int) -> int:
        return mask_from(v for v, w in enumerate(self.weights) if w == level)

    @property
    def v0(self) -> int:
        return self.level_mask(0)

    @property
    def v1(self) -> int:
        return self.level_mask(1)

    @property
    def v2(self) -> int:
        return self.level_mask(2)

    @property
    def weight(self) -> int:
        return sum(self.weights)


def assignment_from_masks(n: int, v1: int, v2: int) -> RomanAssignment:
    """RomanAssignment with the given V1/V2 masks (must be disjoint, over
    the vertices 0..n-1)."""
    if (v1 | v2) & ~((1 << n) - 1):
        raise DomainError("V1 or V2 has bits outside the vertex range")
    if v1 & v2:
        raise DomainError("V1 and V2 overlap")
    weights = [0] * n
    for v in bits(v1):
        weights[v] = 1
    for v in bits(v2):
        weights[v] = 2
    return RomanAssignment(tuple(weights))
