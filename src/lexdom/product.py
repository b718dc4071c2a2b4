"""Lexicographic product construction and (factor, layer) coordinates.

Product vertices use the fixed row-major order ``(u, v) -> u*n(H) + v``
so witnesses and reports are reproducible across runs.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceededError
from .graph import MAX_VERTICES, Graph, check_order

#: Default ceiling on the product order per verified pair (``verify``).
DEFAULT_PRODUCT_CAP = 24


class ProductIndexMap(NamedTuple):
    """Bijection between factor coordinates and product indices."""

    n_g: int
    n_h: int

    def layer_set(self, u: int) -> int:
        """The layer {u} x V(H) as a product-vertex mask."""
        if not 0 <= u < self.n_g:
            raise IndexError(f"factor vertex {u} out of range for n(G)={self.n_g}")
        return ((1 << self.n_h) - 1) << (u * self.n_h)


def lex_product(g: Graph, h: Graph, max_order: int = MAX_VERTICES) -> tuple[Graph, ProductIndexMap]:
    """G o H: (u,v) ~ (x,y) iff u~x in G, or u=x and v~y in H.

    The product is built without ``Graph``'s adjacency checks, which
    hold by construction for two factors that passed them.  Row
    (u, v) is the union of the layers of N_G(u) and, inside layer u,
    the row of v in H shifted to that layer.  In range: every bit lies
    in a layer x < n(G), at an offset below n(H).  Loop-free: the layer
    of u is not among those of N_G(u), since G has no loop, and inside
    it bit v of h.adj[v] is clear, since H has none.  Symmetric:
    (x, y) is in row (u, v) iff u ~ x in G, or u = x and v ~ y in H,
    and both conditions are symmetric because G and H are.  An order
    over MAX_VERTICES, which a cap above it lets through, is refused as
    ``Graph`` refuses it, before any row is built.
    """
    n = g.n * h.n
    if n > max_order:
        raise CapExceededError(f"product order {g.n}*{h.n}={n} exceeds the cap {max_order}")
    check_order(n)
    index = ProductIndexMap(g.n, h.n)
    layer_full = (1 << h.n) - 1
    rows = []
    for u in range(g.n):
        # all layers over N_G(u), expanded to product positions
        cross = 0
        for x in range(g.n):
            if g.adj[u] >> x & 1:
                cross |= layer_full << (x * h.n)
        base = u * h.n
        for v in range(h.n):
            rows.append(cross | (h.adj[v] << base))
    return tuple.__new__(Graph, (n, tuple(rows))), index
