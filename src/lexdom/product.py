"""Lexicographic product construction and (factor, layer) coordinates.

Product vertices use the fixed row-major order ``(u, v) -> u*n(H) + v``
so witnesses and reports are reproducible across runs.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceededError
from .graph import MAX_VERTICES, Graph

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
    """G o H: (u,v) ~ (x,y) iff u~x in G, or u=x and v~y in H."""
    n = g.n * h.n
    if n > max_order:
        raise CapExceededError(f"product order {g.n}*{h.n}={n} exceeds the cap {max_order}")
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
    return Graph(n, tuple(rows)), index
