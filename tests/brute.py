"""Independent brute-force oracles used only by the test suite.

Every oracle here works straight from the definitions, with no shared
machinery with the production solvers: Roman-type minima enumerate all
3^n weight assignments as (V2, V1) partitions, set-type parameters
enumerate all 2^n subsets, and the couple parameters enumerate pairs of
disjoint subsets.  Canonical (numerically smallest) optimal sets come
from a Gosper scan over the masks of the optimal size.  Slow on purpose;
intended for n <= 9.
"""

from __future__ import annotations

from lexdom.graph import Graph


def _submasks(mask: int):
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _neighbors(g: Graph, v: int) -> list[int]:
    return [u for u in range(g.n) if g.adj[v] >> u & 1]


def roman_oracle(g: Graph, kind: str) -> int:
    """Minimum weight over every f: V -> {0,1,2}, checked per vertex
    from the definition.  ``kind`` is one of gamma_R / gamma_Rp /
    gamma_tR.
    """
    if kind not in ("gamma_R", "gamma_Rp", "gamma_tR"):
        raise ValueError(kind)
    best = None
    full = (1 << g.n) - 1
    for v2 in range(1 << g.n):
        for v1 in _submasks(full & ~v2):
            weight = 2 * v2.bit_count() + v1.bit_count()
            if best is not None and weight >= best:
                continue
            positive = v1 | v2
            ok = True
            for v in range(g.n):
                nbrs = _neighbors(g, v)
                twos = sum(1 for u in nbrs if v2 >> u & 1)
                if not positive >> v & 1:
                    if kind == "gamma_Rp":
                        if twos != 1:
                            ok = False
                            break
                    elif twos < 1:
                        ok = False
                        break
                elif kind == "gamma_tR" and not any(positive >> u & 1 for u in nbrs):
                    ok = False
                    break
            if ok:
                best = weight
    return best


def _gosper_masks(n: int, k: int):
    """All n-bit masks of popcount k in increasing numeric order."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    limit = 1 << n
    while m < limit:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def _set_predicate(g: Graph, kind: str):
    """The defining predicate of a set kind, as a function of the mask."""
    def dominating(s):
        return all(s >> v & 1 or any(s >> u & 1 for u in _neighbors(g, v))
                   for v in range(g.n))

    def total_dominating(s):
        return all(any(s >> u & 1 for u in _neighbors(g, v)) for v in range(g.n))

    def perfect_dominating(s):
        return all(s >> v & 1 or sum(1 for u in _neighbors(g, v) if s >> u & 1) == 1
                   for v in range(g.n))

    def packing(s):
        members = [v for v in range(g.n) if s >> v & 1]
        return all((g.adj[u] | 1 << u) & (g.adj[v] | 1 << v) == 0
                   for i, u in enumerate(members) for v in members[i + 1:])

    def open_packing(s):
        members = [v for v in range(g.n) if s >> v & 1]
        return all(g.adj[u] & g.adj[v] == 0
                   for i, u in enumerate(members) for v in members[i + 1:])

    checks = {"gamma": dominating, "gamma_t": total_dominating,
              "gamma_p": perfect_dominating, "rho": packing, "rho_o": open_packing}
    return checks[kind]


def set_oracle(g: Graph, kind: str) -> int:
    """Definitional 2^n scan for gamma / gamma_t / gamma_p (minima) and
    rho / rho_o (maxima)."""
    check = _set_predicate(g, kind)
    maximize = kind in ("rho", "rho_o")
    best = None
    for s in range(1 << g.n):
        if not check(s):
            continue
        size = s.bit_count()
        if best is None or (size > best if maximize else size < best):
            best = size
    return best


def canonical_set_oracle(g: Graph, kind: str) -> int:
    """The numerically smallest optimal set of a set kind: the first
    feasible mask of the optimal size in Gosper (increasing) order."""
    check = _set_predicate(g, kind)
    return next(s for s in _gosper_masks(g.n, set_oracle(g, kind)) if check(s))


def canonical_trdf_v1_oracle(g: Graph, v2: int, weight: int) -> int | None:
    """V1 of the canonical total Roman dominating function of the given
    weight with this V2: every vertex outside V2 without a V2-neighbor
    (it cannot be 0), plus the numerically smallest set of the remaining
    size that makes the positive set total dominating."""
    forced = 0
    for v in range(g.n):
        if not v2 >> v & 1 and not any(v2 >> u & 1 for u in _neighbors(g, v)):
            forced |= 1 << v
    preset = v2 | forced
    total_dominating = _set_predicate(g, "gamma_t")
    for extra in _gosper_masks(g.n, weight - 2 * v2.bit_count() - forced.bit_count()):
        if not extra & preset and total_dominating(preset | extra):
            return forced | extra
    return None


def zeta_oracle(g: Graph) -> int:
    """Minimum of 2|A| + 3|B| over disjoint pairs where every vertex
    outside B has a neighbor in A u B."""
    best = None
    full = (1 << g.n) - 1
    for a in range(1 << g.n):
        for b in _submasks(full & ~a):
            union = a | b
            if all(b >> v & 1 or any(union >> u & 1 for u in _neighbors(g, v))
                   for v in range(g.n)):
                value = 2 * a.bit_count() + 3 * b.bit_count()
                if best is None or value < best:
                    best = value
    return best


def zeta_prime_oracle(g: Graph) -> int | None:
    """Minimum of 4|S0| + 2|S1| over dominating open packings, where S0
    holds the isolated vertices of the induced subgraph; None if no
    open packing dominates."""
    best = None
    for s in range(1 << g.n):
        members = [v for v in range(g.n) if s >> v & 1]
        if any(g.adj[u] & g.adj[v] for i, u in enumerate(members) for v in members[i + 1:]):
            continue
        if not all(s >> v & 1 or any(s >> u & 1 for u in _neighbors(g, v))
                   for v in range(g.n)):
            continue
        s0 = sum(1 for v in members if not g.adj[v] & s)
        value = 4 * s0 + 2 * (len(members) - s0)
        if best is None or value < best:
            best = value
    return best
