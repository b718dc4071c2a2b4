"""Independent brute-force oracles used only by the test suite.

Every oracle here works straight from the definitions, with no shared
machinery with the production solvers: Roman-type minima enumerate all
3^n weight assignments as (V2, V1) partitions; set-type parameters,
open packings, dominating open packings, the zeta' set and efficient
open domination enumerate all 2^n subsets; and the optimal couples of
zeta enumerate all pairs of disjoint subsets.  Canonical (numerically
smallest) optimal sets, the efficient closed dominating set among them,
come from a Gosper scan over the masks of the optimal size, as do the
feasible sets of any one size; and the canonical Roman witness
(smallest optimal V2 mask) from the 3^n enumeration of the Roman
minima.  The counters that the set walks hand to their visitors,
iso(G[S]), N(S) and the vertices that see two members, are read vertex
by vertex from their definitions.  Slow on purpose; intended for n <= 9.

Two helpers are not oracles: ``roman_tree_reference`` replays the
gamma_R / gamma_Rp branch-and-bound without the early stop of its child
loop, so a test can require the same tree, ``explored`` and the list of
optimal V2 sets included; ``gamma_tR_loop_reference`` is the plain scan
of every V2 mask that the gamma_tR search counts its nodes against.
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


def canonical_roman_oracle(g: Graph, kind: str) -> tuple[int, int]:
    """(value, V2) of the optimal RDF (gamma_R) or PRDF (gamma_Rp) whose
    V2 mask is numerically smallest.  Every f: V -> {0,1,2} is tried as a
    (V2, V1) partition with V2 in increasing order, and each 0-vertex is
    checked against the definition: at least one 2-neighbor (RDF), or
    exactly one (PRDF).  Only a strictly lighter function replaces the
    best, so the first V2 to reach the minimum is kept.
    """
    if kind not in ("gamma_R", "gamma_Rp"):
        raise ValueError(kind)
    perfect = kind == "gamma_Rp"
    full = (1 << g.n) - 1
    best = None
    for v2 in range(1 << g.n):
        for v1 in _submasks(full & ~v2):
            weight = 2 * v2.bit_count() + v1.bit_count()
            if best is not None and weight >= best[0]:
                continue
            zeros = full & ~(v1 | v2)
            twos_seen = [(g.adj[v] & v2).bit_count() for v in range(g.n) if zeros >> v & 1]
            if all(t == 1 if perfect else t >= 1 for t in twos_seen):
                best = (weight, v2)
    return best


def roman_tree_reference(g: Graph, kind: str, ties: bool = True):
    """The gamma_R / gamma_Rp branch-and-bound of ``solvers._roman_scan``
    as it stood before its child loop learned to stop early: every child
    of every expanded node is weighed and tested for recursion.  Same
    vertex order (degree descending, then index), same greedy seed, same
    list of the V2 sets that weigh the best found (emptied when it falls,
    grown on a tie) and the same ``explored`` (n - start per expanded
    node), so the production scan must return exactly what this returns:
    (value, sorted optimal V2 masks, explored).

    With ``ties`` false a child is recursed into only when its bound is
    below the best found, not equal to it, and no masks are kept: the
    value-only scan, which returns (value, None, explored).  It also
    keeps the twin rule: a child is neither weighed nor recursed into
    when a twin of it (N(u) - {v} = N(v) - {u}, checked pair by pair)
    sits at an earlier position.
    """
    if kind not in ("gamma_R", "gamma_Rp"):
        raise ValueError(kind)
    n = g.n
    full = (1 << n) - 1
    twice = full if kind == "gamma_Rp" else 0
    order = sorted(range(n), key=lambda v: (-g.adj[v].bit_count(), v))
    unreach = [full] * (n + 1)
    for i in range(n - 1, -1, -1):
        unreach[i] = unreach[i + 1] & ~g.adj[order[i]]
    # twins_before[i]: the twins of order[i] at earlier positions
    twins_before = [0] * n
    if not ties:
        for i in range(n):
            for h in range(i):
                u, v = order[h], order[i]
                if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                    twins_before[i] |= 1 << u

    def weight(v2: int) -> int:
        c1 = c2 = 0
        for v in range(n):
            if v2 >> v & 1:
                c2 |= c1 & g.adj[v]
                c1 |= g.adj[v]
        zeros = c1 & ~(c2 & twice) & ~v2
        return n + v2.bit_count() - zeros.bit_count()

    # greedy dominating seed: repeatedly the first vertex covering most
    seed = cover = 0
    while cover != full:
        gains = [((g.adj[v] | 1 << v) & ~cover).bit_count() for v in range(n)]
        v = gains.index(max(gains))
        seed |= 1 << v
        cover |= g.adj[v] | 1 << v

    # V2 = {} weighs n; the tree weighs the seed again
    best, masks = n, [0]
    if weight(seed) < best:
        best, masks = weight(seed), []
    slack = 0 if ties else 1
    explored = 0

    def rec(start: int, smask: int, out: int, k: int, c1: int, c2: int) -> None:
        nonlocal best, masks, explored
        explored += n - start
        nout = out
        for i in range(start, n):
            v = order[i]
            if twins_before[i]:
                nout |= 1 << v
                continue
            nc2 = (c2 | c1 & g.adj[v]) & twice
            nc1 = c1 | g.adj[v]
            ns = smask | 1 << v
            w = n + k + 1 - (nc1 & ~(nc2 | ns)).bit_count()
            if w < best:
                best, masks = w, [ns]
            elif w == best:
                masks.append(ns)
            if 2 * (k + 2) + (nout & (nc2 | ~nc1 & unreach[i + 1])).bit_count() <= best - slack:
                rec(i + 1, ns, nout, k + 1, nc1, nc2)
            nout |= 1 << v

    rec(0, 0, 0, 0, 0, 0)
    return best, sorted(masks) if ties else None, explored


def gamma_tR_loop_reference(g: Graph):
    """The gamma_tR search of ``solvers._solve_gamma_tR`` as a plain scan
    of every V2 mask from 1 to 2^n - 1, with the same inner cover search:
    a mask is passed over when 2|V2| + |forced| already reaches the best
    weight, else the fewest extra weight-1 vertices come from a
    branch-on-the-lowest-uncovered-vertex search.  ``explored`` is one per
    mask plus the inner nodes of every mask not passed over, so the
    production search must return exactly what this returns:
    (value, V1 mask, V2 mask, explored).
    """
    n = g.n
    full = (1 << n) - 1

    def cover_of(mask: int) -> int:
        cover = 0
        for v in range(n):
            if mask >> v & 1:
                cover |= g.adj[v]
        return cover

    def min_extra(preset: int) -> tuple[int, int]:
        # fewest vertices outside preset whose open neighborhoods, with
        # those of preset, cover V; (size, nodes), size n + 1 if none
        best = n + 1
        nodes = 0

        def rec(cover: int, forbidden: int, size: int) -> None:
            nonlocal best, nodes
            nodes += 1
            if cover == full:
                best = min(best, size)
                return
            if size + 1 >= best:
                return
            uncovered = full & ~cover
            u = (uncovered & -uncovered).bit_length() - 1
            taken = 0
            for w in range(n):
                if g.adj[u] >> w & 1 and not (forbidden | preset) >> w & 1:
                    rec(cover | g.adj[w], forbidden | taken, size + 1)
                    taken |= 1 << w

        rec(cover_of(preset), 0, 0)
        return best, nodes

    best, best_v1, best_v2 = n, full, 0
    explored = 0
    for v2 in range(1, 1 << n):
        forced = full & ~v2 & ~cover_of(v2)
        base = 2 * v2.bit_count() + forced.bit_count()
        explored += 1
        if base >= best:
            continue
        extra, nodes = min_extra(v2 | forced)
        explored += nodes
        if extra <= n and base + extra < best:
            best, best_v2 = base + extra, v2
            best_v1 = canonical_trdf_v1_oracle(g, v2, best)
    return best, best_v1, best_v2, explored


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
    nbrs = [_neighbors(g, v) for v in range(g.n)]

    def dominating(s):
        return all(s >> v & 1 or any(s >> u & 1 for u in nbrs[v]) for v in range(g.n))

    def total_dominating(s):
        return all(any(s >> u & 1 for u in nbrs[v]) for v in range(g.n))

    def perfect_dominating(s):
        return all(s >> v & 1 or sum(1 for u in nbrs[v] if s >> u & 1) == 1
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


def feasible_sets_oracle(g: Graph, kind: str, k: int, initial_cover: int = 0) -> list[int]:
    """Every popcount-``k`` set satisfying the predicate of set kind
    ``kind``, in increasing numeric order.  ``initial_cover``, for
    gamma_t only, holds vertices that need no neighbor in the set."""
    if initial_cover and kind != "gamma_t":
        raise ValueError(kind)
    check = _set_predicate(g, kind)
    if initial_cover:
        nbrs = [_neighbors(g, v) for v in range(g.n)]
        return [s for s in _gosper_masks(g.n, k)
                if all(initial_cover >> v & 1 or any(s >> u & 1 for u in nbrs[v])
                       for v in range(g.n))]
    return [s for s in _gosper_masks(g.n, k) if check(s)]


def seen_twice_oracle(g: Graph, kind: str, s: int, initial_cover: int = 0) -> int:
    """The vertices with at least two members of ``s`` in their closed
    (gamma, rho) or open (the other set kinds) neighborhood, a vertex of
    ``initial_cover`` counting one member more."""
    closed = kind in ("gamma", "rho")
    twice = 0
    for v in range(g.n):
        members = sum(1 for u in _neighbors(g, v) if s >> u & 1)
        if members + (closed and s >> v & 1) + (initial_cover >> v & 1) >= 2:
            twice |= 1 << v
    return twice


def isolated_members_oracle(g: Graph, s: int) -> int:
    """The members of ``s`` without a neighbor in ``s``: iso(G[S])."""
    return sum(1 << v for v in range(g.n)
               if s >> v & 1 and not any(s >> u & 1 for u in _neighbors(g, v)))


def open_neighborhood_oracle(g: Graph, s: int) -> int:
    """N(S): the vertices with a neighbor in ``s``."""
    return sum(1 << v for v in range(g.n) if any(s >> u & 1 for u in _neighbors(g, v)))


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


def zeta_couples_oracle(g: Graph) -> list[tuple[int, int]]:
    """Every disjoint pair (A, B) minimizing 2|A| + 3|B| such that every
    vertex outside B has a neighbor in A u B, in increasing A u B order
    (ties by A)."""
    best = None
    couples: list[tuple[int, int]] = []
    for union in range(1 << g.n):
        # the vertices that must lie in B: those without a neighbor in A u B
        lonely = sum(1 << v for v in range(g.n) if not g.adj[v] & union)
        for b in _submasks(union):
            if lonely & ~b:
                continue
            a = union & ~b
            value = 2 * a.bit_count() + 3 * b.bit_count()
            if best is None or value < best:
                best, couples = value, []
            if value == best:
                couples.append((a, b))
    return sorted(couples, key=lambda c: (c[0] | c[1], c[0]))


def zeta_oracle(g: Graph) -> int:
    """Minimum of 2|A| + 3|B| over disjoint pairs where every vertex
    outside B has a neighbor in A u B."""
    a, b = zeta_couples_oracle(g)[0]
    return 2 * a.bit_count() + 3 * b.bit_count()


def dominating_open_packings_oracle(g: Graph) -> list[int]:
    """Every nonempty set that is both an open packing (no two members
    share a neighbor) and dominating, in increasing numeric order."""
    dominating, open_packing = _set_predicate(g, "gamma"), _set_predicate(g, "rho_o")
    return [s for s in range(1, 1 << g.n) if open_packing(s) and dominating(s)]


def zeta_prime_set_oracle(g: Graph) -> tuple[int, int] | None:
    """(value, S): the minimum of 4|S0| + 2|S1| over dominating open
    packings S, where S0 holds the members without a neighbor in S, and
    the numerically smallest S attaining it; None if no open packing
    dominates."""
    weighted = []
    for s in dominating_open_packings_oracle(g):
        s0 = sum(1 for v in range(g.n) if s >> v & 1 and not g.adj[v] & s)
        weighted.append((4 * s0 + 2 * (s.bit_count() - s0), s))
    return min(weighted, default=None)


def zeta_prime_oracle(g: Graph) -> int | None:
    """Minimum of 4|S0| + 2|S1| over dominating open packings, where S0
    holds the isolated vertices of the induced subgraph; None if no open
    packing dominates."""
    best = zeta_prime_set_oracle(g)
    return None if best is None else best[0]


def eod_oracle(g: Graph) -> int | None:
    """The numerically smallest nonempty S such that every vertex has
    exactly one neighbor in S, or None."""
    return next((s for s in range(1, 1 << g.n)
                 if all((g.adj[v] & s).bit_count() == 1 for v in range(g.n))), None)


def open_packings_oracle(g: Graph, avoid: int = 0) -> list[int]:
    """Every open packing (no two members share a neighbor) disjoint from
    ``avoid``, the empty set included, in increasing numeric order."""
    open_packing = _set_predicate(g, "rho_o")
    return [s for s in range(1 << g.n) if not s & avoid and open_packing(s)]


def ecd_oracle(g: Graph) -> int | None:
    """The numerically smallest set of size gamma(G) that is dominating
    and a packing (no two members have intersecting closed
    neighborhoods), or None."""
    dominating, packing = _set_predicate(g, "gamma"), _set_predicate(g, "rho")
    return next((s for s in _gosper_masks(g.n, set_oracle(g, "gamma"))
                 if dominating(s) and packing(s)), None)
