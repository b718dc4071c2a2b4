"""Exact solvers for all domination-type parameters.

Set-valued kinds (gamma, gamma_t, gamma_p, rho, rho_o) are solved by
branch-and-bound over vertex subsets.  Roman kinds are solved by scanning
candidate V2 sets and completing each candidate optimally:

* gamma_R:  given V2, every vertex outside N[V2] is forced to weight 1 and
  every other non-V2 vertex to 0, so weight(V2) = 2|V2| + |V \\ N[V2]|;
* gamma_Rp: a non-V2 vertex is 0 iff it has exactly one V2-neighbor, so
  weight(V2) = 2|V2| + #{v not in V2 : |N(v) & V2| != 1};
* gamma_tR: the forced weight-1 set must additionally be extended to make
  the positive set total dominating (inner exact cover search).

The completion is exact because each forced weight is individually optimal
and independent of the others.  It also yields a one-to-one correspondence
between optimal Roman functions and optimal V2 sets: in an optimal RDF a
dominated vertex assigned 1 could be reassigned 0 (and in an optimal PRDF
a vertex with exactly one 2-neighbor likewise), contradicting optimality,
so every optimal function is the forced completion of its V2 set.  This is
what lets enumerate_optimal_v2 stand in for "all optimal functions" in
lemma checks.

Canonical witnesses: the returned witness is the one whose V2 (or set)
bitmask is numerically smallest among all optima.  For set kinds the
value search finds only the optimum k; a second, bounded DFS with k fixed
then decides vertices from n-1 down to 0, trying "exclude" before
"include".  Masks of one popcount compare like their bit strings read
from the top bit, so this DFS reaches its leaves in increasing numeric
order and its first feasible leaf is the canonical witness, without a
scan over all C(n, k) masks.  Its nodes are not counted in ``explored``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

from .errors import CapExceededError, DomainError, InconsistencyError
from .graph import Graph, RomanAssignment, assignment_from_masks, bits

#: Default cap for 2^n subset-scan kinds; override with LEXDOM_MAX_N.
DEFAULT_SUBSET_CAP = 26
#: Default cap for gamma_tR (V2 scan with an inner completion search).
DEFAULT_DEEP_CAP = 14


def subset_cap() -> int:
    return int(os.environ.get("LEXDOM_MAX_N", DEFAULT_SUBSET_CAP))


class ParameterKind(str, Enum):
    gamma = "gamma"
    gamma_t = "gamma_t"
    gamma_p = "gamma_p"
    rho = "rho"
    rho_o = "rho_o"
    gamma_R = "gamma_R"
    gamma_Rp = "gamma_Rp"
    gamma_tR = "gamma_tR"


SET_KINDS = (
    ParameterKind.gamma,
    ParameterKind.gamma_t,
    ParameterKind.gamma_p,
    ParameterKind.rho,
    ParameterKind.rho_o,
)
ROMAN_KINDS = (ParameterKind.gamma_R, ParameterKind.gamma_Rp, ParameterKind.gamma_tR)
TOTAL_KINDS = (ParameterKind.gamma_t, ParameterKind.gamma_tR)


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: "int | RomanAssignment"
    explored: int


# -- feasibility predicates --------------------------------------------


def is_feasible(g: Graph, smask: int, kind: ParameterKind) -> bool:
    """Truth of the defining predicate of a set-valued kind."""
    if kind not in SET_KINDS:
        raise DomainError(f"{kind.value} takes a RomanAssignment, not a vertex set")
    full = g.full_mask
    if smask & ~full:
        raise DomainError("set has bits outside the vertex range")
    if kind is ParameterKind.gamma:
        return all(g.adj[v] & smask for v in bits(full & ~smask))
    if kind is ParameterKind.gamma_t:
        return all(g.adj[v] & smask for v in range(g.n))
    if kind is ParameterKind.gamma_p:
        return all((g.adj[v] & smask).bit_count() == 1 for v in bits(full & ~smask))
    members = list(bits(smask))
    if kind is ParameterKind.rho:
        rows = [g.closed_neighborhood(v) for v in members]
    else:
        rows = [g.adj[v] for v in members]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] & rows[j]:
                return False
    return True


def is_rdf(g: Graph, f: RomanAssignment) -> bool:
    """Every 0-vertex has at least one 2-neighbor."""
    if f.n != g.n:
        return False
    v2 = f.v2
    return all(g.adj[v] & v2 for v in bits(f.v0))


def is_prdf(g: Graph, f: RomanAssignment) -> bool:
    """Every 0-vertex has exactly one 2-neighbor."""
    if f.n != g.n:
        return False
    v2 = f.v2
    return all((g.adj[v] & v2).bit_count() == 1 for v in bits(f.v0))


def is_trdf(g: Graph, f: RomanAssignment) -> bool:
    """RDF whose positive set is total dominating."""
    pos = f.v1 | f.v2
    return is_rdf(g, f) and all(g.adj[v] & pos for v in range(g.n))


# -- caps and shared helpers -------------------------------------------


def _check_cap(g: Graph, kind: ParameterKind, max_n: int | None) -> None:
    cap = max_n if max_n is not None else (
        DEFAULT_DEEP_CAP if kind is ParameterKind.gamma_tR else subset_cap()
    )
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds the {kind.value} cap {cap}")


def _check_no_isolated(g: Graph, kind: ParameterKind) -> None:
    iso = g.isolated_vertices()
    if iso:
        raise DomainError(f"{kind.value} requires no isolated vertex; vertex {iso[0]} is isolated")


def _search_order(g: Graph) -> list[int]:
    """BFS order from a minimum-degree vertex (per component).

    Keeps each vertex's neighborhood contiguous in the decision order so
    closure-based pruning fires early; deterministic.
    """
    degs = [g.degree(v) for v in range(g.n)]
    seen = [False] * g.n
    order: list[int] = []
    for start in sorted(range(g.n), key=lambda v: (degs[v], v)):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in bits(g.adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


# -- set-kind solvers ---------------------------------------------------


def _min_cover_value(g: Graph, closed: bool, preset: int = 0, initial_cover: int = 0):
    """Exact minimum size of a set S (disjoint from ``preset``) such that
    ``initial_cover`` together with the (closed/open) neighborhoods of
    S covers every vertex.  Classic branch-on-uncovered-vertex search.

    With closed=True, preset=0, initial_cover=0 this is the domination
    number; with closed=False it is the total domination number.  Returns
    (size, explored).
    """
    full = g.full_mask
    key = [g.closed_neighborhood(v) if closed else g.adj[v] for v in range(g.n)]
    cover0 = initial_cover
    for v in bits(preset):
        cover0 |= key[v]
    best = g.n + 1
    explored = 0

    def rec(cover: int, forbidden: int, size: int) -> None:
        nonlocal best, explored
        explored += 1
        if cover == full:
            if size < best:
                best = size
            return
        if size + 1 >= best:
            return
        uncovered = full & ~cover
        u = (uncovered & -uncovered).bit_length() - 1
        # any feasible extension must pick a vertex whose key covers u
        candidates = key[u] if closed else g.adj[u]
        candidates &= ~forbidden & ~preset
        taken = 0
        for w in bits(candidates):
            rec(cover | key[w], forbidden | taken, size + 1)
            taken |= 1 << w
    rec(cover0, 0, 0)
    return best, explored


def _gamma_value(g: Graph):
    return _min_cover_value(g, closed=True)


def _gamma_t_value(g: Graph):
    return _min_cover_value(g, closed=False)


def _gamma_p_value(g: Graph):
    """Minimum perfect dominating set size via include/exclude search with
    closure checks (a vertex's constraint is final once N[v] is decided)."""
    n = g.n
    order = _search_order(g)
    lastpos = [0] * n
    pos_of = [0] * n
    for i, v in enumerate(order):
        pos_of[v] = i
    for v in range(n):
        lastpos[v] = max(pos_of[u] for u in bits(g.closed_neighborhood(v)))
    close_at: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        close_at[lastpos[v]].append(v)

    best = n  # S = V is always perfect dominating
    explored = 0

    def rec(i: int, smask: int, out: int, c1: int, c2: int, size: int) -> None:
        nonlocal best, explored
        explored += 1
        if size >= best:
            return
        if i == n:
            best = size
            return
        v = order[i]
        b = 1 << v
        # exclude v
        if not c2 >> v & 1:  # v already sees >= 2 members: cannot be outside S
            ok = True
            for w in close_at[i]:
                # N[w] is now fully decided: outside vertices need exactly one
                if not smask >> w & 1 and (not c1 >> w & 1 or c2 >> w & 1):
                    ok = False
                    break
            if ok:
                rec(i + 1, smask, out | b, c1, c2, size)
        # include v
        nc2 = c2 | (c1 & g.adj[v])
        nc1 = c1 | g.adj[v]
        if not nc2 & out:
            ns = smask | b
            ok = True
            for w in close_at[i]:
                if not ns >> w & 1:
                    if not (nc1 >> w & 1) or (nc2 >> w & 1):
                        ok = False
                        break
            if ok:
                rec(i + 1, ns, out, nc1, nc2, size + 1)
    rec(0, 0, 0, 0, 0, 0)
    return best, explored


def _packing_value(g: Graph, open_: bool):
    """Maximum (open) packing size: every vertex may see at most one
    member within its (open/closed) neighborhood."""
    n = g.n
    order = _search_order(g)
    key = [g.adj[v] if open_ else g.closed_neighborhood(v) for v in range(n)]
    best = 0
    explored = 0

    def rec(i: int, c1: int, size: int) -> None:
        nonlocal best, explored
        explored += 1
        if size > best:
            best = size
        if i == n or size + (n - i) <= best:
            return
        v = order[i]
        if not c1 & key[v]:  # adding v creates no doubly-seen vertex
            rec(i + 1, c1 | key[v], size + 1)
        rec(i + 1, c1, size)
    rec(0, 0, 0)
    return best, explored


def _feasible_sets(g: Graph, kind: ParameterKind, k: int, initial_cover: int = 0):
    """Every popcount-``k`` set S that satisfies the predicate of set kind
    ``kind``, in increasing numeric order.

    Each vertex of ``initial_cover`` counts as already seeing one member
    (a fixed set outside the search), so with ``kind`` gamma_t the sets
    yielded are exactly those whose open neighborhoods cover the rest.

    Vertices are decided from n-1 down to 0, "exclude" before "include".
    Two masks of equal popcount compare like their bit strings read from
    the top, with 0 before 1, so leaves are reached in increasing numeric
    order.  Pruning uses only the definitions: the popcount, the c1/c2
    counters (vertices seeing at least one / two members in their key
    neighborhood), and each vertex's constraint once every vertex that
    can change it is decided.
    """
    n = g.n
    closed = kind in (ParameterKind.gamma, ParameterKind.rho)
    key = [g.adj[v] | 1 << v if closed else g.adj[v] for v in range(n)]
    packing = kind in (ParameterKind.rho, ParameterKind.rho_o)
    perfect = kind is ParameterKind.gamma_p
    # closing[u]: vertices whose constraint is final once u, the lowest
    # vertex whose membership can change it, is decided
    closing = [0] * n
    if not packing:
        for w in range(n):
            scope = key[w] | 1 << w if perfect else key[w]
            closing[(scope & -scope).bit_length() - 1 if scope else n - 1] |= 1 << w

    def violated(v: int, smask: int, c1: int) -> int:
        # final constraints that see no member; members of a perfect set
        # are exempt, and seeing two is pruned in rec as soon as it happens
        unseen = closing[v] & ~c1
        return unseen & ~smask if perfect else unseen

    def rec(v: int, smask: int, out: int, cnt: int, c1: int, c2: int):
        if v < 0:
            yield smask
            return
        b = 1 << v
        # exclude v: a perfect set cannot leave out a vertex seeing two members
        if cnt + v >= k and not (perfect and c2 & b) and not violated(v, smask, c1):
            yield from rec(v - 1, smask, out | b, cnt, c1, c2)
        if cnt == k or (packing and c1 & key[v]):
            return
        nc2 = c2 | (c1 & key[v])
        nc1 = c1 | key[v]
        ns = smask | b
        if not (perfect and nc2 & out) and not violated(v, ns, nc1):
            yield from rec(v - 1, ns, out, cnt + 1, nc1, nc2)

    yield from rec(n - 1, 0, 0, 0, initial_cover, 0)


def _first_feasible_set(g: Graph, kind: ParameterKind, k: int, initial_cover: int = 0) -> int:
    """The numerically smallest set yielded by ``_feasible_sets``; a value
    search that reported size ``k`` guarantees one exists."""
    smask = next(_feasible_sets(g, kind, k, initial_cover), None)
    if smask is None:
        raise InconsistencyError(f"no feasible {kind.value} set of size {k}")
    return smask


# -- Roman-kind solvers -------------------------------------------------


def _roman_weight_fns(g: Graph, kind: ParameterKind):
    n = g.n
    full = g.full_mask
    if kind is ParameterKind.gamma_R:
        def weight(smask, k, c1, c2):
            return 2 * k + (full & ~(c1 | smask)).bit_count()

        def forced_ones(smask, out, c1, c2, unreach):
            # decided-out vertices never dominated and out of future reach
            return out & ~c1 & unreach
    else:
        def weight(smask, k, c1, c2):
            exact1 = c1 & ~c2
            return 2 * k + (n - k) - (exact1 & ~smask).bit_count()

        def forced_ones(smask, out, c1, c2, unreach):
            # >= 2 members seen is permanent; 0 seen and unreachable too
            return out & (c2 | (~c1 & unreach))
    return weight, forced_ones


def _greedy_dominating(g: Graph) -> int:
    """Cheap dominating set used only to seed the incumbent."""
    full = g.full_mask
    cover = 0
    smask = 0
    while cover != full:
        bestv, bestgain = -1, -1
        for v in range(g.n):
            gain = (g.closed_neighborhood(v) & ~cover).bit_count()
            if gain > bestgain:
                bestv, bestgain = v, gain
        smask |= 1 << bestv
        cover |= g.closed_neighborhood(bestv)
    return smask


def _roman_scan(g: Graph, kind: ParameterKind, target: int | None = None):
    """Branch-and-bound over V2 sets for gamma_R / gamma_Rp.

    With ``target`` set, collects every V2 mask whose completed weight
    equals ``target`` instead of optimizing.  Returns
    (value, mask, explored) or (collected_masks, explored).
    """
    n = g.n
    weight, forced_ones = _roman_weight_fns(g, kind)
    degs = [g.degree(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    # unreach[i]: vertices with no neighbor among order[i:]
    unreach = [0] * (n + 1)
    reach = 0
    unreach[n] = g.full_mask
    for i in range(n - 1, -1, -1):
        reach |= g.adj[order[i]]
        unreach[i] = g.full_mask & ~reach
    adj = g.adj
    explored = 0

    collecting = target is not None
    collected: list[int] = []
    if collecting:
        best = target
        bestmask = None
        if weight(0, 0, 0, 0) == target:
            collected.append(0)
    else:
        best = weight(0, 0, 0, 0)
        bestmask = 0
        seed = _greedy_dominating(g)
        c1 = c2 = 0
        for v in bits(seed):
            c2 |= c1 & adj[v]
            c1 |= adj[v]
        w = weight(seed, seed.bit_count(), c1, c2)
        if w < best:
            best, bestmask = w, seed

    def rec(start: int, smask: int, out: int, k: int, c1: int, c2: int) -> None:
        nonlocal best, bestmask, explored
        skipped = 0
        for i in range(start, n):
            explored += 1
            v = order[i]
            b = 1 << v
            nc2 = c2 | (c1 & adj[v])
            nc1 = c1 | adj[v]
            ns = smask | b
            nout = out | skipped
            w = weight(ns, k + 1, nc1, nc2)
            if collecting:
                if w == target:
                    collected.append(ns)
            elif w < best or (w == best and ns < bestmask):
                best, bestmask = w, ns
            lb = 2 * (k + 2) + forced_ones(ns, nout, nc1, nc2, unreach[i + 1]).bit_count()
            if lb <= best:
                rec(i + 1, ns, nout, k + 1, nc1, nc2)
            skipped |= b
    rec(0, 0, 0, 0, 0, 0)
    if collecting:
        return sorted(collected), explored
    return best, bestmask, explored


def _complete_roman(g: Graph, kind: ParameterKind, v2mask: int) -> RomanAssignment:
    """Forced optimal completion of a V2 set into a full assignment."""
    c1 = c2 = 0
    for v in bits(v2mask):
        c2 |= c1 & g.adj[v]
        c1 |= g.adj[v]
    rest = g.full_mask & ~v2mask
    if kind is ParameterKind.gamma_R:
        v1 = rest & ~c1
    else:
        v1 = rest & ~(c1 & ~c2)
    return assignment_from_masks(g.n, v1, v2mask)


def _solve_gamma_tR(g: Graph):
    """V2 scan with an exact inner search for the extra weight-1 vertices
    needed to make the positive set total dominating."""
    n = g.n
    full = g.full_mask
    best = n  # V2 = empty, V1 = V is a TRDF when G has no isolated vertex
    best_v2 = 0
    best_v1 = full
    explored = 0
    for v2mask in range(1, 1 << n):
        k = v2mask.bit_count()
        cover2 = g.open_cover(v2mask)
        forced = full & ~v2mask & ~cover2
        base = 2 * k + forced.bit_count()
        explored += 1
        if base >= best:
            continue
        extra, sub = _min_cover_value(g, closed=False, preset=v2mask | forced)
        explored += sub
        if extra > n:  # no completion exists (cannot happen without isolated vertices)
            continue
        w = base + extra
        if w < best:
            # canonical minimal extra set at the optimal size; no such set
            # meets the preset, as dropping a preset vertex (its neighbors
            # are already covered) would beat the minimum ``extra``
            e_mask = _first_feasible_set(g, ParameterKind.gamma_t, extra,
                                         initial_cover=g.open_cover(v2mask | forced))
            best = w
            best_v2 = v2mask
            best_v1 = forced | e_mask
    return best, assignment_from_masks(n, best_v1, best_v2), explored


# -- public API ---------------------------------------------------------


def solve(g: Graph, kind: ParameterKind, max_n: int | None = None) -> SolveResult:
    """Exact optimum with a canonical witness for any parameter kind."""
    kind = ParameterKind(kind)
    _check_cap(g, kind, max_n)
    if kind in TOTAL_KINDS:
        _check_no_isolated(g, kind)

    if kind is ParameterKind.gamma:
        value, explored = _gamma_value(g)
    elif kind is ParameterKind.gamma_t:
        value, explored = _gamma_t_value(g)
    elif kind is ParameterKind.gamma_p:
        value, explored = _gamma_p_value(g)
    elif kind is ParameterKind.rho:
        value, explored = _packing_value(g, open_=False)
    elif kind is ParameterKind.rho_o:
        value, explored = _packing_value(g, open_=True)
    elif kind in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
        value, v2mask, explored = _roman_scan(g, kind)
        return SolveResult(value, _complete_roman(g, kind, v2mask), explored)
    else:
        value, witness, explored = _solve_gamma_tR(g)
        return SolveResult(value, witness, explored)

    return SolveResult(value, _first_feasible_set(g, kind, value), explored)


def enumerate_optimal_v2(g: Graph, kind: ParameterKind, max_n: int | None = None) -> list[int]:
    """All V2 masks achieving the optimum for gamma_R / gamma_Rp.

    By the forced-completion correspondence (module docstring) these are
    in bijection with all optimal RDFs / PRDFs.
    """
    kind = ParameterKind(kind)
    if kind not in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
        raise DomainError(f"enumerate_optimal_v2 supports gamma_R/gamma_Rp, not {kind.value}")
    _check_cap(g, kind, max_n)
    value, _, _ = _roman_scan(g, kind)
    masks, _ = _roman_scan(g, kind, target=value)
    return masks


def zeta(g: Graph, max_n: int | None = None) -> tuple[int, tuple[int, int]]:
    """min{2|A| + 3|B|} over dominating couples (A, B); ties go to the
    smallest (A, B) pair."""
    couples = zeta_couples(g, max_n)
    if not couples:
        raise InconsistencyError("no dominating couple, yet U = V always dominates")
    a, b = min(couples)
    return 2 * a.bit_count() + 3 * b.bit_count(), (a, b)


def zeta_couples(g: Graph, max_n: int | None = None) -> list[tuple[int, int]]:
    """All dominating couples achieving zeta(G), as (A, B) mask pairs in
    increasing A u B order.

    For a fixed union U = A u B the couple condition forces B to contain
    exactly the isolated vertices of G[U] (any vertex of U with no
    U-neighbor fails the test unless it is in B, and enlarging B only
    costs more), and requires U to be a dominating set; so one scan runs
    over dominating sets U with B = iso(G[U]), keeping the couples at the
    running minimum.
    """
    _check_no_isolated(g, ParameterKind.gamma_t)
    cap = max_n if max_n is not None else subset_cap()
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds the zeta cap {cap}")
    full = g.full_mask
    best = None
    result: list[tuple[int, int]] = []
    for umask in range(1 << g.n):
        outside = full & ~umask
        cover = 0
        iso = 0
        for v in bits(umask):
            cover |= g.adj[v]
            if not g.adj[v] & umask:
                iso |= 1 << v
        if outside & ~cover:
            continue
        value = 2 * umask.bit_count() + iso.bit_count()
        if best is None or value < best:
            best, result = value, []
        if value == best:
            result.append((umask & ~iso, iso))
    return result


def zeta_prime(g: Graph, max_n: int | None = None) -> tuple[int, int] | None:
    """min{4|S0| + 2|S1|} over dominating open packings, or None.

    S0/S1 are the isolated/non-isolated vertices of G[S].  Note the
    minimum is a weight, not a cardinality; a zeta'-set is one attaining
    this weight.
    """
    cap = max_n if max_n is not None else subset_cap()
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds the zeta' cap {cap}")
    full = g.full_mask
    best = None
    best_set = None
    for smask in range(1, 1 << g.n):
        c1 = c2 = 0
        cover = 0
        ok = True
        for v in bits(smask):
            c2 |= c1 & g.adj[v]
            c1 |= g.adj[v]
            cover |= g.adj[v]
            if c2:
                ok = False
                break
        if not ok:
            continue
        if (full & ~smask) & ~cover:
            continue
        s0 = 0
        for v in bits(smask):
            if not g.adj[v] & smask:
                s0 |= 1 << v
        value = 4 * s0.bit_count() + 2 * (smask.bit_count() - s0.bit_count())
        if best is None or value < best:
            best, best_set = value, smask
    if best is None:
        return None
    return best, best_set


def dominating_open_packings(g: Graph, max_n: int | None = None) -> list[int]:
    """All sets that are simultaneously dominating and open packings."""
    cap = max_n if max_n is not None else subset_cap()
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds the cap {cap}")
    full = g.full_mask
    result = []
    for smask in range(1, 1 << g.n):
        c1 = c2 = 0
        ok = True
        for v in bits(smask):
            c2 |= c1 & g.adj[v]
            c1 |= g.adj[v]
            if c2:
                ok = False
                break
        if ok and not (full & ~smask) & ~c1:
            result.append(smask)
    return result
