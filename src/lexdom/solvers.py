"""Exact solvers for all domination-type parameters.

Set-valued kinds (gamma, gamma_t, gamma_p, rho, rho_o) are solved by
branch-and-bound over vertex subsets.  Roman kinds are solved by scanning
candidate V2 sets and completing each candidate optimally:

* gamma_R and gamma_Rp: given V2, let Z hold the vertices with a
  V2-neighbor (gamma_R) or with exactly one (gamma_Rp).  A vertex outside
  V2 takes 0 if it lies in Z and 1 otherwise, so
  weight(V2) = 2|V2| + |V - V2 - Z| = n + |V2| - |Z - V2|;
* gamma_tR: the forced weight-1 set must additionally be extended to make
  the positive set total dominating (inner exact cover search).  The V2
  sets come from a branch-and-bound in increasing numeric order that
  passes over whole blocks of masks whose forced weight alone reaches
  the best found; ``explored`` still counts every mask once, so it is
  the count of a plain scan of all 2^n - 1 nonempty masks (proof in
  ``_solve_gamma_tR``).

The completion is exact because each forced weight is individually optimal
and independent of the others.  It also yields a one-to-one correspondence
between optimal Roman functions and optimal V2 sets: in an optimal RDF a
dominated vertex assigned 1 could be reassigned 0 (and in an optimal PRDF
a vertex with exactly one 2-neighbor likewise), contradicting optimality,
so every optimal function is the forced completion of its V2 set.  This is
what lets enumerate_optimal_v2 stand in for "all optimal functions" in
lemma checks.

The gamma_R / gamma_Rp search adds V2 vertices in one fixed order.  A
child is weighed only when the vertices already decided out that must
take 1 in it leave its weight at most the best found, and each node's
child loop stops at the first child after which no later child can
weigh at most the best or recurse (proofs in ``_roman_scan``).
``explored`` counts the children of every expanded node, whether
weighed, passed over or cut off together by these bounds, so they change
no count, value or witness.  The search keeps every V2 that weighs the
best found so far, so its one optimizing pass returns all optimal V2
sets: the smallest gives ``solve`` its witness, and all of them are what
enumerate_optimal_v2 returns.  The Roman and gamma_p searches read their
per-position data from one row table each, built once per search.

Canonical witnesses: the returned witness is the one whose V2 (or set)
bitmask is numerically smallest among all optima.  For set kinds the
value search finds only the optimum k; a second, bounded DFS with k fixed
then decides vertices from n-1 down to 0, trying "exclude" before
"include".  Masks of one popcount compare like their bit strings read
from the top bit, so this DFS reaches its leaves in increasing numeric
order and its first feasible leaf is the canonical witness, without a
scan over all C(n, k) masks.  Its nodes are not counted in ``explored``.

zeta_couples walks the same DFS one set size k at a time over the
dominating sets from k = gamma(G) up, and stops once 2k exceeds the
best weight found, since no set of size k weighs less than 2k.  The
open packings come from one walk of their own, open_packings, which
yields every open packing once in increasing numeric order; zeta_prime,
dominating_open_packings and the efficient open and closed dominating
sets of ``structure`` are filters over that walk.  Where only dominating
sets count, the walk leaves out the isolated vertices, which every
dominating set holds.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache, wraps
from typing import NamedTuple

from .errors import CapExceededError, DomainError, InconsistencyError
from .graph import Graph, RomanAssignment, assignment_from_masks, bits, mask_from

#: Default order cap for every kind but gamma_tR and for the couple
#: parameters; override with LEXDOM_MAX_N.
DEFAULT_SUBSET_CAP = 26
#: Default cap for gamma_tR (V2 scan with an inner completion search).
DEFAULT_DEEP_CAP = 14


def subset_cap() -> int:
    """LEXDOM_MAX_N if set and not empty, else DEFAULT_SUBSET_CAP."""
    env = os.environ.get("LEXDOM_MAX_N")
    if not env:
        return DEFAULT_SUBSET_CAP
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"LEXDOM_MAX_N must be an integer, got {env!r}") from None


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


class SolveResult(NamedTuple):
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


def _check_cap(g: Graph, name: str) -> None:
    """Refuse G with more than ``subset_cap()`` vertices.  ``name`` names
    the cap in the message."""
    cap = subset_cap()
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds {name} {cap}")


def _check_kind_cap(g: Graph, kind: ParameterKind, max_n: int | None = None) -> None:
    """The cap ``solve`` applies to ``kind``, a member or its name:
    ``max_n`` if given, else DEFAULT_DEEP_CAP for gamma_tR and
    ``subset_cap()`` for every other kind."""
    cap = (max_n if max_n is not None
           else DEFAULT_DEEP_CAP if kind == ParameterKind.gamma_tR else subset_cap())
    if g.n > cap:
        raise CapExceededError(f"order {g.n} exceeds the {ParameterKind(kind).value} cap {cap}")


def capped_memo(check):
    """Memoize ``fn(g, *args)`` and run ``check(g, *args)`` before every
    lookup, hit or miss.

    This is the rule for every per-graph memo of the package: ``check``
    refuses what a cold call refuses, with the same error, so a memoized
    answer does not outlive a lower LEXDOM_MAX_N.  ``cache_info`` and
    ``cache_clear`` are the memo's, and ``__wrapped__`` is ``fn`` itself,
    unchecked and unmemoized.
    """
    def decorate(fn):
        memo = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def capped(g: Graph, *args):
            check(g, *args)
            return memo(g, *args)

        capped.cache_info = memo.cache_info
        capped.cache_clear = memo.cache_clear
        return capped
    return decorate


def _check_no_isolated(g: Graph, kind: ParameterKind) -> None:
    iso = g.isolated_vertices()
    if iso:
        raise DomainError(f"{kind.value} requires no isolated vertex; vertex {iso[0]} is isolated")


def _isolated_in(g: Graph, smask: int) -> int:
    """The members of S without a neighbor in S."""
    return mask_from(v for v in bits(smask) if not g.adj[v] & smask)


def _search_order(g: Graph) -> list[int]:
    """BFS order from a minimum-degree vertex (per component).

    Keeps each vertex's neighborhood contiguous in the decision order so
    closure-based pruning fires early; deterministic.
    """
    adj = g.adj
    seen = 0
    order: list[int] = []
    # sorted() is stable, so equal degrees keep increasing index
    for start in sorted(range(g.n), key=lambda v: adj[v].bit_count()):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        head = len(order)
        order.append(start)
        while head < len(order):
            # the unseen neighbors join the queue in increasing index
            new = adj[order[head]] & ~seen
            seen |= new
            while new:
                low = new & -new
                order.append(low.bit_length() - 1)
                new ^= low
            head += 1
    return order


# -- set-kind solvers ---------------------------------------------------


def _min_cover_value(g: Graph, closed: bool, preset: int = 0):
    """Exact minimum size of a set S (disjoint from ``preset``) such that
    the (closed/open) neighborhoods of ``preset`` and S cover every
    vertex.  Classic branch-on-uncovered-vertex search.

    With closed=True, preset=0 this is the domination number; with
    closed=False it is the total domination number.  Returns
    (size, explored).
    """
    full = g.full_mask
    key = [g.closed_neighborhood(v) if closed else g.adj[v] for v in range(g.n)]
    cover0 = 0
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
        candidates = key[u] & ~forbidden & ~preset
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
    adj = g.adj
    # rows[i] = (i + 1, bit, adj, closem[i]) for the vertex at position i;
    # closem[i]: the vertices v whose N[v] is fully decided at position
    # i, those of N[order[i]] in no N[] of a later position
    rows = [None] * n
    assigned = 0
    order = _search_order(g)
    for i in range(n - 1, -1, -1):
        v = order[i]
        b = 1 << v
        close = (adj[v] | b) & ~assigned
        assigned |= close
        rows[i] = (i + 1, b, adj[v], close)

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
        j, b, a, close = rows[i]
        # a vertex outside S must see exactly one member: seeing two is
        # pruned as it happens, so ``out`` never meets c2, and a vertex
        # whose N[v] is decided here must see one
        # exclude v
        if not c2 & b and not close & ~(smask | c1):
            rec(j, smask, out | b, c1, c2, size)
        # include v
        nc2 = c2 | (c1 & a)
        nc1 = c1 | a
        ns = smask | b
        if not nc2 & out and not close & ~(ns | nc1):
            rec(j, ns, out, nc1, nc2, size + 1)
    rec(0, 0, 0, 0, 0, 0)
    return best, explored


def _packing_value(g: Graph, open_: bool):
    """Maximum (open) packing size: every vertex may see at most one
    member within its (open/closed) neighborhood."""
    n = g.n
    order = _search_order(g)
    key = g.adj if open_ else [row | 1 << v for v, row in enumerate(g.adj)]
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
    can change it is decided.  Once k members are chosen, every vertex
    still undecided is left out, and their checks are made together.
    """
    n = g.n
    closed = kind in (ParameterKind.gamma, ParameterKind.rho)
    key = [g.adj[v] | 1 << v for v in range(n)] if closed else g.adj
    packing = kind in (ParameterKind.rho, ParameterKind.rho_o)
    perfect = kind is ParameterKind.gamma_p
    # closing[u]: vertices whose constraint is final once u, the lowest
    # vertex whose membership can change it, is decided; below[v + 1]:
    # those final once every vertex from v down is decided
    closing = [0] * n
    below = [0] * (n + 1)
    if not packing:
        for w in range(n):
            scope = key[w] | 1 << w if perfect else key[w]
            closing[(scope & -scope).bit_length() - 1 if scope else n - 1] |= 1 << w
        for v in range(n):
            below[v + 1] = below[v] | closing[v]

    # a final constraint fails when its vertex sees no member; members of
    # a perfect set are exempt, and seeing two is pruned in rec as soon as
    # it happens
    exempt = g.full_mask if perfect else 0

    def rec(v: int, smask: int, out: int, cnt: int, c1: int, c2: int):
        if cnt == k or v < 0:
            # every vertex from v down is left out: decide them all at once
            if (not (perfect and c2 & ((1 << (v + 1)) - 1))
                    and not below[v + 1] & ~(c1 | (smask & exempt))):
                yield smask
            return
        b = 1 << v
        # exclude v: a perfect set cannot leave out a vertex seeing two members
        if cnt + v >= k and not (perfect and c2 & b) and not closing[v] & ~(c1 | (smask & exempt)):
            yield from rec(v - 1, smask, out | b, cnt, c1, c2)
        if packing and c1 & key[v]:
            return
        nc2 = c2 | (c1 & key[v])
        nc1 = c1 | key[v]
        ns = smask | b
        if not (perfect and nc2 & out) and not closing[v] & ~(nc1 | (ns & exempt)):
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


def _zero_candidates(g: Graph, v2mask: int, twice: int) -> int:
    """Z: the vertices with a V2-neighbor, less those with two or more
    when ``twice`` is the full mask (gamma_Rp) rather than 0 (gamma_R).
    A vertex outside V2 may take weight 0 exactly when it lies in Z."""
    c1 = c2 = 0
    for v in bits(v2mask):
        c2 |= c1 & g.adj[v]
        c1 |= g.adj[v]
    return c1 & ~(c2 & twice)


def _greedy_dominating(g: Graph) -> int:
    """Cheap dominating set used only to seed the incumbent."""
    full = g.full_mask
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    cover = 0
    smask = 0
    while cover != full:
        # the first vertex that covers the most
        bestv, bestgain = -1, -1
        for v, row in enumerate(closed):
            gain = (row & ~cover).bit_count()
            if gain > bestgain:
                bestv, bestgain = v, gain
        smask |= 1 << bestv
        cover |= closed[bestv]
    return smask


def _roman_scan(g: Graph, kind: ParameterKind):
    """Branch-and-bound over V2 sets for gamma_R / gamma_Rp.

    One loop serves both kinds: c1 holds the vertices with a V2-neighbor
    and c2, kept only for gamma_Rp (``twice`` is 0 for gamma_R), those
    with two, so a node's weight is n + |V2| - |Z - V2| with Z = c1 - c2.
    Its children are bounded by 2(|V2| + 1) plus the decided-out vertices
    that must take weight 1 whatever is added: those seeing two members
    (gamma_Rp), and those seeing none with no neighbor left to decide.

    The search reads one row table, (i + 1, N(v), {v}, unreach[i + 1])
    for the vertex v at position i of the order (degree descending, then
    index), where unreach[i] holds the vertices with no neighbor among
    order[i:].  Let k be the children's |V2| and nout the decided-out
    set before child i: the node's own and its earlier children's, so
    that V2 and nout hold exactly the positions before i.

    Weigh gate.  r = |nout & (nc2 | ~nc1 & unreach[i + 1])| counts the
    decided-out vertices that see two members (gamma_Rp) or none with no
    neighbor left to decide; they take 1 in child i and in every node
    below it.  They lie outside V2 and outside Z, so the child weighs at
    least 2k + r.  It is weighed only when 2k + r <= best: a heavier
    child can neither improve on ``best`` nor tie it, nor pass the
    recursion test 2k + 2 + r <= best, which follows the weighing.

    Stop.  Once child i is done and joined nout, let
    X = ~V2 & (c2 | ~c1 & unreach[i + 1]) and T = |nout & X|.  A later
    child j keeps X - {order[j]} at weight 1, since c2 is part of its
    nc2 and ~nc1_j & unreach[j + 1] = ~c1 & unreach[j], which holds
    ~c1 & unreach[i + 1]; so it weighs at least
    2k + |X| - [X meets a later position], and its own r reads at least
    T, so its recursion test at least 2k + 2 + T.  ``best`` only falls.
    So once 2k + 2 + T > best and 2k + |X| - [X meets a later
    position] > best, no later child can improve on ``best``, tie it or
    recurse, and the loop stops.  X meets a later position when
    X & ~nout is not empty, as V2 and nout hold the positions up to i.
    A vertex of X at a later position is not in nout, so
    T <= |X| - [X meets a later position], and 2k + T > best implies
    both tests.  For gamma_R c2 is 0 and the same tests hold.  The tree
    and the order in which ``best`` changes are those of the full loop.

    Optimal masks.  ``masks`` holds every V2 weighed so far at weight
    ``best``: it is emptied when a lighter child lowers ``best`` and
    grows when a child ties it.  It starts as [0], since V2 = {} (the
    root, never weighed as a child) weighs n, and is emptied when the
    greedy seed weighs less than n, as the tree weighs the seed again.
    Every optimal V2 is weighed, because ``best`` never falls below the
    optimum and each bound above is a lower bound on the weight of a
    child or of every node below it, tested with ``<= best``: no bound
    can pass over a node of optimal weight, nor the path down to it.
    Each V2 is weighed at most once, so on return ``masks`` holds each
    optimal V2 once, and sorted, masks[0] is the canonical V2.

    ``explored`` counts the children of every expanded node, whether
    weighed, passed over by the gate or cut off together by the stop:
    n - start is added as a node starts, so it too is that of the full
    loop.  Returns (value, sorted optimal V2 masks, explored).
    """
    n = g.n
    full = g.full_mask
    twice = full if kind is ParameterKind.gamma_Rp else 0
    adj = g.adj
    # degree descending; sorted() is stable, so ties keep increasing index
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    # rows[i] = (i + 1, adj, bit, unreach[i + 1]) for the vertex at
    # position i; unreach[i]: the vertices with no neighbor among order[i:]
    rows = [None] * n
    unreach = full
    for i in range(n - 1, -1, -1):
        v = order[i]
        rows[i] = (i + 1, adj[v], 1 << v, unreach)
        unreach &= ~adj[v]
    explored = 0

    # V2 = {} weighs n: every vertex takes 1
    best = n
    masks = [0]
    seed = _greedy_dominating(g)
    w = n + seed.bit_count() - (_zero_candidates(g, seed, twice) & ~seed).bit_count()
    if w < best:
        best, masks = w, []

    def rec(start: int, smask: int, out: int, k: int, c1: int, c2: int) -> None:
        nonlocal best, masks, explored
        explored += n - start
        k += 1  # |V2| of every child
        base = n + k
        least = 2 * k  # 2|V2| of every child
        floor = least + 2  # 2|V2| of every grandchild
        # nout: the decided-out vertices, this node's and its earlier
        # children's; with smask they are the positions before the child
        nout = out
        # X of the stop (docstring) is held2 | held0 & unreach[i + 1]: the
        # vertices outside V2 that see two members, or none so far
        held2 = c2 & ~smask
        held0 = ~(c1 | smask)
        for j, a, b, u in rows[start:]:
            nc2 = (c2 | c1 & a) & twice
            nc1 = c1 | a
            # decided-out vertices at weight 1 in the child and all below
            r = (nout & (nc2 | ~nc1 & u)).bit_count()
            if least + r <= best:  # the child weighs at least least + r
                ns = smask | b
                w = base - (nc1 & ~(nc2 | ns)).bit_count()
                if w < best:
                    best, masks = w, [ns]
                elif w == best:
                    masks.append(ns)
                if floor + r <= best:
                    rec(j, ns, nout, k, nc1, nc2)
            nout |= b
            # no later child weighs at most best or recurses (docstring)
            x = held2 | held0 & u
            t = (nout & x).bit_count()
            if floor + t > best and least + x.bit_count() - ((x & ~nout) != 0) > best:
                break
    rec(0, 0, 0, 0, 0, 0)
    masks.sort()
    return best, masks, explored


def _complete_roman(g: Graph, kind: ParameterKind, v2mask: int) -> RomanAssignment:
    """Forced optimal completion of a V2 set into a full assignment: the
    vertices outside V2 and Z take 1, the rest of V - V2 takes 0."""
    twice = g.full_mask if kind is ParameterKind.gamma_Rp else 0
    v1 = g.full_mask & ~v2mask & ~_zero_candidates(g, v2mask, twice)
    return assignment_from_masks(g.n, v1, v2mask)


def _solve_gamma_tR(g: Graph):
    """Total Roman domination: the smallest 2|V2| + |V1| over V2 sets,
    each completed by an exact inner search.

    For a nonempty V2, every vertex outside V2 without a V2-neighbor
    must take 1 (``forced``), so the weight of V2 is at least
    base = 2|V2| + |forced|; the fewest extra weight-1 vertices that make
    the positive set total dominating come from ``_min_cover_value`` with
    preset = V2 | forced.  The result is the V2 = {} completion (V1 = V,
    weight n) unless some V2 mask weighs less; the first mask, in
    increasing numeric order, to reach the minimum gives the witness,
    with V1 = forced plus the numerically smallest extra set.

    The masks are visited by a branch-and-bound over V2 that decides
    vertex n-1 down to 0, "exclude" before "include", so they come in
    increasing numeric order.  A node with chosen set T and positions
    0..j-1 undecided is the block of the 2^j masks T | s, s within
    0..j-1.  A decided-out vertex outside N(T) with no neighbor below j
    lies outside every V2 of the block and outside its neighborhood, so
    it is forced in every mask of the block:
    base >= 2|T| + |{such vertices}| for all of them.  When that bound
    reaches the best weight found, a scan of the block in numeric order
    would pass over each mask at ``base >= best`` and never change the
    best, so the block is passed over whole.  At a leaf (j = 0) the
    bound is base itself.

    ``explored`` is the count of that scan of masks 1..2^n - 1: one per
    mask, passed over or not, plus the nodes of the inner search of
    every mask with base below the best.  A passed-over block adds its
    2^j masks (2^j - 1 when T is empty, as mask 0 is not scanned).
    """
    n = g.n
    full = g.full_mask
    adj = g.adj
    # free[j]: the vertices without a neighbor below j
    free = [full] * (n + 1)
    for j in range(n):
        free[j + 1] = free[j] & ~adj[j]
    best = n  # V2 = empty, V1 = V is a TRDF when G has no isolated vertex
    best_v2 = 0
    best_v1 = full
    explored = 0

    def rec(j: int, t: int, ct: int, out: int, k: int) -> None:
        # t: V2 within positions j..n-1; ct = N(t); out: the decided-out positions
        nonlocal best, best_v2, best_v1, explored
        bound = 2 * k + (out & ~ct & free[j]).bit_count()
        if bound >= best:
            explored += (1 << j) - (not t)
            return
        if j:
            v = j - 1
            rec(v, t, ct, out | 1 << v, k)
            rec(v, t | 1 << v, ct | adj[v], out, k + 1)
            return
        # a leaf: bound = base < best, and t != 0 (mask 0 weighs n >= best)
        explored += 1
        forced = out & ~ct
        preset = t | forced
        extra, sub = _min_cover_value(g, closed=False, preset=preset)
        explored += sub
        if bound + extra < best:
            # canonical minimal extra set at the optimal size; no such set
            # meets the preset, as dropping a preset vertex (its neighbors
            # are already covered) would beat the minimum ``extra``
            e_mask = _first_feasible_set(g, ParameterKind.gamma_t, extra,
                                         initial_cover=g.open_cover(preset))
            best = bound + extra
            best_v2 = t
            best_v1 = forced | e_mask

    rec(n, 0, 0, 0, 0)
    return best, assignment_from_masks(n, best_v1, best_v2), explored


# -- public API ---------------------------------------------------------


def solve(g: Graph, kind: ParameterKind, max_n: int | None = None) -> SolveResult:
    """Exact optimum with a canonical witness for any parameter kind."""
    kind = ParameterKind(kind)
    _check_kind_cap(g, kind, max_n)
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
        value, masks, explored = _roman_scan(g, kind)
        return SolveResult(value, _complete_roman(g, kind, masks[0]), explored)
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
    _check_kind_cap(g, kind, max_n)
    return _roman_scan(g, kind)[1]


def zeta(g: Graph) -> tuple[int, tuple[int, int]]:
    """min{2|A| + 3|B|} over dominating couples (A, B); ties go to the
    smallest (A, B) pair."""
    couples = zeta_couples(g)
    if not couples:
        raise InconsistencyError("no dominating couple, yet U = V always dominates")
    a, b = min(couples)
    return 2 * a.bit_count() + 3 * b.bit_count(), (a, b)


def _check_zeta_couples(g: Graph) -> None:
    _check_no_isolated(g, ParameterKind.gamma_t)
    _check_cap(g, "the zeta cap")


@capped_memo(_check_zeta_couples)
def zeta_couples(g: Graph) -> tuple[tuple[int, int], ...]:
    """All dominating couples achieving zeta(G), as (A, B) mask pairs in
    increasing A u B order.

    For a fixed union U = A u B the couple condition forces B to contain
    exactly the isolated vertices of G[U] (any vertex of U with no
    U-neighbor fails the test unless it is in B, and enlarging B only
    costs more), and requires U to be a dominating set.  So the search
    walks the dominating sets U of each size k from gamma(G) upward, with
    B = iso(G[U]) and weight 2k + |B|, and stops at the first k with 2k
    above the best weight found, which no larger U can beat.  Refuses G
    with an isolated vertex, then G over the zeta cap (``capped_memo``).
    """
    best = 2 * g.n  # U = V, which has no isolated vertex here
    found: list[tuple[int, int]] = []
    for k in range(_gamma_value(g)[0], g.n + 1):
        if 2 * k > best:
            break
        for umask in _feasible_sets(g, ParameterKind.gamma, k):
            iso = _isolated_in(g, umask)
            value = 2 * k + iso.bit_count()
            if value < best:
                best, found = value, []
            if value == best:
                found.append((umask & ~iso, iso))
    found.sort(key=lambda couple: couple[0] | couple[1])
    return tuple(found)


def open_packings(g: Graph, avoid: int = 0):
    """All open packings of G disjoint from ``avoid``, the empty set
    included, in increasing numeric order: each set comes before its
    extensions by one vertex below its lowest member, lowest vertex
    first.  This is the exclude-before-include DFS over vertices n-1 down
    to 0, with each run of exclusions taken in one step."""
    # an avoided vertex's key is bit n, which ``seen`` holds from the start
    stop = 1 << g.n
    key = [stop if avoid >> v & 1 else row for v, row in enumerate(g.adj)]

    def rec(top: int, smask: int, seen: int):
        # seen: the vertices with a neighbor in smask
        yield smask
        for v in range(top):
            if not seen & key[v]:
                yield from rec(v, smask | 1 << v, seen | key[v])

    return rec(g.n, 0, stop)


def _dominating_open_packings(g: Graph):
    """The dominating open packings in increasing numeric order.  Each
    holds every isolated vertex, which nothing else dominates, and an
    isolated vertex shares no neighbor with anything, so the walk leaves
    the isolated vertices out and adds them to every set: on i isolated
    vertices it is 2^i times shorter."""
    iso = mask_from(g.isolated_vertices())
    full = g.full_mask
    for s in open_packings(g, avoid=iso):
        s |= iso
        if g.closed_cover(s) == full:
            yield s


@capped_memo(lambda g: _check_cap(g, "the zeta' cap"))
def zeta_prime(g: Graph) -> tuple[int, int] | None:
    """min{4|S0| + 2|S1|} over dominating open packings, or None.

    S0/S1 are the isolated/non-isolated vertices of G[S].  Note the
    minimum is a weight, not a cardinality; a zeta'-set is one attaining
    this weight (ties: smallest mask).  Refuses G over the zeta' cap
    (``capped_memo``).
    """
    return min(((2 * s.bit_count() + 2 * _isolated_in(g, s).bit_count(), s)
                for s in _dominating_open_packings(g)), default=None)


def dominating_open_packings(g: Graph) -> list[int]:
    """All sets that are simultaneously dominating and open packings, in
    increasing numeric order."""
    _check_cap(g, "the cap")
    return list(_dominating_open_packings(g))
