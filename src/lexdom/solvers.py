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
  ``_solve_gamma_tR``), which returns the first optimal V2 in numeric
  order.  ``_roman_v1`` completes a V2 set for all three kinds.

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
weigh at most the best or recurse (proofs in ``_roman_scan``).  Two
lower bounds on the weight of every later child serve that stop: the
vertices at weight 1 that no later position can reach, and a covering
bound: a later child adds one vertex v, which takes at most deg(v) + 1
vertices out of those outside V2 that see no member (or, for gamma_Rp,
two), and deg(v) is at most the degree at the next position, as the
order is by degree, descending.  The same two bounds, one level down,
mark a child that passes the recursion test as dead when no child of
its own could weigh at most the best or recurse; the parent then adds
the dead child's count to ``explored`` without entering it.
``explored`` counts the children of every expanded node, whether
weighed, passed over or cut off together by these bounds, so they change
no count, value or witness.  The search keeps every V2 that weighs the
best found so far, so its one optimizing pass returns all optimal V2
sets: the smallest gives ``solve`` its witness, and all of them are what
enumerate_optimal_v2 returns.  The gamma_p and packing searches read
their per-position data from one row table, built once per search.  The
Roman search reads its row tables, one per search mode, and greedy seed
from ``_roman_plan``, a per-graph set-up that gamma_R and gamma_Rp of one
graph share in both search modes.

The frontier memo.  The gamma_p and packing value searches decide the
vertices in the ``_search_order`` order, one position per level, each by
include/exclude, and count every node they enter in ``explored``.  Let
F_i be the frontier at position i: the union of N[order[p]] (gamma_p) or
of key[order[p]] (packing: N[] for rho, N() for rho_o) over the
positions p >= i.  Every test and update from position i on reads the
row of a position p >= i, whose masks lie in F_i, so the subtree of a
node at i depends on its state only through each state mask meet F_i,
and on ``best`` only through the slack best - size (gamma_p lowers
``best``, packing raises it).  For packing the state is c1, the vertices
that see a member.  For gamma_p it is d = S | N(S), out, c1 and c2.  The
exclude test reads c2 & {v} and close & ~d; the include test reads close
& ~nd and nc2 & out = (c2 | c1 & N(v)) & out.  As ``out`` never meets c2
(a vertex seeing two members is never left out, and a member is never
added while a vertex left out would see two), nc2 & out is c1 & N(v) &
out, which reads only c1 and out within F_i.  The slack matters only up
to n - i + 1: the size of a node below i exceeds its size by at most
n - i, so with a slack above n - i no size test fails until the subtree
lowers ``best`` itself, after which it reads only what the subtree
found.  For packing the room test size + (n - i) <= best has passed at a
node that reaches the memo, so its slack is below n - i.  So two nodes
at i with the same key (i, each state mask & F_i, the slack) have
subtrees that count the same nodes and move ``best`` the same way
relative to size.  The memo, a dict local to the search and freed on
return, maps a key to the number of nodes below the node and to the
``best`` that its subtree left less size, or -1 if the subtree did not
move ``best``.  A node whose key is there adds that count to
``explored``, sets ``best`` and returns without entering its subtree; so
the values, the witnesses built after them and ``explored`` are those of
the plain recursion, which the tests check against
``gamma_p_tree_reference`` and ``packing_tree_reference``.  A node reads
or writes the memo only once its search has counted more than MEMO_GATE
nodes, so the many small searches of a sweep stay a plain recursion.

Value-only solves: ``solve(g, kind, witness=False)`` returns the optimum
with None for the witness, for callers that read only the value.  The
gamma_R / gamma_Rp search then keeps no ties: every gate compares a
lower bound with best - 1 in place of best, so a child that can at best
tie is neither weighed nor recursed into.  It also breaks the symmetry
of twins (N(u) - {v} = N(v) - {u}), which in G o H include the twins
of H in every layer: no optimal V2 holds two twins (one of them could
take 1 in place of 2), so a child is weighed only when no twin of it
sits at an earlier position, and of the V2 sets that twin swaps map
onto each other only the one that takes the earliest vertex of each
twin class is searched.  The value is still exact, since ``best`` only
falls: were the result above the optimum, the optimal V2 whose members
have no earlier twin would weigh at most best - 1 at every moment of
the search, every gate and the twin rule on the path down to it would
pass, and it would be found (proof in ``_roman_scan``).  Its
``explored`` counts the children of every node the strict search
expands.  The tie-keeping search, ``solve`` by default and
enumerate_optimal_v2, has no twin rule.  The set kinds skip the
canonical-set walk and no kind builds a witness; the set and gamma_tR
searches and their ``explored`` are unchanged.

Canonical witnesses: the returned witness is the one whose V2 (or set)
bitmask is numerically smallest among all optima.  For set kinds the
value search finds only the optimum k; a second, bounded walk with k
fixed, ``_walk_sets``, then decides vertices from n-1 down to 0, trying
"exclude" before "include".  Two masks of one popcount compare like
their bit strings read from the top bit: at the highest vertex where
they differ, the smaller one leaves it out.  The walk leaves each vertex
out first, from the top down, so it reaches its leaves in increasing
numeric order, and its first feasible leaf is the canonical witness,
found without a scan over all C(n, k) masks.

The walks.  Two plain recursive walks serve every caller that needs
all the sets of a family, or the first that matches: ``_walk_sets``
over the feasible sets of one size and one set kind, and
``_walk_open_packings`` over the open packings.  Each calls
``visit(S, counter)`` for every set in increasing numeric order and
stops at the first call that returns a truthy value; it returns that
S, or None.  The counter is one the walk keeps anyway, so a visitor
need not recompute it.  ``_walk_sets`` hands over c2, the vertices that
see at least two members in their key neighborhood (closed for gamma
and rho).  A member sees itself in its closed neighborhood, so for
gamma S & ~c2 is iso(G[S]), the members with no neighbor in S.
``_walk_open_packings`` hands over seen = N(S): S dominates when
seen | S = V, and its members without a neighbor in S are S - seen.
No walk is a generator, which would pass every set up through one
frame per level of the walk.  The walks' nodes are in no ``explored``
count, which is the value searches' alone.

zeta_couples walks the dominating sets one size k at a time from
k = gamma(G) up, with B = S - c2, and stops once 2k exceeds the best
weight found, since no set of size k weighs less than 2k.  zeta_prime,
dominating_open_packings and the efficient open and closed dominating
sets of ``structure`` are visitors of the open-packing walk; the
efficient sets stop it at their first match.  Where only dominating
sets count, the walk leaves out the isolated vertices, which every
dominating set holds.

Every search recurses through a nested ``rec``, which refers to itself
through its closure cell.  Each search deletes ``rec`` once its top
call returns (a walk, in a ``finally``, as a visitor may raise), so its
tables and tie list are freed then, not at the garbage collector's next
pass.
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


#: LEXDOM_MAX_N as a key of ``os.environ``'s backing mapping.
_CAP_KEY = os.environ.encodekey("LEXDOM_MAX_N")


def subset_cap() -> int:
    """LEXDOM_MAX_N if set and not empty, else DEFAULT_SUBSET_CAP.

    The variable is read on every call, so a change between two calls
    is seen.  Every memo hit checks its cap, so this runs many times per
    verified pair, and ``os.environ.get`` raises and catches two
    KeyErrors when the variable is unset.  The read is therefore one
    ``get`` on the mapping behind ``os.environ`` (``os._Environ._data``,
    which every write and delete through ``os.environ`` updates), and
    only a set value is decoded.
    """
    env = os.environ._data.get(_CAP_KEY)
    if not env:
        return DEFAULT_SUBSET_CAP
    env = os.environ.decodevalue(env)
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
TOTAL_KINDS = (ParameterKind.gamma_t, ParameterKind.gamma_tR)
#: The product parameters that ``formula.predict`` answers.
PREDICT_KINDS = (
    ParameterKind.gamma,
    ParameterKind.gamma_p,
    ParameterKind.gamma_R,
    ParameterKind.gamma_Rp,
)


class TheoremId(str, Enum):
    """The statements about G o H; ``formula.STATEMENTS`` holds each one."""

    GAMMA_LEX = "GAMMA_LEX"
    GAMMAP_LEX = "GAMMAP_LEX"
    ROMAN_LEX = "ROMAN_LEX"
    ROMAN_GRAPH_COR = "ROMAN_GRAPH_COR"
    ZETA_BOUNDS = "ZETA_BOUNDS"
    PR_UB_CORONA = "PR_UB_CORONA"
    PR_UB_FUNCTION_I = "PR_UB_FUNCTION_I"
    PR_UB_FUNCTION_II = "PR_UB_FUNCTION_II"
    PR_UB_FUNCTION_III = "PR_UB_FUNCTION_III"
    PR_UB_FUNCTION_IV = "PR_UB_FUNCTION_IV"
    PR_UB_PACKING = "PR_UB_PACKING"
    PR_COR_EOD = "PR_COR_EOD"
    PR_COR_ECD = "PR_COR_ECD"
    PR_GAMMA1_I = "PR_GAMMA1_I"
    PR_GAMMA1_II = "PR_GAMMA1_II"
    PR_LB_GENERAL = "PR_LB_GENERAL"
    PR_EXACT_ECD = "PR_EXACT_ECD"
    PR_EXACT_EOD = "PR_EXACT_EOD"
    PR_COR_P2P3 = "PR_COR_P2P3"
    PR_TRIVIAL_LB = "PR_TRIVIAL_LB"
    PR_EQ_FACTOR = "PR_EQ_FACTOR"
    PR_EQ_2GAMMA = "PR_EQ_2GAMMA"
    PR_ISOLATED_LAYERS = "PR_ISOLATED_LAYERS"
    PR_PERFECTROMAN_CHAR = "PR_PERFECTROMAN_CHAR"
    PR_EQ_ROMAN_CHAR = "PR_EQ_ROMAN_CHAR"


class SolveResult(NamedTuple):
    """The optimum, its canonical witness (None from a value-only solve,
    ``solve(..., witness=False)``) and the search nodes explored."""

    value: int
    witness: "int | RomanAssignment | None"
    explored: int


# -- feasibility predicates --------------------------------------------


def is_feasible(g: Graph, smask: int, kind: ParameterKind) -> bool:
    """Truth of the defining predicate of a set-valued kind."""
    if kind.__class__ is not ParameterKind:
        kind = ParameterKind(kind)
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
    # a packing: no vertex sees two members in its (closed/open) neighborhood
    seen = 0
    for v in bits(smask):
        row = g.closed_neighborhood(v) if kind is ParameterKind.rho else g.adj[v]
        if seen & row:
            return False
        seen |= row
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
    if f.n != g.n:
        return False
    # each level mask is rebuilt from the weights on every read; the
    # positive set V1 | V2 is V - V0
    v0, v2 = f.v0, f.v2
    pos = g.full_mask & ~v0
    return (all(g.adj[v] & v2 for v in bits(v0))
            and all(g.adj[v] & pos for v in range(g.n)))


# -- caps and shared helpers -------------------------------------------


def check_cap(g: Graph, name: str, max_n: int | None = None) -> None:
    """The one size cap of the package: refuse G over ``max_n`` if given,
    else over DEFAULT_DEEP_CAP for gamma_tR, else over ``subset_cap()``.
    ``name``, a parameter kind or its name, or the name of a walk, names
    the cap in the message; the empty name gives "the cap".

    Every memo hit runs this, so it reads LEXDOM_MAX_N through
    ``subset_cap`` on each call and compares ``name`` with the plain
    string "gamma_tR", which a ``ParameterKind`` (a str enum) equals
    too: a member read on the enum class is a slow attribute hook.
    """
    cap = (max_n if max_n is not None
           else DEFAULT_DEEP_CAP if name == "gamma_tR" else subset_cap())
    if g.n > cap:
        label = " ".join(filter(None, ("the", getattr(name, "value", name), "cap")))
        raise CapExceededError(f"order {g.n} exceeds {label} {cap}")


#: Every memo ``capped_memo`` has made, for ``capped_memo.cache_clear``.
_MEMOS: list = []


def capped_memo(check):
    """Memoize ``fn(g, *args)`` and run ``check(g, *args)`` before every
    lookup, hit or miss.

    This is the rule for every per-graph memo of the package: ``check``
    refuses what a cold call refuses, with the same error, so a memoized
    answer does not outlive a lower LEXDOM_MAX_N.  ``cache_info`` and
    ``cache_clear`` are the memo's, and ``__wrapped__`` is ``fn`` itself,
    unchecked and unmemoized.  ``capped_memo.cache_clear()`` clears every
    memo made so far, in whichever module.
    """
    def decorate(fn):
        memo = lru_cache(maxsize=None)(fn)
        _MEMOS.append(memo)

        @wraps(fn)
        def capped(g: Graph, *args):
            check(g, *args)
            return memo(g, *args)

        capped.cache_info = memo.cache_info
        capped.cache_clear = memo.cache_clear
        return capped
    return decorate


def _clear_memos() -> None:
    for memo in _MEMOS:
        memo.cache_clear()


capped_memo.cache_clear = _clear_memos


def _check_no_isolated(g: Graph, name: str) -> None:
    iso = g.isolated_vertices()
    if iso:
        raise DomainError(f"{name} requires no isolated vertex; vertex {iso[0]} is isolated")


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


#: Nodes a gamma_p or packing search counts before its nodes use the
#: frontier memo (module docstring): the many small searches stay as cheap
#: as a plain recursion.
MEMO_GATE = 256


def _min_cover_value(g: Graph, key, preset: int = 0):
    """Exact minimum size of a set S (disjoint from ``preset``) such that
    the rows ``key[v]`` of ``preset`` and S cover every vertex.  Classic
    branch-on-uncovered-vertex search.

    With the closed neighborhoods as ``key`` and preset=0 this is the
    domination number; with the open ones (``g.adj``) it is the total
    domination number.  Returns (size, explored).
    """
    full = g.full_mask
    cover0 = 0
    rest = preset
    while rest:
        low = rest & -rest
        cover0 |= key[low.bit_length() - 1]
        rest ^= low
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
        # any feasible extension must pick a vertex whose key covers u;
        # the candidates are tried in increasing index, each forbidden to
        # the later ones
        candidates = key[u] & ~forbidden & ~preset
        while candidates:
            low = candidates & -candidates
            rec(cover | key[low.bit_length() - 1], forbidden, size + 1)
            forbidden |= low
            candidates ^= low
    rec(cover0, 0, 0)
    del rec
    return best, explored


def _gamma_value(g: Graph):
    return _min_cover_value(g, [row | 1 << v for v, row in enumerate(g.adj)])


def _gamma_t_value(g: Graph):
    return _min_cover_value(g, g.adj)


def _gamma_p_value(g: Graph):
    """Minimum perfect dominating set size via include/exclude search with
    closure checks (a vertex's constraint is final once N[v] is decided).
    Identical subtrees are counted once (frontier memo, module docstring)."""
    n = g.n
    adj = g.adj
    # rows[i] = (i + 1, bit, adj, closem[i], F_i) for the vertex at
    # position i; closem[i]: the vertices v whose N[v] is fully decided
    # at position i, those of N[order[i]] in no N[] of a later position;
    # F_i: the frontier, the union of N[] over positions i and later
    rows = [None] * n
    assigned = 0
    order = _search_order(g)
    for i in range(n - 1, -1, -1):
        v = order[i]
        b = 1 << v
        close = (adj[v] | b) & ~assigned
        assigned |= close
        rows[i] = (i + 1, b, adj[v], close, assigned)

    best = n  # S = V is always perfect dominating
    explored = 0
    memo = {}

    # d = S | N(S), the vertices in S or seeing a member: the closure
    # tests read S and c1 only through their union
    def rec(i: int, d: int, out: int, c1: int, c2: int, size: int) -> None:
        nonlocal best, explored
        explored += 1
        if size >= best:
            return
        if i == n:
            best = size
            return
        j, b, a, close, f = rows[i]
        if explored > MEMO_GATE:
            # the subtree reads the state through F_i alone, and best
            # through its slack, which only matters up to n - i + 1
            slack = best - size
            key = (i, d & f, out & f, c1 & f, c2 & f, slack if slack <= n - i else n - i + 1)
            hit = memo.get(key)
            if hit is not None:
                explored += hit[0]
                if hit[1] >= 0:
                    best = size + hit[1]
                return
            start, before = explored, best
        else:
            key = None
        # a vertex outside S must see exactly one member: seeing two is
        # pruned as it happens, so ``out`` never meets c2, and a vertex
        # whose N[v] is decided here must see one
        # exclude v
        if not c2 & b and not close & ~d:
            rec(j, d, out | b, c1, c2, size)
        # include v
        nc2 = c2 | (c1 & a)
        nd = d | b | a
        if not nc2 & out and not close & ~nd:
            rec(j, nd, out, c1 | a, nc2, size + 1)
        if key is not None:
            memo[key] = (explored - start, best - size if best < before else -1)
    rec(0, 0, 0, 0, 0, 0)
    del rec
    return best, explored


def _packing_value(g: Graph, open_: bool):
    """Maximum (open) packing size: every vertex may see at most one
    member within its (open/closed) neighborhood.  Identical subtrees are
    counted once (frontier memo, module docstring)."""
    n = g.n
    order = _search_order(g)
    key = g.adj if open_ else [row | 1 << v for v, row in enumerate(g.adj)]
    # rows[i] = (key of the vertex at position i, F_i), F_i the frontier:
    # the union of the keys over positions i and later
    rows = [None] * n
    frontier = 0
    for i in range(n - 1, -1, -1):
        row = key[order[i]]
        frontier |= row
        rows[i] = (row, frontier)
    best = 0
    explored = 0
    memo = {}

    def rec(i: int, c1: int, size: int) -> None:
        nonlocal best, explored
        explored += 1
        if size > best:
            best = size
        if i == n or size + (n - i) <= best:
            return
        row, f = rows[i]
        if explored > MEMO_GATE:
            # the subtree reads c1 through F_i alone, and best through
            # its slack, below n - i once the room test has passed
            mkey = (i, c1 & f, best - size)
            hit = memo.get(mkey)
            if hit is not None:
                explored += hit[0]
                if hit[1] >= 0:
                    best = size + hit[1]
                return
            start, before = explored, best
        else:
            mkey = None
        if not c1 & row:  # adding v creates no doubly-seen vertex
            rec(i + 1, c1 | row, size + 1)
        rec(i + 1, c1, size)
        if mkey is not None:
            memo[mkey] = (explored - start, best - size if best > before else -1)
    rec(0, 0, 0)
    del rec
    return best, explored


def _walk_sets(g: Graph, kind: ParameterKind, k: int, initial_cover: int, visit):
    """Call ``visit(S, c2)`` for every popcount-``k`` set S that
    satisfies the predicate of set kind ``kind``, in increasing numeric
    order, until a call returns a truthy value.  Returns the S of that
    call, or None once every set has been visited.

    Each vertex of ``initial_cover`` counts as already seeing one member
    (a fixed set outside the walk), so with ``kind`` gamma_t the sets
    visited are exactly those whose open neighborhoods cover the rest.

    Vertices are decided from n-1 down to 0, "exclude" before "include".
    Two masks of equal popcount compare like their bit strings read from
    the top, with 0 before 1, so leaves are reached in increasing numeric
    order.  Pruning uses only the definitions: the popcount, the c1/c2
    counters (vertices seeing at least one / two members in their key
    neighborhood, closed for gamma and rho, open for the other kinds),
    and each vertex's constraint once every vertex that can change it is
    decided.  Once k members are chosen, every vertex still undecided is
    left out, and their checks are made together.  At a leaf every member
    is chosen, so the c2 handed to ``visit`` is final.  A member sees
    itself in its closed key, so for gamma and rho S & ~c2 is iso(G[S]),
    the members with no neighbor in S.
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
                    and not below[v + 1] & ~(c1 | (smask & exempt))
                    and visit(smask, c2)):
                return smask
            return None
        b = 1 << v
        # exclude v: a perfect set cannot leave out a vertex seeing two members
        if cnt + v >= k and not (perfect and c2 & b) and not closing[v] & ~(c1 | (smask & exempt)):
            found = rec(v - 1, smask, out | b, cnt, c1, c2)
            if found is not None:
                return found
        if packing and c1 & key[v]:
            return None
        nc2 = c2 | (c1 & key[v])
        nc1 = c1 | key[v]
        ns = smask | b
        if not (perfect and nc2 & out) and not closing[v] & ~(nc1 | (ns & exempt)):
            return rec(v - 1, ns, out, cnt + 1, nc1, nc2)
        return None

    try:
        return rec(n - 1, 0, 0, 0, initial_cover, 0)
    finally:
        del rec


def _first_feasible_set(g: Graph, kind: ParameterKind, k: int, initial_cover: int = 0) -> int:
    """The numerically smallest set that ``_walk_sets`` visits; a value
    search that reported size ``k`` guarantees one exists."""
    smask = _walk_sets(g, kind, k, initial_cover, lambda s, c2: True)
    if smask is None:
        raise InconsistencyError(f"no feasible {kind.value} set of size {k}")
    return smask


# -- Roman-kind solvers -------------------------------------------------


def _roman_v1(g: Graph, kind: ParameterKind, v2: int) -> int:
    """V1 of the canonical optimal function of a Roman kind with this V2:
    the vertices outside V2 with no V2-neighbor (gamma_Rp: not exactly
    one), plus for gamma_tR the numerically smallest of the fewest extra
    vertices that make the positive set total dominating."""
    adj = g.adj
    c1 = c2 = 0
    for v in bits(v2):
        c2 |= c1 & adj[v]
        c1 |= adj[v]
    if kind is ParameterKind.gamma_Rp:
        c1 &= ~c2
    v1 = g.full_mask & ~(v2 | c1)
    if kind is ParameterKind.gamma_tR:
        # no minimum extra set meets the preset: dropping a preset vertex
        # from it (its neighbors are already covered) would beat the minimum
        preset = v2 | v1
        extra = _min_cover_value(g, adj, preset)[0]
        v1 |= _first_feasible_set(g, ParameterKind.gamma_t, extra,
                                  initial_cover=g.open_cover(preset))
    return v1


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


class _RowSuffixes(dict):
    """The row suffixes of ``_roman_scan`` by search mode (``ties``): the
    rows from each start position on.  Each mode's table is built on the
    first search in that mode, so a graph searched by value alone, as in
    a verification sweep, or with witnesses alone, as in a product
    solve, builds one."""

    def __init__(self, rows: list):
        super().__init__()
        self.rows = rows

    def __missing__(self, ties: bool) -> list:
        rows = self.rows
        n = len(rows)
        if ties:
            tails = [rows[i:] for i in range(n + 1)]
        else:
            # the vertices with a twin at an earlier position: twins share
            # a degree, so among them the order is by index; the open and
            # the closed neighbourhoods of the positions so far
            twins = 0
            opens: set[int] = set()
            closeds: set[int] = set()
            for _, a, b, _, _, _ in rows:
                if a in opens or a | b in closeds:
                    twins |= b
                opens.add(a)
                closeds.add(a | b)
            # a vertex with an earlier twin has no row, and its bit joins
            # the out-bits of the row before it (``run``; position 0 has
            # no earlier twin)
            tails = [None] * n + [[]]
            run = 0
            for i in range(n - 1, -1, -1):
                row = rows[i]
                b = row[2]
                if twins & b:
                    run |= b
                    tails[i] = tails[i + 1]
                    continue
                if run:
                    row = (*row[:3], b | run, *row[4:])
                    run = 0
                tails[i] = [row] + tails[i + 1]
        self[ties] = tails
        return tails


@lru_cache(maxsize=4)
def _roman_plan(g: Graph):
    """The set-up of ``_roman_scan`` on G, shared by gamma_R and gamma_Rp
    and by both search modes: (row suffixes by mode, greedy dominating
    seed), as that docstring describes.

    A set-up cache, not an answer memo: it holds the last four graphs
    and reads no cap, since ``solve`` and ``enumerate_optimal_v2`` check
    the cap before a search reads it.  ``capped_memo.cache_clear()``
    clears it too.
    """
    n = g.n
    adj = g.adj
    # degree descending; sorted() is stable, so ties keep increasing index
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    # rows[i] as in _roman_scan; unreach: the vertices with no neighbor
    # among order[i + 1:]; dn: 1 + the degree at position i + 1, the
    # largest at any later position.  Lists, not tuples: a tuple table
    # raised the peak memory of product solves
    rows = [None] * n
    unreach = g.full_mask
    dn = 0
    for i in range(n - 1, -1, -1):
        v = order[i]
        b = 1 << v
        rows[i] = (i + 1, adj[v], b, b, unreach, dn)
        unreach &= ~adj[v]
        dn = 1 + adj[v].bit_count()
    return _RowSuffixes(rows), _greedy_dominating(g)


_MEMOS.append(_roman_plan)


def _roman_scan(g: Graph, kind: ParameterKind, ties: bool = True):
    """Branch-and-bound over V2 sets for gamma_R / gamma_Rp.

    One loop serves both kinds: c1 holds the vertices with a V2-neighbor
    and c2, kept only for gamma_Rp (``twice`` is 0 for gamma_R), those
    with two, so a node's weight is n + |V2| - |Z - V2| with Z = c1 - c2.
    Its children are bounded by 2(|V2| + 1) plus the decided-out vertices
    that must take weight 1 whatever is added: those seeing two members
    (gamma_Rp), and those seeing none with no neighbor left to decide.

    The search reads its set-up from ``_roman_plan(g)``, built once per
    graph and shared by both kinds and both modes: a greedy dominating
    set that seeds ``best``, and one row table per mode.  The
    tie-keeping table holds (i + 1, N(v), {v}, o, unreach[i + 1], dn)
    for the vertex v at each position i of the order (degree
    descending, then index), where o = {v} is what joins nout after the
    child, unreach[i] holds the vertices with no neighbor among
    order[i:], and dn is 1 + the degree of order[i + 1], the largest
    degree at any later position (0 at the last one).  The value-only
    table leaves out the rows of the vertices with a twin at an earlier
    position (twin rule below).  A node that starts at position s walks
    the suffix of its mode's rows from s; the set-up builds a mode's
    suffixes on the first search in that mode.  The seed's weight is per
    kind.
    Let k be the children's |V2| and nout the decided-out set before
    child i: the node's own and its earlier children's, so that V2 and
    nout hold exactly the positions before i.

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
    both tests.  For gamma_R c2 is 0 and the same tests hold.

    Covering bound.  The stop also fires when 2k + 2 + T > best and
    2k + |A0| + |A2| - dn > best, where A0 = V - (c1 | V2) holds the
    vertices outside V2 with no V2-neighbor and A2 = c2 - V2 those that
    see two members (empty for gamma_R).  Both sets depend on the node
    alone, so h = 2k + |A0| + |A2| is summed once per node.  A later
    child j adds one vertex v = order[j] to V2.  A vertex of A2 other
    than v still sees two members and takes 1.  A vertex of A0 outside
    N[v] still sees no member and takes 1.  A0 and A2 are disjoint, so
    the child takes at most |N(v) & A0| + 1 <= deg(v) + 1 vertices out
    of the ones at weight 1, and deg(v) <= deg(order[i + 1]), since the
    order is by degree, descending.  So child j weighs at least
    2k + |A0| + |A2| - dn, and once that exceeds ``best``, with
    2k + 2 + T > best for the recursion tests, no later child can
    improve on ``best``, tie it or recurse, as ``best`` only falls.
    So with either bound the tree and the order in which ``best``
    changes are those of the full loop.

    Dead child.  A child i that passes the recursion test is entered
    only when a child of its own, a grandchild, could weigh at most
    ``lim`` or recurse.  Otherwise the child is dead: the parent adds
    n - (i + 1), the count that the child's node adds as it starts, and
    does not enter it.  The test reads only what the loop holds.  The
    recursion part: a grandchild at position p > i starts from the
    child's nout and nc2, which only grow, and
    ~nc1 & unreach[i + 1] lies in ~(nc1 | N(order[p])) & unreach[p + 1],
    since no vertex of unreach[i + 1] has a neighbor at a position after
    i; so its r reads at least the child's r, the argument of the stop,
    and its recursion test at least 2k + 4 + r.  The weight part: the
    child weighs w = 2k + |A0| + |A2|, with A0 and A2 of the child's V2,
    and by the covering bound a grandchild that adds v weighs at least
    w + 2 - (deg(v) + 1), where deg(v) <= dn - 1, as v comes after
    position i.  So once 2k + 4 + r > lim and w + 2 - dn > lim, no
    grandchild weighs at most ``lim`` or recurses.  A grandchild
    weighing above ``lim`` changes nothing: above ``best`` it neither
    lowers nor ties it, and in the value-only search, where
    lim = best - 1, it weighs at least ``best`` and does not lower it.
    Entering the child would change ``explored`` alone, by the count
    the parent adds, so the tree, the order in which ``best`` changes
    and ``explored`` are those of the full loop, in both modes.

    Value only.  With ``ties`` false every gate (weigh, recurse, stop)
    reads ``lim = best - 1`` in place of ``best``, so a child that can
    at best tie ``best`` is neither weighed nor recursed into, and no
    optimal-mask list is kept.  The search also breaks the symmetry of
    twins.  Vertices u and v are twins when N(u) - {v} = N(v) - {u}:
    false twins share their open neighbourhood, true twins their closed
    one.  Swapping two twins is an automorphism of G, so it keeps |V2|
    and the weight of every V2 set.  Twins share a degree, so among
    them the order is by index.  Twin rule: child i, with v at position
    i, is weighed (and so recursed into) only when v has no twin at an
    earlier position.  The value-only rows carry the rule, so no child
    loop tests it, in either mode: such a vertex has no row, and its
    bit is in o of the row before it, so after each child nout still
    holds every position up to the next row.  A child starts with those
    skipped positions in its own nout, as its parent passes
    nout | (o - {v}).  So V2 and nout hold exactly the positions before
    each child that is weighed, as the gates need.  The stop is tested
    after each row, with nout up to the next row, and not after a
    skipped position.  It fires only when no later child can weigh at
    most lim or recurse: the argument below holds with "a later
    position" read as the position of a later row, since the skipped
    positions have no child, and with the larger nout.  Where the full
    loop would stop after a skipped position, the next child can
    neither weigh at most lim nor recurse, so its gates fail or weigh it
    above lim, which moves neither ``best`` (lim = best - 1) nor the
    tree.

    The value is still the optimum.  First, no optimal RDF or PRDF has
    two twins u and v in V2: giving v weight 1 in place of 2 keeps the
    function valid and makes it lighter.  A vertex w of weight 0 next
    to v is not u, so it lies in N(v) - {u} = N(u) - {v} and sees u as
    well.  For gamma_R, u still covers w.  For gamma_Rp, w would see the
    two members u and v, which a PRDF forbids, so no such w exists and
    no vertex of weight 0 loses a member.  Next, let V2* be an optimal
    V2 whose members have no twin at an earlier position.  One exists:
    if a member x of an optimal V2 has an earlier twin y, then y is not
    a member, by the first step, and swapping x with y keeps the weight
    and lowers the sum of the members' positions, so repeated swaps end
    at such a set (the lex-leader idea of Crawford et al.,
    "Symmetry-breaking predicates for search problems", KR 1996).  The
    path down to V2* adds its members in position order, and as no
    member has an earlier twin, the twin rule passes for each of them.
    Suppose the value were above the optimum opt.  ``best``
    only falls, so opt <= lim held throughout.  Each bound above is a
    lower bound on the weight of a child or of every node below it, so
    on the path down to V2* each weigh and recursion gate reads at most
    opt <= lim and passes.  The stop, which by the arguments above (both
    bounds) with lim for best fires only when no later child can weigh
    at most lim or recurse, cannot cut that path either: the positions
    the twin rule skips still join nout, so V2 and nout hold the
    positions before each child as those arguments need.  Nor can the
    dead-child test, which with lim for best fires only when no
    grandchild weighs at most lim or recurses, while the grandchild on
    the path is V2* itself, weighing opt, or passes its recursion test.
    So V2* is weighed and ``best`` falls to opt, a contradiction.
    (V2 = {} is never weighed, but ``best`` starts at its weight n.)

    Without the twin rule the strict tree would be part of the
    tie-keeping one: whatever the strict gates pass over weighs above
    lim, so ``best`` would fall nowhere inside it in the tie-keeping
    search either, and a gate that passes at best - 1 passes at
    ``best``.  The twin rule breaks that argument, since a child it
    skips may be the one that lowers ``best`` first in the tie-keeping
    search, so ``explored`` is no longer bounded by the tie-keeping
    count; the tests compare the two on random graphs.

    Optimal masks.  With ``ties`` true ``masks`` holds every V2 weighed
    so far at weight ``best``: it is emptied when a lighter child lowers
    ``best`` and grows when a child ties it.  It starts as [0], since
    V2 = {} (the root, never weighed as a child) weighs n, and is
    emptied when the greedy seed weighs less than n, as the tree weighs
    the seed again.  Every optimal V2 is weighed, because ``best`` never
    falls below the optimum and each bound above is a lower bound on the
    weight of a child or of every node below it, tested with
    ``<= best``: no bound can pass over a node of optimal weight, nor
    the path down to it.  Each V2 is weighed at most once, so on return
    ``masks`` holds each optimal V2 once, and sorted, masks[0] is the
    canonical V2.

    ``explored`` counts the children of every expanded node, whether
    weighed, passed over by a gate or the twin rule or cut off together
    by the stop: n - start is added as a node starts, or by its parent
    for a dead child, so with ``ties`` true it is that of the full loop,
    and with ``ties`` false that of the strict tree.  Returns (value,
    sorted optimal V2 masks, explored), with None for the masks when
    ``ties`` is false.
    """
    n = g.n
    twice = g.full_mask if kind is ParameterKind.gamma_Rp else 0
    suffixes, seed = _roman_plan(g)
    # the value-only rows have no child for a vertex with an earlier twin
    tails = suffixes[ties]
    explored = 0

    # V2 = {} weighs n: every vertex takes 1
    best = n
    masks = [0] if ties else None
    w = 2 * seed.bit_count() + _roman_v1(g, kind, seed).bit_count()
    if w < best:
        best = w
        if ties:
            masks = []
    # the gates' limit: best when ties are kept, best - 1 when not
    slack = 0 if ties else 1
    lim = best - slack

    def rec(start: int, smask: int, out: int, k: int, c1: int, c2: int) -> None:
        nonlocal best, lim, masks, explored
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
        # the covering bound of the stop (docstring) is h - dn: 2|V2| of a
        # child plus |A0| + |A2|, less what the later child can take
        h = least + n - (c1 | smask).bit_count() + held2.bit_count()
        for j, a, b, o, u, dn in tails[start]:
            nc2 = (c2 | c1 & a) & twice
            nc1 = c1 | a
            # decided-out vertices at weight 1 in the child and all below
            r = (nout & (nc2 | ~nc1 & u)).bit_count()
            if least + r <= lim:  # the child weighs at least least + r
                ns = smask | b
                w = base - (nc1 & ~(nc2 | ns)).bit_count()
                if w < best:
                    best, lim = w, w - slack
                    if ties:
                        masks = [ns]
                elif w == best and ties:
                    masks.append(ns)
                if floor + r <= lim:
                    # a dead child (docstring) adds its count unentered
                    if floor + 2 + r > lim and w + 2 - dn > lim:
                        explored += n - j
                    else:
                        # the twins that follow v, which have no row, are out
                        rec(j, ns, nout | (o ^ b), k, nc1, nc2)
            nout |= o
            # no later child weighs at most lim or recurses (docstring)
            x = held2 | held0 & u
            t = (nout & x).bit_count()
            if floor + t > lim and (h - dn > lim or
                                    least + x.bit_count() - ((x & ~nout) != 0) > lim):
                break
    rec(0, 0, 0, 0, 0, 0)
    del rec
    if ties:
        masks.sort()
    return best, masks, explored


def _solve_gamma_tR(g: Graph):
    """Total Roman domination: the smallest 2|V2| + |V1| over V2 sets,
    each completed by an exact inner search.

    For a nonempty V2, every vertex outside V2 without a V2-neighbor
    must take 1 (``forced``), so the weight of V2 is at least
    base = 2|V2| + |forced|; the fewest extra weight-1 vertices that make
    the positive set total dominating come from ``_min_cover_value`` with
    preset = V2 | forced.  The result is the V2 = {} completion (V1 = V,
    weight n) unless some V2 mask weighs less; the first mask, in
    increasing numeric order, to reach the minimum is returned, and
    ``_roman_v1`` completes it into the witness.

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
    Returns (value, optimal V2, explored).
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
    explored = 0

    def rec(j: int, t: int, ct: int, out: int, k: int) -> None:
        # t: V2 within positions j..n-1; ct = N(t); out: the decided-out positions
        nonlocal best, best_v2, explored
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
        extra, sub = _min_cover_value(g, adj, t | out & ~ct)
        explored += sub
        if bound + extra < best:
            best = bound + extra
            best_v2 = t

    rec(n, 0, 0, 0, 0)
    del rec
    return best, best_v2, explored


# -- public API ---------------------------------------------------------


def solve(g: Graph, kind: ParameterKind, max_n: int | None = None, *,
          witness: bool = True) -> SolveResult:
    """Exact optimum with a canonical witness for any parameter kind.

    With ``witness`` false only the optimum is computed and the witness
    is None: the Roman kinds gamma_R and gamma_Rp search with strict
    gates, keep no ties and search one V2 set of each orbit under twin
    swaps (``_roman_scan``), so their ``explored`` counts a smaller
    tree; the set kinds and gamma_tR run their default search, with
    ``explored`` unchanged, and no kind builds a witness.
    """
    if kind.__class__ is not ParameterKind:
        kind = ParameterKind(kind)
    check_cap(g, kind, max_n)
    if kind in TOTAL_KINDS:
        _check_no_isolated(g, kind.value)

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
    elif kind is ParameterKind.gamma_tR:
        value, v2, explored = _solve_gamma_tR(g)
    else:
        value, masks, explored = _roman_scan(g, kind, ties=witness)
        v2 = masks[0] if witness else None

    if not witness:
        return SolveResult(value, None, explored)
    if kind in SET_KINDS:
        return SolveResult(value, _first_feasible_set(g, kind, value), explored)
    return SolveResult(value, assignment_from_masks(g.n, _roman_v1(g, kind, v2), v2), explored)


def enumerate_optimal_v2(g: Graph, kind: ParameterKind, max_n: int | None = None) -> list[int]:
    """All V2 masks achieving the optimum for gamma_R / gamma_Rp.

    By the forced-completion correspondence (module docstring) these are
    in bijection with all optimal RDFs / PRDFs.
    """
    kind = ParameterKind(kind)
    if kind not in (ParameterKind.gamma_R, ParameterKind.gamma_Rp):
        raise DomainError(f"enumerate_optimal_v2 supports gamma_R/gamma_Rp, not {kind.value}")
    check_cap(g, kind, max_n)
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
    _check_no_isolated(g, "zeta")
    check_cap(g, "zeta")


@capped_memo(_check_zeta_couples)
def zeta_couples(g: Graph) -> tuple[tuple[int, int], ...]:
    """All dominating couples achieving zeta(G), as (A, B) mask pairs in
    increasing A u B order.

    For a fixed union U = A u B the couple condition forces B to contain
    exactly the isolated vertices of G[U] (any vertex of U with no
    U-neighbor fails the test unless it is in B, and enlarging B only
    costs more), and requires U to be a dominating set.  So the search
    walks the dominating sets U of each size k from gamma(G) upward, with
    B = iso(G[U]) = U - c2 (``_walk_sets``) and weight 2k + |B|, and
    stops at the first k with 2k above the best weight found, which no
    larger U can beat.  Refuses G with an isolated vertex, then G over
    the zeta cap (``capped_memo``).
    """
    best = 2 * g.n  # U = V, which has no isolated vertex here
    found: list[tuple[int, int]] = []

    def visit(umask: int, c2: int) -> None:
        nonlocal best, found
        iso = umask & ~c2
        value = 2 * k + iso.bit_count()
        if value < best:
            best, found = value, []
        if value == best:
            found.append((umask & ~iso, iso))

    for k in range(_gamma_value(g)[0], g.n + 1):
        if 2 * k > best:
            break
        _walk_sets(g, ParameterKind.gamma, k, 0, visit)
    found.sort(key=lambda couple: couple[0] | couple[1])
    return tuple(found)


def _walk_open_packings(g: Graph, avoid: int, visit):
    """Call ``visit(S, seen)`` for every open packing S of G disjoint
    from ``avoid``, the empty set included, in increasing numeric order,
    with seen = N(S), the vertices with a neighbor in S, until a call
    returns a truthy value.  Returns the S of that call, or None once
    every set has been visited.

    This is the exclude-before-include walk of ``_walk_sets`` over
    vertices n-1 down to 0, with each run of exclusions taken in one
    step: each set comes before its extensions by one vertex below its
    lowest member, lowest vertex first.  A vertex joins when its
    neighborhood misses ``seen``.
    """
    free = [v for v in range(g.n) if not avoid >> v & 1]
    # heads[top]: (i, {v}, N(v)) for the vertex v at each position i of
    # ``free`` below top, lowest first
    rows = [(i, 1 << v, g.adj[v]) for i, v in enumerate(free)]
    heads = [rows[:top] for top in range(len(rows) + 1)]

    def rec(top: int, smask: int, seen: int):
        if visit(smask, seen):
            return smask
        for i, b, row in heads[top]:
            if not seen & row:
                found = rec(i, smask | b, seen | row)
                if found is not None:
                    return found
        return None

    try:
        return rec(len(rows), 0, 0)
    finally:
        del rec


def _dominating_open_packings(g: Graph, visit):
    """Call ``visit(S, S0)`` for every dominating open packing S, with S0
    the members without a neighbor in S, in increasing numeric order,
    until a call returns a truthy value.  Returns the S of that call, or
    None once every set has been visited.

    Each holds every isolated vertex, which nothing else dominates, and
    an isolated vertex shares no neighbor with anything, so the walk
    leaves the isolated vertices out and adds them to every set: on i
    isolated vertices it is 2^i times shorter.  With the walk's
    seen = N(S), S dominates when seen | S holds every other vertex, and
    S0 is S - seen plus the isolated vertices.
    """
    iso = mask_from(g.isolated_vertices())
    rest = g.full_mask & ~iso

    def dominating(s: int, seen: int):
        return seen | s == rest and visit(s | iso, (s & ~seen) | iso)

    found = _walk_open_packings(g, iso, dominating)
    return None if found is None else found | iso


@capped_memo(lambda g: check_cap(g, "zeta'"))
def zeta_prime(g: Graph) -> tuple[int, int] | None:
    """min{4|S0| + 2|S1|} over dominating open packings, or None.

    S0/S1 are the isolated/non-isolated vertices of G[S].  Note the
    minimum is a weight, not a cardinality; a zeta'-set is one attaining
    this weight (ties: smallest mask, the first the walk visits).
    Refuses G over the zeta' cap (``capped_memo``).
    """
    best = None

    def visit(s: int, s0: int) -> None:
        nonlocal best
        weight = 2 * s.bit_count() + 2 * s0.bit_count()
        if best is None or weight < best[0]:
            best = (weight, s)

    _dominating_open_packings(g, visit)
    return best


def dominating_open_packings(g: Graph) -> list[int]:
    """All sets that are simultaneously dominating and open packings, in
    increasing numeric order."""
    check_cap(g, "")
    found: list[int] = []
    _dominating_open_packings(g, lambda s, s0: found.append(s))
    return found
