"""Structural predicates: efficient open/closed domination, the pair
properties P1/P2/P3, dominating couples, and Roman / perfect-Roman
graph classes.

All predicates expose witnesses, never bare booleans, so verification
reports can be replayed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CapExceededError, DomainError, HypothesisError, InconsistencyError
from .graph import Graph
from .solvers import (
    ParameterKind,
    _check_kind_cap,
    _dominating_open_packings,
    capped_memo,
    is_feasible,
    open_packings,
    solve,
)


class HypothesisKind(str, Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


@capped_memo(_check_kind_cap)
def factor_value(g: Graph, kind: ParameterKind) -> int:
    """Memoized parameter value of a factor graph, refused over the cap
    ``solve`` applies to ``kind`` (``capped_memo``)."""
    return solve(g, kind).value


def _check_eod_cap(g: Graph) -> None:
    """The gamma_t cap, which the size identity's gamma_t solve applies.
    A G with an isolated vertex is answered at any order: it has no
    efficient open dominating set, and no walk is made."""
    try:
        _check_kind_cap(g, ParameterKind.gamma_t)
    except CapExceededError:
        if not g.has_isolated_vertex():
            raise


@capped_memo(_check_eod_cap)
def is_efficient_open_domination(g: Graph) -> int | None:
    """Witness S such that every vertex of G has exactly one S-neighbor,
    i.e. a perfect dominating set inducing a disjoint union of edges;
    None when no such set exists.  Canonical: smallest mask.

    These are the open packings whose open neighborhoods cover V, so this
    is the first such set of the open-packing walk.  The size identity
    |S| = gamma_t = rho_o is checked below, so the walk must not assume it.
    An isolated vertex has no neighbor at all, so then no such set exists.
    """
    if g.has_isolated_vertex():
        return None
    full = g.full_mask
    smask = next((s for s in open_packings(g) if g.open_cover(s) == full), None)
    if smask is not None:
        # cross-check the stated size identity
        sizes = (smask.bit_count(), factor_value(g, ParameterKind.gamma_t),
                 factor_value(g, ParameterKind.rho_o))
        if len(set(sizes)) != 1:
            raise InconsistencyError(
                f"efficient open dominating set with |S|, gamma_t, rho_o = {sizes}")
    return smask


@capped_memo(lambda g: _check_kind_cap(g, ParameterKind.gamma))
def is_efficient_closed_domination(g: Graph) -> int | None:
    """Witness minimum dominating set that is also a packing, or None.
    Canonical: smallest mask.  Every dominating packing has size gamma:
    the closed neighborhoods of its members are disjoint and each holds
    a vertex of any dominating set.  So it is the first packing among the
    dominating open packings, which all hold every isolated vertex.
    """
    value = factor_value(g, ParameterKind.gamma)
    smask = next((s for s in _dominating_open_packings(g)
                  if is_feasible(g, s, ParameterKind.rho)), None)
    if smask is not None:
        sizes = (smask.bit_count(), value, factor_value(g, ParameterKind.rho))
        if len(set(sizes)) != 1:
            raise InconsistencyError(
                f"efficient closed dominating set with |S|, gamma, rho = {sizes}")
    return smask


@dataclass(frozen=True)
class HypothesisCheck:
    """Truth of a P1/P2/P3 property plus the facts that decided it."""

    kind: HypothesisKind
    holds: bool
    facts: tuple[tuple[str, object], ...]

    def __bool__(self) -> bool:
        return self.holds

    def fact(self, name: str):
        return dict(self.facts)[name]


def check_hypothesis(g: Graph, h: Graph, kind: HypothesisKind) -> HypothesisCheck:
    """P1: delta(H)=0 and G is an efficient open domination graph.
    P2: gamma(H)=1 and G is an efficient closed domination graph.
    P3: P1 and gamma_p(G) = gamma_t(G).

    Defined only for nontrivial factors.
    """
    kind = HypothesisKind(kind)
    if g.n < 2 or h.n < 2:
        raise HypothesisError(
            f"property {kind.value} is defined for nontrivial factors; got n(G)={g.n}, n(H)={h.n}"
        )
    delta_h = h.degree_extremes()[0]
    facts: list[tuple[str, object]] = []
    if kind is HypothesisKind.P2:
        gamma_h = factor_value(h, ParameterKind.gamma)
        ecd = is_efficient_closed_domination(g)
        facts += [("gamma_h", gamma_h), ("ecd_witness", ecd)]
        holds = gamma_h == 1 and ecd is not None
    else:
        eod = is_efficient_open_domination(g)
        facts += [("delta_h", delta_h), ("eod_witness", eod)]
        holds = delta_h == 0 and eod is not None
        if kind is HypothesisKind.P3:
            gp = factor_value(g, ParameterKind.gamma_p)
            gt = factor_value(g, ParameterKind.gamma_t) if not g.has_isolated_vertex() else None
            facts += [("gamma_p_g", gp), ("gamma_t_g", gt)]
            holds = holds and gp == gt
    return HypothesisCheck(kind, holds, tuple(facts))


@dataclass(frozen=True)
class GraphClassResult:
    """Equality test gamma_R = 2*gamma (roman) or gamma_Rp = 2*gamma_p
    (perfect_roman), with both sides recorded."""

    which: str
    holds: bool
    lhs: int
    rhs: int

    def __bool__(self) -> bool:
        return self.holds


def graph_class(g: Graph, which: str) -> GraphClassResult:
    if which == "roman":
        lhs = factor_value(g, ParameterKind.gamma_R)
        rhs = 2 * factor_value(g, ParameterKind.gamma)
    elif which == "perfect_roman":
        lhs = factor_value(g, ParameterKind.gamma_Rp)
        rhs = 2 * factor_value(g, ParameterKind.gamma_p)
    else:
        raise DomainError(f"unknown graph class {which!r}; expected 'roman' or 'perfect_roman'")
    return GraphClassResult(which, lhs == rhs, lhs, rhs)


def is_dominating_couple(g: Graph, a: int, b: int) -> bool:
    """(A, B) disjoint with every vertex outside B having a neighbor in
    A u B."""
    if a & b:
        raise DomainError("dominating couple requires disjoint A and B")
    if (a | b) & ~g.full_mask:
        raise DomainError("couple has bits outside the vertex range")
    union = a | b
    for x in range(g.n):
        if not b >> x & 1 and not g.adj[x] & union:
            return False
    return True
