"""Theorem registry: each statement about G o H declared once, and the
prediction and witness construction that read it.

Every TheoremId has one Statement in STATEMENTS with four parts: the
product parameter it concerns; its hypotheses, as (predicate, skip
reason) pairs tried in order; its conclusion, which is an exact value
with a branch tag (Exact), a lower or an upper bound (Lower, Upper), the
right-hand side of an if-and-only-if (Iff), or a check of its own
(Custom); and, optionally, the witness its proof builds on the product.
The parts read factor data from one PairFacts per pair, which computes
each quantity on first use.  A fact that reads G alone is one line of
PairFacts naming the memoized function that defines it.  The facts the
gamma_Rp bounds read, with H only through n(H), mindeg(H) and
maxdeg(H), are computed once per G: the three picks among the optimal
PRDFs behind functions I, II and IV (one enumeration, ``_prdf_picks``),
the epn split of function III, and, for the open-packing bound, the
open-packing profiles that some H can make minimal.  Each is a
``solvers.capped_memo`` that refuses with the cap a cold computation
meets first.

predict() folds the applicable statements about one parameter into an
interval and collapses it to an exact value whenever an exact case fires
or an iff's right-hand side holds.  Disagreement between fired exact
statements (or an exact value escaping the aggregated interval) raises
InconsistencyError rather than picking a side.  Statement.check()
compares one statement with the measured product for verify_pair(), and
construct_witness() builds one statement's object and validates it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import DomainError, HypothesisError, InconsistencyError
from .graph import CheckedRecord, Graph, assignment_from_masks, bits, mask_from
from .product import lex_product
from .solvers import (
    PREDICT_KINDS,
    ParameterKind,
    TheoremId,
    _feasible_sets,
    _isolated_in,
    _roman_v1,
    capped_memo,
    check_cap,
    dominating_open_packings,
    enumerate_optimal_v2,
    is_feasible,
    is_prdf,
    is_rdf,
    open_packings,
    solve,
    zeta,
    zeta_couples,
    zeta_prime,
)
from .structure import (
    HypothesisKind,
    check_hypothesis,
    factor_value,
    is_efficient_closed_domination,
    is_efficient_open_domination,
)


class Prediction(CheckedRecord, namedtuple("Prediction", "lo hi provenance")):
    """Closed interval [lo, hi]; exact when the interval collapses.

    ``provenance`` lists the statements (with branch details) that
    produced the reported numbers.
    """

    __slots__ = ()

    def __post_init__(self):
        if self.lo > self.hi:
            raise InconsistencyError(f"prediction interval [{self.lo}, {self.hi}] is empty")
        if not self.provenance:
            raise InconsistencyError("prediction without provenance")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.exact:
            raise DomainError("interval prediction has no single value")
        return self.lo

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi


PASS = "pass"
FAIL = "fail"
SKIP = "skip"
INDETERMINATE = "indeterminate"


class ClaimRecord(NamedTuple):
    claim: str
    outcome: str
    predicted: object = None
    measured: object = None
    detail: str = ""

    @property
    def applicable(self) -> bool:
        return self.outcome not in (SKIP,)


def _compare(claim: str, predicted, measured, ok: bool, detail: str = "") -> ClaimRecord:
    return ClaimRecord(claim, PASS if ok else FAIL, predicted, measured, detail)


def _iff(claim: str, lhs: bool, rhs: bool, detail: str) -> ClaimRecord:
    forward = (not lhs) or rhs
    backward = (not rhs) or lhs
    return ClaimRecord(
        claim,
        PASS if forward and backward else FAIL,
        rhs,
        lhs,
        f"{detail}; forward={'ok' if forward else 'FAIL'}, backward={'ok' if backward else 'FAIL'}",
    )


def _min_degree_vertex(h: Graph) -> int:
    return min(range(h.n), key=lambda v: (h.degree(v), v))


def _max_degree_vertex(h: Graph) -> int:
    return min(range(h.n), key=lambda v: (-h.degree(v), v))


def _universal_vertex(h: Graph) -> int | None:
    for v in range(h.n):
        if h.degree(v) == h.n - 1:
            return v
    return None


_R, _RP = ParameterKind.gamma_R, ParameterKind.gamma_Rp


# -- the facts about G alone, memoized per G --------------------------------
#
# Each memo's check is the first cap its computation meets: gamma_Rp for
# the PRDF picks, gamma_p (of gamma_p(G)) for the epn split, and the
# open-packing cap for the walk.


class PrdfPicks(NamedTuple):
    """The optimal PRDFs on G behind functions I, II and IV, as (V2, V1)."""

    #: the one with the fewest positive vertices (ties: smallest V2)
    fewest_positive: tuple[int, int]
    #: the first whose V2 is a gamma(G)-set, or None
    v2_gamma_set: tuple[int, int] | None
    #: the first whose V1 u V2 is a gamma_p(G)-set, or None
    support_gamma_p_set: tuple[int, int] | None


@capped_memo(lambda g: check_cap(g, _RP))
def _prdf_picks(g: Graph) -> PrdfPicks:
    """The three picks among the optimal PRDFs on G, from one enumeration
    of them; "first" is enumeration order."""
    prdfs = [(v2, _roman_v1(g, _RP, v2)) for v2 in enumerate_optimal_v2(g, _RP)]
    gamma = factor_value(g, ParameterKind.gamma)
    gamma_p = factor_value(g, ParameterKind.gamma_p)
    return PrdfPicks(
        min(prdfs, key=lambda f: ((f[0] | f[1]).bit_count(), f[0])),
        next((f for f in prdfs if f[0].bit_count() == gamma
              and is_feasible(g, f[0], ParameterKind.gamma)), None),
        next((f for f in prdfs if (f[0] | f[1]).bit_count() == gamma_p
              and is_feasible(g, f[0] | f[1], ParameterKind.gamma_p)), None))


@capped_memo(lambda g: check_cap(g, ParameterKind.gamma_p))
def _epn_split(g: Graph) -> tuple[int, int]:
    """(S', S - S') for the gamma_p(G)-set S minimizing |S'| + 2|S - S'|,
    where S' holds the members without an external private neighbor
    (ties: smallest S)."""
    splits = []
    for smask in _feasible_sets(g, ParameterKind.gamma_p, factor_value(g, ParameterKind.gamma_p)):
        s_prime = mask_from(v for v in bits(smask) if not g.epn(v, smask))
        splits.append((s_prime.bit_count() + 2 * (smask & ~s_prime).bit_count(),
                       smask, s_prime))
    _, smask, s_prime = min(splits)
    return s_prime, smask & ~s_prime


@capped_memo(lambda g: check_cap(g, "open-packing"))
def _packing_profiles(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """The part of PairFacts.packing that reads G alone: for the open
    packings S of G, with S0 the members without a neighbor in S, the
    profiles (|S0|, |S - S0|, n(G) - |N[S]|), each with its smallest S,
    as (|S0|, |S - S0|, n(G) - |N[S]|, S).

    Only the profiles that no other profile is <= in every coordinate
    are kept.  PairFacts.packing weighs the three coordinates with
    n(H) - maxdeg(H) + 1 >= 2, 2 + mindeg(H) >= 2 and n(H) >= 1, all
    positive, so a dominated profile weighs more than the one below it
    for every H, and the minimum (value, S) is among those kept.
    """
    first: dict[tuple[int, int, int], int] = {}
    # the walk yields the open packings in increasing numeric order, so
    # the first S of each profile is its smallest
    for smask in open_packings(g):
        s0 = _isolated_in(g, smask).bit_count()
        first.setdefault((s0, smask.bit_count() - s0,
                          g.n - g.closed_cover(smask).bit_count()), smask)
    return tuple((*p, s) for p, s in first.items()
                 if not any(q != p and all(x <= y for x, y in zip(q, p)) for q in first))


def _of_g(fn, *args) -> cached_property:
    """A PairFacts fact that reads G alone: ``fn(G, *args)``, computed on
    first use and documented by ``fn``."""
    fact = cached_property(lambda f: fn(f.g, *args))
    fact.__doc__ = fn.__doc__
    return fact


class PairFacts:
    """What the statements read about one pair (G, H), each quantity
    computed on first use and at most once, apart from the degree facts,
    which __init__ sets.

    Checking a statement against the product also needs
    ``measured(kind)``, the parameter measured on G o H, which the pair
    context of ``verify`` adds.
    """

    def __init__(self, g: Graph, h: Graph):
        self.g = g
        self.h = h
        #: mindeg(G), and whether G has no isolated vertex
        self.delta_g = g.degree_extremes()[0]
        self.g_ok = self.delta_g > 0
        self.dmin, self.dmax = h.degree_extremes()

    g_connected = _of_g(Graph.is_connected)
    gamma = _of_g(factor_value, ParameterKind.gamma)
    gamma_t = _of_g(factor_value, ParameterKind.gamma_t)
    gamma_p = _of_g(factor_value, ParameterKind.gamma_p)
    gamma_Rp = _of_g(factor_value, _RP)
    eod = _of_g(is_efficient_open_domination)
    ecd = _of_g(is_efficient_closed_domination)
    zeta = _of_g(zeta)
    prdf = _of_g(_prdf_picks)
    epn_split = _of_g(_epn_split)

    @cached_property
    def p1(self) -> bool:
        return bool(check_hypothesis(self.g, self.h, HypothesisKind.P1))

    @cached_property
    def p2(self) -> bool:
        return bool(check_hypothesis(self.g, self.h, HypothesisKind.P2))

    @cached_property
    def p3(self) -> bool:
        return bool(check_hypothesis(self.g, self.h, HypothesisKind.P3))

    @cached_property
    def packing(self) -> tuple[int, int]:
        """(value, S) of the open packing S of G minimizing
        |S0|(n(H)-maxdeg(H)+1) + |S - S0|(2+mindeg(H)) + n(H)(n(G) - |N[S]|),
        where S0 holds the members without a neighbor in S (ties: smallest
        S), over the profiles of ``_packing_profiles``.  Refuses G over the
        subset cap before the walk."""
        n_h, a, b = self.h.n, self.h.n - self.dmax + 1, 2 + self.dmin
        return min((s0 * a + s1 * b + n_h * outside, s)
                   for s0, s1, outside, s in _packing_profiles(self.g))

    def lift(self, gmask: int, hmask: int) -> int:
        """The product mask of gmask x hmask."""
        out = 0
        for u in bits(gmask):
            out |= hmask << (u * self.h.n)
        return out


# -- the kinds of conclusion ------------------------------------------------
#
# Plain classes: the registry is built on every import, and a NamedTuple
# costs far more to define than the 25 statements do to build.


class Exact:
    """The parameter equals ``cases(f)[1]``; ``cases(f)[0]`` names the
    branch taken, or is None for a single formula."""

    def __init__(self, cases: Callable[[PairFacts], tuple[str | None, int]]):
        self.cases = cases


class Lower:
    def __init__(self, value: Callable[[PairFacts], int]):
        self.value = value


class Upper:
    def __init__(self, value: Callable[[PairFacts], int]):
        self.value = value


class Iff:
    """The parameter equals ``value(f)`` if and only if ``rhs(f)``."""

    def __init__(self, value: Callable[[PairFacts], int],
                 rhs: Callable[[PairFacts], bool], detail: str):
        self.value = value
        self.rhs = rhs
        self.detail = detail


class Custom:
    """A check that is no single comparison: ``check(claim, f)`` returns
    the record.  ``value(f)``, when given, is what the witness attains."""

    def __init__(self, check: Callable[[str, PairFacts], ClaimRecord],
                 value: Callable[[PairFacts], int] | None = None):
        self.check = check
        self.value = value


class Statement:
    """One TheoremId: the parameter it concerns, its hypotheses as
    (predicate, skip reason) pairs, its conclusion, and the builder of its
    witness.  ``witness(f, branch)`` returns a vertex mask for gamma /
    gamma_p statements and a (V2, V1) mask pair otherwise."""

    def __init__(self, id: TheoremId, kind: ParameterKind,
                 hypotheses: tuple[tuple[Callable[[PairFacts], bool], str], ...],
                 conclusion: Exact | Lower | Upper | Iff | Custom,
                 witness: Callable[[PairFacts, str | None], object] | None = None):
        self.id = id
        #: the claim name of the records that ``check`` returns
        self.claim = id.value
        self.kind = kind
        self.hypotheses = hypotheses
        self.conclusion = conclusion
        self.witness = witness

    def skip_reason(self, f: PairFacts) -> str | None:
        """The first unmet hypothesis, worded as verification reports it."""
        for holds, reason in self.hypotheses:
            if not holds(f):
                return reason
        return None

    def refusal(self, f: PairFacts) -> str | None:
        """Why the statement tells nothing about the pair, or None.  An
        if-and-only-if tells something only when its right-hand side holds."""
        reason = self.skip_reason(f)
        c = self.conclusion
        if reason is None and isinstance(c, Iff) and not c.rhs(f):
            return f"right-hand side fails: {c.detail}"
        return reason

    def check(self, f: PairFacts) -> ClaimRecord:
        """Compare the statement with the product measured by ``f.measured``."""
        claim = self.claim
        reason = self.skip_reason(f)
        if reason is not None:
            return ClaimRecord(claim, SKIP, detail=reason)
        c = self.conclusion
        if isinstance(c, Custom):
            return c.check(claim, f)
        measured = f.measured(self.kind)
        if isinstance(c, Iff):
            return _iff(claim, measured == c.value(f), c.rhs(f), c.detail)
        if isinstance(c, Exact):
            value = c.cases(f)[1]
            return _compare(claim, value, measured, measured == value)
        bound = c.value(f)
        if isinstance(c, Lower):
            return _compare(claim, f">= {bound}", measured, measured >= bound)
        return _compare(claim, f"<= {bound}", measured, measured <= bound)


# -- exact cases with branches, and the proofs' witnesses ------------------


def _gamma_lex(f: PairFacts) -> tuple[str, int]:
    if factor_value(f.h, ParameterKind.gamma) == 1:
        return "gamma(H)=1", f.gamma
    return "gamma(H)>=2", f.gamma_t


def _gamma_lex_witness(f: PairFacts, branch: str) -> int:
    if branch == "gamma(H)=1":
        return f.lift(solve(f.g, ParameterKind.gamma).witness, 1 << _universal_vertex(f.h))
    return f.lift(solve(f.g, ParameterKind.gamma_t).witness, 1)


def _gammap_lex(f: PairFacts) -> tuple[str, int]:
    if f.p1:
        return "P1", f.gamma_t
    if f.p2:
        return "P2", f.gamma
    return "otherwise", f.g.n * f.h.n


def _gammap_lex_witness(f: PairFacts, branch: str) -> int:
    if branch == "P1":
        return f.lift(f.eod, 1 << min(f.h.isolated_vertices()))
    if branch == "P2":
        return f.lift(f.ecd, 1 << _universal_vertex(f.h))
    return f.lift(f.g.full_mask, f.h.full_mask)


def _roman_lex(f: PairFacts) -> tuple[str, int]:
    if f.dmax == f.h.n - 1:
        return "maxdeg(H)=n(H)-1", 2 * f.gamma
    if f.dmax == f.h.n - 2:
        return "maxdeg(H)=n(H)-2", f.zeta[0]
    return "maxdeg(H)<=n(H)-3", 2 * f.gamma_t


def _roman_lex_witness(f: PairFacts, branch: str) -> tuple[int, int]:
    if branch == "maxdeg(H)=n(H)-1":
        return f.lift(solve(f.g, ParameterKind.gamma).witness, 1 << _universal_vertex(f.h)), 0
    if branch == "maxdeg(H)=n(H)-2":
        a, b = f.zeta[1]
        return _max_degree_layers(f, a | b, b)
    return f.lift(solve(f.g, ParameterKind.gamma_t).witness, 1), 0


def _max_degree_layers(f: PairFacts, s2: int, s1: int) -> tuple[int, int]:
    """(V2, V1) = (s2 x {y}, s1 x (V(H) - N[y])) for the first
    maximum-degree vertex y of H."""
    y = _max_degree_vertex(f.h)
    return f.lift(s2, 1 << y), f.lift(s1, f.h.full_mask & ~f.h.closed_neighborhood(y))


def _min_degree_layers(f: PairFacts, s: int) -> tuple[int, int]:
    """(V2, V1) = (s x {y}, s x N(y)) for the first minimum-degree vertex y
    of H."""
    y = _min_degree_vertex(f.h)
    return f.lift(s, 1 << y), f.lift(s, f.h.adj[y])


def _corona_layers(f: PairFacts, s2: int, s1: int) -> tuple[int, int]:
    """(V2, V1) = (s2 x {0}, s2 x (V(H) - {0}) u s1 x V(H))."""
    return f.lift(s2, 1), f.lift(s2, f.h.full_mask & ~1) | f.lift(s1, f.h.full_mask)


def _ecd_prdf(f: PairFacts, branch=None) -> tuple[int, int]:
    """The efficient closed dominating set of G spread over a
    maximum-degree layer.  When gamma(G) = 1 that set is the first
    universal vertex."""
    return _max_degree_layers(f, f.ecd, f.ecd)


def _eod_prdf(f: PairFacts, branch=None) -> tuple[int, int]:
    """The efficient open dominating set of G spread over a
    minimum-degree layer."""
    return _min_degree_layers(f, f.eod)


def _p2_or_p3_prdf(f: PairFacts, branch=None) -> tuple[int, int]:
    return _ecd_prdf(f) if f.p2 else _eod_prdf(f)


def _zeta_upper(f: PairFacts) -> int:
    return min(3 * f.gamma, 2 * f.gamma_t)


def _zeta_bounds_witness(f: PairFacts, branch=None) -> tuple[int, int]:
    if 3 * f.gamma <= 2 * f.gamma_t:
        d = solve(f.g, ParameterKind.gamma).witness
        return _max_degree_layers(f, d, d)
    return f.lift(solve(f.g, ParameterKind.gamma_t).witness, 1), 0


def _function_i_bound(f: PairFacts) -> int:
    v2, v1 = f.prdf.fewest_positive
    return f.gamma_Rp + (v1 | v2).bit_count() * (f.h.n - 1)


def _function_iii_bound(f: PairFacts) -> int:
    s_prime, s_dprime = f.epn_split
    return s_prime.bit_count() + 2 * s_dprime.bit_count() + f.gamma_p * (f.h.n - 1)


def _packing_witness(f: PairFacts, branch=None) -> tuple[int, int]:
    s = f.packing[1]
    s0 = _isolated_in(f.g, s)
    a2, a1 = _max_degree_layers(f, s0, s0)
    b2, b1 = _min_degree_layers(f, s & ~s0)
    outside = f.g.full_mask & ~f.g.closed_cover(s)
    return a2 | b2, a1 | b1 | f.lift(outside, f.h.full_mask)


def _gamma1_ii_witness(f: PairFacts, branch=None) -> tuple[int, int]:
    if f.h.n - f.dmax + 1 <= 2 * f.dmin + 4:
        return _ecd_prdf(f)
    # {w, leaf} is an efficient open dominating set; on K2 both vertices
    # are universal leaves, so the leaf must differ from w
    w = _universal_vertex(f.g)
    leaf = min(v for v in range(f.g.n) if f.g.degree(v) == 1 and v != w)
    return _min_degree_layers(f, 1 << w | 1 << leaf)


# -- custom checks ----------------------------------------------------------


def _check_roman_graph(claim: str, f: PairFacts) -> ClaimRecord:
    roman = f.measured(ParameterKind.gamma_R)
    twice_gamma = 2 * f.measured(ParameterKind.gamma)
    return _compare(claim, twice_gamma, roman, roman == twice_gamma,
                    "product must be a Roman graph")


def _check_zeta_bounds(claim: str, f: PairFacts) -> ClaimRecord:
    gam, gam_t = f.gamma, f.gamma_t
    gam_tr = factor_value(f.g, ParameterKind.gamma_tR)
    measured = f.measured(ParameterKind.gamma_R)
    lo, hi = max(gam_tr, gam_t + gam), _zeta_upper(f)
    ok = lo <= measured <= hi
    if gam_t == gam:
        ok = ok and measured == 2 * gam_t
    if gam_t == 2 * gam:
        ok = ok and measured == 3 * gam
    return _compare(claim, (lo, hi), measured, ok,
                    f"gamma={gam}, gamma_t={gam_t}, gamma_tR={gam_tr}")


def _check_perfect_roman_char(claim: str, f: PairFacts) -> ClaimRecord:
    n_h = f.h.n
    lhs = f.measured(ParameterKind.gamma_Rp) == 2 * f.measured(ParameterKind.gamma_p)
    if f.dmax == n_h - 1:
        return _iff(claim, lhs, f.p2, "stratum maxdeg(H) = n(H)-1: lhs iff P2")
    if f.dmax <= n_h - 3:
        return _iff(claim, lhs, f.p1, "stratum maxdeg(H) <= n(H)-3: lhs iff P1")
    # stratum maxdeg(H) = n(H)-2
    if f.gamma_Rp == 2 * f.gamma_t or f.gamma_t == f.gamma:
        return _iff(claim, lhs, f.p1,
                    "stratum maxdeg(H) = n(H)-2 with gamma_Rp(G) = 2 gamma_t(G) or "
                    "gamma_t(G) = gamma(G): lhs iff P1")
    if lhs:
        # 2|S - S0| + 3|S0| = 2|S| + |S0|, S0 the members without an S-neighbor
        couple_cond = all(
            2 * f.gamma_t <= 2 * s.bit_count() + _isolated_in(f.g, s).bit_count()
            for s in dominating_open_packings(f.g)
        )
        ok = f.p1 and couple_cond
        return ClaimRecord(claim, PASS if ok else FAIL, True, lhs,
                           "stratum maxdeg(H) = n(H)-2, necessity only: "
                           f"P1={f.p1}, open-packing condition={couple_cond}")
    return ClaimRecord(claim, INDETERMINATE, None, lhs,
                       "stratum maxdeg(H) = n(H)-2: no sufficient condition applies "
                       "and equality does not hold; indeterminate by the source")


def _check_eq_roman_char(claim: str, f: PairFacts) -> ClaimRecord:
    g, n_h, dmin = f.g, f.h.n, f.dmin
    lhs = f.measured(ParameterKind.gamma_Rp) == f.measured(ParameterKind.gamma_R)
    if f.dmax == n_h - 1:
        return _iff(claim, lhs, f.p2, "stratum maxdeg(H) = n(H)-1: lhs iff P2")
    if f.dmax == n_h - 2:
        rhs = any(
            is_feasible(g, a | b, ParameterKind.rho_o) and (a == 0 or dmin == 0)
            for a, b in zeta_couples(g)
        )
        return _iff(claim, lhs, rhs,
                    "stratum maxdeg(H) = n(H)-2: lhs iff a zeta-couple (A,B) has "
                    "A u B an open packing, with A empty whenever mindeg(H) >= 1")
    if f.dmax == n_h - 3:
        zp = zeta_prime(g)
        rhs = ((dmin == 0 and zp is not None and zp[0] == 2 * f.gamma_t)
               or (dmin >= 1 and f.gamma_t
                   == 2 * f.gamma_p == 2 * factor_value(g, ParameterKind.rho)))
        return _iff(claim, lhs, rhs,
                    "stratum maxdeg(H) = n(H)-3: lhs iff (mindeg(H)=0 and zeta'(G)=2 gamma_t(G)) "
                    "or (mindeg(H)>=1 and gamma_t(G)=2 gamma_p(G)=2 rho(G))")
    return _iff(claim, lhs, f.p1, "stratum maxdeg(H) <= n(H)-4: lhs iff P1")


# -- the registry -----------------------------------------------------------

_G_NO_ISOLATED = (lambda f: f.g_ok, "needs G without isolated vertices")
_G_NO_ISOLATED_H_NONTRIVIAL = (lambda f: f.g_ok and f.h.n >= 2,
                               "needs G without isolated vertices and nontrivial H")
_G_CONNECTED_H_NONTRIVIAL = (lambda f: f.g.n >= 2 and f.g_connected and f.h.n >= 2,
                             "needs connected nontrivial G and nontrivial H")
_NONTRIVIAL = (lambda f: f.g.n >= 2 and f.h.n >= 2, "needs nontrivial factors")
_GAMMA_ONE = (lambda f: f.g.n >= 2 and f.gamma == 1, "needs nontrivial G with gamma(G) = 1")
_UNMET = "hypotheses unmet"


#: Declared in the order predict() lists the exact tags it fires, and in
#: which the first of equal lower (upper) bounds names the interval end;
#: verify_pair() reports in TheoremId order instead.  The first statement
#: about each parameter states the hypotheses predict() requires.
_REGISTRY = (
    Statement(TheoremId.GAMMA_LEX, ParameterKind.gamma, (_G_NO_ISOLATED_H_NONTRIVIAL,),
              Exact(_gamma_lex), _gamma_lex_witness),
    Statement(TheoremId.GAMMAP_LEX, ParameterKind.gamma_p, (_G_CONNECTED_H_NONTRIVIAL,),
              Exact(_gammap_lex), _gammap_lex_witness),
    Statement(TheoremId.ROMAN_LEX, _R, (_G_NO_ISOLATED_H_NONTRIVIAL,),
              Exact(_roman_lex), _roman_lex_witness),
    Statement(TheoremId.ROMAN_GRAPH_COR, _R,
              ((lambda f: f.g_ok and f.h.n >= 2 and f.dmax != f.h.n - 2,
                "needs G without isolated vertices, nontrivial H, maxdeg(H) != n(H)-2"),),
              Custom(_check_roman_graph)),
    Statement(TheoremId.ZETA_BOUNDS, _R,
              ((lambda f: f.g_ok and f.dmax == f.h.n - 2,
                "needs G without isolated vertices and maxdeg(H) = n(H)-2"),),
              Custom(_check_zeta_bounds, _zeta_upper), _zeta_bounds_witness),
    Statement(TheoremId.PR_LB_GENERAL, _RP, (_G_NO_ISOLATED_H_NONTRIVIAL,),
              Lower(lambda f: f.gamma * min(f.h.n - f.dmax + 1, 2 + f.dmin))),
    Statement(TheoremId.PR_TRIVIAL_LB, _RP, (_NONTRIVIAL,),
              Lower(lambda f: max(f.gamma_Rp, 2 * f.gamma))),
    Statement(TheoremId.PR_UB_CORONA, _RP, (_G_NO_ISOLATED,),
              Upper(lambda f: f.gamma_p * (f.h.n + 1)),
              lambda f, _: _corona_layers(f, solve(f.g, ParameterKind.gamma_p).witness, 0)),
    Statement(TheoremId.PR_UB_PACKING, _RP, (_G_NO_ISOLATED,),
              Upper(lambda f: f.packing[0]), _packing_witness),
    Statement(TheoremId.PR_UB_FUNCTION_I, _RP, (_G_NO_ISOLATED,),
              Upper(_function_i_bound),
              lambda f, _: _corona_layers(f, *f.prdf.fewest_positive)),
    Statement(TheoremId.PR_UB_FUNCTION_II, _RP,
              (_G_NO_ISOLATED, (lambda f: f.prdf.v2_gamma_set is not None, _UNMET)),
              Upper(lambda f: f.gamma_Rp * f.h.n - f.gamma * (f.h.n - 1)),
              lambda f, _: _corona_layers(f, *f.prdf.v2_gamma_set)),
    Statement(TheoremId.PR_UB_FUNCTION_III, _RP, (_G_NO_ISOLATED,),
              Upper(_function_iii_bound),
              lambda f, _: _corona_layers(f, f.epn_split[1], f.epn_split[0])),
    Statement(TheoremId.PR_UB_FUNCTION_IV, _RP,
              (_G_NO_ISOLATED, (lambda f: f.prdf.support_gamma_p_set is not None, _UNMET)),
              Upper(lambda f: f.gamma_Rp + f.gamma_p * (f.h.n - 1)),
              lambda f, _: _corona_layers(f, *f.prdf.support_gamma_p_set)),
    Statement(TheoremId.PR_COR_EOD, _RP,
              (_G_NO_ISOLATED, (lambda f: f.eod is not None, _UNMET)),
              Upper(lambda f: f.gamma_t * (2 + f.dmin)), _eod_prdf),
    Statement(TheoremId.PR_COR_ECD, _RP,
              (_G_NO_ISOLATED, (lambda f: f.ecd is not None, _UNMET)),
              Upper(lambda f: f.gamma * (f.h.n - f.dmax + 1)), _ecd_prdf),
    Statement(TheoremId.PR_GAMMA1_I, _RP,
              (_GAMMA_ONE, (lambda f: f.delta_g >= 2, "needs mindeg(G) >= 2")),
              Exact(lambda f: (None, f.h.n - f.dmax + 1)), _ecd_prdf),
    Statement(TheoremId.PR_GAMMA1_II, _RP,
              (_GAMMA_ONE, (lambda f: f.delta_g == 1, "needs mindeg(G) = 1")),
              Exact(lambda f: (None, min(2 * f.dmin + 4, f.h.n - f.dmax + 1))),
              _gamma1_ii_witness),
    Statement(TheoremId.PR_EXACT_ECD, _RP,
              ((lambda f: f.g_ok and f.ecd is not None and 2 <= f.h.n <= f.dmax + f.dmin + 1,
                "needs ECD graph G and 2 <= n(H) <= maxdeg+mindeg+1"),),
              Exact(lambda f: (None, f.gamma * (f.h.n - f.dmax + 1))), _ecd_prdf),
    Statement(TheoremId.PR_EXACT_EOD, _RP,
              ((lambda f: f.g_ok and f.h.n >= 2 and f.eod is not None
                and f.gamma_p == f.gamma_t == f.gamma and f.h.n >= f.dmax + f.dmin + 1,
                "needs EOD graph G with gamma_p = gamma_t = gamma and n(H) >= maxdeg+mindeg+1"),),
              Exact(lambda f: (None, f.gamma * (2 + f.dmin))), _eod_prdf),
    Statement(TheoremId.PR_ISOLATED_LAYERS, _RP,
              ((lambda f: f.eod is not None and f.h.n >= f.dmax + 2 * f.dmin + 3,
                "needs EOD graph G and n(H) >= maxdeg+2*mindeg+3"),),
              Exact(lambda f: (None, f.gamma_t * (2 + f.dmin))), _eod_prdf),
    Statement(TheoremId.PR_COR_P2P3, _RP,
              ((lambda f: f.g.n >= 2 and f.h.n >= 2 and f.g_ok,
                "needs nontrivial factors and G without isolated vertices"),
               (lambda f: f.p2 or (f.p3 and f.gamma_p == f.gamma),
                "needs P2, or P3 with gamma_p(G) = gamma(G)")),
              Exact(lambda f: ("P2" if f.p2 else "P3", 2 * f.gamma)), _p2_or_p3_prdf),
    Statement(TheoremId.PR_EQ_FACTOR, _RP, (_NONTRIVIAL,),
              Iff(lambda f: f.gamma_Rp,
                  lambda f: f.gamma_Rp == 2 * f.gamma_p and (f.p2 or f.p3),
                  "gamma_Rp(product) = gamma_Rp(G) iff gamma_Rp(G) = 2 gamma_p(G) and P2 or P3"),
              _p2_or_p3_prdf),
    Statement(TheoremId.PR_EQ_2GAMMA, _RP,
              ((lambda f: f.g.n >= 2 and f.h.n >= 3, "needs nontrivial G and n(H) >= 3"),),
              Iff(lambda f: 2 * f.gamma,
                  lambda f: f.gamma_p == f.gamma and (f.p2 or f.p3),
                  "gamma_Rp(product) = 2 gamma(G) iff gamma_p(G) = gamma(G) and P2 or P3"),
              _p2_or_p3_prdf),
    Statement(TheoremId.PR_PERFECTROMAN_CHAR, _RP, (_G_CONNECTED_H_NONTRIVIAL,),
              Custom(_check_perfect_roman_char)),
    Statement(TheoremId.PR_EQ_ROMAN_CHAR, _RP,
              ((lambda f: f.g.n >= 2 and f.g_connected and f.h.n >= 3,
                "needs connected nontrivial G and H of order >= 3"),),
              Custom(_check_eq_roman_char)),
)

STATEMENTS: dict[TheoremId, Statement] = {st.id: st for st in _REGISTRY}

_PREDICTORS = {
    kind: [st for st in _REGISTRY if st.kind is kind and not isinstance(st.conclusion, Custom)]
    for kind in PREDICT_KINDS
}


# -- prediction and witness construction -------------------------------------


def predict(g: Graph, h: Graph, kind: ParameterKind) -> Prediction:
    """Aggregate every statement about ``kind`` that applies to (g, h).

    Refuses with HypothesisError when the first statement about ``kind``
    does not apply.
    """
    kind = ParameterKind(kind)
    if kind not in PREDICT_KINDS:
        raise DomainError(f"no product formula for kind {kind.value}")
    f = PairFacts(g, h)
    statements = _PREDICTORS[kind]
    reason = statements[0].skip_reason(f)
    if reason is not None:
        raise HypothesisError(f"{kind.value} prediction {reason}")
    exacts: list[tuple[str, int]] = []
    lowers: list[tuple[str, int]] = []
    uppers: list[tuple[str, int]] = []
    for st in statements:
        if st.refusal(f) is not None:
            continue
        tag, c = st.claim, st.conclusion
        if isinstance(c, Exact):
            branch, value = c.cases(f)
            exacts.append((tag if branch is None else f"{tag}:{branch}", value))
        elif isinstance(c, Iff):
            exacts.append((tag, c.value(f)))
        else:
            (lowers if isinstance(c, Lower) else uppers).append((tag, c.value(f)))

    lo_tag, lo = max(lowers, key=lambda t: t[1], default=(None, None))
    hi_tag, hi = min(uppers, key=lambda t: t[1], default=(None, None))
    if exacts:
        values = {v for _, v in exacts}
        if len(values) > 1:
            raise InconsistencyError(f"exact statements disagree: {exacts}")
        value = values.pop()
        if lo is not None and not lo <= value <= hi:
            raise InconsistencyError(
                f"exact value {value} outside aggregated bounds [{lo}, {hi}] ({exacts})"
            )
        return Prediction(value, value, tuple(tag for tag, _ in exacts))
    return Prediction(lo, hi, (f"{lo_tag}:lo", f"{hi_tag}:hi"))


def construct_witness(theorem: TheoremId, g: Graph, h: Graph):
    """Build the proof's object on the product and validate it.

    Returns a vertex-set mask for set-valued statements (GAMMA_LEX,
    GAMMAP_LEX) and a RomanAssignment otherwise.  Refuses with
    HypothesisError when the statement tells nothing about (g, h): its
    hypotheses fail or, for an if-and-only-if, its right-hand side does.
    """
    st = STATEMENTS[TheoremId(theorem)]
    product, _ = lex_product(g, h)
    if st.witness is None:
        raise DomainError(f"{st.claim} has no constructive witness")
    f = PairFacts(g, h)
    reason = st.refusal(f)
    if reason is not None:
        raise HypothesisError(f"{st.claim} {reason}")
    c = st.conclusion
    branch, expected = c.cases(f) if isinstance(c, Exact) else (None, c.value(f))
    built = st.witness(f, branch)
    if st.kind in (ParameterKind.gamma, ParameterKind.gamma_p):
        if not is_feasible(product, built, st.kind) or built.bit_count() != expected:
            raise InconsistencyError(
                f"{st.claim} construction invalid: size {built.bit_count()}, expected {expected}"
            )
        return built
    v2, v1 = built
    assignment = assignment_from_masks(product.n, v1, v2)
    valid = is_rdf if st.kind is ParameterKind.gamma_R else is_prdf
    if not valid(product, assignment) or assignment.weight != expected:
        raise InconsistencyError(
            f"{st.claim} construction invalid: weight {assignment.weight}, expected {expected}"
        )
    return assignment
