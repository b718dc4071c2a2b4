"""Theorem registry: each statement about G o H declared once, and the
prediction and witness construction that read it.

Every TheoremId has one Statement in STATEMENTS with three parts: the
product parameter it concerns; its hypotheses, as (predicate, skip
reason) pairs tried in order; and its conclusion, which is an exact value
with a branch tag (Exact), a lower or an upper bound (Lower, Upper), the
right-hand side of an if-and-only-if (Iff), or a check of its own
(Custom).  Each kind of conclusion owns its rules, written once on the
class: its share of a prediction, the value its witness attains, when it
tells nothing although the hypotheses hold (only an Iff whose right-hand
side fails), and its record against the product.  A conclusion also
carries the builder of the witness its proof constructs on the product,
where the proof is constructive.  A conclusion with cases decides its
case once, in one function that returns the branch taken, its value and
the builder for that case; the builder runs only when a witness is asked
for.

The parts read factor data from one PairFacts per pair, which computes
each quantity on first read and stores it on the instance.  Each such
fact is one line of ``_FACTS``: a fact of G alone names the function
that defines it, h_gamma is gamma(H), and p1-p3 tell whether a property
P1-P3 holds.  The facts
the gamma_Rp bounds read, with H only through n(H), mindeg(H) and
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
compares one statement with the product's parameters that verify_pair()
measures, and construct_witness() decides whether the statement has a
witness and tells something about the pair before it builds the product,
then builds the statement's object and validates it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, NamedTuple

from .errors import DomainError, HypothesisError, InconsistencyError
from .graph import CheckedRecord, Graph, assignment_from_masks, bits, check_tuple, mask_from
from .product import lex_product
from .solvers import (
    PREDICT_KINDS,
    ParameterKind,
    TheoremId,
    _dominating_open_packings,
    _isolated_in,
    _roman_v1,
    _walk_open_packings,
    _walk_sets,
    capped_memo,
    check_cap,
    enumerate_optimal_v2,
    is_feasible,
    is_prdf,
    is_rdf,
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
        check_tuple("provenance", self.provenance)
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

#: The product's parameter of a kind, as ``verify_pair`` measures it.
Measure = Callable[[ParameterKind], int]


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
    (ties: smallest S, the first the walk visits)."""
    best = None

    def visit(smask: int, c2: int) -> None:
        nonlocal best
        s_prime = mask_from(v for v in bits(smask) if not g.epn(v, smask))
        weight = s_prime.bit_count() + 2 * (smask & ~s_prime).bit_count()
        if best is None or weight < best[0]:
            best = (weight, smask, s_prime)

    _walk_sets(g, ParameterKind.gamma_p, factor_value(g, ParameterKind.gamma_p), 0, visit)
    _, smask, s_prime = best
    return s_prime, smask & ~s_prime


@capped_memo(lambda g: check_cap(g, "open-packing"))
def _packing_profiles(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """The part of PairFacts.packing that reads G alone: for the open
    packings S of G, with S0 the members without a neighbor in S, the
    profiles (|S0|, |S - S0|, n(G) - |N[S]|), each with its smallest S,
    as (|S0|, |S - S0|, n(G) - |N[S]|, S).

    Only the profiles that no other profile is <= in every coordinate
    are kept, in the order the walk first meets them.  PairFacts.packing
    weighs the three coordinates with n(H) - maxdeg(H) + 1 >= 2,
    2 + mindeg(H) >= 2 and n(H) >= 1, all positive, so a dominated
    profile weighs more than the one below it for every H, and the
    minimum (value, S) is among those kept.

    A profile q <= p in every coordinate, q != p, also comes before p in
    sorted order, so one sweep of the sorted profiles finds the kept
    ones: p is dominated when some profile before it is <= p, and then
    some kept profile is too, as <= is transitive and the chain below p
    ends at a kept one.  So each profile is tested against the kept ones
    alone.
    """
    first: dict[tuple[int, int, int], int] = {}
    n = g.n

    # the walk visits the open packings in increasing numeric order, so
    # the first S of each profile is its smallest; with seen = N(S),
    # S0 = S - seen and N[S] = seen | S
    def visit(smask: int, seen: int) -> None:
        s0 = (smask & ~seen).bit_count()
        first.setdefault((s0, smask.bit_count() - s0, n - (seen | smask).bit_count()), smask)

    _walk_open_packings(g, 0, visit)
    kept: set[tuple[int, int, int]] = set()
    for p in sorted(first):
        a, b, c = p
        if not any(x <= a and y <= b and z <= c for x, y, z in kept):
            kept.add(p)
    return tuple((*p, s) for p, s in first.items() if p in kept)


class PairFacts:
    """What the statements read about the factors of one pair (G, H).
    __init__ sets the degree facts; each fact of ``_FACTS`` is computed
    on its first read and stored on the instance, so a later read finds
    it there.  Checking a statement against the product also reads the
    product's parameters, which ``verify_pair`` measures
    (``Statement.check``)."""

    def __init__(self, g: Graph, h: Graph):
        self.g = g
        self.h = h
        #: mindeg(G), and whether G has no isolated vertex
        self.delta_g = g.degree_extremes()[0]
        self.g_ok = self.delta_g > 0
        self.dmin, self.dmax = h.degree_extremes()

    def __getattr__(self, name: str):
        # reached only while ``name`` is not in the instance dict: the first
        # read of a fact computes it and stores it there
        if name not in _FACTS:
            raise AttributeError(f"PairFacts has no fact {name!r}")
        return self.__dict__.setdefault(name, _FACTS[name](self))

    def lift(self, gmask: int, hmask: int) -> int:
        """The product mask of gmask x hmask."""
        out = 0
        for u in bits(gmask):
            out |= hmask << (u * self.h.n)
        return out


def _packing(f: PairFacts) -> tuple[int, int]:
    """(value, S) of the open packing S of G minimizing
    |S0|(n(H)-maxdeg(H)+1) + |S - S0|(2+mindeg(H)) + n(H)(n(G) - |N[S]|),
    where S0 holds the members without a neighbor in S (ties: smallest
    S), over the profiles of ``_packing_profiles``.  Refuses G over the
    subset cap before the walk."""
    n_h, a, b = f.h.n, f.h.n - f.dmax + 1, 2 + f.dmin
    return min((s0 * a + s1 * b + n_h * outside, s)
               for s0, s1, outside, s in _packing_profiles(f.g))


#: The facts of PairFacts that are computed on first read, each from the
#: PairFacts.  A fact of G alone names the function that defines it;
#: h_gamma is gamma(H); p1, p2 and p3 tell whether property P1, P2 or P3
#: holds of (G, H).
_FACTS: dict[str, Callable[[PairFacts], object]] = {
    "g_connected": lambda f: f.g.is_connected(),
    "gamma": lambda f: factor_value(f.g, ParameterKind.gamma),
    "gamma_t": lambda f: factor_value(f.g, ParameterKind.gamma_t),
    "gamma_p": lambda f: factor_value(f.g, ParameterKind.gamma_p),
    "gamma_Rp": lambda f: factor_value(f.g, _RP),
    "h_gamma": lambda f: factor_value(f.h, ParameterKind.gamma),
    "eod": lambda f: is_efficient_open_domination(f.g),
    "ecd": lambda f: is_efficient_closed_domination(f.g),
    "zeta": lambda f: zeta(f.g),
    "prdf": lambda f: _prdf_picks(f.g),
    "epn_split": lambda f: _epn_split(f.g),
    "packing": _packing,
    "p1": lambda f: bool(check_hypothesis(f.g, f.h, HypothesisKind.P1)),
    "p2": lambda f: bool(check_hypothesis(f.g, f.h, HypothesisKind.P2)),
    "p3": lambda f: bool(check_hypothesis(f.g, f.h, HypothesisKind.P3)),
}


# -- the kinds of conclusion ------------------------------------------------
#
# Each kind owns its rules: its share of a prediction (``slot``), the
# value its witness attains (``target``), when it tells nothing although
# the hypotheses hold (``refusal``), and its record against the product
# (``check``).  Plain classes: the registry is built on every import, and
# a NamedTuple costs far more to define than the 25 statements do to
# build.

#: The builder of a witness on the product: a vertex mask for gamma /
#: gamma_p statements and a (V2, V1) mask pair otherwise.
Build = Callable[[PairFacts], object]
#: (branch, value, build): the case of a conclusion that holds of a pair,
#: with the branch None for a single formula, and the builder of the
#: witness that attains the value in that case.
Case = tuple[str | None, int, Build]


class Conclusion:
    """The rules the kinds share, for a conclusion about ``value(f)``.
    Each kind but Custom gives ``compare(claim, f, measured)``, its record
    for the measured parameter."""

    #: the share of a prediction: 0 an exact value, 1 a lower bound, 2 an
    #: upper bound, None no share
    slot: int | None = None
    #: the builder of the proof's witness, or None where the proof builds
    #: none
    witness: Build | None = None

    def __init__(self, value: Callable[[PairFacts], int] | None, witness: Build | None = None):
        self.value = value
        self.witness = witness

    def by_cases(self, cases: Callable[[PairFacts], Case]) -> None:
        """Take ``target`` and ``witness`` from ``cases(f)``, so the case
        that holds is decided in one place for both.  ``cases`` reads
        only facts of the PairFacts, so ``construct_witness``, which
        reads both, computes no fact twice."""
        self.cases = cases
        self.target = lambda f: cases(f)[:2]
        self.witness = lambda f: cases(f)[2](f)

    def target(self, f: PairFacts) -> tuple[str | None, int]:
        """(branch, value): what the witness attains, and the branch taken,
        which is None unless the conclusion has cases."""
        return None, self.value(f)

    def refusal(self, f: PairFacts) -> str | None:
        """Why the conclusion tells nothing about a pair whose hypotheses
        hold, or None."""
        return None

    def check(self, claim: str, f: PairFacts, measure: Measure, kind: ParameterKind) -> ClaimRecord:
        """The record of ``compare`` against the product's ``kind``."""
        return self.compare(claim, f, measure(kind))


class Upper(Conclusion):
    slot = 2

    def compare(self, claim: str, f: PairFacts, measured: int) -> ClaimRecord:
        bound = self.value(f)
        return _compare(claim, f"<= {bound}", measured, measured <= bound)


class Lower(Conclusion):
    slot = 1

    def compare(self, claim: str, f: PairFacts, measured: int) -> ClaimRecord:
        bound = self.value(f)
        return _compare(claim, f">= {bound}", measured, measured >= bound)


class Exact(Conclusion):
    """The parameter equals the value of the case ``cases(f)`` that
    holds."""

    slot = 0

    def __init__(self, cases: Callable[[PairFacts], Case]):
        self.by_cases(cases)

    def compare(self, claim: str, f: PairFacts, measured: int) -> ClaimRecord:
        value = self.target(f)[1]
        return _compare(claim, value, measured, measured == value)


class Iff(Conclusion):
    """The parameter equals ``value(f)`` if and only if ``rhs(f)``; the
    statement tells something only when ``rhs(f)`` holds."""

    slot = 0

    def __init__(self, value: Callable[[PairFacts], int],
                 rhs: Callable[[PairFacts], bool], detail: str, witness: Build):
        super().__init__(value, witness)
        self.rhs = rhs
        self.detail = detail

    def refusal(self, f: PairFacts) -> str | None:
        return None if self.rhs(f) else f"right-hand side fails: {self.detail}"

    def compare(self, claim: str, f: PairFacts, measured: int) -> ClaimRecord:
        return _iff(claim, measured == self.value(f), self.rhs(f), self.detail)


class Custom(Conclusion):
    """A check that is no single comparison: ``own_check(claim, f,
    measure)`` returns the record.  ``cases(f)``, when given, is the case
    whose value the witness attains."""

    def __init__(self, own_check: Callable[[str, PairFacts, Measure], ClaimRecord],
                 cases: Callable[[PairFacts], Case] | None = None):
        self.own_check = own_check
        if cases is not None:
            self.by_cases(cases)

    def check(self, claim: str, f: PairFacts, measure: Measure, kind: ParameterKind) -> ClaimRecord:
        return self.own_check(claim, f, measure)


class Statement:
    """One TheoremId: the parameter it concerns, its hypotheses as
    (predicate, skip reason) pairs, and its conclusion.  ``witness(f)``
    builds the witness of the conclusion on the product; ``witness`` is
    None where the proof builds none."""

    def __init__(self, id: TheoremId, kind: ParameterKind,
                 hypotheses: tuple[tuple[Callable[[PairFacts], bool], str], ...],
                 conclusion: Conclusion):
        self.id = id
        #: the claim name of the records that ``check`` returns
        self.claim = id.value
        self.kind = kind
        self.hypotheses = hypotheses
        self.conclusion = conclusion
        self.witness = conclusion.witness

    def skip_reason(self, f: PairFacts) -> str | None:
        """The first unmet hypothesis, worded as verification reports it."""
        for holds, reason in self.hypotheses:
            if not holds(f):
                return reason
        return None

    def refusal(self, f: PairFacts) -> str | None:
        """Why the statement tells nothing about the pair, or None: an unmet
        hypothesis, else the conclusion's refusal."""
        reason = self.skip_reason(f)
        return self.conclusion.refusal(f) if reason is None else reason

    def check(self, f: PairFacts, measure: Measure) -> ClaimRecord:
        """Compare the statement with the product, whose parameters
        ``measure(kind)`` gives, read only once the hypotheses hold."""
        reason = self.skip_reason(f)
        if reason is not None:
            return ClaimRecord(self.claim, SKIP, detail=reason)
        return self.conclusion.check(self.claim, f, measure, self.kind)


# -- the cases of the conclusions, and the proofs' witnesses -----------------


def _gamma_set_lift(f: PairFacts) -> int:
    """A gamma(G)-set x {the first universal vertex of H}."""
    return f.lift(solve(f.g, ParameterKind.gamma).witness, 1 << _universal_vertex(f.h))


def _gamma_t_set_lift(f: PairFacts) -> int:
    """A gamma_t(G)-set x {0}."""
    return f.lift(solve(f.g, ParameterKind.gamma_t).witness, 1)


def _gamma_lex(f: PairFacts) -> Case:
    if f.h_gamma == 1:
        return "gamma(H)=1", f.gamma, _gamma_set_lift
    return "gamma(H)>=2", f.gamma_t, _gamma_t_set_lift


def _gammap_lex(f: PairFacts) -> Case:
    if f.p1:
        return "P1", f.gamma_t, lambda f: f.lift(f.eod, 1 << min(f.h.isolated_vertices()))
    if f.p2:
        return "P2", f.gamma, lambda f: f.lift(f.ecd, 1 << _universal_vertex(f.h))
    return "otherwise", f.g.n * f.h.n, lambda f: f.lift(f.g.full_mask, f.h.full_mask)


def _roman_lex(f: PairFacts) -> Case:
    if f.dmax == f.h.n - 1:
        return "maxdeg(H)=n(H)-1", 2 * f.gamma, lambda f: (_gamma_set_lift(f), 0)
    if f.dmax == f.h.n - 2:
        value, (a, b) = f.zeta
        return "maxdeg(H)=n(H)-2", value, lambda f: _max_degree_layers(f, a | b, b)
    return "maxdeg(H)<=n(H)-3", 2 * f.gamma_t, lambda f: (_gamma_t_set_lift(f), 0)


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


def _ecd_prdf(f: PairFacts) -> tuple[int, int]:
    """The efficient closed dominating set of G spread over a
    maximum-degree layer.  When gamma(G) = 1 that set is the first
    universal vertex."""
    return _max_degree_layers(f, f.ecd, f.ecd)


def _eod_prdf(f: PairFacts) -> tuple[int, int]:
    """The efficient open dominating set of G spread over a
    minimum-degree layer."""
    return _min_degree_layers(f, f.eod)


def _p2_or_p3_prdf(f: PairFacts) -> tuple[int, int]:
    return _ecd_prdf(f) if f.p2 else _eod_prdf(f)


def _zeta_upper(f: PairFacts) -> Case:
    """min(3 gamma(G), 2 gamma_t(G)), and the function attaining it."""
    if 3 * f.gamma <= 2 * f.gamma_t:
        return None, 3 * f.gamma, _gamma_set_layers
    return None, 2 * f.gamma_t, lambda f: (_gamma_t_set_lift(f), 0)


def _gamma_set_layers(f: PairFacts) -> tuple[int, int]:
    """A gamma(G)-set spread over a maximum-degree layer."""
    d = solve(f.g, ParameterKind.gamma).witness
    return _max_degree_layers(f, d, d)


def _function_i_bound(f: PairFacts) -> int:
    v2, v1 = f.prdf.fewest_positive
    return f.gamma_Rp + (v1 | v2).bit_count() * (f.h.n - 1)


def _function_iii_bound(f: PairFacts) -> int:
    s_prime, s_dprime = f.epn_split
    return s_prime.bit_count() + 2 * s_dprime.bit_count() + f.gamma_p * (f.h.n - 1)


def _packing_witness(f: PairFacts) -> tuple[int, int]:
    s = f.packing[1]
    s0 = _isolated_in(f.g, s)
    a2, a1 = _max_degree_layers(f, s0, s0)
    b2, b1 = _min_degree_layers(f, s & ~s0)
    outside = f.g.full_mask & ~f.g.closed_cover(s)
    return a2 | b2, a1 | b1 | f.lift(outside, f.h.full_mask)


def _gamma1_ii(f: PairFacts) -> Case:
    """min(2 mindeg(H) + 4, n(H) - maxdeg(H) + 1), and the function
    attaining it."""
    if f.h.n - f.dmax + 1 <= 2 * f.dmin + 4:
        return None, f.h.n - f.dmax + 1, _ecd_prdf
    return None, 2 * f.dmin + 4, _star_prdf


def _star_prdf(f: PairFacts) -> tuple[int, int]:
    # {w, leaf} is an efficient open dominating set; on K2 both vertices
    # are universal leaves, so the leaf must differ from w
    w = _universal_vertex(f.g)
    leaf = min(v for v in range(f.g.n) if f.g.degree(v) == 1 and v != w)
    return _min_degree_layers(f, 1 << w | 1 << leaf)


# -- custom checks ----------------------------------------------------------


def _check_roman_graph(claim: str, f: PairFacts, measure: Measure) -> ClaimRecord:
    roman = measure(ParameterKind.gamma_R)
    twice_gamma = 2 * measure(ParameterKind.gamma)
    return _compare(claim, twice_gamma, roman, roman == twice_gamma,
                    "product must be a Roman graph")


def _check_zeta_bounds(claim: str, f: PairFacts, measure: Measure) -> ClaimRecord:
    gam, gam_t = f.gamma, f.gamma_t
    gam_tr = factor_value(f.g, ParameterKind.gamma_tR)
    measured = measure(ParameterKind.gamma_R)
    lo, hi = max(gam_tr, gam_t + gam), _zeta_upper(f)[1]
    ok = lo <= measured <= hi
    if gam_t == gam:
        ok = ok and measured == 2 * gam_t
    if gam_t == 2 * gam:
        ok = ok and measured == 3 * gam
    return _compare(claim, (lo, hi), measured, ok,
                    f"gamma={gam}, gamma_t={gam_t}, gamma_tR={gam_tr}")


def _check_perfect_roman_char(claim: str, f: PairFacts, measure: Measure) -> ClaimRecord:
    n_h = f.h.n
    lhs = measure(ParameterKind.gamma_Rp) == 2 * measure(ParameterKind.gamma_p)
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
        # 2|S - S0| + 3|S0| = 2|S| + |S0|, S0 the members without an
        # S-neighbor; the walk stops at the first S below 2 gamma_t(G)
        bound = 2 * f.gamma_t
        couple_cond = _dominating_open_packings(
            f.g, lambda s, s0: 2 * s.bit_count() + s0.bit_count() < bound) is None
        ok = f.p1 and couple_cond
        return ClaimRecord(claim, PASS if ok else FAIL, True, lhs,
                           "stratum maxdeg(H) = n(H)-2, necessity only: "
                           f"P1={f.p1}, open-packing condition={couple_cond}")
    return ClaimRecord(claim, INDETERMINATE, None, lhs,
                       "stratum maxdeg(H) = n(H)-2: no sufficient condition applies "
                       "and equality does not hold; indeterminate by the source")


def _check_eq_roman_char(claim: str, f: PairFacts, measure: Measure) -> ClaimRecord:
    g, n_h, dmin = f.g, f.h.n, f.dmin
    lhs = measure(ParameterKind.gamma_Rp) == measure(ParameterKind.gamma_R)
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
              Exact(_gamma_lex)),
    Statement(TheoremId.GAMMAP_LEX, ParameterKind.gamma_p, (_G_CONNECTED_H_NONTRIVIAL,),
              Exact(_gammap_lex)),
    Statement(TheoremId.ROMAN_LEX, _R, (_G_NO_ISOLATED_H_NONTRIVIAL,),
              Exact(_roman_lex)),
    Statement(TheoremId.ROMAN_GRAPH_COR, _R,
              ((lambda f: f.g_ok and f.h.n >= 2 and f.dmax != f.h.n - 2,
                "needs G without isolated vertices, nontrivial H, maxdeg(H) != n(H)-2"),),
              Custom(_check_roman_graph)),
    Statement(TheoremId.ZETA_BOUNDS, _R,
              ((lambda f: f.g_ok and f.dmax == f.h.n - 2,
                "needs G without isolated vertices and maxdeg(H) = n(H)-2"),),
              Custom(_check_zeta_bounds, _zeta_upper)),
    Statement(TheoremId.PR_LB_GENERAL, _RP, (_G_NO_ISOLATED_H_NONTRIVIAL,),
              Lower(lambda f: f.gamma * min(f.h.n - f.dmax + 1, 2 + f.dmin))),
    Statement(TheoremId.PR_TRIVIAL_LB, _RP, (_NONTRIVIAL,),
              Lower(lambda f: max(f.gamma_Rp, 2 * f.gamma))),
    Statement(TheoremId.PR_UB_CORONA, _RP, (_G_NO_ISOLATED,),
              Upper(lambda f: f.gamma_p * (f.h.n + 1),
                    lambda f: _corona_layers(f, solve(f.g, ParameterKind.gamma_p).witness, 0))),
    Statement(TheoremId.PR_UB_PACKING, _RP, (_G_NO_ISOLATED,),
              Upper(lambda f: f.packing[0], _packing_witness)),
    Statement(TheoremId.PR_UB_FUNCTION_I, _RP, (_G_NO_ISOLATED,),
              Upper(_function_i_bound, lambda f: _corona_layers(f, *f.prdf.fewest_positive))),
    Statement(TheoremId.PR_UB_FUNCTION_II, _RP,
              (_G_NO_ISOLATED, (lambda f: f.prdf.v2_gamma_set is not None, _UNMET)),
              Upper(lambda f: f.gamma_Rp * f.h.n - f.gamma * (f.h.n - 1),
                    lambda f: _corona_layers(f, *f.prdf.v2_gamma_set))),
    Statement(TheoremId.PR_UB_FUNCTION_III, _RP, (_G_NO_ISOLATED,),
              Upper(_function_iii_bound,
                    lambda f: _corona_layers(f, f.epn_split[1], f.epn_split[0]))),
    Statement(TheoremId.PR_UB_FUNCTION_IV, _RP,
              (_G_NO_ISOLATED, (lambda f: f.prdf.support_gamma_p_set is not None, _UNMET)),
              Upper(lambda f: f.gamma_Rp + f.gamma_p * (f.h.n - 1),
                    lambda f: _corona_layers(f, *f.prdf.support_gamma_p_set))),
    Statement(TheoremId.PR_COR_EOD, _RP,
              (_G_NO_ISOLATED, (lambda f: f.eod is not None, _UNMET)),
              Upper(lambda f: f.gamma_t * (2 + f.dmin), _eod_prdf)),
    Statement(TheoremId.PR_COR_ECD, _RP,
              (_G_NO_ISOLATED, (lambda f: f.ecd is not None, _UNMET)),
              Upper(lambda f: f.gamma * (f.h.n - f.dmax + 1), _ecd_prdf)),
    Statement(TheoremId.PR_GAMMA1_I, _RP,
              (_GAMMA_ONE, (lambda f: f.delta_g >= 2, "needs mindeg(G) >= 2")),
              Exact(lambda f: (None, f.h.n - f.dmax + 1, _ecd_prdf))),
    Statement(TheoremId.PR_GAMMA1_II, _RP,
              (_GAMMA_ONE, (lambda f: f.delta_g == 1, "needs mindeg(G) = 1")),
              Exact(_gamma1_ii)),
    Statement(TheoremId.PR_EXACT_ECD, _RP,
              ((lambda f: f.g_ok and f.ecd is not None and 2 <= f.h.n <= f.dmax + f.dmin + 1,
                "needs ECD graph G and 2 <= n(H) <= maxdeg+mindeg+1"),),
              Exact(lambda f: (None, f.gamma * (f.h.n - f.dmax + 1), _ecd_prdf))),
    Statement(TheoremId.PR_EXACT_EOD, _RP,
              ((lambda f: f.g_ok and f.h.n >= 2 and f.eod is not None
                and f.gamma_p == f.gamma_t == f.gamma and f.h.n >= f.dmax + f.dmin + 1,
                "needs EOD graph G with gamma_p = gamma_t = gamma and n(H) >= maxdeg+mindeg+1"),),
              Exact(lambda f: (None, f.gamma * (2 + f.dmin), _eod_prdf))),
    Statement(TheoremId.PR_ISOLATED_LAYERS, _RP,
              ((lambda f: f.eod is not None and f.h.n >= f.dmax + 2 * f.dmin + 3,
                "needs EOD graph G and n(H) >= maxdeg+2*mindeg+3"),),
              Exact(lambda f: (None, f.gamma_t * (2 + f.dmin), _eod_prdf))),
    Statement(TheoremId.PR_COR_P2P3, _RP,
              ((lambda f: f.g.n >= 2 and f.h.n >= 2 and f.g_ok,
                "needs nontrivial factors and G without isolated vertices"),
               (lambda f: f.p2 or (f.p3 and f.gamma_p == f.gamma),
                "needs P2, or P3 with gamma_p(G) = gamma(G)")),
              Exact(lambda f: ("P2", 2 * f.gamma, _ecd_prdf) if f.p2
                    else ("P3", 2 * f.gamma, _eod_prdf))),
    Statement(TheoremId.PR_EQ_FACTOR, _RP, (_NONTRIVIAL,),
              Iff(lambda f: f.gamma_Rp,
                  lambda f: f.gamma_Rp == 2 * f.gamma_p and (f.p2 or f.p3),
                  "gamma_Rp(product) = gamma_Rp(G) iff gamma_Rp(G) = 2 gamma_p(G) and P2 or P3",
                  _p2_or_p3_prdf)),
    Statement(TheoremId.PR_EQ_2GAMMA, _RP,
              ((lambda f: f.g.n >= 2 and f.h.n >= 3, "needs nontrivial G and n(H) >= 3"),),
              Iff(lambda f: 2 * f.gamma,
                  lambda f: f.gamma_p == f.gamma and (f.p2 or f.p3),
                  "gamma_Rp(product) = 2 gamma(G) iff gamma_p(G) = gamma(G) and P2 or P3",
                  _p2_or_p3_prdf)),
    Statement(TheoremId.PR_PERFECTROMAN_CHAR, _RP, (_G_CONNECTED_H_NONTRIVIAL,),
              Custom(_check_perfect_roman_char)),
    Statement(TheoremId.PR_EQ_ROMAN_CHAR, _RP,
              ((lambda f: f.g.n >= 2 and f.g_connected and f.h.n >= 3,
                "needs connected nontrivial G and H of order >= 3"),),
              Custom(_check_eq_roman_char)),
)

STATEMENTS: dict[TheoremId, Statement] = {st.id: st for st in _REGISTRY}

_PREDICTORS = {
    kind: [st for st in _REGISTRY if st.kind is kind and st.conclusion.slot is not None]
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
    # (tag, value) of the exact values, the lower and the upper bounds
    exacts, lowers, uppers = shares = ([], [], [])
    for st in statements:
        if st.refusal(f) is not None:
            continue
        branch, value = st.conclusion.target(f)
        shares[st.conclusion.slot].append(
            (st.claim if branch is None else f"{st.claim}:{branch}", value))

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
    if st.witness is None:
        raise DomainError(f"{st.claim} has no constructive witness")
    f = PairFacts(g, h)
    reason = st.refusal(f)
    if reason is not None:
        raise HypothesisError(f"{st.claim} {reason}")
    product, _ = lex_product(g, h)
    expected = st.conclusion.target(f)[1]
    built = st.witness(f)
    if st.kind in (ParameterKind.gamma, ParameterKind.gamma_p):
        valid, size, unit = is_feasible(product, built, st.kind), built.bit_count(), "size"
    else:
        built = assignment_from_masks(product.n, built[1], built[0])
        valid = (is_rdf if st.kind is _R else is_prdf)(product, built)
        size, unit = built.weight, "weight"
    if not valid or size != expected:
        raise InconsistencyError(
            f"{st.claim} construction invalid: {unit} {size}, expected {expected}")
    return built
