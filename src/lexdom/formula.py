"""Theorem-indexed prediction of product parameters from factor data,
and proof-driven witness construction on the product.

Every TheoremId carries its hypothesis check and conclusion; predict()
aggregates all applicable statements for the requested parameter and
collapses to an exact value whenever an exact-case statement fires or
the bounds meet.  Disagreement between fired exact statements (or an
exact value escaping the aggregated interval) raises InconsistencyError
rather than picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, HypothesisError, InconsistencyError
from .graph import Graph, RomanAssignment, assignment_from_masks, bits, mask_from
from .product import lex_product
from .solvers import (
    ParameterKind,
    _complete_roman,
    _feasible_sets,
    enumerate_optimal_v2,
    is_feasible,
    is_prdf,
    is_rdf,
    solve,
    zeta,
)
from .structure import (
    HypothesisKind,
    check_hypothesis,
    factor_value,
    is_efficient_closed_domination,
    is_efficient_open_domination,
)


class TheoremId(str, Enum):
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


@dataclass(frozen=True)
class Prediction:
    """Closed interval [lo, hi]; exact when the interval collapses.

    ``provenance`` lists the statements (with branch details) that
    produced the reported numbers.
    """

    lo: int
    hi: int
    provenance: tuple[str, ...]

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


PREDICT_KINDS = (
    ParameterKind.gamma,
    ParameterKind.gamma_p,
    ParameterKind.gamma_R,
    ParameterKind.gamma_Rp,
)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisError(message)


def open_packings(g: Graph):
    """All open packings of G (the empty set included)."""
    adj = g.adj
    n = g.n

    def rec(i: int, smask: int, c1: int):
        if i == n:
            yield smask
            return
        yield from rec(i + 1, smask, c1)
        if not c1 & adj[i]:
            yield from rec(i + 1, smask | (1 << i), c1 | adj[i])
    yield from rec(0, 0, 0)


def _min_degree_vertex(h: Graph) -> int:
    return min(range(h.n), key=lambda v: (h.degree(v), v))


def _max_degree_vertex(h: Graph) -> int:
    return min(range(h.n), key=lambda v: (-h.degree(v), v))


def _universal_vertex(h: Graph) -> int | None:
    for v in range(h.n):
        if h.degree(v) == h.n - 1:
            return v
    return None


def _optimal_prdf_min_positive(g: Graph) -> tuple[int, int]:
    """(v2, v1) of the optimal PRDF on G minimizing |V1| + |V2|
    (ties by smallest V2 mask)."""
    best = None
    for v2 in enumerate_optimal_v2(g, ParameterKind.gamma_Rp):
        f = _complete_roman(g, ParameterKind.gamma_Rp, v2)
        key = ((f.v1 | f.v2).bit_count(), v2)
        if best is None or key < best[0]:
            best = (key, (v2, f.v1))
    return best[1]


def _optimal_prdf_with(g: Graph, predicate) -> tuple[int, int] | None:
    """First (smallest-V2) optimal PRDF on G whose (v2, v1) satisfies
    ``predicate``, or None."""
    for v2 in enumerate_optimal_v2(g, ParameterKind.gamma_Rp):
        f = _complete_roman(g, ParameterKind.gamma_Rp, v2)
        if predicate(v2, f.v1):
            return v2, f.v1
    return None


def _best_gamma_p_set_by_epn(g: Graph) -> tuple[int, int, int]:
    """gamma_p(G)-set minimizing |S'| + 2|S''| where S' = members with
    no external private neighbor; returns (S, S', S'')."""
    best = None
    for smask in _feasible_sets(g, ParameterKind.gamma_p, factor_value(g, ParameterKind.gamma_p)):
        s_prime = mask_from(v for v in bits(smask) if not g.epn(v, smask))
        s_dprime = smask & ~s_prime
        key = (s_prime.bit_count() + 2 * s_dprime.bit_count(), smask)
        if best is None or key < best[0]:
            best = (key, (smask, s_prime, s_dprime))
    return best[1]


def _packing_bound_terms(g: Graph, h: Graph) -> tuple[int, int]:
    """(best value, best S) of the open-packing upper bound
    |S0|(n(H)-D+1) + |S1|(2+d) + n(H)(n(G) - |N[S]|)."""
    dmin, dmax = h.degree_extremes()
    a = h.n - dmax + 1
    b = 2 + dmin
    best = None
    for smask in open_packings(g):
        s0 = mask_from(v for v in bits(smask) if not g.adj[v] & smask)
        covered = g.closed_cover(smask).bit_count()
        value = (s0.bit_count() * a
                 + (smask.bit_count() - s0.bit_count()) * b
                 + h.n * (g.n - covered))
        if best is None or (value, smask) < best:
            best = (value, smask)
    return best


# -- prediction ---------------------------------------------------------


def predict(g: Graph, h: Graph, kind: ParameterKind) -> Prediction:
    kind = ParameterKind(kind)
    if kind not in PREDICT_KINDS:
        raise DomainError(f"no product formula for kind {kind.value}")
    if kind is ParameterKind.gamma:
        return _predict_gamma(g, h)
    if kind is ParameterKind.gamma_p:
        return _predict_gamma_p(g, h)
    if kind is ParameterKind.gamma_R:
        return _predict_gamma_R(g, h)
    return _predict_gamma_Rp(g, h)


def _predict_gamma(g: Graph, h: Graph) -> Prediction:
    _require(not g.has_isolated_vertex(), "gamma formula needs G without isolated vertices")
    _require(h.n >= 2, "gamma formula needs nontrivial H")
    if factor_value(h, ParameterKind.gamma) == 1:
        v = factor_value(g, ParameterKind.gamma)
        return Prediction(v, v, ("GAMMA_LEX:gamma(H)=1",))
    v = factor_value(g, ParameterKind.gamma_t)
    return Prediction(v, v, ("GAMMA_LEX:gamma(H)>=2",))


def _predict_gamma_p(g: Graph, h: Graph) -> Prediction:
    _require(g.n >= 2 and g.is_connected(), "gamma_p trichotomy needs G connected and nontrivial")
    _require(h.n >= 2, "gamma_p trichotomy needs nontrivial H")
    if check_hypothesis(g, h, HypothesisKind.P1):
        v = factor_value(g, ParameterKind.gamma_t)
        return Prediction(v, v, ("GAMMAP_LEX:P1",))
    if check_hypothesis(g, h, HypothesisKind.P2):
        v = factor_value(g, ParameterKind.gamma)
        return Prediction(v, v, ("GAMMAP_LEX:P2",))
    v = g.n * h.n
    return Prediction(v, v, ("GAMMAP_LEX:otherwise",))


def _predict_gamma_R(g: Graph, h: Graph) -> Prediction:
    _require(not g.has_isolated_vertex(), "gamma_R formula needs G without isolated vertices")
    _require(h.n >= 2, "gamma_R formula needs nontrivial H")
    dmax = h.degree_extremes()[1]
    if dmax == h.n - 1:
        v = 2 * factor_value(g, ParameterKind.gamma)
        return Prediction(v, v, ("ROMAN_LEX:maxdeg(H)=n(H)-1",))
    if dmax == h.n - 2:
        v = zeta(g)[0]
        return Prediction(v, v, ("ROMAN_LEX:maxdeg(H)=n(H)-2",))
    v = 2 * factor_value(g, ParameterKind.gamma_t)
    return Prediction(v, v, ("ROMAN_LEX:maxdeg(H)<=n(H)-3",))


def _predict_gamma_Rp(g: Graph, h: Graph) -> Prediction:
    _require(not g.has_isolated_vertex(),
             "gamma_Rp bounds need G nontrivial without isolated vertices")
    _require(h.n >= 2, "gamma_Rp bounds need nontrivial H")
    n_h = h.n
    dmin, dmax = h.degree_extremes()
    gamma_g = factor_value(g, ParameterKind.gamma)
    gamma_t_g = factor_value(g, ParameterKind.gamma_t)
    gamma_p_g = factor_value(g, ParameterKind.gamma_p)
    gamma_rp_g = factor_value(g, ParameterKind.gamma_Rp)
    eod = is_efficient_open_domination(g)
    ecd = is_efficient_closed_domination(g)
    p2 = bool(check_hypothesis(g, h, HypothesisKind.P2))
    p3 = bool(check_hypothesis(g, h, HypothesisKind.P3))

    lowers: list[tuple[str, int]] = [
        ("PR_LB_GENERAL", gamma_g * min(n_h - dmax + 1, 2 + dmin)),
        ("PR_TRIVIAL_LB", max(gamma_rp_g, 2 * gamma_g)),
    ]

    uppers: list[tuple[str, int]] = [
        ("PR_UB_CORONA", gamma_p_g * (n_h + 1)),
        ("PR_UB_PACKING", _packing_bound_terms(g, h)[0]),
    ]
    v2, v1 = _optimal_prdf_min_positive(g)
    uppers.append(("PR_UB_FUNCTION_I", gamma_rp_g + (v1 | v2).bit_count() * (n_h - 1)))
    if _optimal_prdf_with(
        g, lambda v2m, _: v2m.bit_count() == gamma_g
        and is_feasible(g, v2m, ParameterKind.gamma)
    ):
        uppers.append(("PR_UB_FUNCTION_II", gamma_rp_g * n_h - gamma_g * (n_h - 1)))
    s, s_prime, s_dprime = _best_gamma_p_set_by_epn(g)
    uppers.append((
        "PR_UB_FUNCTION_III",
        s_prime.bit_count() + 2 * s_dprime.bit_count() + gamma_p_g * (n_h - 1),
    ))
    if _optimal_prdf_with(
        g, lambda v2m, v1m: (v1m | v2m).bit_count() == gamma_p_g
        and is_feasible(g, v1m | v2m, ParameterKind.gamma_p)
    ):
        uppers.append(("PR_UB_FUNCTION_IV", gamma_rp_g + gamma_p_g * (n_h - 1)))
    if eod is not None:
        uppers.append(("PR_COR_EOD", gamma_t_g * (2 + dmin)))
    if ecd is not None:
        uppers.append(("PR_COR_ECD", gamma_g * (n_h - dmax + 1)))

    exacts: list[tuple[str, int]] = []
    if gamma_g == 1:
        if g.degree_extremes()[0] >= 2:
            exacts.append(("PR_GAMMA1_I", n_h - dmax + 1))
        else:
            exacts.append(("PR_GAMMA1_II", min(2 * dmin + 4, n_h - dmax + 1)))
    if ecd is not None and 2 <= n_h <= dmax + dmin + 1:
        exacts.append(("PR_EXACT_ECD", gamma_g * (n_h - dmax + 1)))
    if (eod is not None and gamma_p_g == gamma_t_g == gamma_g
            and n_h >= dmax + dmin + 1):
        exacts.append(("PR_EXACT_EOD", gamma_g * (2 + dmin)))
    if eod is not None and n_h >= dmax + 2 * dmin + 3:
        exacts.append(("PR_ISOLATED_LAYERS", gamma_t_g * (2 + dmin)))
    if p2:
        exacts.append(("PR_COR_P2P3:P2", 2 * gamma_g))
    if p3 and gamma_p_g == gamma_g:
        exacts.append(("PR_COR_P2P3:P3", 2 * gamma_g))
    if gamma_rp_g == 2 * gamma_p_g and (p2 or p3):
        exacts.append(("PR_EQ_FACTOR", gamma_rp_g))
    if n_h >= 3 and gamma_p_g == gamma_g and (p2 or p3):
        exacts.append(("PR_EQ_2GAMMA", 2 * gamma_g))

    lo_tag, lo = max(lowers, key=lambda t: t[1])
    hi_tag, hi = min(uppers, key=lambda t: t[1])
    if exacts:
        values = {v for _, v in exacts}
        if len(values) > 1:
            raise InconsistencyError(f"exact statements disagree: {exacts}")
        value = values.pop()
        if not lo <= value <= hi:
            raise InconsistencyError(
                f"exact value {value} outside aggregated bounds [{lo}, {hi}] ({exacts})"
            )
        return Prediction(value, value, tuple(tag for tag, _ in exacts))
    return Prediction(lo, hi, (f"{lo_tag}:lo", f"{hi_tag}:hi"))


# -- witness construction ----------------------------------------------


def _lift(index, gmask: int, hmask: int) -> int:
    """Product mask of the cartesian set gmask x hmask."""
    out = 0
    for u in bits(gmask):
        out |= hmask << (u * index.n_h)
    return out


def _eod_or_refuse(g: Graph) -> int:
    s = is_efficient_open_domination(g)
    if s is None:
        raise HypothesisError("G is not an efficient open domination graph")
    return s


def _ecd_or_refuse(g: Graph) -> int:
    s = is_efficient_closed_domination(g)
    if s is None:
        raise HypothesisError("G is not an efficient closed domination graph")
    return s


def _eod_product_prdf(g: Graph, h: Graph, index) -> tuple[int, int]:
    """(v2, v1): the EOD witness spread over a minimum-degree layer."""
    s = _eod_or_refuse(g)
    y1 = _min_degree_vertex(h)
    return _lift(index, s, 1 << y1), _lift(index, s, h.adj[y1])


def _ecd_product_prdf(g: Graph, h: Graph, index) -> tuple[int, int]:
    """(v2, v1): the ECD witness spread over a maximum-degree layer."""
    s = _ecd_or_refuse(g)
    y2 = _max_degree_vertex(h)
    return _lift(index, s, 1 << y2), _lift(index, s, h.full_mask & ~h.closed_neighborhood(y2))


def construct_witness(theorem: TheoremId, g: Graph, h: Graph):
    """Build the proof's object on the product and validate it.

    Returns a vertex-set mask for set-valued statements (GAMMA_LEX,
    GAMMAP_LEX) and a RomanAssignment otherwise.  Refuses with
    HypothesisError when the statement's hypotheses fail for (g, h).
    """
    theorem = TheoremId(theorem)
    product, index = lex_product(g, h)
    n_h = h.n
    dmin, dmax = h.degree_extremes()

    if theorem is TheoremId.GAMMA_LEX:
        _require(not g.has_isolated_vertex(), "GAMMA_LEX needs G without isolated vertices")
        _require(h.n >= 2, "GAMMA_LEX needs nontrivial H")
        if factor_value(h, ParameterKind.gamma) == 1:
            d = solve(g, ParameterKind.gamma).witness
            smask = _lift(index, d, 1 << _universal_vertex(h))
            expected = factor_value(g, ParameterKind.gamma)
        else:
            t = solve(g, ParameterKind.gamma_t).witness
            smask = _lift(index, t, 1)
            expected = factor_value(g, ParameterKind.gamma_t)
        return _validated_set(product, smask, ParameterKind.gamma, expected, theorem)

    if theorem is TheoremId.GAMMAP_LEX:
        _require(g.n >= 2 and g.is_connected(), "GAMMAP_LEX needs G connected and nontrivial")
        _require(h.n >= 2, "GAMMAP_LEX needs nontrivial H")
        if check_hypothesis(g, h, HypothesisKind.P1):
            s = _eod_or_refuse(g)
            y = min(h.isolated_vertices())
            smask = _lift(index, s, 1 << y)
            expected = factor_value(g, ParameterKind.gamma_t)
        elif check_hypothesis(g, h, HypothesisKind.P2):
            d = _ecd_or_refuse(g)
            smask = _lift(index, d, 1 << _universal_vertex(h))
            expected = factor_value(g, ParameterKind.gamma)
        else:
            smask = product.full_mask
            expected = g.n * h.n
        return _validated_set(product, smask, ParameterKind.gamma_p, expected, theorem)

    if theorem is TheoremId.ROMAN_LEX:
        _require(not g.has_isolated_vertex(), "ROMAN_LEX needs G without isolated vertices")
        _require(h.n >= 2, "ROMAN_LEX needs nontrivial H")
        if dmax == n_h - 1:
            d = solve(g, ParameterKind.gamma).witness
            v2 = _lift(index, d, 1 << _universal_vertex(h))
            v1 = 0
            expected = 2 * factor_value(g, ParameterKind.gamma)
        elif dmax == n_h - 2:
            value, (a, b) = zeta(g)
            v = _max_degree_vertex(h)
            v_out = h.full_mask & ~h.closed_neighborhood(v)
            v2 = _lift(index, a | b, 1 << v)
            v1 = _lift(index, b, v_out)
            expected = value
        else:
            t = solve(g, ParameterKind.gamma_t).witness
            v2 = _lift(index, t, 1)
            v1 = 0
            expected = 2 * factor_value(g, ParameterKind.gamma_t)
        return _validated_roman(product, v1, v2, is_rdf, expected, theorem)

    if theorem is TheoremId.ZETA_BOUNDS:
        _require(not g.has_isolated_vertex(), "ZETA_BOUNDS needs G without isolated vertices")
        _require(dmax == n_h - 2, "ZETA_BOUNDS needs maxdeg(H) = n(H)-2")
        gam = factor_value(g, ParameterKind.gamma)
        gam_t = factor_value(g, ParameterKind.gamma_t)
        if 3 * gam <= 2 * gam_t:
            d = solve(g, ParameterKind.gamma).witness
            v = _max_degree_vertex(h)
            v_out = h.full_mask & ~h.closed_neighborhood(v)
            v2 = _lift(index, d, 1 << v)
            v1 = _lift(index, d, v_out)
            expected = 3 * gam
        else:
            t = solve(g, ParameterKind.gamma_t).witness
            v2 = _lift(index, t, 1)
            v1 = 0
            expected = 2 * gam_t
        return _validated_roman(product, v1, v2, is_rdf, expected, theorem)

    # the remaining constructive statements all build PRDFs
    _require(not g.has_isolated_vertex(),
             f"{theorem.value} needs G without isolated vertices")

    if theorem is TheoremId.PR_UB_CORONA:
        s = solve(g, ParameterKind.gamma_p).witness
        v2 = _lift(index, s, 1)
        v1 = _lift(index, s, h.full_mask & ~1)
        expected = factor_value(g, ParameterKind.gamma_p) * (n_h + 1)
    elif theorem is TheoremId.PR_UB_FUNCTION_I:
        fv2, fv1 = _optimal_prdf_min_positive(g)
        v2 = _lift(index, fv2, 1)
        v1 = _lift(index, fv2, h.full_mask & ~1) | _lift(index, fv1, h.full_mask)
        expected = (factor_value(g, ParameterKind.gamma_Rp)
                    + (fv1 | fv2).bit_count() * (n_h - 1))
    elif theorem is TheoremId.PR_UB_FUNCTION_II:
        gamma_g = factor_value(g, ParameterKind.gamma)
        found = _optimal_prdf_with(
            g, lambda v2m, _: v2m.bit_count() == gamma_g
            and is_feasible(g, v2m, ParameterKind.gamma)
        )
        _require(found is not None,
                 "no optimal PRDF on G has V2 equal to a gamma(G)-set")
        fv2, fv1 = found
        v2 = _lift(index, fv2, 1)
        v1 = _lift(index, fv2, h.full_mask & ~1) | _lift(index, fv1, h.full_mask)
        expected = (factor_value(g, ParameterKind.gamma_Rp) * n_h
                    - gamma_g * (n_h - 1))
    elif theorem is TheoremId.PR_UB_FUNCTION_III:
        s, s_prime, s_dprime = _best_gamma_p_set_by_epn(g)
        v2 = _lift(index, s_dprime, 1)
        v1 = _lift(index, s_dprime, h.full_mask & ~1) | _lift(index, s_prime, h.full_mask)
        expected = (s_prime.bit_count() + 2 * s_dprime.bit_count()
                    + factor_value(g, ParameterKind.gamma_p) * (n_h - 1))
    elif theorem is TheoremId.PR_UB_FUNCTION_IV:
        gamma_p_g = factor_value(g, ParameterKind.gamma_p)
        found = _optimal_prdf_with(
            g, lambda v2m, v1m: (v1m | v2m).bit_count() == gamma_p_g
            and is_feasible(g, v1m | v2m, ParameterKind.gamma_p)
        )
        _require(found is not None,
                 "no optimal PRDF on G has V1 u V2 equal to a gamma_p(G)-set")
        fv2, fv1 = found
        v2 = _lift(index, fv2, 1)
        v1 = _lift(index, fv2, h.full_mask & ~1) | _lift(index, fv1, h.full_mask)
        expected = (factor_value(g, ParameterKind.gamma_Rp)
                    + gamma_p_g * (n_h - 1))
    elif theorem is TheoremId.PR_UB_PACKING:
        expected, s = _packing_bound_terms(g, h)
        s0 = mask_from(x for x in bits(s) if not g.adj[x] & s)
        s1 = s & ~s0
        y1 = _min_degree_vertex(h)
        y2 = _max_degree_vertex(h)
        outside = g.full_mask & ~g.closed_cover(s)
        v2 = _lift(index, s0, 1 << y2) | _lift(index, s1, 1 << y1)
        v1 = (_lift(index, s0, h.full_mask & ~h.closed_neighborhood(y2))
              | _lift(index, s1, h.adj[y1])
              | _lift(index, outside, h.full_mask))
    elif theorem in (TheoremId.PR_COR_EOD, TheoremId.PR_EXACT_EOD,
                     TheoremId.PR_ISOLATED_LAYERS):
        if theorem is TheoremId.PR_EXACT_EOD:
            _require(h.n >= 2, "PR_EXACT_EOD needs nontrivial H")
            _require(factor_value(g, ParameterKind.gamma_p)
                     == factor_value(g, ParameterKind.gamma_t)
                     == factor_value(g, ParameterKind.gamma),
                     "PR_EXACT_EOD needs gamma_p(G) = gamma_t(G) = gamma(G)")
            _require(n_h >= dmax + dmin + 1, "PR_EXACT_EOD needs n(H) >= maxdeg+mindeg+1")
        if theorem is TheoremId.PR_ISOLATED_LAYERS:
            _require(n_h >= dmax + 2 * dmin + 3,
                     "PR_ISOLATED_LAYERS needs n(H) >= maxdeg+2*mindeg+3")
        v2, v1 = _eod_product_prdf(g, h, index)
        expected = factor_value(g, ParameterKind.gamma_t) * (2 + dmin)
    elif theorem in (TheoremId.PR_COR_ECD, TheoremId.PR_EXACT_ECD):
        if theorem is TheoremId.PR_EXACT_ECD:
            _require(2 <= n_h <= dmax + dmin + 1,
                     "PR_EXACT_ECD needs 2 <= n(H) <= maxdeg+mindeg+1")
        v2, v1 = _ecd_product_prdf(g, h, index)
        expected = factor_value(g, ParameterKind.gamma) * (n_h - dmax + 1)
    elif theorem in (TheoremId.PR_GAMMA1_I, TheoremId.PR_GAMMA1_II):
        _require(g.n >= 2 and factor_value(g, ParameterKind.gamma) == 1,
                 f"{theorem.value} needs nontrivial G with gamma(G) = 1")
        delta_g = g.degree_extremes()[0]
        w = _universal_vertex(g)
        if theorem is TheoremId.PR_GAMMA1_I:
            _require(delta_g >= 2, "PR_GAMMA1_I needs mindeg(G) >= 2")
        else:
            _require(delta_g == 1, "PR_GAMMA1_II needs mindeg(G) = 1")
        if theorem is TheoremId.PR_GAMMA1_I or n_h - dmax + 1 <= 2 * dmin + 4:
            y2 = _max_degree_vertex(h)
            v2 = 1 << index.encode(w, y2)
            v1 = _lift(index, 1 << w, h.full_mask & ~h.closed_neighborhood(y2))
            expected = n_h - dmax + 1
        else:
            leaf = min(v for v in range(g.n) if g.degree(v) == 1)
            y1 = _min_degree_vertex(h)
            v2 = (1 << index.encode(w, y1)) | (1 << index.encode(leaf, y1))
            v1 = _lift(index, (1 << w) | (1 << leaf), h.adj[y1])
            expected = 2 * dmin + 4
    elif theorem in (TheoremId.PR_COR_P2P3, TheoremId.PR_EQ_FACTOR, TheoremId.PR_EQ_2GAMMA):
        _require(g.n >= 2 and h.n >= 2, f"{theorem.value} needs nontrivial factors")
        p2 = bool(check_hypothesis(g, h, HypothesisKind.P2))
        p3 = bool(check_hypothesis(g, h, HypothesisKind.P3))
        gamma_g = factor_value(g, ParameterKind.gamma)
        gamma_p_g = factor_value(g, ParameterKind.gamma_p)
        if theorem is TheoremId.PR_COR_P2P3:
            _require(p2 or (p3 and gamma_p_g == gamma_g),
                     "PR_COR_P2P3 needs P2, or P3 with gamma_p(G) = gamma(G)")
            expected = 2 * gamma_g
        elif theorem is TheoremId.PR_EQ_FACTOR:
            _require(factor_value(g, ParameterKind.gamma_Rp) == 2 * gamma_p_g
                     and (p2 or p3),
                     "PR_EQ_FACTOR needs gamma_Rp(G) = 2*gamma_p(G) and P2 or P3")
            expected = factor_value(g, ParameterKind.gamma_Rp)
        else:
            _require(n_h >= 3 and gamma_p_g == gamma_g and (p2 or p3),
                     "PR_EQ_2GAMMA needs n(H) >= 3, gamma_p(G) = gamma(G) and P2 or P3")
            expected = 2 * gamma_g
        if p2:
            v2, v1 = _ecd_product_prdf(g, h, index)
        else:
            v2, v1 = _eod_product_prdf(g, h, index)
    else:
        raise DomainError(f"{theorem.value} has no constructive witness")

    return _validated_roman(product, v1, v2, is_prdf, expected, theorem)


def _validated_set(product: Graph, smask: int, kind: ParameterKind,
                   expected: int, theorem: TheoremId) -> int:
    if not is_feasible(product, smask, kind) or smask.bit_count() != expected:
        raise InconsistencyError(
            f"{theorem.value} construction invalid: size {smask.bit_count()}, expected {expected}"
        )
    return smask


def _validated_roman(product: Graph, v1: int, v2: int, validator,
                     expected: int, theorem: TheoremId) -> RomanAssignment:
    f = assignment_from_masks(product.n, v1, v2)
    if not validator(product, f) or f.weight != expected:
        raise InconsistencyError(
            f"{theorem.value} construction invalid: weight {f.weight}, expected {expected}"
        )
    return f
