"""Brute-force verification of every statement over (G, H) corpora.

verify_pair() checks each statement of the theorem registry
(``formula.STATEMENTS``) against the pair's factor facts and the
product's parameters, which it measures with the exact solvers on first
use: the product is built once, when a statement first needs it, and
each kind is solved once.  The registry decides applicability, the
predicted side and the wording of each record.  If-and-only-if
statements are tested as two implications.  A skip is a first-class
outcome distinct from a failure: a claim skips when its hypotheses are
unmet, when the product is over the budget, or when a fact its check
reads is over its size cap, with the refusal as its detail.  The one
characterization stratum the source material leaves open is reported as
"indeterminate" rather than pass/fail.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError
from .graph import Graph
from .graphio import write_graph6
from .product import DEFAULT_PRODUCT_CAP, lex_product
from .solvers import _MEMOS, ParameterKind, _roman_v1, enumerate_optimal_v2, solve
from .formula import (  # noqa: F401  (the outcomes are part of this module's interface)
    FAIL,
    INDETERMINATE,
    PASS,
    SKIP,
    STATEMENTS,
    ClaimRecord,
    PairFacts,
    TheoremId,
)

#: Product cap for the structural-lemma suite (full optimal-function
#: enumeration on the product).
LEMMA_PRODUCT_CAP = 14


class VerificationReport(NamedTuple):
    g6_g: str
    g6_h: str
    records: tuple[ClaimRecord, ...]

    @property
    def failures(self) -> tuple[ClaimRecord, ...]:
        return tuple(r for r in self.records if r.outcome == FAIL)


ALL_CLAIMS: tuple[TheoremId, ...] = tuple(TheoremId)


@lru_cache(maxsize=128)
def _g6(g: Graph) -> str:
    """The graph6 text of a factor, which names it in every report.

    A set-up cache, not an answer memo, like ``solvers._roman_plan``: a
    corpus sweep meets each factor in many pairs, and this holds the
    last 128 of them; it reads no cap, since encoding is not capped.
    ``capped_memo.cache_clear()`` clears it too.
    """
    return write_graph6(g).decode()


_MEMOS.append(_g6)


def verify_pair(g: Graph, h: Graph,
                claims: Iterable[TheoremId] | None = None,
                max_product_order: int = DEFAULT_PRODUCT_CAP) -> VerificationReport:
    wanted = tuple(TheoremId(c) for c in claims) if claims is not None else ALL_CLAIMS
    g6g = _g6(g)
    g6h = _g6(h)
    if g.n * h.n > max_product_order:
        records = tuple(
            ClaimRecord(c.value, SKIP,
                        detail=f"product order {g.n * h.n} exceeds budget {max_product_order}")
            for c in wanted
        )
        return VerificationReport(g6g, g6h, records)
    product = None
    measured: dict[ParameterKind, int] = {}

    def measure(kind: ParameterKind) -> int:
        nonlocal product
        if kind not in measured:
            if product is None:
                product = lex_product(g, h, max_product_order)[0]
            measured[kind] = solve(product, kind, max_n=max_product_order, witness=False).value
        return measured[kind]

    f = PairFacts(g, h)
    records = []
    for c in wanted:
        try:
            records.append(STATEMENTS[c].check(f, measure))
        except CapExceededError as exc:  # a factor fact over its cap
            records.append(ClaimRecord(c.value, SKIP, detail=str(exc)))
    return VerificationReport(g6g, g6h, tuple(records))


class CorpusReport(NamedTuple):
    totals: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    failures: tuple[tuple[str, str, ClaimRecord], ...]
    pairs: int

    @property
    def failed(self) -> int:
        return len(self.failures)


def verify_corpus(gs: Sequence[Graph], hs: Sequence[Graph],
                  claims: Iterable[TheoremId] | None = None,
                  max_product_order: int = DEFAULT_PRODUCT_CAP) -> CorpusReport:
    """Aggregate verification over the cartesian corpus.

    The result is deterministic and independent of execution order:
    totals are commutative sums and failures are sorted by pair id.
    ``claims`` is read once, so a one-shot iterable serves every pair.
    """
    if claims is not None:
        claims = tuple(claims)
    counters: defaultdict[str, Counter] = defaultdict(Counter)
    failures = []
    pairs = 0
    for g in gs:
        for h in hs:
            report = verify_pair(g, h, claims, max_product_order)
            pairs += 1
            for record in report.records:
                counters[record.claim][record.outcome] += 1
                if record.outcome == FAIL:
                    failures.append((report.g6_g, report.g6_h, record))
    totals = tuple(
        (claim, tuple(sorted(counter.items())))
        for claim, counter in sorted(counters.items())
    )
    return CorpusReport(totals, tuple(sorted(failures, key=lambda t: (t[0], t[1], t[2].claim))), pairs)


class LemmaReport(NamedTuple):
    layer_dichotomy_checked: int
    layer_dichotomy_ok: bool
    max_v2_checked: int
    max_v2_ok: bool
    detail: str = ""


def check_structural_lemmas(g: Graph, h: Graph) -> LemmaReport:
    """Exhaustive checks of the two optimal-function lemmas on G o H.

    * every optimal PRDF: a layer disjoint from V2 is all-0 or all-1;
    * every optimal RDF with |V2| maximum: A_f (factor vertices whose
      layer meets V2) dominates G, and B_f is empty.
    """
    if g.n * h.n > LEMMA_PRODUCT_CAP:
        raise CapExceededError(
            f"product order {g.n * h.n} exceeds the lemma-suite cap {LEMMA_PRODUCT_CAP}"
        )
    product, index = lex_product(g, h)
    layer_masks = [index.layer_set(u) for u in range(g.n)]

    dichotomy_ok = True
    prdf_masks = enumerate_optimal_v2(product, ParameterKind.gamma_Rp,
                                      max_n=LEMMA_PRODUCT_CAP)
    details = []
    for v2 in prdf_masks:
        v1 = _roman_v1(product, ParameterKind.gamma_Rp, v2)
        v0 = product.full_mask & ~(v1 | v2)
        for u, layer in enumerate(layer_masks):
            if layer & v2:
                continue
            if not (layer & v0 == layer or layer & v1 == layer):
                dichotomy_ok = False
                details.append(f"layer {u} mixed for V2 mask {v2:#x}")

    rdf_ok = True
    rdf_checked = 0
    if not g.has_isolated_vertex() and h.n >= 2:
        rdf_masks = enumerate_optimal_v2(product, ParameterKind.gamma_R,
                                         max_n=LEMMA_PRODUCT_CAP)
        max_v2 = max(m.bit_count() for m in rdf_masks)
        for v2 in rdf_masks:
            if v2.bit_count() != max_v2:
                continue
            rdf_checked += 1
            v1 = _roman_v1(product, ParameterKind.gamma_R, v2)
            a_f = 0
            b_f = 0
            for u, layer in enumerate(layer_masks):
                if layer & v2:
                    a_f |= 1 << u
                elif layer & v1:
                    b_f |= 1 << u
            dominating = g.closed_cover(a_f) == g.full_mask
            if not dominating or b_f:
                rdf_ok = False
                details.append(
                    f"max-|V2| RDF with V2 mask {v2:#x}: A_f dominating={dominating}, "
                    f"B_f mask {b_f:#x}"
                )
    return LemmaReport(len(prdf_masks), dichotomy_ok, rdf_checked, rdf_ok,
                       "; ".join(details))
