"""Span recorder for the traced benchmark run.

The recorder replaces each public lexdom function named in ``TARGETS`` at
every module binding that holds it (``verify``, ``formula``, ``structure``
and ``cli`` import ``solve``, ``factor_value``, ``lex_product``,
``predict`` and ``write_graph6`` by name), plus ``Graph.__post_init__``.
Each call becomes a span (name, start, end, parent, op id) kept in
memory; ``layer_metrics`` turns one round's spans into the per-layer
numbers.  Nothing inside ``src/lexdom`` is modified on disk.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

SET_KINDS = frozenset({"gamma", "gamma_t", "gamma_p", "rho", "rho_o"})
ROMAN_KINDS = frozenset({"gamma_R", "gamma_Rp"})
REJECTIONS = frozenset({"CapExceededError", "DomainError"})


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level
    op: int  # op index within the round, -1 during set-up
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kind(args, kwargs) -> str:
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    return getattr(kind, "value", kind)


def _solve_info(args, kwargs, result, error):
    info = {"kind": _kind(args, kwargs)}
    if result is not None:
        info["explored"] = result.explored
    if error:
        info["error"] = error
    return info


def _parse_info(args, kwargs, result, error):
    data = args[0] if args else kwargs.get("data", kwargs.get("text", ""))
    return {"bytes": len(data)}


def _product_info(args, kwargs, result, error):
    return {"vertices": result[0].n} if result is not None else None


def _verify_info(args, kwargs, result, error):
    if result is None:
        return None
    return {"fail": sum(1 for r in result.records if r.outcome == "fail")}


#: (module, attribute, annotate) for every function that becomes a span.
TARGETS = (
    ("lexdom.graphio", "parse_graph6", _parse_info),
    ("lexdom.graphio", "parse_edge_list", _parse_info),
    ("lexdom.graphio", "load_corpus", None),
    ("lexdom.graphio", "generate", None),
    ("lexdom.graphio", "write_graph6", None),
    ("lexdom.product", "lex_product", _product_info),
    ("lexdom.solvers", "solve", _solve_info),
    ("lexdom.solvers", "zeta", None),
    ("lexdom.solvers", "zeta_couples", None),
    ("lexdom.solvers", "zeta_prime", None),
    ("lexdom.solvers", "dominating_open_packings", None),
    ("lexdom.solvers", "enumerate_optimal_v2", None),
    ("lexdom.structure", "factor_value", None),
    ("lexdom.structure", "is_efficient_open_domination", None),
    ("lexdom.structure", "is_efficient_closed_domination", None),
    ("lexdom.structure", "check_hypothesis", None),
    ("lexdom.formula", "predict", None),
    ("lexdom.formula", "construct_witness", None),
    ("lexdom.verify", "verify_pair", _verify_info),
    ("lexdom.cli", "main", None),
)


class Tracer:
    """Records spans while installed and ``active``; ``paused()`` lets the
    benchmark call lexdom for its own answer checks without recording."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = annotate(args, kwargs, result, error) if annotate else None
                if error and info is None:
                    info = {"error": error}
                spans[index] = Span(name, start, end, parent, self.op, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every lexdom module binding of each target, and Graph
        construction.  Call after ``import lexdom``."""
        modules = [m for n, m in sys.modules.items() if n == "lexdom" or n.startswith("lexdom.")]
        for module_name, attr, annotate in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            layer = module_name.split(".")[1]
            wrapper = self._wrap(f"{layer}.{attr}", original, annotate)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, value))
                        setattr(module, binding, wrapper)
        graph_cls = sys.modules["lexdom.graph"].Graph
        original = graph_cls.__post_init__
        self._restore.append((graph_cls, "__post_init__", original))
        graph_cls.__post_init__ = self._wrap("graph.construct", original, None)

    def uninstall(self) -> None:
        for owner, binding, value in reversed(self._restore):
            setattr(owner, binding, value)
        self._restore.clear()

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        done = list(self.spans)
        self.spans.clear()
        return done


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct child spans."""
    result = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span; times in seconds from the first span."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": round(s.start - origin, 9),
                                 "end": round(s.end - origin, 9), "parent": s.parent,
                                 "op": s.op, "info": s.info}) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one round (set-up spans included) from its spans.

    ``_s`` values are self time; ``structure.factor_value_incl_s`` is the
    inclusive time of ``factor_value`` calls.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    explored = 0
    solve_self = 0.0
    cli_self = []
    for span, own in zip(spans, selfs):
        name, info = span.name, span.info or {}
        if name in ("graphio.parse_graph6", "graphio.parse_edge_list", "graphio.load_corpus"):
            add("graphio.parse_s", own)
            if name != "graphio.load_corpus":
                add("graphio.parse_calls", 1)
                add("graphio.parse_bytes", info.get("bytes", 0))
        elif name == "graphio.generate":
            add("graphio.generate_s", own)
        elif name == "graphio.write_graph6":
            add("graphio.write_graph6_s", own)
        elif name == "graph.construct":
            add("graph.construct_s", own)
            add("graph.construct_calls", 1)
        elif name == "product.lex_product":
            add("product.lex_product_s", own)
            add("product.lex_product_calls", 1)
            add("product.vertices", info.get("vertices", 0))
        elif name == "solvers.solve":
            kind = info.get("kind")
            group = "set" if kind in SET_KINDS else "roman" if kind in ROMAN_KINDS else "gamma_tR"
            add(f"solvers.solve.{group}_s", own)
            add(f"solvers.solve.{group}_explored", info.get("explored", 0))
            add("solvers.solve_calls", 1)
            if info.get("error") in REJECTIONS:
                add("solvers.rejected", 1)
            explored += info.get("explored", 0)
            solve_self += own
        elif name in ("solvers.zeta", "solvers.zeta_couples", "solvers.zeta_prime",
                      "solvers.dominating_open_packings"):
            add("solvers.zeta_s", own)
        elif name == "solvers.enumerate_optimal_v2":
            add("solvers.enumerate_optimal_v2_s", own)
        elif name == "structure.factor_value":
            add("structure.factor_value_incl_s", span.duration)
        elif name in ("structure.is_efficient_open_domination",
                      "structure.is_efficient_closed_domination"):
            add("structure.efficient_domination_s", own)
        elif name == "structure.check_hypothesis":
            add("structure.check_hypothesis_s", own)
        elif name in ("formula.predict", "formula.construct_witness"):
            add(f"{name}_s", own)
            add(f"{name}_calls", 1)
        elif name == "verify.verify_pair":
            add("verify.verify_pair_self_s", own)
            add("verify.records_fail", info.get("fail", 0))
        elif name == "cli.main":
            cli_self.append(own)
    if solve_self > 0:
        m["solvers.explored_per_s"] = explored / solve_self
    if cli_self:
        cli_self.sort()
        m["cli.main_self_ms"] = cli_self[len(cli_self) // 2] * 1000
    return m
