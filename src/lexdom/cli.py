"""Command-line surface: solve, predict, product, witness, verify, gen.

JSON is the canonical output format: {version, command, inputs, results}
with sorted keys and no timestamps; wall-clock timing is reported in a
separate top-level field so canonical bodies can be compared byte for
byte.  TSV is a flat convenience projection of the results object.

Exit codes: 0 success; 1 verification failures or internal inconsistency;
2 malformed graph input; 3 domain/hypothesis violation; 4 size cap.
``REFUSALS`` maps each error class to its code and stderr prefix.

Each process compiles every module it imports, so a command imports only
the layers it runs: ``solve``, ``product`` and ``gen`` need no analysis
layer, ``predict`` and ``witness`` import ``formula`` (and with it
``structure``), and ``verify`` imports ``verify`` as well.  The parser
reads its choices and defaults from ``solvers`` and ``product``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import (
    CapExceededError,
    DomainError,
    GraphFormatError,
    HypothesisError,
    InconsistencyError,
)
from .graph import Graph, RomanAssignment, bits
from .graphio import (
    generate,
    load_corpus,
    parse_edge_list,
    parse_family,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .product import DEFAULT_PRODUCT_CAP, lex_product
from .solvers import PREDICT_KINDS, ParameterKind, TheoremId, solve

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CAP = 4

#: The exit code and the stderr prefix of each error ``main`` reports.
#: Every ``LexdomError`` subclass has an entry; an ``OSError`` (a missing
#: file, a broken pipe) counts as malformed input.
REFUSALS = {
    GraphFormatError: (EXIT_PARSE, "error"),
    OSError: (EXIT_PARSE, "error"),
    DomainError: (EXIT_DOMAIN, "error"),
    HypothesisError: (EXIT_DOMAIN, "error"),
    CapExceededError: (EXIT_CAP, "error"),
    InconsistencyError: (EXIT_FAILURES, "inconsistency"),
}


def _graph_arguments(parser: argparse.ArgumentParser, tag: str) -> None:
    parser.add_argument(f"--g6{tag}", help=f"inline graph6 for {tag or 'the graph'}")
    parser.add_argument(f"--in{tag}", dest=f"in{tag}", help="path to a graph6 or edge-list file")
    parser.add_argument(f"--family{tag}", help="family spec, e.g. path:4 or corona(cycle:3,2)")


def _get_graph(args: argparse.Namespace, tag: str) -> Graph:
    """The graph of ``--g6<tag>`` (inline graph6), ``--in<tag>`` (a file:
    an edge list if its first line that is neither blank nor a comment
    starts with a digit, else graph6) or ``--family<tag>``."""
    inline, path, family = (getattr(args, f"{opt}{tag}") for opt in ("g6", "in", "family"))
    if [inline, path, family].count(None) != 2:
        raise GraphFormatError("provide exactly one of --g6, --in, --family")
    if inline is not None:
        return parse_graph6(inline)
    if family is not None:
        return generate(parse_family(family))
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("ascii", errors="replace")
    first = next((ln for ln in map(str.strip, text.splitlines())
                  if ln and not ln.startswith("#")), "")
    if first[:1].isdigit():
        return parse_edge_list(text)
    # the raw bytes, so an error names the offending byte and its offset
    return parse_graph6(data)


def _get_pair(args: argparse.Namespace) -> tuple[Graph, Graph, dict]:
    """G, H, and the inputs entry that gives both in graph6."""
    g, h = _get_graph(args, "G"), _get_graph(args, "H")
    return g, h, {"G": write_graph6(g).decode(), "H": write_graph6(h).decode()}


def _witness_json(witness) -> dict:
    if isinstance(witness, RomanAssignment):
        return {"kind": "assignment", "weights": list(witness.weights),
                "weight": witness.weight}
    return {"kind": "set", "vertices": list(bits(witness)), "size": witness.bit_count()}


def _emit(command: str, inputs: dict, results: dict, fmt: str, started: float) -> None:
    if fmt == "tsv":
        for key, value in sorted(_flatten(results).items()):
            sys.stdout.write(f"{key}\t{value}\n")
        return
    body = {
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }
    json.dump(body, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            child = f"{prefix}.{key}" if prefix else str(key)
            flat.update(_flatten(value, child))
    elif isinstance(obj, (list, tuple)):
        flat[prefix] = " ".join(str(x) for x in obj)
    else:
        flat[prefix] = obj
    return flat


def cmd_solve(args: argparse.Namespace) -> tuple[dict, dict]:
    g = _get_graph(args, "")
    result = solve(g, ParameterKind(args.param), max_n=args.max_n)
    return ({"graph": write_graph6(g).decode(), "param": args.param},
            {"param": args.param, "value": result.value,
             "witness": _witness_json(result.witness), "explored": result.explored})


def cmd_predict(args: argparse.Namespace) -> tuple[dict, dict]:
    from .formula import predict
    g, h, inputs = _get_pair(args)
    p = predict(g, h, ParameterKind(args.param))
    results = {"param": args.param, "provenance": list(p.provenance)}
    if p.exact:
        results["exact"] = p.value
    else:
        results["lo"] = p.lo
        results["hi"] = p.hi
    return {**inputs, "param": args.param}, results


def cmd_product(args: argparse.Namespace) -> tuple[dict, dict]:
    g, h, inputs = _get_pair(args)
    product, _ = lex_product(g, h)
    results = {"order": product.n, "edges": product.edge_count,
               "graph6": write_graph6(product).decode()}
    if args.edge_list:
        results["edge_list"] = write_edge_list(product)
    return inputs, results


def cmd_witness(args: argparse.Namespace) -> tuple[dict, dict]:
    from .formula import construct_witness
    g, h, inputs = _get_pair(args)
    theorem = TheoremId(args.theorem)
    witness = construct_witness(theorem, g, h)
    return ({**inputs, "theorem": theorem.value},
            {"theorem": theorem.value, "witness": _witness_json(witness), "validated": True})


def cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, int]:
    from .verify import verify_corpus
    gs = load_corpus(args.gs)
    hs = load_corpus(args.hs)
    claims = None
    if args.claims:
        claims = []
        for name in filter(None, map(str.strip, args.claims.split(","))):
            try:
                claims.append(TheoremId(name))
            except ValueError:
                raise DomainError(f"unknown claim id {name!r}") from None
    report = verify_corpus(gs, hs, claims,
                           max_product_order=args.max_product)
    results = {
        "pairs": report.pairs,
        "failed": report.failed,
        "totals": {claim: dict(counts) for claim, counts in report.totals},
        "failures": [
            {"G": g6g, "H": g6h, "claim": rec.claim,
             "predicted": repr(rec.predicted), "measured": repr(rec.measured),
             "detail": rec.detail}
            for g6g, g6h, rec in report.failures
        ],
    }
    return ({"gs": args.gs, "hs": args.hs, "claims": args.claims or "ALL"}, results,
            EXIT_FAILURES if report.failed else EXIT_OK)


def cmd_gen(args: argparse.Namespace) -> tuple[dict, dict]:
    g = generate(parse_family(args.family))
    line = write_graph6(g).decode()
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    return {"family": args.family}, {"graph6": line, "order": g.n, "edges": g.edge_count}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexdom",
        description="Exact domination-type invariants of graphs and lexicographic products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("solve", help="compute one parameter with a witness")
    p.add_argument("--param", required=True, choices=[k.value for k in ParameterKind])
    p.add_argument("--max-n", type=int, default=None, help="override the search cap")
    _graph_arguments(p, "")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("predict", help="predict a product parameter from factor data")
    p.add_argument("--param", required=True, choices=[k.value for k in PREDICT_KINDS])
    _graph_arguments(p, "G")
    _graph_arguments(p, "H")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("product", help="construct the lexicographic product")
    p.add_argument("--edge-list", action="store_true", help="include the edge-list text")
    _graph_arguments(p, "G")
    _graph_arguments(p, "H")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("witness", help="build and validate a theorem's witness")
    p.add_argument("--theorem", required=True, choices=[t.value for t in TheoremId])
    _graph_arguments(p, "G")
    _graph_arguments(p, "H")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run a verification campaign over corpora")
    p.add_argument("--gs", required=True, help="graph6 corpus file for G factors")
    p.add_argument("--hs", required=True, help="graph6 corpus file for H factors")
    p.add_argument("--claims", default=None, help="comma-separated claim ids (default all)")
    p.add_argument("--max-product", type=int, default=DEFAULT_PRODUCT_CAP)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--family", required=True)
    p.add_argument("--out", default=None, help="append the graph6 line to this file")
    common(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        inputs, results, *status = args.func(args)
        _emit(args.command, inputs, results, args.format, started)
        return status[0] if status else EXIT_OK
    except tuple(REFUSALS) as exc:
        # no class of the table derives from another, so the first one in
        # the error's MRO is its only entry
        code, prefix = next(REFUSALS[cls] for cls in type(exc).__mro__ if cls in REFUSALS)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
