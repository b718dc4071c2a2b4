"""Command-line surface: solve, predict, product, witness, verify, gen.

JSON is the canonical output format: {version, command, inputs, results}
with sorted keys and no timestamps; wall-clock timing is reported in a
separate top-level field so canonical bodies can be compared byte for
byte.  TSV is a flat convenience projection of the results object.

Exit codes: 0 success; 1 verification failures or internal inconsistency;
2 malformed graph input; 3 domain/hypothesis violation; 4 size cap.
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
from .product import lex_product
from .solvers import ParameterKind, solve
from .formula import TheoremId, construct_witness, predict
from .verify import DEFAULT_PRODUCT_CAP, verify_corpus

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_CAP = 4


def _read_graph(inline: str | None, path: str | None, family: str | None) -> Graph:
    """Inline graph6, file (an edge list if its first line that is neither
    blank nor a comment starts with a digit, else graph6), or family spec."""
    sources = [s for s in (inline, path, family) if s is not None]
    if len(sources) != 1:
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


def _graph_arguments(parser: argparse.ArgumentParser, tag: str) -> None:
    parser.add_argument(f"--g6{tag}", help=f"inline graph6 for {tag or 'the graph'}")
    parser.add_argument(f"--in{tag}", dest=f"in{tag}", help="path to a graph6 or edge-list file")
    parser.add_argument(f"--family{tag}", help="family spec, e.g. path:4 or corona(cycle:3,2)")


def _get_graph(args: argparse.Namespace, tag: str) -> Graph:
    return _read_graph(getattr(args, f"g6{tag}"), getattr(args, f"in{tag}"),
                       getattr(args, f"family{tag}"))


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


def cmd_solve(args: argparse.Namespace, started: float) -> int:
    g = _get_graph(args, "")
    result = solve(g, ParameterKind(args.param), max_n=args.max_n)
    _emit("solve", {"graph": write_graph6(g).decode(), "param": args.param},
          {"param": args.param, "value": result.value,
           "witness": _witness_json(result.witness), "explored": result.explored},
          args.format, started)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace, started: float) -> int:
    g = _get_graph(args, "G")
    h = _get_graph(args, "H")
    p = predict(g, h, ParameterKind(args.param))
    results = {"param": args.param, "provenance": list(p.provenance)}
    if p.exact:
        results["exact"] = p.value
    else:
        results["lo"] = p.lo
        results["hi"] = p.hi
    _emit("predict",
          {"G": write_graph6(g).decode(), "H": write_graph6(h).decode(), "param": args.param},
          results, args.format, started)
    return EXIT_OK


def cmd_product(args: argparse.Namespace, started: float) -> int:
    g = _get_graph(args, "G")
    h = _get_graph(args, "H")
    product, _ = lex_product(g, h)
    results = {"order": product.n, "edges": product.edge_count,
               "graph6": write_graph6(product).decode()}
    if args.edge_list:
        results["edge_list"] = write_edge_list(product)
    _emit("product", {"G": write_graph6(g).decode(), "H": write_graph6(h).decode()},
          results, args.format, started)
    return EXIT_OK


def cmd_witness(args: argparse.Namespace, started: float) -> int:
    g = _get_graph(args, "G")
    h = _get_graph(args, "H")
    theorem = TheoremId(args.theorem)
    witness = construct_witness(theorem, g, h)
    _emit("witness",
          {"G": write_graph6(g).decode(), "H": write_graph6(h).decode(),
           "theorem": theorem.value},
          {"theorem": theorem.value, "witness": _witness_json(witness), "validated": True},
          args.format, started)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, started: float) -> int:
    gs = load_corpus(args.gs)
    hs = load_corpus(args.hs)
    claims = None
    if args.claims:
        claims = [TheoremId(c.strip()) for c in args.claims.split(",") if c.strip()]
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
    _emit("verify", {"gs": args.gs, "hs": args.hs, "claims": args.claims or "ALL"},
          results, args.format, started)
    return EXIT_FAILURES if report.failed else EXIT_OK


def cmd_gen(args: argparse.Namespace, started: float) -> int:
    g = generate(parse_family(args.family))
    line = write_graph6(g).decode()
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    _emit("gen", {"family": args.family},
          {"graph6": line, "order": g.n, "edges": g.edge_count}, args.format, started)
    return EXIT_OK


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
    p.add_argument("--param", required=True,
                   choices=["gamma", "gamma_p", "gamma_R", "gamma_Rp"])
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
        return args.func(args, started)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAILURES
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
