"""The four benchmark workloads: frozen input pools, seeded op lists, and
the pinned-answer checks that decide whether an op failed.

Every op is one call (or one ``lex_product`` + ``solve`` pair, or one CLI
process) whose result is reduced by ``Op.answer`` to a JSON value and
compared with ``pins/<workload>.json``.  Pins are keyed by input, and
cover each workload's whole pool, so every seed's sample is checked.
``Op.validate`` additionally re-checks witnesses against their
definitions through the public predicates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import lexdom as lx
from lexdom import cli as lx_cli

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
PINS = BENCH / "pins"
#: Data paths as the CLI ops pass them: relative to the checkout root,
#: which is the working directory of every run.
REL_DATA = "perfbench/data"

WORKLOADS = ("factor-solve", "product-solve", "verify-sweep", "cli")

SET_KINDS = ("gamma", "gamma_t", "gamma_p", "rho", "rho_o")
BASE_KINDS = SET_KINDS + ("gamma_R", "gamma_Rp")
ZETAS = ("zeta", "zeta_prime", "zeta_couples")
#: Kinds that refuse a graph with an isolated vertex.
NEEDS_NO_ISOLATED = frozenset({"gamma_t", "gamma_tR", "zeta", "zeta_couples"})
PRODUCT_KINDS = ("gamma", "gamma_p", "gamma_R", "gamma_Rp", "rho")
#: Product order cap passed explicitly to every product op.
PRODUCT_CAP = 45
#: Product cap of the verification sweep (the library default, pinned here).
SWEEP_CAP = 24


@dataclass
class Op:
    key: str
    run: Callable[[], object]  # the timed call into lexdom
    answer: Callable[[object], object]  # JSON form compared with the pin
    validate: Callable[[object], str | None] = lambda result: None
    group: str = ""
    inputs: tuple = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    pins: dict
    #: Checks over a whole round: (ops, results) -> failure reason or None.
    round_checks: list[Callable[[list[Op], list], str | None]] = field(default_factory=list)
    #: Clear every cache before each op, as a fresh CLI process starts cold.
    per_op_reset: bool = False


def _lexdom_caches() -> list:
    """Every memoized function of the package, found before any tracing."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "lexdom" or name.startswith("lexdom."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


CACHES = _lexdom_caches()
#: The memoized factor solver itself, for its hit/miss counters.
FACTOR_VALUE = lx.structure.factor_value


def clear_caches() -> None:
    for cached in CACHES:
        cached.cache_clear()


def digest(value) -> str:
    data = value if isinstance(value, (bytes, str)) else repr(value)
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def jsonable(value):
    return json.loads(json.dumps(value))


def check_op(op: Op, result, pins: dict) -> str | None:
    """Failure reason for one op's result, or None when it is correct."""
    if op.key not in pins:
        return f"no pinned answer for {op.key!r}"
    got = jsonable(op.answer(result))
    if got != pins[op.key]:
        return f"answer {got!r} differs from pinned {pins[op.key]!r}"
    return op.validate(result)


def load_pins(name: str) -> dict:
    path = PINS / f"{name}.json"
    with open(path) as fh:
        return json.load(fh)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# -- factor-solve -----------------------------------------------------------

#: Single graphs solved for every seed: (source, kinds).  Sizes keep one
#: round near three seconds at the seed commit; path:24 set kinds alone
#: would take several seconds each.
FACTOR_CORE = (
    ("path:14", BASE_KINDS + ("gamma_tR",) + ZETAS),
    ("path:16", BASE_KINDS),
    ("path:18", BASE_KINDS),
    ("cycle:14", BASE_KINDS + ("gamma_tR",) + ZETAS),
    ("cycle:16", BASE_KINDS),
    ("cycle:18", BASE_KINDS),
    ("cycle:20", BASE_KINDS),
    ("star:13", BASE_KINDS + ("gamma_tR",)),
    ("star:19", BASE_KINDS),
    ("star:25", BASE_KINDS),
    ("corona(path:7,1)", BASE_KINDS + ("gamma_tR",)),
    ("corona(cycle:7,1)", BASE_KINDS + ("gamma_tR",) + ZETAS),
    ("corona(path:8,1)", BASE_KINDS),
    ("corona(cycle:8,1)", BASE_KINDS),
    ("fig1", BASE_KINDS + ("gamma_tR",) + ZETAS),
    ("fig2", BASE_KINDS + ZETAS),
)
#: Tree orders and sample_8 edge-count strata that the seed draws from.
TREE_ORDERS = (6, 7, 8, 9)
SAMPLE_STRATA = 4
#: Graphs drawn per stratum.  With one, the pick alone moved op_p50_ms by
#: 13% (quartile spread over 40 seeds at fixed per-op costs); with two, by 4%.
PICKS_PER_STRATUM = 2
PICK_KINDS = BASE_KINDS + ("gamma_tR",) + ZETAS


def read_graph(source: str) -> lx.Graph:
    if source in ("fig1", "fig2"):
        return lx.parse_edge_list((DATA / f"{source}.edges").read_text())
    return lx.generate(lx.parse_family(source))


def pick_strata() -> list[list[lx.Graph]]:
    """Corpus graphs grouped so that graphs of one group cost about the
    same: trees by order, and sample_8 graphs (those without isolated
    vertices, so every kind applies) by edge count."""
    trees = lx.load_corpus(DATA / "trees_2_9.g6")
    strata = [[t for t in trees if t.n == n] for n in TREE_ORDERS]
    dense = sorted((g for g in lx.load_corpus(DATA / "sample_8.g6")
                    if not g.has_isolated_vertex()), key=lambda g: g.edge_count)
    size = -(-len(dense) // SAMPLE_STRATA)
    strata.extend(dense[i:i + size] for i in range(0, len(dense), size))
    return strata


def _roman_ok(kind: str):
    return {"gamma_R": lx.is_rdf, "gamma_Rp": lx.is_prdf, "gamma_tR": lx.is_trdf}[kind]


def solve_answer(res) -> list:
    w = res.witness
    return [res.value, w if isinstance(w, int) else "".join(map(str, w.weights))]


def validate_solve(g: lx.Graph, kind: str, res) -> str | None:
    w = res.witness
    if kind in SET_KINDS:
        ok = lx.is_feasible(g, w, lx.ParameterKind(kind)) and w.bit_count() == res.value
    else:
        ok = _roman_ok(kind)(g, w) and w.weight == res.value
    return None if ok else f"witness fails the {kind} definition"


def factor_op(g: lx.Graph, kind: str) -> Op:
    key = f"{lx.write_graph6(g).decode()}|{kind}"
    if kind == "zeta":
        return Op(key, lambda: lx.zeta(g), lambda r: [r[0], *r[1]],
                  lambda r: _validate_zeta(g, r[0], [r[1]]))
    if kind == "zeta_couples":
        return Op(key, lambda: lx.zeta_couples(g),
                  lambda r: [len(r), digest(sorted(r))],
                  lambda r: _validate_zeta(g, None, r))
    if kind == "zeta_prime":
        return Op(key, lambda: lx.zeta_prime(g), lambda r: list(r) if r else None,
                  lambda r: _validate_zeta_prime(g, r))
    return Op(key, lambda: lx.solve(g, kind), solve_answer,
              lambda r: validate_solve(g, kind, r))


def _validate_zeta(g: lx.Graph, value, couples) -> str | None:
    weights = {2 * a.bit_count() + 3 * b.bit_count() for a, b in couples}
    if value is not None and weights != {value}:
        return "couple weight differs from the zeta value"
    if len(weights) > 1:
        return "optimal couples of different weights"
    if not all(lx.is_dominating_couple(g, a, b) for a, b in couples):
        return "returned pair is not a dominating couple"
    return None


def _validate_zeta_prime(g: lx.Graph, r) -> str | None:
    if r is None:
        return None
    value, s = r
    gamma, rho_o = lx.ParameterKind.gamma, lx.ParameterKind.rho_o
    if not (lx.is_feasible(g, s, gamma) and lx.is_feasible(g, s, rho_o)):
        return "zeta' set is not a dominating open packing"
    s0 = sum(1 for v in lx.bits(s) if not g.adj[v] & s)
    if 4 * s0 + 2 * (s.bit_count() - s0) != value:
        return "zeta' weight does not match its set"
    return None


def factor_ops(seed: int | None) -> list[Op]:
    """The fixed graphs plus seeded picks from each stratum, in seeded
    order; ``seed=None`` gives the whole pool unshuffled."""
    ops = [factor_op(read_graph(src), k) for src, kinds in FACTOR_CORE for k in kinds]
    rng = _rng("factor-solve", seed)
    for stratum in pick_strata():
        for g in (stratum if seed is None else rng.sample(stratum, PICKS_PER_STRATUM)):
            ops.extend(factor_op(g, k) for k in PICK_KINDS)
    if seed is not None:
        rng.shuffle(ops)
    return ops


# -- product-solve ----------------------------------------------------------

_ALL = " ".join(PRODUCT_KINDS)
#: (G, H, kinds) on 30-45 product vertices.  The five fig2 products of
#: acceptance criterion 2 take every kind; elsewhere a kind is listed when
#: it finished within about 0.09 s at the seed commit, which keeps one
#: round near four seconds.  H = K3/N3 widens cycle/path beyond K2/N2/P3.
PRODUCT_POOL = (
    ("fig2", "complete:2", _ALL), ("fig2", "empty:2", _ALL), ("fig2", "path:3", _ALL),
    ("fig2", "complete:3", _ALL), ("fig2", "empty:3", _ALL),
    ("cycle:10", "path:3", _ALL), ("cycle:11", "path:3", _ALL),
    ("cycle:12", "path:3", "gamma_R gamma_Rp rho"), ("cycle:13", "path:3", "gamma_p"),
    ("cycle:14", "path:3", "gamma_p"),
    ("cycle:10", "complete:3", _ALL), ("cycle:11", "complete:3", _ALL),
    ("cycle:12", "complete:3", "gamma_p gamma_R gamma_Rp"),
    ("cycle:13", "complete:3", "gamma_p gamma_Rp"), ("cycle:14", "complete:3", "gamma_p gamma_Rp"),
    ("cycle:10", "empty:3", "gamma_p gamma_Rp rho"), ("cycle:11", "empty:3", "gamma_p gamma_Rp rho"),
    ("cycle:13", "empty:3", "gamma_p"), ("cycle:14", "empty:3", "gamma_p"),
    ("cycle:15", "empty:3", "gamma_p"),
    ("path:10", "path:3", "gamma gamma_p gamma_R gamma_Rp"),
    ("path:11", "path:3", "gamma_p gamma_R gamma_Rp"), ("path:12", "path:3", "gamma_R gamma_Rp rho"),
    ("path:13", "path:3", "gamma_Rp"), ("path:15", "path:3", "gamma_Rp"),
    ("path:10", "complete:3", "gamma gamma_p gamma_R gamma_Rp"),
    ("path:11", "complete:3", "gamma_p gamma_R gamma_Rp rho"),
    ("path:12", "complete:3", "gamma_R gamma_Rp"), ("path:13", "complete:3", "gamma_Rp"),
    ("path:14", "complete:3", "gamma_Rp"), ("path:15", "complete:3", "gamma_Rp"),
    ("path:10", "empty:3", "gamma_Rp rho"), ("path:13", "empty:3", "gamma_p"),
    ("cycle:15", "complete:2", "gamma_R gamma_Rp"), ("cycle:16", "complete:2", "gamma_p gamma_Rp"),
    ("cycle:17", "complete:2", "gamma_p gamma_Rp"), ("cycle:18", "complete:2", "gamma_Rp"),
    ("cycle:19", "complete:2", "gamma_p"), ("cycle:20", "complete:2", "gamma_p"),
    ("cycle:22", "complete:2", "gamma_p"),
    ("path:15", "complete:2", "gamma_R gamma_Rp"), ("path:16", "complete:2", "gamma_Rp"),
    ("path:17", "complete:2", "gamma_Rp"), ("path:18", "complete:2", "gamma_Rp"),
    ("cycle:15", "empty:2", "gamma_p"), ("cycle:17", "empty:2", "gamma_p"),
    ("cycle:18", "empty:2", "gamma_p"), ("cycle:19", "empty:2", "gamma_p"),
    ("path:17", "empty:2", "gamma_p"),
)


def product_op(gname: str, hname: str, g: lx.Graph, h: lx.Graph, kind: str) -> Op:
    def run():
        product, _ = lx.lex_product(g, h, max_order=PRODUCT_CAP)
        return product, lx.solve(product, kind, max_n=PRODUCT_CAP)

    return Op(f"{gname} o {hname}|{kind}", run,
              lambda r: [*solve_answer(r[1]), digest(lx.write_graph6(r[0]))],
              lambda r: validate_solve(r[0], kind, r[1]))


def product_ops(seed: int | None) -> list[Op]:
    """The whole pool; the seed sets the order."""
    ops = []
    for gname, hname, kinds in PRODUCT_POOL:
        g, h = read_graph(gname), read_graph(hname)
        ops.extend(product_op(gname, hname, g, h, k) for k in kinds.split())
    if seed is not None:
        _rng("product-solve", seed).shuffle(ops)
    return ops


# -- verify-sweep -----------------------------------------------------------

#: The two sweeps: (label, G corpus, H corpus, H filter).
SWEEPS = (
    ("connected_g_2_5 x all_h_2_4", "connected_g_2_5.g6", "all_h_2_4.g6", lambda h: True),
    ("sample_8 x all_h_2_4[n<=3]", "sample_8.g6", "all_h_2_4.g6", lambda h: h.n <= 3),
)
_OUTCOME_LETTER = {"pass": "P", "fail": "F", "skip": "S", "indeterminate": "I"}


def verify_answer(report) -> list:
    letters = "".join(_OUTCOME_LETTER[r.outcome] for r in report.records)
    return [letters, digest([(r.claim, r.outcome, repr(r.predicted), repr(r.measured), r.detail)
                             for r in report.records])]


def sweep_pairs() -> list[tuple[str, lx.Graph, lx.Graph]]:
    pairs = []
    for label, gfile, hfile, keep in SWEEPS:
        gs = lx.load_corpus(DATA / gfile)
        hs = [h for h in lx.load_corpus(DATA / hfile) if keep(h)]
        pairs.extend((label, g, h) for g in gs for h in hs)
    return pairs


def verify_ops(seed: int | None) -> list[Op]:
    ops = []
    for label, g, h in sweep_pairs():
        key = f"{lx.write_graph6(g).decode()}|{lx.write_graph6(h).decode()}"
        ops.append(Op(key, (lambda g=g, h=h: lx.verify_pair(g, h, max_product_order=SWEEP_CAP)),
                      verify_answer, group=label, inputs=(g, h)))
    if seed is not None:
        _rng("verify-sweep", seed).shuffle(ops)
    return ops


def sweep_totals(ops: list[Op], results: list) -> dict:
    """verify_corpus-style totals per sweep: {label: {claim: {outcome: n}}}."""
    totals: dict = {}
    for op, report in zip(ops, results):
        per_claim = totals.setdefault(op.group, {})
        for r in report.records:
            counts = per_claim.setdefault(r.claim, {})
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
    return totals


def check_sweep_totals(pins: dict):
    def check(ops, results):
        if any(r is None for r in results):
            return "sweep totals not checked: some pairs raised"
        got = sweep_totals(ops, results)
        for label, want in pins["_totals"].items():
            if got.get(label) != want["totals"]:
                return f"sweep totals of {label} differ from verify_corpus at the seed commit"
        return None
    return check


# -- cli --------------------------------------------------------------------

CLI_KINDS = ("gamma", "gamma_t", "gamma_p", "rho", "rho_o", "gamma_R", "gamma_Rp", "gamma_tR")
CLI_PREDICT = ("gamma", "gamma_p", "gamma_R", "gamma_Rp")
CLI_H = ("complete:2", "empty:2", "path:3", "complete:3", "empty:3")
CLI_THEOREMS = ("GAMMA_LEX", "GAMMAP_LEX", "ROMAN_LEX")
CLI_FAMILIES = ("path:6", "cycle:7", "complete:4", "empty:3", "star:5", "corona(cycle:3,2)",
                "union(complete:3,empty:2)", "corona(path:4,1)", "union(path:3,cycle:4)",
                "cycle:10")
CLI_CLAIMS = (None, "GAMMA_LEX", "ROMAN_LEX,ZETA_BOUNDS", "PR_UB_CORONA,PR_LB_GENERAL",
              "PR_EQ_FACTOR")
#: Ops drawn per seed from each stratum; the strata fix the command mix.
CLI_STRATA = (("solve-g6", 20), ("solve-g6-tsv", 15), ("predict", 15), ("witness", 10),
              ("product", 10), ("predict-tsv", 10), ("solve-in", 5), ("gen", 5),
              ("solve-family", 5), ("verify", 5))


def cli_pool() -> dict[str, list[list[str]]]:
    """Every argv the cli workload can draw, by stratum."""
    strata: dict[str, list[list[str]]] = {name: [] for name, _ in CLI_STRATA}
    lines = [ln.strip() for ln in (DATA / "oracle_2_7.g6").read_text().splitlines() if ln.strip()]
    for i, line in enumerate(lines):
        g = lx.parse_graph6(line)
        j = i // 6
        slot = i % 6
        h = CLI_H[j % len(CLI_H)]
        if slot in (0, 1):
            kind = CLI_KINDS[j % len(CLI_KINDS)]
            if kind in NEEDS_NO_ISOLATED and g.has_isolated_vertex():
                kind = "gamma"
            argv = ["solve", "--param", kind, "--g6", line]
            strata["solve-g6" if slot == 0 else "solve-g6-tsv"].append(
                argv if slot == 0 else argv + ["--format", "tsv"])
        elif slot in (2, 5):
            argv = ["predict", "--param", CLI_PREDICT[j % 4], "--g6G", line, "--familyH", h]
            strata["predict" if slot == 2 else "predict-tsv"].append(
                argv if slot == 2 else argv + ["--format", "tsv"])
        elif slot == 3:
            strata["witness"].append(["witness", "--theorem", CLI_THEOREMS[j % 3],
                                      "--g6G", line, "--familyH", h])
        else:
            argv = ["product", "--g6G", line, "--familyH", h]
            strata["product"].append(argv + ["--edge-list"] if j % 2 else argv)
    for name in ("fig1", "fig2"):
        for kind in BASE_KINDS:
            strata["solve-in"].append(["solve", "--param", kind, "--in",
                                       f"{REL_DATA}/{name}.edges"])
    for fam in CLI_FAMILIES:
        strata["gen"].append(["gen", "--family", fam])
        strata["gen"].append(["gen", "--family", fam, "--format", "tsv"])
        for kind in BASE_KINDS:
            strata["solve-family"].append(["solve", "--param", kind, "--family", fam,
                                           "--format", "tsv"])
    for claims in CLI_CLAIMS:
        argv = ["verify", "--gs", f"{REL_DATA}/cli_gs.g6", "--hs", f"{REL_DATA}/cli_hs.g6"]
        if claims:
            argv += ["--claims", claims]
        strata["verify"].append(argv)
        strata["verify"].append(argv + ["--format", "tsv"])
    return strata


def cli_answer(result) -> list:
    """(exit code, digest of stdout with the timing field removed)."""
    code, out = result
    try:
        body = json.loads(out)
    except ValueError:
        return [code, digest(out)]
    body.pop("timing_ms", None)
    return [code, digest(json.dumps(body, sort_keys=True))]


def emitted_bytes(out: str) -> int:
    """Length of a CLI body without the digits of ``timing_ms``, which vary
    from call to call."""
    return len(re.sub(r'"timing_ms": [-+.0-9e]+', '"timing_ms": ', out))


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_cli_process(argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "lexdom.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    """cli.main with captured stdout/stderr; the caller clears caches."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lx_cli.main(list(argv))
    return code, out.getvalue()


def cli_argvs(seed: int) -> list[list[str]]:
    rng = _rng("cli", seed)
    pool = cli_pool()
    chosen = [argv for name, count in CLI_STRATA for argv in rng.sample(pool[name], count)]
    rng.shuffle(chosen)
    return chosen


def cli_ops(argvs: list[list[str]], in_process: bool) -> list[Op]:
    runner = run_cli_inprocess if in_process else run_cli_process
    return [Op(cli_key(a), (lambda a=a: runner(a)), cli_answer) for a in argvs]


# -- assembly ---------------------------------------------------------------


def build(name: str, seed: int, in_process_cli: bool = False) -> Workload:
    """The seeded op list of one workload with its pins and round checks."""
    pins = load_pins(name)
    if name == "factor-solve":
        return Workload(name, factor_ops(seed), pins)
    if name == "product-solve":
        return Workload(name, product_ops(seed), pins)
    if name == "verify-sweep":
        return Workload(name, verify_ops(seed), pins, [check_sweep_totals(pins)])
    if name == "cli":
        return Workload(name, cli_ops(cli_argvs(seed), in_process_cli), pins,
                        per_op_reset=True)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
