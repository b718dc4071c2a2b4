"""Command-line surface: JSON/TSV output, exit codes, and subcommands."""

import argparse
import json
import sys

import pytest

from lexdom import (
    CapExceededError,
    DomainError,
    GraphFormatError,
    HypothesisError,
    InconsistencyError,
    LexdomError,
    cli,
)
from lexdom.cli import EXIT_CAP, EXIT_DOMAIN, EXIT_FAILURES, EXIT_OK, EXIT_PARSE, main

from fresh import run_fresh
from test_graphio import BIG_FAMILIES

#: The exit codes the README documents for each class of error.
DOCUMENTED_EXIT = {
    GraphFormatError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    DomainError: EXIT_DOMAIN,
    HypothesisError: EXIT_DOMAIN,
    CapExceededError: EXIT_CAP,
    InconsistencyError: EXIT_FAILURES,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestSolve:
    def test_family_input(self, capsys):
        body = run_json(capsys, "solve", "--param", "gamma", "--family", "path:4")
        assert body["command"] == "solve"
        assert body["results"]["value"] == 2
        assert body["results"]["witness"]["kind"] == "set"

    def test_g6_input(self, capsys):
        body = run_json(capsys, "solve", "--param", "gamma_R", "--g6", "Ch")
        assert body["results"]["value"] == 3
        assert body["results"]["witness"]["kind"] == "assignment"

    def test_edge_list_file(self, capsys, data_dir):
        body = run_json(capsys, "solve", "--param", "gamma_Rp",
                        "--in", str(data_dir / "fig2.edges"))
        assert body["results"]["value"] == 9

    def test_g6_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_bytes(b"Cs\n")
        body = run_json(capsys, "solve", "--param", "gamma", "--in", str(path))
        assert body["results"]["value"] == 1

    def test_edge_list_file_with_leading_comment(self, capsys, tmp_path, data_dir):
        text = (data_dir / "fig1.edges").read_text()
        plain, commented = tmp_path / "plain.edges", tmp_path / "commented.edges"
        plain.write_text(text)
        commented.write_text("# fig1, with a comment first\n\n" + text)
        bodies = [run_json(capsys, "solve", "--param", "gamma", "--in", str(path))
                  for path in (plain, commented)]
        for body in bodies:
            body.pop("timing_ms")
        assert bodies[0] == bodies[1]

    def test_comment_only_file(self, capsys, tmp_path):
        path = tmp_path / "comment.txt"
        path.write_text("#\n")
        code, _, err = run(capsys, "solve", "--param", "gamma", "--in", str(path))
        assert code == EXIT_PARSE and "error" in err

    def test_canonical_json_stable(self, capsys):
        argv = ("solve", "--param", "gamma", "--family", "cycle:5")
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "solve", "--param", "gamma", "--family", "path:4",
                           "--format", "tsv")
        assert code == EXIT_OK
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["value"] == "2"


class TestPredict:
    def test_exact(self, capsys):
        body = run_json(capsys, "predict", "--param", "gamma_Rp",
                        "--familyG", "complete:3", "--familyH", "path:3")
        assert body["results"]["exact"] == 2
        assert body["results"]["provenance"]

    def test_interval(self, capsys):
        body = run_json(capsys, "predict", "--param", "gamma_Rp",
                        "--familyG", "cycle:5", "--familyH", "path:3")
        assert body["results"]["lo"] <= body["results"]["hi"]
        assert "exact" not in body["results"]


class TestProduct:
    def test_product(self, capsys):
        body = run_json(capsys, "product", "--familyG", "complete:2",
                        "--familyH", "complete:2", "--edge-list")
        assert body["results"]["order"] == 4
        assert body["results"]["edges"] == 6
        assert body["results"]["edge_list"].startswith("4 6")


class TestWitness:
    def test_witness(self, capsys):
        body = run_json(capsys, "witness", "--theorem", "PR_EXACT_ECD",
                        "--familyG", "path:4", "--familyH", "complete:3")
        assert body["results"]["validated"] is True
        assert body["results"]["witness"]["kind"] == "assignment"

    def test_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, "witness", "--theorem", "PR_COR_EOD",
                           "--familyG", "cycle:5", "--familyH", "complete:2")
        assert code == EXIT_DOMAIN
        assert "error" in err


class TestVerify:
    def test_verify_ok(self, capsys, tmp_path, data_dir):
        gs = tmp_path / "gs.g6"
        hs = tmp_path / "hs.g6"
        gs.write_text("Ch\n")   # P4
        hs.write_text("A_\n@\n")  # K2, K1
        code, out, _ = run(capsys, "verify", "--gs", str(gs), "--hs", str(hs))
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["results"]["failed"] == 0
        assert body["results"]["pairs"] == 2

    def test_verify_claim_filter(self, capsys, tmp_path):
        gs = tmp_path / "gs.g6"
        hs = tmp_path / "hs.g6"
        gs.write_text("Ch\n")
        hs.write_text("A_\n")
        code, out, _ = run(capsys, "verify", "--gs", str(gs), "--hs", str(hs),
                           "--claims", "GAMMA_LEX,ROMAN_LEX")
        assert code == EXIT_OK
        body = json.loads(out)
        assert set(body["results"]["totals"]) == {"GAMMA_LEX", "ROMAN_LEX"}


class TestGen:
    def test_gen(self, capsys, tmp_path):
        out_file = tmp_path / "out.g6"
        body = run_json(capsys, "gen", "--family", "corona(cycle:3,2)",
                        "--out", str(out_file))
        assert body["results"]["order"] == 9
        assert out_file.read_text().strip() == body["results"]["graph6"]


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "solve", "--param", "gamma", "--g6", "\x01bad")
        assert code == EXIT_PARSE and "error" in err

    def test_non_ascii_g6(self, capsys):
        code, out, err = run(capsys, "solve", "--param", "gamma", "--g6", "A\u00e9")
        assert code == EXIT_PARSE and not out and "offset 1" in err

    def test_non_ascii_g6_file(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"A\xff")
        code, out, err = run(capsys, "solve", "--param", "gamma", "--in", str(path))
        assert code == EXIT_PARSE and not out
        assert "byte 0xff outside graph6 range" in err and "byte offset 1" in err

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "solve", "--param", "gamma")
        assert code == EXIT_PARSE

    def test_conflicting_inputs(self, capsys):
        code, _, _ = run(capsys, "solve", "--param", "gamma",
                         "--g6", "Cs", "--family", "path:3")
        assert code == EXIT_PARSE

    def test_domain_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--param", "gamma_t",
                         "--family", "union(path:2,empty:1)")
        assert code == EXIT_DOMAIN
        for big, n in BIG_FAMILIES:
            code, out, err = run(capsys, "gen", "--family", big)
            assert (code, out) == (EXIT_DOMAIN, "")
            assert err == f"error: graph order must be in 1..128, got {n}\n"

    def test_cap_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--param", "gamma",
                         "--family", "path:30", "--max-n", "10")
        assert code == EXIT_CAP

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXDOM_MAX_N", "5")
        code, _, _ = run(capsys, "solve", "--param", "gamma", "--family", "path:8")
        assert code == EXIT_CAP

    def test_env_cap_leaves_gamma_tR_cap(self, capsys, monkeypatch):
        # LEXDOM_MAX_N sets the subset cap only; gamma_tR keeps its own cap
        monkeypatch.setenv("LEXDOM_MAX_N", "20")
        code, _, err = run(capsys, "solve", "--param", "gamma_tR", "--family", "cycle:15")
        assert code == EXIT_CAP
        assert "order 15 exceeds the gamma_tR cap 14" in err

    def test_empty_env_cap_is_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXDOM_MAX_N", "")
        body = run_json(capsys, "solve", "--param", "gamma", "--family", "path:8")
        assert body["results"]["value"] == 3

    def test_non_integer_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXDOM_MAX_N", "ten")
        code, _, err = run(capsys, "solve", "--param", "gamma", "--family", "path:8")
        assert code == EXIT_DOMAIN
        assert "LEXDOM_MAX_N" in err

    @pytest.mark.parametrize("name, data, where", [
        ("bad.edges", b"# fig\n\n3 1\n0 5\n", "endpoint out of range for n=3 (line 4)"),
        ("bad.g6", b"A_?\n", "trailing bytes after graph6 payload (byte offset 2)"),
        ("order.edges", b"0 0\n", "graph order must be in 1..128, got 0 (line 1)"),
        ("big.edges", b"# big\n200 0\n", "graph order must be in 1..128, got 200 (line 2)"),
    ])
    def test_malformed_file(self, capsys, tmp_path, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "solve", "--param", "gamma", "--in", str(path))
        assert code == EXIT_PARSE and not out and where in err

    def test_inconsistency(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise InconsistencyError("exact statements disagree")

        monkeypatch.setattr(cli, "solve", disagree)
        code, out, err = run(capsys, "solve", "--param", "gamma", "--family", "path:4")
        assert code == EXIT_FAILURES and not out
        assert err.startswith("inconsistency: exact statements disagree")

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve", "--param", "gamma",
                         "--in", str(tmp_path / "none.g6"))
        assert code == EXIT_PARSE

    def test_packing_cap(self, capsys):
        # the open-packing walk is refused like every other search
        code, out, err = run(capsys, "witness", "--theorem", "PR_UB_PACKING",
                             "--familyG", "cycle:27", "--familyH", "complete:2")
        assert code == EXIT_CAP and not out
        assert err == "error: order 27 exceeds the open-packing cap 26\n"

    @pytest.mark.parametrize("error", [*_subclasses(LexdomError), OSError, BrokenPipeError],
                             ids=lambda cls: cls.__name__)
    def test_every_error_has_one_exit_code(self, capsys, monkeypatch, error):
        # a new error class without an entry would escape main as a traceback
        entries = [cls for cls in cli.REFUSALS if issubclass(error, cls)]
        assert len(entries) == 1
        code, prefix = cli.REFUSALS[entries[0]]
        assert code == DOCUMENTED_EXIT[entries[0]]

        def fail(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, "solve", fail)
        assert run(capsys, "solve", "--param", "gamma", "--family", "path:4") == (
            code, "", f"{prefix}: refused\n")

    def test_broken_pipe(self, capsys, monkeypatch):
        # the body is written inside main's error handling
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code, _, err = run(capsys, "solve", "--param", "gamma", "--family", "path:4")
        assert code == EXIT_PARSE and err.startswith("error: ")


def _modules_loaded(prelude: str) -> set[str]:
    return set(run_fresh(f"{prelude}import sys; print(' '.join(sys.modules))").split())


ANALYSIS_LAYERS = {"lexdom.structure", "lexdom.formula", "lexdom.verify"}


def _layers_after_main(*argv: str) -> set[str]:
    """The analysis layers a fresh process has loaded after ``cli.main(argv)``."""
    prelude = ("import contextlib, io\nfrom lexdom import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert cli.main({list(argv)!r}) == 0\n")
    return _modules_loaded(prelude) & ANALYSIS_LAYERS


def test_cold_start_loads_no_dataclasses():
    # Every lexdom command is a fresh process that pays for each module it
    # imports; dataclasses alone brings inspect, ast, dis and tokenize.
    # Compared with a bare start, so that a site hook's preloads do not count.
    added = _modules_loaded("import lexdom.cli; ") - _modules_loaded("")
    assert "lexdom.cli" in added and "dataclasses" not in added
    assert not added & ANALYSIS_LAYERS


@pytest.mark.parametrize("argv, layers", [
    (("solve", "--param", "gamma_R", "--g6", "FCZbg"), set()),
    (("product", "--familyG", "path:3", "--familyH", "cycle:4"), set()),
    (("gen", "--family", "corona(cycle:3,2)"), set()),
    (("predict", "--param", "gamma_Rp", "--familyG", "path:3", "--familyH", "cycle:4"),
     {"lexdom.structure", "lexdom.formula"}),
    (("witness", "--theorem", "GAMMA_LEX", "--familyG", "path:3", "--familyH", "cycle:4"),
     {"lexdom.structure", "lexdom.formula"}),
    (("verify", "--gs", "{data}/trees_2_9.g6", "--hs", "{data}/all_h_2_4.g6",
      "--claims", "GAMMA_LEX", "--max-product", "6"), ANALYSIS_LAYERS),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_cold_start_loads_only_the_layers_a_command_runs(data_dir, argv, layers):
    assert _layers_after_main(*(a.format(data=data_dir) for a in argv)) == layers


def test_parser_reads_the_moved_names():
    # build_parser takes its choices and defaults from solvers and product,
    # which formula and verify re-export as the same objects
    from lexdom.formula import PREDICT_KINDS, TheoremId
    from lexdom.verify import DEFAULT_PRODUCT_CAP

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices

    def option(command, dest):
        return next(a for a in sub[command]._actions if a.dest == dest)

    assert option("witness", "theorem").choices == [t.value for t in TheoremId]
    assert option("predict", "param").choices == [k.value for k in PREDICT_KINDS]
    assert option("verify", "max_product").default == DEFAULT_PRODUCT_CAP
