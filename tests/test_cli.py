import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from csll.cli import main
from csll.parser import parse_program

from .conftest import CORPUS, CORPUS_FILES, LOOP_TEXT, lock_text

GOLDEN = Path(__file__).resolve().parent / "golden"

CHECK_SCHEMA = {
    "type": "object",
    "required": ["file", "verdict", "definitions"],
    "properties": {
        "verdict": {"enum": ["accepted", "type-error", "invalid"]},
        "definitions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "well_typed", "diagnostics", "validity"],
                "properties": {
                    "name": {"type": "string"},
                    "well_typed": {"type": "boolean"},
                    "diagnostics": {"type": "array", "items": {"type": "string"}},
                    "validity": {
                        "type": ["object", "null"],
                        "required": ["verdict", "reason", "witness"],
                        "properties": {
                            "verdict": {"enum": ["valid", "invalid"]},
                            "reason": {"type": "string"},
                            "witness": {"type": ["array", "null"], "items": {"type": "integer"}},
                        },
                        "additionalProperties": False,
                    },
                    "agreement": {"type": "boolean"},
                },
            },
        },
    },
}

PROOF_SCHEMA = {
    "type": "object",
    "required": ["root", "nodes"],
    "properties": {
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "rule", "sequent", "premises", "back"],
                "properties": {
                    "id": {"type": "integer"},
                    "rule": {"type": "string"},
                    "sequent": {
                        "type": "array",
                        "items": {"type": "object",
                                  "required": ["formula", "address"]},
                    },
                    "premises": {"type": "array", "items": {"type": "integer"}},
                    "back": {"type": "boolean"},
                },
            },
        },
    },
}


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name,expected", [
    ("lock.csll", 0),
    ("omega.csll", 2),
    ("omega_server.csll", 2),
    ("cas.csll", 0),
    ("comm.csll", 0),
])
def test_check_exit_codes(capsys, name, expected):
    code, _ = run_cli(capsys, "check", str(CORPUS / name))
    assert code == expected


def test_check_rejects_definitions_that_only_invoke_each_other(tmp_path, capsys):
    path = tmp_path / "loop.csll"
    path.write_text(LOOP_TEXT, encoding="utf-8")
    code, out = run_cli(capsys, "check", str(path))
    assert code == 2 and out.count(": invalid (") == 3


def test_check_reports_witness_cycle(capsys):
    code, out = run_cli(capsys, "check", str(CORPUS / "omega.csll"))
    assert code == 2
    assert "witness cycle" in out


def test_check_json_schema_and_agreement(capsys):
    for name in ("lock.csll", "omega.csll", "cas.csll"):
        code, out = run_cli(capsys, "check", "--format", "json", str(CORPUS / name))
        doc = json.loads(out)
        jsonschema.validate(doc, CHECK_SCHEMA)
        for d in doc["definitions"]:
            assert d["agreement"] is True


def test_checker_disagreement_is_internal_error(monkeypatch, capsys):
    import csll.cli
    from csll.typecheck import ValidityReport

    real = csll.cli.proof_validity

    def flipped(g):
        v = real(g)
        return ValidityReport("invalid" if v.is_valid else "valid", v.reason, v.witness)

    monkeypatch.setattr(csll.cli, "proof_validity", flipped)
    code = main(["check", "--format", "json", str(CORPUS / "lock.csll")])
    captured = capsys.readouterr()
    assert code == 5
    assert "internal error" in captured.err
    doc = json.loads(captured.out)
    assert [d["agreement"] for d in doc["definitions"]] == [False, False]


@pytest.mark.parametrize("name", ["lock.csll", "omega.csll", "omega_server.csll",
                                  "cas.csll", "comm.csll"])
def test_golden_check_reports(capsys, name):
    _, out = run_cli(capsys, "check", "--format", "json", str(CORPUS / name))
    doc = json.loads(out)
    doc["file"] = name  # normalize the path
    golden = json.loads((GOLDEN / f"{name}.check.json").read_text())
    assert doc == golden


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_golden_explore_graphs(capsys, name):
    # state terms, state hashes and edge order, byte for byte
    _, out = run_cli(capsys, "explore", "--format", "json", str(CORPUS / name))
    assert out == (GOLDEN / f"{name}.explore.json").read_text(encoding="utf-8")


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csll"
    bad.write_text("def A(x: 1) = close\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad.csll:" in err and "expected" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_exits_1_with_one_error_line(tmp_path, capsys, kind):
    # each error line names the input
    path = tmp_path / "latin1.csll"
    if kind == "directory":
        path = CORPUS
    else:
        path.write_bytes("main(z: 1) = close z -- café\n".encode("latin-1"))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.name in err


def test_deep_input_exits_6_without_traceback(tmp_path, capsys):
    # a chain of 1200 definitions, each invoking the last, parses flat but
    # nests the checker (one frame per invocation) past Python's recursion
    # limit; lock_1000 nests the parser past it
    chain = "\n".join(["def D0(z: 1) = close z", *(f"def D{i}(z: 1) = D{i - 1}(z)" for i in range(1, 1201))])
    for name, text, command in (("chain_1200", f"{chain}\nmain(z: 1) = D1200(z)\n", "check"),
                                ("lock_1000", lock_text(1000), "explore")):
        path = tmp_path / f"{name}.csll"
        path.write_text(text)
        assert main([command, str(path)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nests too deeply" in err
        assert "Traceback" not in err and err.count("\n") == 1


def test_type_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "ill.csll"
    bad.write_text("main(z: 1) = new x : 1 { close x | close x }\n")
    code, _ = run_cli(capsys, "check", str(bad))
    assert code == 1


def test_run_det_lock(capsys):
    code, out = run_cli(capsys, "run", str(CORPUS / "lock.csll"), "--scheduler", "det")
    assert code == 0
    assert out.strip().endswith("terminal: close z")


def test_run_stopped_on_a_diverging_invocation_exits_3(tmp_path, capsys):
    # A(z) cannot step only because its unfolding never ends: not a normal form
    path = tmp_path / "loop.csll"
    path.write_text(LOOP_TEXT, encoding="utf-8")
    code, out = run_cli(capsys, "run", str(path))
    assert code == 3 and out == "diverging: A(z)\n"
    code, out = run_cli(capsys, "run", "--format", "json", str(path))
    doc = json.loads(out)
    assert code == 3 and doc["steps"] == [] and doc["final"] == "A(z)"
    assert (doc["terminated"], doc["truncated"], doc["diverging"]) == (False, False, True)
    code, out = run_cli(capsys, "run", "--format", "json", str(CORPUS / "lock.csll"))
    assert code == 0 and json.loads(out)["diverging"] is False


def test_run_budget_exhaustion(capsys):
    code, out = run_cli(capsys, "run", str(CORPUS / "omega.csll"), "--max-steps", "50")
    assert code == 4
    assert "step budget exhausted" in out


@pytest.mark.parametrize("argv", [
    ("run", "--max-steps", "-3"),
    ("explore", "--max-states", "-1"),
    ("explore", "--max-depth", "-1"),
])
def test_negative_bounds_are_usage_errors(capsys, argv):
    command, option, value = argv
    with pytest.raises(SystemExit) as exc:
        main([command, str(CORPUS / "lock.csll"), option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must not be negative, got {value}" in capsys.readouterr().err


def test_zero_bounds_are_allowed(capsys):
    code, out = run_cli(capsys, "run", str(CORPUS / "lock.csll"), "--max-steps", "0")
    assert code == 4 and out.startswith("step budget exhausted at:")
    code, out = run_cli(capsys, "explore", str(CORPUS / "lock.csll"), "--max-states", "0")
    assert code == 0 and out.startswith("states: ")


TRUNCATED = "warning: exploration truncated by bounds; verdicts are partial\n"


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_a_truncated_explore_warns_in_every_format(capsys, fmt):
    assert main(["explore", str(CORPUS / "lock.csll"), "--max-states", "1", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == TRUNCATED and captured.out


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_a_full_explore_prints_no_warning(capsys, fmt):
    assert main(["explore", str(CORPUS / "lock.csll"), "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


def test_run_random_seeds_vary(capsys):
    finals = set()
    for seed in range(8):
        _, out = run_cli(capsys, "run", str(CORPUS / "cas.csll"),
                         "--scheduler", "random", "--seed", str(seed))
        finals.add(out.strip().splitlines()[-1])
    assert len(finals) == 2


def test_explore_cas(capsys):
    code, out = run_cli(capsys, "explore", str(CORPUS / "cas.csll"))
    assert code == 0
    assert "normal forms: 2" in out
    assert "z.in1; close z" in out and "z.in2; close z" in out
    assert "fairly-terminating" in out


def test_explore_omega(capsys):
    code, out = run_cli(capsys, "explore", str(CORPUS / "omega.csll"))
    assert code == 0
    assert "normal forms: 0" in out
    assert "not-fairly-terminating" in out


def test_explore_refuses_an_ill_typed_main(tmp_path, capsys):
    # the cut's left side closes x, which it holds at 1 * 1, not at 1
    path = tmp_path / "ill.csll"
    path.write_text("main(z: 1) = new x : 1 * 1 { close x | wait x; close z }\n")
    assert main(["explore", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:1:") and "close" in captured.err


def test_explore_keeps_a_free_channel_named_like_a_binder(tmp_path):
    # in a fresh interpreter the parameter c gets the first channel id, the
    # id the canonical form's second binder used to get
    path = tmp_path / "free_c.csll"
    path.write_text("main(c: 1) = new a : 1 { close a | new b : 1 { close b | wait b; wait a; close c } }\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from csll.cli import main; sys.exit(main(sys.argv[1:]))",
         "explore", "--format", "json", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    terms = [s["term"] for s in json.loads(proc.stdout)["states"]]
    assert terms == ["new c2 : 1 { close c2 | new c3 : 1 { close c3 | wait c3; wait c2; close c } }",
                     "new c2 : 1 { close c2 | wait c2; close c }", "close c"]


def test_explore_dot_output(capsys):
    code, out = run_cli(capsys, "explore", "--format", "dot", str(CORPUS / "lock.csll"))
    assert code == 0 and out.startswith("digraph")


def test_export_proof_json(capsys):
    code, out = run_cli(capsys, "export-proof", str(CORPUS / "lock.csll"), "Lock")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, PROOF_SCHEMA)
    root = next(n for n in doc["nodes"] if n["id"] == doc["root"])
    assert {(o["formula"], o["address"]) for o in root["sequent"]} == {
        ("nu X. (bot (&) (bot (par) X))", "a0"), ("1", "a1")}
    assert doc["validity"]["verdict"] == "valid"


def test_export_proof_refuses_invalid_without_force(capsys):
    code = main(["export-proof", str(CORPUS / "omega.csll"), "Omega"])
    capsys.readouterr()
    assert code == 2


def test_export_proof_forced_reports_invalid(capsys):
    code, out = run_cli(capsys, "export-proof", str(CORPUS / "omega.csll"),
                        "Omega", "--force")
    assert code == 0
    doc = json.loads(out)
    assert doc["validity"]["verdict"] == "invalid"


PROOF_EXPORTS = [(name, d.name) for name in CORPUS_FILES
                 for d in parse_program((CORPUS / name).read_text(encoding="utf-8"), name)
                 .all_definitions()]


@pytest.mark.parametrize("name,definition", PROOF_EXPORTS)
def test_golden_export_proofs(capsys, name, definition):
    # node ids, rules, addresses and all three shared-channel gadgets, byte for byte
    force = ["--force"] if name.startswith("omega") else []
    code, out = run_cli(capsys, "export-proof", "--format", "json", str(CORPUS / name),
                        definition, *force)
    assert code == 0
    assert out == (GOLDEN / f"{name}.{definition}.proof.json").read_text(encoding="utf-8")


def test_export_proof_dot_skips_the_validity_report(capsys, monkeypatch):
    import csll.cli

    def refuse(g):
        raise AssertionError("proof_validity is not needed for --format dot")

    monkeypatch.setattr(csll.cli, "proof_validity", refuse)
    code, out = run_cli(capsys, "export-proof", str(CORPUS / "lock.csll"), "Lock", "--format", "dot")
    assert code == 0 and out.startswith("digraph proof {")


def test_export_proof_dot_highlight(capsys):
    code, out = run_cli(capsys, "export-proof", str(CORPUS / "lock.csll"),
                        "Lock", "--format", "dot")
    assert code == 0
    assert "lightgoldenrod1" in out


def test_gen_link_bot(capsys):
    code, out = run_cli(capsys, "gen-link", "bot")
    assert code == 0
    assert out.strip() == "def Link_bot(x: bot, y: 1) = wait x; close y"


def test_gen_link_srv_checks_out(capsys):
    code, out = run_cli(capsys, "gen-link", "srv bot")
    assert code == 0
    assert "Link_srv_bot" in out and "Link_bot" in out
    tmp = Path("/tmp/linkfam.csll")
    tmp.write_text(out)
    assert main(["check", str(tmp)]) == 0
    capsys.readouterr()


def test_gen_link_positive_dispatch(capsys):
    code, out = run_cli(capsys, "gen-link", "1")
    assert code == 0
    assert "def Link_one(x: 1, y: bot) = Link_bot(y, x)" in out
