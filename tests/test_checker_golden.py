"""Golden derivations and diagnostics of the typechecker, byte for byte.

The derivation goldens pin every node of every corpus definition's
derivation: id, rule, subject, tag, context and premises (back flag and
lineage pairs).  A channel is written `name#rank`, where rank orders the
channels of one derivation by first appearance (node order, then subject,
context and lineage), so the files do not depend on how many channels were
drawn before, nor on which unfolding's binders are shared.  A tree edge
lists its lineage in rank order, a back edge in argument order.  The
diagnostic golden holds one entry for each diagnostic the checker can emit;
snippets the parser would reject are built as `Program` values.

Regenerate with `PYTHONPATH=src python -m tests.test_checker_golden` (only
when a change of derivations or messages is intended).
"""

import json
from pathlib import Path

import pytest

from csll import types as ty
from csll.parser import parse_program
from csll.printer import pretty_type
from csll.process import Call, Close, Cut, Definition, Program, Wait, fresh
from csll.typecheck import Derivation, check_program, definition_derivation

from .conftest import CORPUS_FILES, load_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"


def derivation_doc(d: Derivation) -> dict:
    nodes = [n for _, n in sorted(d.nodes.items())]
    rank: dict = {}
    for n in nodes:  # by first appearance: node order, then subject, context and lineage
        for c in (n.subject, *(c for c, _ in n.context), *(c for e in n.premises for pair in e.down for c in pair)):
            if c is not None:
                rank.setdefault(c, len(rank))

    def name(c):
        return None if c is None else f"{c.name}#{rank[c]}"

    def down(e):  # a tree edge's lineage in rank order; a back edge's in argument order
        return [[name(s), name(t)] for s, t in (e.down if e.back else sorted(e.down, key=lambda st: rank[st[0]]))]

    return {"root": d.root, "nodes": [
        {"id": n.nid, "rule": n.rule, "subject": name(n.subject), "tag": n.tag,
         "context": [[name(c), pretty_type(t)] for c, t in n.context],
         "premises": [{"target": e.target, "back": e.back, "down": down(e)} for e in n.premises]}
        for n in nodes]}


def derivations_of(file: str) -> dict:
    prog = load_corpus(file)
    return {defn.name: derivation_doc(definition_derivation(defn, prog))
            for defn in prog.all_definitions()}


A_ONE = "def A(x: 1) = close x\n"

# one parsed snippet per diagnostic; each main's parameters are its context
SNIPPETS = {
    "one/scope": "main(z: bot) = wait z; close z",
    "one/zero-subject": "main(z: 0) = close z",
    "one/type-mismatch": "main(z: bot) = close z",
    "one/unused": "main(z: 1, w: bot) = close z",
    "top/scope": "main(z: bot) = wait z; fail z",
    "top/zero-subject": "main(z: 0) = fail z",
    "top/type-mismatch": "main(z: 1) = fail z",
    "done/scope": "main(z: bot) = wait z; done z",
    "done/zero-subject": "main(z: 0) = done z",
    "done/type-mismatch": "main(z: 1) = done z",
    "done/unused": "main(z: cli 1, w: bot) = done z",
    "bot/scope": "main(z: bot) = wait z; wait z; close z",
    "bot/zero-subject": "main(z: 0) = wait z; close z",
    "bot/type-mismatch": "main(z: 1) = wait z; close z",
    "par/scope": "main(z: bot) = wait z; recv z(y); close y",
    "par/zero-subject": "main(z: 0) = recv z(y); close y",
    "par/type-mismatch": "main(z: 1) = recv z(y); close y",
    "tensor/scope": "main(z: bot) = wait z; send z(y) { close y }; close z",
    "tensor/zero-subject": "main(z: 0) = send z(y) { close y }; close z",
    "tensor/type-mismatch": "main(z: 1 par 1) = send z(y) { close y }; close z",
    "tensor/both-sides": "main(z: 1 * 1, w: bot) = send z(y) { wait w; close y }; wait w; close z",
    "tensor/unused": "main(z: 1 * 1, w: bot) = send z(y) { close y }; close z",
    "plus/scope": "main(z: bot) = wait z; z.in1; close z",
    "plus/zero-subject": "main(z: 0) = z.in2; close z",
    "plus/type-mismatch": "main(z: 1 & 1) = z.in1; close z",
    "with/scope": "main(z: bot) = wait z; case z { in1: close z ; in2: close z }",
    "with/zero-subject": "main(z: 0) = case z { in1: close z ; in2: close z }",
    "with/type-mismatch": "main(z: 1 + 1) = case z { in1: close z ; in2: close z }",
    "server/scope": "main(z: bot) = wait z; server z(y) { close y } idle { close z }",
    "server/zero-subject": "main(z: 0) = server z(y) { close y } idle { close z }",
    "server/type-mismatch": "main(z: cli 1) = server z(y) { close y } idle { close z }",
    "client/scope": "main(z: bot) = wait z; client z(y) { close y }; done z",
    "client/zero-subject": "main(z: 0) = client z(y) { close y }; done z",
    "client/type-mismatch": "main(z: srv 1) = client z(y) { close y }; done z",
    "client/both-sides": "main(z: cli 1, w: bot) = client z(y) { wait w; close y }; wait w; done z",
    "client/unused": "main(z: cli 1, w: bot) = client z(y) { close y }; done z",
    "cut/both-sides": "main(z: bot, w: 1) = new x : 1 { wait z; close x | wait x; wait z; close w }",
    "cut/unused": "main(z: bot, w: 1) = new x : 1 { close x | wait x; close w }",
    "call/repeated-argument": "def A(x: bot, y: 1) = wait x; close y\nmain(z: 1) = A(z, z)",
    "call/unused-channels": A_ONE + "main(z: 1, w: bot) = A(z)",
    "call/unknown-channels": A_ONE + "main(z: bot) = wait z; A(z)",
    "call/unused-and-unknown-channels": A_ONE + "main(z: bot, w: 1) = wait z; A(z)",
    "call/argument-type": A_ONE + "main(z: bot) = A(z)",
}


def built_programs() -> dict[str, Program]:
    """Snippets the parser rejects, built directly (no source spans)."""
    z, w = fresh("z"), fresh("w")
    x = fresh("x")
    a = Definition("A", ((x, ty.ONE),), Close(x))
    return {
        "cut/rebinds": Program({}, Definition("main", ((z, ty.ONE),),
                                              Cut(z, ty.ONE, Close(z), Wait(z, Close(z))))),
        "call/undefined": Program({}, Definition("main", ((z, ty.ONE),), Call("Nope", (z,)))),
        "call/arity": Program({"A": a}, Definition("main", ((z, ty.ONE), (w, ty.ONE)),
                                                   Call("A", (z, w)))),
        "judgment/free-channels": Program({}, Definition("main", (), Close(z))),
    }


def diagnostics() -> dict[str, list[str]]:
    progs = {name: parse_program(text, f"<{name}>") for name, text in SNIPPETS.items()}
    progs.update(built_programs())
    return {name: [str(d) for r in check_program(prog).defs for d in r.diagnostics]
            for name, prog in progs.items()}


@pytest.mark.parametrize("file", CORPUS_FILES)
def test_golden_derivations(file):
    golden = json.loads((GOLDEN / f"{file}.deriv.json").read_text(encoding="utf-8"))
    assert derivations_of(file) == golden


def test_golden_diagnostics():
    golden = json.loads((GOLDEN / "diagnostics.json").read_text(encoding="utf-8"))
    got = diagnostics()
    assert got.keys() == golden.keys()
    for name, diags in got.items():
        assert diags == golden[name], name
    # every snippet is rejected by exactly one diagnostic
    assert all(len(d) == 1 for d in got.values())


def _dump(doc: dict) -> str:
    """The derivations of one file as JSON with one node per line."""
    return "{\n" + ",\n".join(
        f' {json.dumps(name)}: {{"root": {d["root"]}, "nodes": [\n'
        + ",\n".join("  " + json.dumps(n) for n in d["nodes"]) + "]}"
        for name, d in doc.items()) + "\n}\n"


if __name__ == "__main__":
    for file in CORPUS_FILES:
        (GOLDEN / f"{file}.deriv.json").write_text(_dump(derivations_of(file)), encoding="utf-8")
    (GOLDEN / "diagnostics.json").write_text(json.dumps(diagnostics(), indent=1) + "\n",
                                             encoding="utf-8")
