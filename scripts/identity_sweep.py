#!/usr/bin/env python3
"""Check that two revisions behave byte-identically on a fixed input sweep.

Usage: python scripts/identity_sweep.py --against REV

REV's `src/` is extracted into a temporary directory with `git archive`, so
the check writes nothing under `.git`.  The sweep's digest function then
runs once against REV's `src/` and once against this tree's, each in a
fresh interpreter under PYTHONHASHSEED=0.  Every artefact whose sha256
differs is printed, and the exit status is 1 if any differ.

Inputs: the corpus, lock_1..8, six cas mixes, chain_1..10, the three programs
whose pools end in a guard on another channel
(`tests/conftest.pool_end_texts`), the two whose calls derive apart by the
definitions on their path (`tests/conftest.PATH_SENSITIVE`), gen_program
seeds 0-299 and 1000-1199,
the 300 forwarder families of the benchmark's fuzz_small workload, and every
one-token mutant (deletion, duplication, swap with the next token) of the
corpus, of the printed gen_program 0-119 and of the checker's diagnostic
snippets (`tests/test_checker_golden.py`), and the snippets themselves with
the programs built there for diagnostics the parser would reject.  The
channel-id counter is reset before each input, so ids drawn by one input do
not shift the next.

Artefacts: parse results (the program's repr, with channel ids, and the
span text and length of every process node in preorder) and parse errors,
each with every token's text, span text and span length; `pretty_program`;
check reports with their derivations (each node's judgment: the repr of its
process and of its context; each premise edge's target, back flag and
lineage, read through `Derivation.lineage` where the tree has it); encoded proofs with their validity,
their recurring greatest-fixed-point thread (`nu_thread_witness`) and their
DOT rendering with that thread highlighted; bounded `explore` JSON with the
fair-termination verdict and the repr of every explored state; the full and
deterministic step records of every explored state (as
`tests/golden/steps.json` records them); det and seeded random traces with
the repr of every state they visit; and the correspondence report
(`simulate_step`) of every step of the det trace.  The reprs show binder
ids, which printed states do not: the printer picks display names by scope.
A forwarder family contributes its program, check reports, derivations and
proofs; a snippet or a mutant its parse artefacts (a built program its
repr) and, if it parses, its check reports.
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # the input builders of tests/ and bench/

MAX_STATES = 400
MAX_STEPS = 300


def inputs(small: bool = False) -> Iterator[tuple[str, str | int]]:
    """(label, program text or gen_program seed); small takes a slice."""
    from bench.workloads import chain_text
    from tests.conftest import CORPUS, CORPUS_FILES, PATH_SENSITIVE, cas_text, lock_text, pool_end_texts
    for name in CORPUS_FILES:
        yield name, (CORPUS / name).read_text(encoding="utf-8")
    for n in range(1, 3 if small else 9):
        yield f"lock_{n}", lock_text(n)
    mixes = (["TF"], ["FT"], ["TF", "FT"], ["FT", "TF"], ["TF", "FT"] * 2, ["FT", "TF"] * 3)
    for kinds in mixes[:1] if small else mixes:
        yield f"cas_{''.join(kinds)}", cas_text(kinds)
    for k in range(1, 3 if small else 11):
        yield f"chain_{k}", chain_text(k)
    yield from pool_end_texts().items()
    yield from PATH_SENSITIVE.items()
    yield from ((f"gen_{s}", s) for s in (range(0, 6) if small
                                          else itertools.chain(range(300), range(1000, 1200))))


def mutant_inputs(small: bool = False) -> Iterator[tuple[str, str]]:
    from csll.gen import gen_program
    from csll.printer import pretty_program
    from tests.conftest import CORPUS, CORPUS_FILES
    from tests.test_parse_golden import token_mutants
    texts = [(name, (CORPUS / name).read_text(encoding="utf-8")) for name in CORPUS_FILES]
    for seed in range(2 if small else 120):
        _reset_ids()
        texts.append((f"gen_{seed}", pretty_program(gen_program(seed))))
    snippets = list(snippet_inputs())
    for name, text in texts[-3:] + snippets[:2] if small else texts + snippets:
        for label, mutant in token_mutants(text):
            yield f"{name} {label}", mutant


def snippet_inputs() -> Iterator[tuple[str, str]]:
    """(label, program text) of the checker's diagnostic snippets."""
    from tests.test_checker_golden import SNIPPETS
    for name, text in SNIPPETS.items():
        yield f"snippet {name}", text


def link_inputs(small: bool = False) -> Iterator[tuple[str, str]]:
    """(label, type text) of the forwarder families."""
    from tests.conftest import link_types
    for i, text in enumerate(link_types(3 if small else 300)):
        yield f"link_{i}", text


def _reset_ids() -> None:
    from csll import process
    process._uid_counter = itertools.count(1)


def _derivation(d) -> list:
    lineage = getattr(d, "lineage", None)  # a tree without the accessor stores every edge's lineage
    out = []
    for _, n in sorted(d.nodes.items()):
        j = getattr(n, "judgment", n)  # a node holds its process and context, or a record of both
        out.append([n.nid, n.rule, repr(n.subject), n.tag, repr(j.process), repr(j.context),
                    [[e.target, e.back, repr(e.down if lineage is None else lineage(n.nid, i))]
                     for i, e in enumerate(n.premises)]])
    return out + [d.root]


def _validity(v) -> list | None:
    return None if v is None else [v.verdict, v.reason, v.witness]


def _spans(prog) -> list:
    """The span text and length of every process node of prog, in preorder."""
    from csll.process import BINDING, Process
    out, todo = [], [d.body for d in reversed([*prog.defs.values(), prog.main]) if d is not None]
    while todo:
        p = todo.pop()
        out.append([str(p.span), p.span.length])
        todo.extend(reversed([v for v in BINDING[type(p)].fields(p) if isinstance(v, Process)]))
    return out


def _parsed(label: str, text: str) -> Iterator[tuple[str, object]]:
    from csll.parser import CsllError, parse_program, tokenize
    from csll.printer import pretty_program
    tokens = _guarded(lambda: [[t.text, str(t.span), t.span.length] for t in tokenize(text, label)])
    try:
        prog = parse_program(text, label)
    except CsllError as e:
        yield f"{label} parse", [[type(e).__name__, e.message, str(e.span), e.span.length], tokens]
        return
    yield f"{label} parse", [repr(prog), _spans(prog), tokens]
    yield f"{label} pretty", pretty_program(prog)
    return prog


def _guarded(fn) -> object:
    """fn(), or the class and message of the exception it raises."""
    try:
        return fn()
    except Exception as e:  # an artefact too: both sides must fail alike
        return [type(e).__name__, str(e)]


def _checked(label: str, prog, proofs: bool = True) -> Iterator[tuple[str, object]]:
    """The check report of every definition and, with proofs, its derivation
    and encoded proof."""
    from csll.proofs import (
        encode_derivation, nu_thread_witness, proof_to_dot, proof_to_json_dict, proof_validity,
    )
    from csll.typecheck import check_program
    for r in check_program(prog).defs:
        yield f"{label} check {r.name}", [r.well_typed, [str(d) for d in r.diagnostics],
                                          _validity(r.validity)]
        if proofs and r.derivation is not None:
            yield f"{label} derivation {r.name}", _derivation(r.derivation)
            g = encode_derivation(r.derivation).graph
            yield f"{label} proof {r.name}", [proof_to_json_dict(g), _validity(proof_validity(g))]
            thread = nu_thread_witness(g)
            yield f"{label} thread {r.name}", [[nid, a.render()] for nid, a in thread]
            yield f"{label} dot {r.name}", proof_to_dot(g, highlight=thread)


def _correspondence(prog) -> list:
    """The correspondence report of every step of the det trace of main."""
    from csll.proofs import simulate_step
    from csll.runtime import enabled_steps
    ctx, cur, reports = dict(prog.main.params), prog.main.body, []
    for _ in range(MAX_STEPS):
        enabled = enabled_steps(cur, prog, deterministic=True)
        if not enabled:
            break
        st = enabled[0]
        rep = simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
        reports.append([rep.kind, rep.steps, rep.matched, rep.detail])
        cur = st.reduct
    return reports


def program_artefacts(label: str, source: str | int) -> Iterator[tuple[str, object]]:
    from csll.gen import gen_program
    from csll.printer import pretty_process, pretty_program
    from csll.runtime import check_fair_termination, run
    from tests.test_steps_golden import step_records
    _reset_ids()
    if isinstance(source, int):
        prog = gen_program(source)
        yield f"{label} gen", repr(prog)
        yield f"{label} pretty", pretty_program(prog)
    else:
        prog = yield from _parsed(label, source)
        if prog is None:
            return
    yield from _checked(label, prog)
    if prog.main is None:
        return
    main = prog.main
    try:
        ft = check_fair_termination(main.body, prog, max_states=MAX_STATES, max_depth=MAX_STATES)
    except Exception as e:  # an artefact too: both sides must fail alike
        yield f"{label} explore", [type(e).__name__, str(e)]
    else:
        yield f"{label} explore", [ft.graph.to_json_dict(), ft.verdict,
                                   [repr(s) for s in ft.graph.states]]
        yield f"{label} steps", _guarded(lambda: [[step_records(s, prog, det) for det in (False, True)]
                                                  for s in ft.graph.states])
    for scheduler, seed in (("det", 0), ("random", 1), ("random", 2)):
        def trace():
            t = run(main.body, dict(main.params), prog, scheduler=scheduler, seed=seed,
                    max_steps=MAX_STEPS)
            return [[s.line() for s in t.steps], pretty_process(t.final), repr(t.final),
                    t.terminated, t.truncated, [repr(s) for s in t.states]]
        yield f"{label} {scheduler}:{seed}", _guarded(trace)
    yield f"{label} correspondence", _guarded(lambda: _correspondence(prog))


def artefacts(small: bool = False) -> Iterator[tuple[str, object]]:
    from csll.linkgen import gen_link
    from csll.parser import parse_type
    from tests.test_checker_golden import built_programs
    for label, source in inputs(small):
        yield from program_artefacts(label, source)
    for label, text in link_inputs(small):
        _reset_ids()
        prog = gen_link(parse_type(text))
        yield f"{label} gen-link", repr(prog)
        yield from _checked(label, prog)
    _reset_ids()
    for name, prog in built_programs().items():
        yield f"built {name} repr", repr(prog)
        yield from _checked(f"built {name}", prog, proofs=False)
    for label, text in itertools.chain(snippet_inputs(), mutant_inputs(small)):
        _reset_ids()
        prog = yield from _parsed(label, text)
        if prog is not None:
            yield from _checked(label, prog, proofs=False)


def digests(small: bool = False) -> dict[str, str]:
    """The sha256 of every artefact's JSON, by artefact label."""
    return {label: hashlib.sha256(json.dumps(value, default=repr).encode()).hexdigest()
            for label, value in artefacts(small)}


def _side(src: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, __file__, "--digest"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(line.split("\t") for line in out.splitlines())


def main() -> int:
    ap = argparse.ArgumentParser()
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="revision to compare this tree with")
    group.add_argument("--digest", action="store_true",
                       help="print the artefact digests of the csll on PYTHONPATH")
    args = ap.parse_args()
    if args.digest:
        for label, sha in digests().items():
            print(f"{label}\t{sha}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                             stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        theirs = _side(Path(tmp) / "src")
    ours = _side(ROOT / "src")
    differ = sorted(label for label in theirs.keys() | ours.keys()
                    if theirs.get(label) != ours.get(label))
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(ours)} artefacts, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
