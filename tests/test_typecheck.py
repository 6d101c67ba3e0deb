import json

import pytest

from csll import process, typecheck
from csll import types as ty
from csll.cli import main
from csll.gen import gen_program
from csll.linkgen import gen_link
from csll.parser import parse_program, parse_type
from csll.process import (
    Call, Close, Cut, Definition, Program, Wait, free_names, fresh,
)
from csll.proofs import encode_derivation, proof_validity
from csll.typecheck import (
    TypeCheckError, check, check_program, definition_derivation,
    split_context, validity_check,
)

from .conftest import CORPUS_FILES, link_types, load_corpus, lock_text


def test_split_context_assigns_by_use():
    u, v = fresh("u"), fresh("v")
    left, right = split_context({u: ty.ONE, v: ty.ONE}, frozenset({u}), frozenset({v}))
    assert left == {u: ty.ONE} and right == {v: ty.ONE}


def test_split_context_rejects_shared_channel():
    u = fresh("u")
    with pytest.raises(TypeCheckError) as exc:
        split_context({u: ty.ONE}, frozenset({u}), frozenset({u}))
    assert exc.value.diagnostic.kind == "linearity"


def test_split_context_rejects_unused_channel():
    u = fresh("u")
    with pytest.raises(TypeCheckError) as exc:
        split_context({u: ty.ONE}, frozenset(), frozenset())
    assert exc.value.diagnostic.kind == "linearity"


def test_check_close_single_axiom():
    x = fresh("x")
    d = check(Close(x), {x: ty.ONE}, Program({}))
    assert len(d.nodes) == 1
    assert d.nodes[d.root].rule == "one"


def test_check_wait_against_positive_type_fails():
    x, z = fresh("x"), fresh("z")
    with pytest.raises(TypeCheckError) as exc:
        check(Wait(x, Close(z)), {x: ty.ONE, z: ty.ONE}, Program({}))
    assert exc.value.diagnostic.kind == "type-mismatch"


def test_check_zero_subject_diagnostic():
    x = fresh("x")
    with pytest.raises(TypeCheckError) as exc:
        check(Close(x), {x: ty.ZERO}, Program({}))
    assert exc.value.diagnostic.kind == "zero-subject"


def test_check_lock_call_has_back_edge(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    backs = [(n.nid, e) for n in d.nodes.values() for e in n.premises if e.back]
    assert len(backs) == 1
    _, e = backs[0]
    assert e.target == d.root
    # the correspondence maps both arguments positionally
    assert len(e.down) == 2


def test_derivation_regularity_bound(cas):
    # distinct invocation judgments are keyed by definition name, so each
    # derivation holds at most one recursion target per definition
    for defn in cas.all_definitions():
        d = definition_derivation(defn, cas)
        call_targets = {}
        for n in d.nodes.values():
            for e in n.premises:
                if e.back:
                    proc = d.nodes[n.nid].judgment.process
                    call_targets.setdefault(proc.name, set()).add(e.target)
        for name, targets in call_targets.items():
            assert len(targets) == 1, (defn.name, name)


def test_validity_verdicts_on_corpus():
    expectations = {
        "lock.csll": "valid",
        "omega.csll": "invalid",
        "omega_server.csll": "invalid",
        "cas.csll": "valid",
        "comm.csll": "valid",
    }
    for name, verdict in expectations.items():
        prog = load_corpus(name)
        rep = check_program(prog)
        assert rep.well_typed, name
        worst = "valid"
        for r in rep.defs:
            if r.validity.verdict == "invalid":
                worst = "invalid"
        assert worst == verdict, name


def test_invalid_witness_has_no_server(omega):
    d = definition_derivation(omega.defs["Omega"], omega)
    v = validity_check(d)
    assert v.verdict == "invalid"
    assert v.witness
    assert all(d.nodes[nid].rule != "server" for nid in v.witness)


def test_omega_server_invalid_through_idle_cycle(omega_server):
    d = definition_derivation(omega_server.defs["OmegaServer"], omega_server)
    v = validity_check(d)
    assert v.verdict == "invalid"
    # the refuting cycle passes a server whose channel lineage is broken, or
    # no server at all; here it does contain the server node
    rules = [d.nodes[nid].rule for nid in v.witness]
    assert "server" in rules and "cut" in rules


def test_unused_parameter_is_linearity_error():
    x, z = fresh("x"), fresh("z")
    prog = Program({"A": Definition("A", ((x, ty.ONE), (z, ty.ONE)), Close(x))})
    rep = check_program(prog)
    assert not rep.well_typed
    assert rep.defs[0].diagnostics[0].kind == "linearity"


def test_cut_annotation_checked_on_both_sides():
    x, z = fresh("x"), fresh("z")
    body = Cut(x, ty.BOT, Close(x), Wait(x, Close(z)))  # wrong annotation
    prog = Program({}, Definition("main", ((z, ty.ONE),), body))
    rep = check_program(prog)
    assert not rep.well_typed


def test_subject_reduction_smoke(lock):
    from csll.runtime import step_all
    body = lock.main.body
    ctx = dict(lock.main.params)
    for _, q in step_all(body, lock):
        assert free_names(q) <= set(ctx)
        check(q, ctx, lock)  # must not raise


TWO_PHASE = """
def TwoPhase(x: srv bot, y: srv bot, z: 1) =
  server x(u) { wait u; TwoPhase(x, y, z) }
  idle {
    server y(v) { wait v; new x2 : cli 1 { done x2 | TwoPhase(x2, y, z) } }
    idle { close z }
  }
"""


def test_inconclusive_when_cycle_witnesses_differ():
    # one loop recurs on x, the other on y, and x dies along the idle path.
    # A branch that takes the y loop infinitely often carries the y thread,
    # since y survives both loops; any other branch ends in the x loop.  So
    # no single channel serves every branch, yet every branch is served: the
    # exact closure decides this valid where a bounded search would concede.
    prog = parse_program(TWO_PHASE, "<twophase>")
    rep = check_program(prog)
    assert rep.defs[0].well_typed
    assert rep.defs[0].validity.verdict == "valid"
    assert rep.defs[0].accepted


def test_two_phase_exit_code(tmp_path, capsys):
    f = tmp_path / "twophase.csll"
    f.write_text(TWO_PHASE)
    code = main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: accepted" in out


BAD = "def Bad(x: srv bot) = new y : 1 { close y | wait y; Bad(x) }\n"


def test_bad_carried_server_is_invalid_on_both_sides(tmp_path, capsys):
    # the loop carries the server channel x around but never serves on it;
    # at proof level that is a thread that never unfolds its greatest fixed
    # point, which does not progress
    prog = parse_program(BAD, "<bad>")
    d = definition_derivation(prog.defs["Bad"], prog)
    assert validity_check(d).verdict == "invalid"
    assert proof_validity(encode_derivation(d).graph).verdict == "invalid"
    f = tmp_path / "bad.csll"
    f.write_text(BAD)
    code = main(["check", "--format", "json", str(f)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [r["agreement"] for r in doc["definitions"]] == [True]


ZIGZAG = """
def Zigzag(x: srv bot, y: srv bot, z: 1) =
  server x(u) {
    wait u; new w : 1 { Drain(y, w) | wait w; new y2 : cli 1 { done y2 | Zigzag(x, y2, z) } }
  } idle {
    server y(v) { wait v; new x2 : cli 1 { done x2 | Zigzag(x2, y, z) } } idle { close z }
  }

def Drain(y: srv bot, z: 1) = server y(v) { wait v; Drain(y, z) } idle { close z }
"""


def test_alternating_loops_invalid_though_each_loop_passes():
    # the x loop serves x and replaces y, the y loop serves y and replaces
    # x: each loop alone is served, but alternating them kills every thread
    prog = parse_program(ZIGZAG, "<zigzag>")
    d = definition_derivation(prog.defs["Zigzag"], prog)
    dv = validity_check(d)
    pv = proof_validity(encode_derivation(d).graph)
    assert (dv.verdict, pv.verdict) == ("invalid", "invalid")
    assert dv.reason.startswith("composite cycle") and pv.reason.startswith("composite cycle")
    assert len(set(dv.witness)) < len(dv.witness)


def free_name_computations(monkeypatch, n: int) -> int:
    """How many subterms' free-name sets checking lock_n computes."""
    prog = parse_program(lock_text(n))
    computed = 0
    inner = process._free_names

    def counting(p, memo):
        nonlocal computed
        computed += id(p) not in memo
        return inner(p, memo)

    with monkeypatch.context() as m:
        m.setattr(process, "_free_names", counting)
        m.setattr(typecheck, "_free_names", counting)
        assert check_program(prog).accepted
    return computed


def test_checker_computes_free_names_linearly(monkeypatch):
    """Each subterm's free names are computed once per check, so doubling
    the pool about doubles the work (the count grew 4x when every cut and
    pool head recomputed the names of the whole pool below it)."""
    assert free_name_computations(monkeypatch, 400) <= 2.5 * free_name_computations(monkeypatch, 200)


def table_derivations():
    """The derivations of the corpus, gen_program 0-99 and the benchmark's
    forwarder families."""
    progs = [load_corpus(name) for name in CORPUS_FILES] + [gen_program(s) for s in range(100)]
    progs += [gen_link(parse_type(text)) for text in link_types()]
    for prog in progs:
        for r in check_program(prog).defs:
            if r.derivation is not None:
                yield r.derivation


def test_checker_premises_follow_the_guard_table():
    """At every guard node, the premises are those of its `GUARDS` row: their
    number, and the binder and subject types of each.  Every other channel
    of a premise is the parent's at the parent's type; a split row's
    premises divide the rest of the context, the others each keep all of it."""
    rules = set()
    for d in table_derivations():
        for node in d.nodes.values():
            p = node.judgment.process
            row = typecheck.GUARDS.get(type(p))
            if row is None:
                continue
            rules.add(node.rule)
            ctx, x = dict(node.judgment.context), node.subject
            binding = process.BINDING[type(p)]
            y = None if binding.binder is None else binding.fields(p)[binding.binder]
            kids = (*ty.children(ctx[x]), ctx[x])
            rest = {c: t for c, t in ctx.items() if c != x}
            alt = row.alts[(node.tag or 1) - 1]
            assert len(node.premises) == len(alt), node.rule
            others = []
            for e, premise in zip(node.premises, alt):
                assert not e.back
                q = dict(d.nodes[e.target].judgment.context)
                for c, k in zip((y, x), premise):
                    assert (c in q and q[c] == kids[k]) if k is not None else c not in q, node.rule
                others.append({c: t for c, t in q.items() if c not in (x, y)})
                assert others[-1].items() <= rest.items(), node.rule
            if row.split:
                assert not others[0].keys() & others[1].keys() and {**others[0], **others[1]} == rest
            else:
                assert all(o == rest for o in others), node.rule
    assert rules == {row.rule for row in typecheck.GUARDS.values()}


@pytest.mark.parametrize("text, channel", [
    # below a selection the retyped subject keeps its place, ahead of w
    ("main(x: 1 + 1, w: bot) = x.in1; new u : 1 { wait w; close x | wait u; wait w; close x }", "x"),
    # below recv the retyped subject moves after the binder, behind w
    ("main(x: bot par 1, w: bot) = recv x(y); new u : 1 { wait w; wait y; close x"
     " | wait u; wait w; close x }", "w"),
])
def test_a_split_names_the_first_misused_channel_in_context_order(text, channel):
    (r,) = check_program(parse_program(text)).defs
    (diag,) = r.diagnostics
    assert (diag.kind, diag.rule) == ("linearity", "cut")
    assert diag.message == f"channel {channel} is used by both sides"
