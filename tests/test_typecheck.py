import json
from collections import Counter

import pytest

from csll import process, typecheck
from csll import types as ty
from csll.cli import main
from csll.gen import gen_program
from csll.linkgen import gen_link
from csll.parser import parse_program, parse_type
from csll.process import (
    Call, Close, Cons, Cut, Definition, Fork, Join, Nil, Program, Server, Wait, free_names,
    fresh,
)
from csll.proofs import encode_derivation, proof_validity
from csll.runtime import enabled_steps, explore
from csll.typecheck import (
    TypeCheckError, check, check_program, definition_derivation,
    split_context, validity_check,
)

from . import oracles
from .conftest import CORPUS_FILES, link_types, load_corpus, lock_text
from .test_checker_golden import SNIPPETS, built_programs, derivation_doc


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
        check(Close(x), {x: ty.Zero()}, Program({}))
    assert exc.value.diagnostic.kind == "zero-subject"


def test_check_lock_call_has_back_edge(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    backs = [(n.nid, e) for n in d.nodes.values() for e in n.premises if e.back]
    assert len(backs) == 1
    _, e = backs[0]
    assert e.target == d.root
    # the correspondence maps both arguments positionally
    assert len(e.down) == 2


def test_a_tree_edge_stores_no_lineage_and_a_back_edge_its_correspondence():
    """A tree edge's lineage is a function of its two judgments: the edge
    stores none and `Derivation.lineage` equals `oracles.reference_lineage`.
    A back edge keeps its argument correspondence."""
    from bench.workloads import chain_text
    from .conftest import cas_text
    from .test_runtime import CAS_MIXES, NESTED_R, NESTED_RECV, NESTED_SEND
    texts = [lock_text(8), *map(cas_text, CAS_MIXES), chain_text(6), TWO_PHASE, NESTED_R, NESTED_SEND, NESTED_RECV]
    progs = [load_corpus(name) for name in CORPUS_FILES] + [parse_program(t) for t in texts]
    progs += [gen_program(seed) for seed in range(60)]
    edges = Counter()
    for prog in progs:
        for r in check_program(prog).defs:
            if r.derivation is not None:
                assert oracles.lineage_faults(r.derivation) == [], r.name
                edges.update(e.back for n in r.derivation.nodes.values() for e in n.premises)
    assert edges[False] > 2500 and edges[True] > 200


def test_derivation_regularity_bound(cas):
    # distinct invocation judgments are keyed by definition name, so each
    # derivation holds at most one recursion target per definition
    for defn in cas.all_definitions():
        d = definition_derivation(defn, cas)
        call_targets = {}
        for n in d.nodes.values():
            for e in n.premises:
                if e.back:
                    proc = d.nodes[n.nid].process
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


@pytest.mark.parametrize("rule", ["par", "server", "tensor", "client"])
def test_a_binder_already_in_context_is_rejected_as_a_cut_rebinding_it_is(rule, lock):
    # the premise would overwrite the outer y's entry, which nothing then
    # uses: recv's with its payload, server's accept premise with its
    # session; send's payload premise and client's session premise hold
    # the bound y while the context's y goes to the other premise, so the
    # lineage would carry the outer y into the bound one
    x, y, z = fresh("x"), fresh("y"), fresh("z")
    if rule == "par":
        p = Join(x, y, Wait(y, Close(x)))
        ctx, prog, word = {x: ty.Par(ty.BOT, ty.ONE), y: ty.ONE}, Program({}), "recv"
    elif rule == "server":
        p = Server(x, y, Wait(y, Call("Lock", (x, z))), Wait(y, Close(z)))
        ctx, prog, word = {x: ty.Server(ty.BOT), y: ty.BOT, z: ty.ONE}, lock, "server"
    elif rule == "tensor":
        p = Fork(x, y, Close(y), Wait(x, Wait(y, Close(z))))
        ctx, prog, word = {x: ty.Tensor(ty.ONE, ty.BOT), y: ty.BOT, z: ty.ONE}, Program({}), "send"
    else:
        p = Cons(x, y, Close(y), Wait(y, Nil(x)))
        ctx, prog, word = {x: ty.Client(ty.ONE), y: ty.BOT}, Program({}), "client"
    for checker in (typecheck._Checker, oracles.MatchChecker):
        with pytest.raises(TypeCheckError) as exc:
            check(p, ctx, prog, checker(prog))
        assert exc.value.diagnostic == typecheck.Diagnostic(
            "scope", rule, f"{word} rebinds channel y already in context")


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
    from .oracles import step_all
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


def free_sets_kept(kept_sets, n: int) -> int:
    """How many free-name sets checking lock_n keeps on terms."""
    prog = parse_program(lock_text(n))
    before = kept_sets()
    assert check_program(prog).accepted
    return kept_sets() - before


def test_checker_computes_free_names_linearly(kept_sets):
    """Each subterm keeps its free names once, so doubling the pool about
    doubles the sets kept (the work grew 4x when every cut and pool head
    recomputed the names of the whole pool below it)."""
    assert 0 < free_sets_kept(kept_sets, 400) <= 2.5 * free_sets_kept(kept_sets, 200)


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
            p = node.process
            row = typecheck.GUARDS.get(type(p))
            if row is None:
                continue
            rules.add(node.rule)
            ctx, x = dict(node.context), node.subject
            binding = process.BINDING[type(p)]
            y = None if binding.binder is None else binding.fields(p)[binding.binder]
            kids = (*ty.children(ctx[x]), ctx[x])
            rest = {c: t for c, t in ctx.items() if c != x}
            alt = row.alts[(node.tag or 1) - 1]
            assert len(node.premises) == len(alt), node.rule
            others = []
            for e, premise in zip(node.premises, alt):
                assert not e.back
                q = dict(d.nodes[e.target].context)
                for c, k in zip((y, x), premise):
                    assert (c in q and q[c] == kids[k]) if k is not None else c not in q, node.rule
                others.append({c: t for c, t in q.items() if c not in (x, y)})
                assert others[-1].items() <= rest.items(), node.rule
            if row.split:
                assert not others[0].keys() & others[1].keys() and {**others[0], **others[1]} == rest
            else:
                assert all(o == rest for o in others), node.rule
    assert rules == {row.rule for row in typecheck.GUARDS.values()}


def _outcomes(progs: list[Program]) -> list:
    """Each definition's derivation (as its golden document) or diagnostic."""
    out = []
    for prog in progs:
        for defn in prog.all_definitions():
            try:
                out.append(derivation_doc(definition_derivation(defn, prog)))
            except TypeCheckError as e:
                out.append(e.diagnostic)
    return out


def _checker_inputs() -> list[Program]:
    """The corpus, chain_1..8, gen_program 0-299, the benchmark's forwarder
    families and the diagnostic snippets."""
    from bench.workloads import chain_text
    progs = [load_corpus(name) for name in CORPUS_FILES]
    progs += [parse_program(chain_text(k)) for k in range(1, 9)]
    progs += [gen_program(s) for s in range(300)]
    progs += [gen_link(parse_type(text)) for text in link_types()]
    progs += [parse_program(text, f"<{name}>") for name, text in SNIPPETS.items()]
    return progs + list(built_programs().values())


def test_the_checker_agrees_with_the_structural_match_reference(monkeypatch):
    """`_Checker.check` dispatches on the constructor; `oracles.MatchChecker`
    states the same rules as one ten-arm structural `match`.  Node ids,
    rules, subjects, contexts, premise order, lineage and every diagnostic
    agree on `_checker_inputs`."""
    progs = _checker_inputs()
    got = _outcomes(progs)
    assert sum(isinstance(o, typecheck.Diagnostic) for o in got) == len(SNIPPETS) + len(built_programs())
    monkeypatch.setattr(typecheck, "_Checker", oracles.MatchChecker)
    assert _outcomes(progs) == got


def test_shared_unfoldings_agree_with_refreshing_every_unfolding():
    """The checker reads the program's one unfolding per invocation, whose
    binders recur wherever it is unfolded; `oracles.RefreshingProgram`
    builds every unfolding afresh.  Derivations (each channel named by where
    it enters the path), validity reports and diagnostics agree on
    `_checker_inputs`, and on every explored state of gen_program 0-59 and
    of the programs whose unfoldings nest (`test_runtime.NESTED_*`, 60
    states each), each with its reducts.  A reduct is not canonical: it
    invokes definitions on the binders of their own unfoldings, which the
    unfolding must rename apart."""
    from .test_runtime import NESTED_R, NESTED_RECV, NESTED_SEND
    compared = 0
    for prog in _checker_inputs():
        shared = oracles.check_outcomes(prog)
        assert shared == oracles.check_outcomes(oracles.RefreshingProgram(prog.defs, prog.main))
        compared += len(shared)
    progs = [gen_program(seed) for seed in range(60)]
    progs += [parse_program(text) for text in (NESTED_R, NESTED_SEND, NESTED_RECV)]
    for i, prog in enumerate(progs):
        ctx = dict(prog.main.params)
        terms = [(q, ctx) for state in explore(prog.main.body, prog, max_states=60).states
                 for q in (state, *(st.reduct for st in enabled_steps(state, prog)))]
        shared = oracles.check_outcomes(prog, terms)
        assert shared == oracles.check_outcomes(oracles.RefreshingProgram(prog.defs, prog.main), terms), i
        compared += len(shared)
    assert compared > 4000


@pytest.mark.parametrize("k, unfoldings", [(6, 56), (8, 90), (10, 132)])
def test_checking_unfolds_each_invocation_once(monkeypatch, k, unfoldings):
    # chain_k has (k+1)(k+2) distinct invocations, and its derivations about
    # 6 * 2^k call nodes, every one of them below a call not on the path
    from bench.workloads import chain_text
    real, built = process.instantiate, []

    def recording(defn, args, **kwargs):
        built.append((defn.name, args))
        return real(defn, args, **kwargs)
    monkeypatch.setattr(process, "instantiate", recording)
    assert check_program(parse_program(chain_text(k))).accepted
    assert len(built) == len(set(built)) == unfoldings


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
