import dataclasses
import gc
import itertools
import sys
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given

from csll import formulas as mf
from csll import proofs
from csll import types as ty
from csll.cycles import closure_check, closure_thread
from csll.formulas import Address, Occurrence
from csll.parser import parse_program
from csll.process import Call, Close, Cut, Nil, Program, Select, Wait, fresh
from csll.proofs import (
    NotPrincipalError, PRINCIPAL_STEPS, ProofGraph, _mkseq, _thread_arcs, address_stream,
    encode_derivation, nu_thread_witness, principal_reduce_at,
    proof_bisimilar, proof_to_dot, proof_to_json_dict,
    proof_validity, simulate_step,
)
from csll.runtime import enabled_steps, explore
from csll.typecheck import TypeCheckError, check, definition_derivation, validity_check

from . import lasso
from . import oracles
from .conftest import LOOP_TEXT, cas_text, lock_text, nested_cuts_text
from .oracles import disjoint, is_nu, min_formula, stream_at

EMPTY = Program({})


# --- streams -------------------------------------------------------------------


def test_stream_head_tail():
    s = address_stream()
    assert [stream_at(s, i) for i in range(5)] == [0, 1, 2, 3, 4]
    assert s.tail().tail().head() == stream_at(s, 2)


def test_stream_even_odd_disjoint():
    s = address_stream()
    evens = {stream_at(s.even(), i) for i in range(20)}
    odds = {stream_at(s.odd(), i) for i in range(20)}
    assert not evens & odds


def test_stream_injectivity_through_splits():
    s = address_stream()
    parts = [s.even().even(), s.even().odd(), s.odd().even(), s.odd().odd()]
    seen = [stream_at(p, i) for p in parts for i in range(10)]
    assert len(seen) == len(set(seen))


# --- encoding shapes -----------------------------------------------------------


def _rules_by_id(graph):
    return {nid: n.rule for nid, n in graph.nodes.items()}


def test_encode_done_gadget():
    x = fresh("x")
    d = check(Nil(x), {x: ty.Client(ty.ONE)}, EMPTY)
    g = encode_derivation(d).graph
    assert len(g.nodes) == 3
    mu = g.nodes[g.root]
    assert mu.rule == "mu"
    alpha = mu.sequent[0].address
    plus = g.nodes[mu.premises[0].target]
    assert plus.rule == "plus" and plus.side == 1
    assert plus.sequent[0].address == alpha.child("i")
    one = g.nodes[plus.premises[0].target]
    assert one.rule == "one"
    assert one.sequent[0].address == alpha.child("i").child("l")


def test_encode_server_gadget(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    nu = g.nodes[g.root]
    assert nu.rule == "nu"
    with_ = g.nodes[nu.premises[0].target]
    assert with_.rule == "with"
    bot_side = g.nodes[with_.premises[0].target]
    par_side = g.nodes[with_.premises[1].target]
    assert bot_side.rule == "bot" and par_side.rule == "par"
    alpha = nu.principal
    assert bot_side.principal == alpha.child("i").child("l")
    assert par_side.principal == alpha.child("i").child("r")


def test_encoded_lock_addresses_disjoint_and_cut_atoms_dual(lock):
    d = check(lock.main.body, dict(lock.main.params), lock)
    g = encode_derivation(d).graph
    for n in g.nodes.values():
        for a, b in itertools.combinations([o.address for o in n.sequent], 2):
            assert disjoint(a, b), (n.nid, a, b)
        if n.rule == "cut":
            a, b = n.cut_pair
            assert a.atom == b.atom and a.bar != b.bar


def test_atoms_never_reused_across_cuts(cas):
    d = check(cas.main.body, dict(cas.main.params), cas)
    g = encode_derivation(d).graph
    cut_atoms = [n.cut_pair[0].atom for n in g.nodes.values() if n.rule == "cut"]
    assert len(cut_atoms) == len(set(cut_atoms))
    root_atoms = {o.address.atom for o in g.nodes[g.root].sequent}
    assert not root_atoms & set(cut_atoms)


# --- validity -------------------------------------------------------------------


# the loop swaps x and y, so its own graph has no self-arc; its square
# serves both threads
SWAP = """
def Swap(x: srv bot, y: srv bot, z: 1) =
  server x(u) { wait u; Swap(y, x, z) } idle { Drain(y, z) }

def Drain(y: srv bot, z: 1) = server y(v) { wait v; Drain(y, z) } idle { close z }
"""


def _validity_inputs(corpus):
    """Corpus, hand-written loops, generated programs and the forwarder
    families of depth <= 2, as (label, program) pairs."""
    from csll.gen import gen_program
    from csll.linkgen import gen_link
    from csll.parser import parse_program
    from .test_typecheck import BAD, TWO_PHASE, ZIGZAG

    yield from zip(("lock", "omega", "omega_server", "cas", "comm"), corpus)
    for label, text in (("TWO_PHASE", TWO_PHASE), ("Bad", BAD), ("Swap", SWAP), ("Zigzag", ZIGZAG)):
        yield label, parse_program(text, f"<{label}>")
    for seed in range(200):
        yield f"gen_{seed}", gen_program(seed)
    atoms = [ty.ONE, ty.BOT, ty.Top(), ty.Zero()]
    families = atoms + [c(a) for c in (ty.Server, ty.Client) for a in atoms]
    families += [c(a, b) for c in (ty.Tensor, ty.Par, ty.Plus, ty.With) for a in atoms for b in atoms]
    for t in families:
        yield f"link {t}", gen_link(t)


def test_proof_validity_agrees_with_derivation_checker(lock, omega, omega_server, cas, comm):
    # both verdicts are also held against the brute-force lasso oracle; the
    # closure given every edge's arcs up front reaches the proof's witness
    # and thread, and the thread is a closed progressing thread of the oracle
    verdicts, threads = set(), 0
    for label, prog in _validity_inputs((lock, omega, omega_server, cas, comm)):
        for defn in prog.all_definitions():
            d = definition_derivation(defn, prog)
            dv = validity_check(d)
            g = encode_derivation(d).graph
            pv = proof_validity(g)
            assert dv.verdict == pv.verdict, (label, defn.name)
            assert lasso.agrees(lasso.derivation_edges(d), dv.verdict, dv.witness), (label, defn.name)
            edges = lasso.proof_edges(g)
            assert lasso.agrees(edges, pv.verdict, pv.witness), (label, defn.name)
            eager = lambda n, i: edges[n][i][2]
            thread = nu_thread_witness(g)
            assert (pv.witness, thread) == (closure_check(g, eager), closure_thread(g, eager)), \
                (label, defn.name)
            assert not thread or lasso.thread_passes(edges, thread), (label, defn.name)
            verdicts.add(dv.verdict)
            threads += bool(thread)
    assert verdicts == {"valid", "invalid"} and threads > 10


def test_arcs_are_asked_for_only_below_a_cycle_head(lock):
    from csll.parser import parse_program
    from bench.workloads import chain_text

    def counted(g):
        arcs, calls = _thread_arcs(g), []
        return lambda n, i: calls.append((n, i)) or arcs(n, i), calls

    for k in (1, 4, 8):
        prog = parse_program(chain_text(k), f"<chain_{k}>")
        for defn in prog.all_definitions():
            g = encode_derivation(definition_derivation(defn, prog)).graph
            assert not any(e.back for n in g.nodes.values() for e in n.premises)
            arcs, calls = counted(g)
            assert closure_check(g, arcs) is None
            assert calls == [], (k, defn.name)
    # on a cyclic proof each edge below a head is asked for once
    g = encode_derivation(check(lock.main.body, dict(lock.main.params), lock)).graph
    arcs, calls = counted(g)
    closure_check(g, arcs)
    heads = {e.target for n in g.nodes.values() for e in n.premises if e.back}
    below = set()
    stack = list(heads)
    while stack:
        n = stack.pop()
        below.add(n)
        stack.extend(e.target for e in g.nodes[n].premises if not e.back)
    assert calls and len(calls) == len(set(calls))
    assert {n for n, _ in calls} == {n for n in below if g.nodes[n].premises}


def test_an_invocation_chain_closing_on_itself_encodes_as_one_loop_node():
    prog = parse_program(LOOP_TEXT, "t.csll")
    for defn in prog.all_definitions():
        d = definition_derivation(defn, prog)
        assert not validity_check(d).is_valid, defn.name
        assert not proof_validity(encode_derivation(d).graph).is_valid, defn.name
    g = encode_derivation(definition_derivation(prog.defs["A"], prog)).graph
    (node,) = g.nodes.values()
    assert node.nid == g.root and node.rule == "loop"
    assert [(e.target, e.back) for e in node.premises] == [(g.root, True)]


@pytest.mark.parametrize("text", [lock_text(500), nested_cuts_text(400)], ids=["lock_500", "nested_cuts_400"])
def test_deep_input_checks_encodes_and_validates_at_the_default_limit(text):
    # the encoder recurses once per derivation node, as the checker does, so
    # a derivation the checker builds under the default limit of 1000 frames
    # also encodes under it: lock_500 nests 500 client nodes, and 400 nested
    # cuts nest 800 cut and wait nodes
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        prog = parse_program(text, "deep.csll")
        for defn in prog.all_definitions():
            d = definition_derivation(defn, prog)
            assert validity_check(d).is_valid and proof_validity(encode_derivation(d).graph).is_valid
    finally:
        sys.setrecursionlimit(limit)


def test_invalid_proof_has_witness(omega):
    d = definition_derivation(omega.defs["Omega"], omega)
    pv = proof_validity(encode_derivation(d).graph)
    assert pv.verdict == "invalid" and pv.witness


def test_nu_thread_witness_on_lock(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    witness = nu_thread_witness(g)
    assert witness
    formulas = [g.nodes[nid].occurrence_at(addr).formula for nid, addr in witness]
    m = min_formula(set(formulas))
    assert m == mf.encode_type(ty.Server(ty.BOT))
    assert is_nu(m)
    # the recurring set is the fixed point, its unfolding, and the par part
    assert {mf.render_formula(f) for f in formulas} == {
        "nu X. (bot (&) (bot (par) X))",
        "(bot (&) (bot (par) X))".replace("X", "nu X. (bot (&) (bot (par) X))"),
        "(bot (par) nu X. (bot (&) (bot (par) X)))",
    }


def test_min_inf_often_defined_on_witnesses(cas):
    for defn in cas.all_definitions():
        d = definition_derivation(defn, cas)
        g = encode_derivation(d).graph
        w = nu_thread_witness(g)
        if w:
            formulas = {g.nodes[nid].occurrence_at(a).formula for nid, a in w}
            assert min_formula(formulas) is not None


def test_no_nu_witness_in_omega(omega):
    d = definition_derivation(omega.defs["Omega"], omega)
    assert nu_thread_witness(encode_derivation(d).graph) == []


# --- principal reduction ---------------------------------------------------------


def test_principal_reduce_close_erases_cut():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    d = check(p, {z: ty.ONE}, EMPTY)
    g = encode_derivation(d).graph
    principal_reduce_at(g, g.root)
    root = g.nodes[g.root]
    assert root.rule == "one"  # what remains is the proof of close z
    fresh_enc = encode_derivation(check(Close(z), {z: ty.ONE}, EMPTY)).graph
    assert proof_bisimilar(g, fresh_enc)


def test_principal_reduce_writes_the_result_under_the_cut_id():
    # the inner close-cut is the outer cut's right premise
    x, y, z = fresh("x"), fresh("y"), fresh("z")
    inner = Cut(x, ty.ONE, Close(x), Wait(x, Wait(y, Close(z))))
    d = check(Cut(y, ty.ONE, Close(y), inner), {z: ty.ONE}, EMPTY)
    enc = encode_derivation(d)
    cut_id = enc.deriv_to_proof[next(n for n, dn in d.nodes.items() if dn.process is inner)]
    g = enc.graph
    assert cut_id != g.root
    premises = {nid: n.premises for nid, n in g.nodes.items()}
    bot_premise = g.nodes[g.nodes[cut_id].premises[1].target].premises[0].target
    assert principal_reduce_at(g, cut_id) is None
    # one/bot leaves the bot rule's premise, the proof of `wait y; close z`
    assert g.nodes[cut_id] == dataclasses.replace(g.nodes[bot_premise], nid=cut_id)
    assert {n: premises[n] for n in premises if n != cut_id} == \
        {n: g.nodes[n].premises for n in premises if n != cut_id}


def test_principal_reduce_requires_principal_premises(lock):
    # after one connect the outer close-cut sits above another cut; reducing
    # there is a commutation, which is out of scope
    steps = enabled_steps(lock.main.body, lock, deterministic=True)
    reduct = steps[0].reduct
    d = check(reduct, dict(lock.main.params), lock)
    g = encode_derivation(d).graph
    with pytest.raises(NotPrincipalError):
        principal_reduce_at(g, g.root)


def test_reduce_at_rejects_non_cut(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    with pytest.raises(NotPrincipalError):
        principal_reduce_at(g, g.root)


# --- correspondence ---------------------------------------------------------------


def test_close_corresponds_to_one_step():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    (st,) = enabled_steps(p, EMPTY, deterministic=True)
    rep = simulate_step(st.exposed, st.cut, st.reduct, {z: ty.ONE}, EMPTY, st.info.kind)
    assert rep.matched and rep.steps == 1


def test_connect_corresponds_to_three_steps(lock):
    st = enabled_steps(lock.main.body, lock, deterministic=True)[0]
    assert st.info.kind == "r-connect"
    rep = simulate_step(st.exposed, st.cut, st.reduct, dict(lock.main.params), lock, st.info.kind)
    assert rep.matched and rep.steps == 3


def test_done_corresponds_to_three_steps(lock):
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.Client(ty.ONE), Nil(x), Call("Lock", (x, z)))
    (st,) = enabled_steps(p, lock, deterministic=True)
    assert st.info.kind == "r-done"
    rep = simulate_step(st.exposed, st.cut, st.reduct, {z: ty.ONE}, lock, st.info.kind)
    assert rep.matched and rep.steps == 3


def test_simulate_step_reports_a_missing_cut_and_a_failed_reduction(comm):
    st = enabled_steps(comm.main.body, comm, deterministic=True)[0]
    assert st.info.kind == "r-comm"
    ctx = dict(comm.main.params)
    c = st.cut
    equal = Cut(c.chan, c.anno, c.left, c.right, span=c.span)
    assert equal == c and equal is not c  # the redex cut is found by identity
    rep = simulate_step(st.exposed, equal, st.reduct, ctx, comm, st.info.kind)
    assert dataclasses.astuple(rep) == ("r-comm", 0, False, "redex cut not found in derivation")
    rep = simulate_step(st.exposed, st.cut, st.reduct, ctx, comm, "r-connect")
    assert not rep.matched
    assert rep.detail == ("principal reduction failed: "
                          "cut occurrences are not principal in both premises (one/cut)")


def test_correspondence_on_all_corpus_det_edges(lock, cas, omega, omega_server, comm):
    for prog in (lock, cas, omega, omega_server, comm):
        ctx = dict(prog.main.params)
        g = explore(prog.main.body, prog, max_states=60, max_depth=60)
        for sid in g.expanded:
            for st in enabled_steps(g.states[sid], prog, deterministic=True):
                rep = simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
                assert rep.matched, (st.info, rep.detail)
                assert rep.steps == PRINCIPAL_STEPS[st.info.kind]


def test_bisimilar_rolled_and_unrolled(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    assert proof_bisimilar(g, g)
    d2 = definition_derivation(lock.defs["Lock"], lock)
    assert proof_bisimilar(g, encode_derivation(d2).graph)


def test_bisimilar_distinguishes_different_proofs(lock, cas):
    g1 = encode_derivation(definition_derivation(lock.defs["Lock"], lock)).graph
    g2 = encode_derivation(definition_derivation(cas.defs["CasTrue"], cas)).graph
    assert not proof_bisimilar(g1, g2)


def _side_formula_changed(n) -> tuple[Occurrence, ...]:
    """n's sequent with the formula of its first non-principal occurrence replaced."""
    i = next(i for i, o in enumerate(n.sequent) if o.address != n.principal)
    o = n.sequent[i]
    other = ty.Top() if o.formula != ty.Top() else ty.Zero()
    return n.sequent[:i] + (dataclasses.replace(o, formula=other),) + n.sequent[i + 1:]


# one attribute that `proof_bisimilar` compares: the first node of an encoded
# main that the predicate picks, and the change that alters only that attribute
_NODE_CHANGES = {
    "rule": ("lock", lambda n: n.rule == "par", lambda n: {"rule": "tensor"}),
    "plus side": ("cas", lambda n: n.rule == "plus", lambda n: {"side": 3 - n.side}),
    "principal formula": (
        "cas", lambda n: n.principal is not None and len({o.formula for o in n.sequent}) > 1,
        lambda n: {"principal": next(o.address for o in n.sequent
                                     if o.formula != n.occurrence_at(n.principal).formula)}),
    "sequent formulas": ("lock", lambda n: len(n.sequent) > 1,
                         lambda n: {"sequent": _side_formula_changed(n)}),
    "premise count": ("cas", lambda n: len(n.premises) == 2,
                      lambda n: {"premises": n.premises[:1]}),
}


@pytest.mark.parametrize("attribute", sorted(_NODE_CHANGES))
def test_bisimilar_compares_each_attribute(attribute, lock, cas):
    name, pick, change = _NODE_CHANGES[attribute]
    prog = {"lock": lock, "cas": cas}[name]
    g = encode_derivation(check(prog.main.body, dict(prog.main.params), prog)).graph
    node = next(n for _, n in sorted(g.nodes.items()) if pick(n))
    changed = dataclasses.replace(node, **change(node))
    assert changed != node
    h = ProofGraph(dict(g.nodes), g.root)
    h.nodes[node.nid] = changed
    assert proof_bisimilar(g, ProofGraph(dict(g.nodes), g.root))
    assert not proof_bisimilar(g, h) and not proof_bisimilar(h, g)


_addresses = st.builds(Address, st.integers(0, 1), st.booleans(), st.text("ilr", max_size=2))


@given(st.lists(_addresses, max_size=6))
def test_mkseq_rejects_exactly_the_overlapping_sequents(addresses):
    occs = [Occurrence(ty.ONE, a) for a in addresses]
    overlap = any(not disjoint(a, b) for a, b in itertools.combinations(addresses, 2))
    if overlap:
        with pytest.raises(AssertionError, match="overlapping addresses"):
            _mkseq(*occs)
    else:
        rendered = sorted(a.render() for a in addresses)
        assert sorted(o.address.render() for o in _mkseq(*occs)) == rendered


# --- exports ----------------------------------------------------------------------


def test_proof_json_schema_fields(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    doc = proof_to_json_dict(g)
    assert set(doc) == {"root", "nodes"}
    for n in doc["nodes"]:
        assert set(n) == {"id", "rule", "sequent", "premises", "back"}
        for occ in n["sequent"]:
            assert set(occ) == {"formula", "address"}
    assert any(n["back"] for n in doc["nodes"])


def test_proof_root_sequent_of_lock(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    seq = {(mf.render_formula(o.formula), o.address.render()) for o in g.nodes[g.root].sequent}
    assert seq == {("nu X. (bot (&) (bot (par) X))", "a0"), ("1", "a1")}


def test_dot_highlights_witness(lock):
    d = definition_derivation(lock.defs["Lock"], lock)
    g = encode_derivation(d).graph
    dot = proof_to_dot(g, highlight=nu_thread_witness(g))
    assert "digraph proof" in dot
    assert "lightgoldenrod1" in dot  # some node carries the thread highlight


def test_thread_checker_sharper_on_carried_server_occurrence():
    # a server-typed occurrence merely carried around a cycle is a recurring
    # greatest-fixed-point thread; the proof checker certifies TWO_PHASE, whose
    # derivation-level witness channel differs between loops, and the
    # derivation checker now reaches the same verdict
    from csll.parser import parse_program
    from .test_typecheck import TWO_PHASE

    prog = parse_program(TWO_PHASE, "<twophase>")
    d = definition_derivation(prog.defs["TwoPhase"], prog)
    assert proof_validity(encode_derivation(d).graph).verdict == "valid"
    assert validity_check(d).verdict == "valid"


def test_correspondence_on_generated_systems():
    # beyond the corpus: every det step of every reachable state of random
    # well-typed systems, all five redex kinds
    from csll.gen import gen_program
    from csll.typecheck import check

    checked = 0
    kinds = set()
    for seed in range(60):
        prog = gen_program(seed)
        ctx = dict(prog.main.params)
        g = explore(prog.main.body, prog)
        assert not g.partial
        for sid in sorted(g.expanded):
            for st in enabled_steps(g.states[sid], prog, deterministic=True):
                check(st.exposed, ctx, prog)  # the rearrangement stays typed
                rep = simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
                assert rep.matched, (seed, str(st.info), rep.detail)
                assert rep.steps == PRINCIPAL_STEPS[st.info.kind]
                kinds.add(st.info.kind)
                checked += 1
    assert checked > 300
    assert kinds == set(PRINCIPAL_STEPS)


def test_a_step_paired_with_another_steps_reduct_is_unmatched(lock, cas):
    for prog in (lock, cas):
        ctx = dict(prog.main.params)
        first = enabled_steps(prog.main.body, prog, deterministic=True)[0]
        second = enabled_steps(first.reduct, prog, deterministic=True)[0]
        for reduct, matched in ((first.reduct, True), (second.reduct, False)):
            rep = simulate_step(first.exposed, first.cut, reduct, ctx, prog, first.info.kind)
            assert rep.matched == matched
        assert rep.detail == "reduced proof differs from reduct's encoding"


def _agree(st, reduct, ctx, prog) -> bool:
    """The incremental and the from-scratch report on st paired with reduct
    agree; returns whether they match."""
    args = (st.exposed, st.cut, reduct, ctx, prog, st.info.kind)
    rep = simulate_step(*args)
    assert dataclasses.astuple(rep) == dataclasses.astuple(oracles.simulate_step(*args)), \
        (str(st.info), rep)
    return rep.matched


def test_incremental_correspondence_agrees_with_the_from_scratch_reference(
        lock, cas, omega, omega_server, comm):
    # every det step of the corpus, of gen_program 0-59 and of the lock_16 and
    # cas_10 walks, paired with its own reduct, with the reduct of another
    # step of its state (of the next det step on a walk) and with its exposed
    # term, which shares the redex cut and its ancestors
    from csll.gen import gen_program

    systems = [(prog, 60) for prog in (lock, cas, omega, omega_server, comm)]
    systems += [(gen_program(seed), 100_000) for seed in range(60)]
    outcomes: dict[str, set[bool]] = {"own": set(), "other": set(), "exposed": set()}
    for prog, bound in systems:
        ctx = dict(prog.main.params)
        g = explore(prog.main.body, prog, max_states=bound, max_depth=bound)
        for sid in sorted(g.expanded):
            others = enabled_steps(g.states[sid], prog)
            for st in enabled_steps(g.states[sid], prog, deterministic=True):
                outcomes["own"].add(_agree(st, st.reduct, ctx, prog))
                other = next((o for o in reversed(others) if o.info != st.info), None)
                if other is not None:
                    outcomes["other"].add(_agree(st, other.reduct, ctx, prog))
                outcomes["exposed"].add(_agree(st, st.exposed, ctx, prog))
    for prog in (parse_program(lock_text(16)), parse_program(cas_text(["TF", "FT"] * 5))):
        ctx, cur, prev = dict(prog.main.params), prog.main.body, None
        while steps := enabled_steps(cur, prog, deterministic=True):
            st = steps[0]
            outcomes["own"].add(_agree(st, st.reduct, ctx, prog))
            outcomes["exposed"].add(_agree(st, st.exposed, ctx, prog))
            if prev is not None:
                outcomes["other"].add(_agree(prev, st.reduct, ctx, prog))
            prev, cur = st, st.reduct
    assert outcomes["own"] == {True} and outcomes["other"] == {True, False}
    assert False in outcomes["exposed"]


def _det_walk(prog) -> list:
    """The steps of prog's deterministic run from main, in order."""
    cur, walk = prog.main.body, []
    while det := enabled_steps(cur, prog, deterministic=True):
        walk.append(det[0])
        cur = det[0].reduct
    return walk


def test_carried_sessions_agree_with_the_from_scratch_reference():
    # a session lives as long as its program: fresh programs, whose sessions
    # then carry across interleaved walks, revisits, several pairings of one
    # step and two contexts
    progs = [parse_program(lock_text(4)), parse_program(cas_text(["TF", "FT"] * 2))]
    walks = [_det_walk(prog) for prog in progs]
    for pair in itertools.zip_longest(*walks):  # two programs' walks, step by step
        for prog, st in zip(progs, pair):
            if st is not None:
                assert _agree(st, st.reduct, dict(prog.main.params), prog)
    for prog, walk in zip(progs, walks):  # every step revisited, the last first
        for st in reversed(walk):
            assert _agree(st, st.reduct, dict(prog.main.params), prog)
    for prog, walk in zip(progs, walks):
        ctx = dict(prog.main.params)
        for st, nxt in zip(walk, walk[1:]):
            # the next step's exposed term as a reduct leaves that step's cut
            # in the memo, so the next round finds it in an older node
            outcomes = [_agree(st, reduct, ctx, prog) for reduct in (st.exposed, nxt.exposed, st.reduct)]
            assert not outcomes[0] and outcomes[2]
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Select(z, 1, Close(z))))
    prog = Program({})
    (st,) = enabled_steps(p, prog, deterministic=True)
    for t in (ty.Plus(ty.ONE, ty.ONE), ty.Plus(ty.ONE, ty.BOT), ty.Plus(ty.ONE, ty.ONE)):
        assert _agree(st, st.reduct, {z: t}, prog) and not _agree(st, st.exposed, {z: t}, prog)


def test_a_failed_check_leaves_the_session_sound():
    # each step is first tried on an ill-typed copy of it (every context
    # channel typed bot), whose check fails deep in the derivation after it
    # has checked and keyed some of the copy's subterms; the copy is then
    # dropped, so ids of its terms may come back, and each step must still
    # agree with the from-scratch reference, principal step count included
    progs = [parse_program(lock_text(6)), parse_program(cas_text(["TF", "FT"] * 2))]
    walks = [_det_walk(prog) for prog in progs]
    for pair in itertools.zip_longest(*walks):
        for prog, st in zip(progs, pair):
            if st is None:
                continue
            ctx = dict(prog.main.params)
            copy = oracles.rebuilt(st.exposed), oracles.rebuilt(st.reduct)
            with pytest.raises(TypeCheckError):
                simulate_step(copy[0], st.cut, copy[1], dict.fromkeys(ctx, ty.BOT), prog, st.info.kind)
            del copy
            gc.collect()
            assert _agree(st, st.reduct, ctx, prog)


def _built(prog) -> tuple[int, int]:
    """How many derivation and proof nodes prog's session has built (each
    call takes one id of each)."""
    s = proofs._session(prog)
    return next(s.ids), next(s.store._ids)


def _reachable(nodes: dict, root: int) -> int:
    seen, stack = {root}, [root]
    while stack:
        for e in nodes[stack.pop()].premises:
            if e.target not in seen:
                seen.add(e.target)
                stack.append(e.target)
    return len(seen)


def test_a_walk_step_builds_as_many_nodes_at_any_pool_width():
    # ROADMAP item 10's flatness without a clock: after the first step, the
    # most derivation and proof nodes one step of lock_n's walk builds does
    # not grow with n
    most = {}
    for n in (16, 64):
        prog = parse_program(lock_text(n))
        ctx, built = dict(prog.main.params), []
        for st in _det_walk(prog):
            assert simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind).matched
            built.append(_built(prog))
        most[n] = max(b[0] - a[0] + b[1] - a[1] - 2 for a, b in zip(built, built[1:]))
    assert most[64] <= most[16]


def test_the_session_store_stays_within_twice_the_live_proof_and_one_step():
    prog = parse_program(lock_text(64))
    ctx, built, live = dict(prog.main.params), [], 0
    for st in _det_walk(prog):
        simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
        s = proofs._session(prog)
        live = max(live, _reachable(s.store.nodes, s.last[1]))
        built.append((len(s.store.nodes), _built(prog)[1]))
    step = max(b - a - 1 for (_, a), (_, b) in zip(built, built[1:]))
    assert max(size for size, _ in built) <= 2 * live + step
    assert built[-1][1] > 4 * live  # what the walk built in all would not fit


def test_a_session_knows_an_invocation_by_name_arguments_and_context(lock):
    # the memo keys an invocation by value: an equal invocation keeps the
    # first one's node, and one under another context is checked anew
    x, z = lock.defs["Lock"].param_names
    ctx = dict(lock.defs["Lock"].params)
    session = proofs._Session()
    session.prog = lock
    first = check(Call("Lock", (x, z)), ctx, lock, session).root
    assert check(Call("Lock", (x, z)), ctx, lock, session).root == first
    with pytest.raises(TypeCheckError, match="annotation says"):
        check(Call("Lock", (x, z)), {**ctx, z: ty.BOT}, lock, session)


def test_a_compaction_before_every_step_keeps_the_tables_on_kept_nodes():
    # with nothing counted live, every step starts by compacting; the memo
    # and the proof map must then lead only to nodes the stores keep, a memo
    # entry to a node of its own term and context, and every report must
    # still be the from-scratch one
    for prog in (parse_program(lock_text(16)), parse_program(cas_text(["TF", "FT"] * 3))):
        ctx, s = dict(prog.main.params), proofs._session(prog)
        for st in _det_walk(prog):
            s.live = 0
            _agree(st, st.reduct, ctx, prog)
            for key, nid in s.memo.items():
                node = s.nodes[nid]
                assert key == ((node.process.name, node.process.args, node.context)
                               if type(node.process) is Call else (id(node.process), node.context))
            assert all(nid in s.nodes and pid in s.store.nodes for nid, pid in s.proof_of.items())
        assert s.live > 0


def test_a_session_is_dropped_with_its_program():
    prog = parse_program(lock_text(2))
    ctx, walk = dict(prog.main.params), _det_walk(prog)
    for st in walk:
        simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
    session = weakref.ref(proofs._session(prog))
    assert session() is not None
    del prog, walk, st
    gc.collect()
    assert session() is None
