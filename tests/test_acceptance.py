"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Budgets are wall-clock assertions, generous enough for CI
noise but tight enough to catch blowups.
"""

import random
import time

from csll import formulas as mf
from csll import types as ty
from csll.canon import canonical_form
from csll.formulas import Address, Occurrence, occ_step
from csll.gen import gen_program
from csll.linkgen import gen_link
from csll.printer import pretty_process
from csll.proofs import (
    PRINCIPAL_STEPS, encode_derivation, proof_validity, simulate_step,
)
from csll.runtime import (
    check_fair_termination, enabled_steps, explore, is_close_normal, run,
)
from csll.typecheck import check, check_program, definition_derivation, validity_check

from .conftest import load_corpus
from .oracles import (
    channels, depth, dual_formula, is_nu, min_formula, random_any_type, subformula_leq, threads, unfold,
)


def _ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def _file_verdict(name: str) -> str:
    rep = check_program(load_corpus(name))
    if not rep.well_typed:
        return "type-error"
    if any(r.validity.verdict == "invalid" for r in rep.defs):
        return "invalid"
    return "accepted"


def test_criterion_1_corpus_verdicts():
    t0 = time.monotonic()
    assert _file_verdict("lock.csll") == "accepted"
    assert _file_verdict("omega.csll") == "invalid"
    assert _file_verdict("omega_server.csll") == "invalid"
    assert _file_verdict("cas.csll") == "accepted"

    # forwarder families: exhaustive at depth <= 2, seeded sample at depth 3-4
    # (the full space at depth 4 has billions of types)
    atoms = [ty.ONE, ty.BOT, ty.Top(), ty.Zero()]
    depth2 = [c(a) for c in (ty.Server, ty.Client) for a in atoms]
    depth2 += [c(a, b) for c in (ty.Tensor, ty.Par, ty.Plus, ty.With)
               for a in atoms for b in atoms]
    checked = 0
    for t in atoms + depth2:
        assert check_program(gen_link(t)).accepted, t
        checked += 1
    rng = random.Random(2024)
    while checked < 76 + 4 + 250:
        t = random_any_type(rng, depth=rng.choice((3, 4)))
        if depth(t) > 4:
            continue
        assert check_program(gen_link(t)).accepted, t
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"corpus verdicts took {elapsed:.1f}s"
    _ok(1, f"corpus verdicts exact; {checked} forwarder families accepted in {elapsed:.1f}s")


def test_criterion_2_encoding_fidelity():
    assert mf.encode_type(ty.Client(ty.ONE)) == mf.Mu(
        "X", mf.Plus(mf.F_ONE, mf.Tensor(mf.F_ONE, mf.Var("X"))))
    assert mf.encode_type(ty.Server(ty.BOT)) == mf.Nu(
        "X", mf.With(mf.F_BOT, mf.Par(mf.F_BOT, mf.Var("X"))))
    rng = random.Random(99)
    for _ in range(1000):
        t = random_any_type(rng, depth=4)
        assert mf.encode_type(ty.dual(t)) == dual_formula(mf.encode_type(t))
    _ok(2, "coexponential encodings exact; encode/dual commute on 1000 random types")


def test_criterion_3_validity_agreement():
    names = ["lock.csll", "omega.csll", "omega_server.csll", "cas.csll", "comm.csll"]
    disagreements = 0
    total = 0
    for name in names:
        prog = load_corpus(name)
        for defn in prog.all_definitions():
            d = definition_derivation(defn, prog)
            dv = validity_check(d)
            pv = proof_validity(encode_derivation(d).graph)
            total += 1
            if dv.verdict != pv.verdict:
                disagreements += 1
    assert disagreements == 0
    _ok(3, f"derivation and proof validity agree on all {total} corpus derivations")


def _corpus_graphs():
    for name in ["lock.csll", "omega.csll", "omega_server.csll", "cas.csll", "comm.csll"]:
        prog = load_corpus(name)
        yield name, prog, explore(prog.main.body, prog, max_states=200, max_depth=200)


def test_criterion_4_subject_reduction():
    failures = 0
    edges = 0
    for name, prog, g in _corpus_graphs():
        ctx = dict(prog.main.params)
        for sid in g.expanded:
            for _, tid in g.edges[sid]:
                edges += 1
                try:
                    check(g.states[tid], ctx, prog)
                except Exception:
                    failures += 1
    assert failures == 0
    _ok(4, f"all {edges} explored corpus reducts re-typecheck")


def test_criterion_5_deadlock_freedom():
    t0 = time.monotonic()
    programs = 0
    states = 0
    seed = 0
    while programs < 1000:
        prog = gen_program(seed)
        seed += 1
        assert check_program(prog).accepted, seed
        g = explore(prog.main.body, prog, max_states=300, max_depth=300)
        assert not g.partial
        for state in g.states:
            states += 1
            if not is_close_normal(state, prog):
                assert enabled_steps(state, prog, deterministic=True), (seed, pretty_process(state))
        programs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"deadlock-freedom sweep took {elapsed:.1f}s"
    _ok(5, f"{programs} generated programs, {states} states: every non-terminal state "
           f"has a deterministic redex ({elapsed:.1f}s)")


def test_criterion_6_termination_behavior():
    lock = load_corpus("lock.csll")
    cas = load_corpus("cas.csll")
    omega = load_corpus("omega.csll")

    tr = run(lock.main.body, dict(lock.main.params), lock, scheduler="det", max_steps=1000)
    assert tr.terminated and len(tr.steps) <= 1000
    assert pretty_process(tr.final) == "close z"

    tr2 = run(cas.main.body, dict(cas.main.params), cas, scheduler="det", max_steps=1000)
    assert tr2.terminated and len(tr2.steps) <= 1000
    assert pretty_process(canonical_form(tr2.final)) in ("z.in1; close z", "z.in2; close z")

    g = explore(cas.main.body, cas)
    normals = {pretty_process(g.states[i]) for i in g.normal_forms()}
    assert normals == {"z.in1; close z", "z.in2; close z"}

    assert check_fair_termination(lock.main.body, lock).verdict == "fairly-terminating"
    assert check_fair_termination(cas.main.body, cas).verdict == "fairly-terminating"
    assert check_fair_termination(omega.main.body, omega).verdict == "not-fairly-terminating"
    _ok(6, "deterministic runs normalize; the register system has exactly its two outcomes; "
           "fair-termination verdicts as required")


def test_criterion_7_correspondence_law():
    mismatches = 0
    counts = {}
    for name, prog, g in _corpus_graphs():
        ctx = dict(prog.main.params)
        for sid in g.expanded:
            for st in enabled_steps(g.states[sid], prog, deterministic=True):
                rep = simulate_step(st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
                counts[st.info.kind] = counts.get(st.info.kind, 0) + 1
                if not (rep.matched and rep.steps == PRINCIPAL_STEPS[st.info.kind]):
                    mismatches += 1
    assert mismatches == 0
    assert set(counts) == {"r-close", "r-comm", "r-case", "r-done", "r-connect"}
    total = sum(counts.values())
    _ok(7, f"{total} deterministic corpus steps align with their proof reductions "
           f"(1 step for close/comm/case, 3 for done/connect); kinds covered: {sorted(counts)}")


def test_criterion_8_micro_examples():
    phi_mu = mf.Mu("X", mf.Plus(mf.Var("X"), mf.F_ONE))
    t = [Occurrence(phi_mu, Address(0, False))]
    t.append(occ_step(t[-1])[0])
    t.append(occ_step(t[-1])[0])
    assert [o.formula for o in t] == [phi_mu, mf.Plus(phi_mu, mf.F_ONE), phi_mu]
    inf = {phi_mu, mf.Plus(phi_mu, mf.F_ONE)}
    assert min_formula(inf) == phi_mu and not is_nu(phi_mu)

    phi = mf.Nu("X", mf.Mu("Y", mf.Plus(mf.Var("X"), mf.Var("Y"))))
    psi = mf.Mu("Y", mf.Plus(phi, mf.Var("Y")))
    t1_inf = {phi, psi, mf.Plus(phi, psi)}
    assert min_formula(t1_inf) == phi and is_nu(phi)
    t2_inf = {psi, mf.Plus(phi, psi)}
    assert min_formula(t2_inf) == psi and not is_nu(psi)

    assert subformula_leq(phi, psi)
    assert not subformula_leq(psi, phi)
    _ok(8, "worked fixed-point thread examples and subformula facts reproduced")


def test_criterion_9_counting_lemma():
    failures = 0
    states = 0
    for seed in range(400):
        prog = gen_program(seed)
        g = explore(prog.main.body, prog, max_states=200, max_depth=200)
        for state in g.states:
            u = unfold(state, prog)
            states += 1
            if not threads(u) > channels(u):
                failures += 1
    assert failures == 0
    _ok(9, f"threads > channels on all {states} unfolded reachable states "
           f"of generated programs")
