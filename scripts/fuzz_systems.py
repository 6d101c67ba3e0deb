#!/usr/bin/env python3
"""Property sweep over randomly generated well-typed systems.

For each seed, and for the fixed programs whose pools end in a guard on
another channel (`tests/conftest.pool_end_texts`): the program must be
accepted by the checker, every derivation must store a lineage on its back
edges only and compute each tree edge's as the reference does
(`tests/oracles.lineage_faults`) and be, node for node, the one the
structural match reference derives with no copied call
(`tests/oracles.match_faults`) and encode, proof node for proof node, as
with no copied call recorded (`tests/oracles.encoding_faults`), every
reachable state must either be a terminal close or have a deterministic
redex and must print as its depth-named canonical form
(`tests/oracles.depth_canonical`), every state and every deterministic
reduct must have the free names the reference walk
(`tests/oracles.free_names_walk`) finds, read after printing and stepping
have kept sets on their terms, every reduct (canonical, and as each
deterministic step builds it) must re-typecheck, to the same derivation as
with every unfolding built afresh (`tests/oracles.RefreshingProgram`), every
deterministic step must be matched by its number of principal cut
reductions of the encoded proof (`proofs.simulate_step`) and reported as by
the from-scratch reference (`tests/oracles.simulate_step`), on a forward
pass over the states and again in reverse order, and the unfolded
thread/channel counts must obey the strict inequality the deadlock-freedom
argument rests on.  Then every explored state (at most 60) of the programs
whose unfoldings nest (`tests/test_runtime.NESTED_*`), each with its
reducts, must check as with every unfolding built afresh: unlike the
generated programs, they invoke definitions on the binders of their own
unfoldings, which the unfolding must rename apart.  And the derivations of
the programs whose calls derive apart by the definitions on their path
(`tests/conftest.PATH_SENSITIVE`) must be the structural match reference's,
and encode as with no copied call recorded.

Usage: python scripts/fuzz_systems.py [-n COUNT] [--seed-base N]
"""

import argparse
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the oracles of tests/oracles.py

from csll.gen import gen_program
from csll.parser import parse_program
from csll.printer import pretty_process
from csll.process import free_names
from csll.proofs import PRINCIPAL_STEPS, simulate_step
from csll.runtime import enabled_steps, explore, is_close_normal
from csll.typecheck import Diagnostic, check_program
from tests.conftest import PATH_SENSITIVE, pool_end_texts
from tests.oracles import (
    RefreshingProgram, channels, check_outcomes, depth_canonical, encoding_faults, free_names_walk, lineage_faults,
    match_faults, threads, unfold,
)
from tests.test_runtime import NESTED_R, NESTED_RECV, NESTED_SEND
from tests.oracles import simulate_step as reference_step


def sweep(label: str, prog, counts: Counter) -> None:
    """Run every check on prog, counting its states, re-checked reducts and
    simulated steps in counts."""
    rep = check_program(prog)
    assert rep.accepted, f"{label}: checker rejected the program"
    for defn, r in zip(prog.all_definitions(), rep.defs):
        faults = lineage_faults(r.derivation) + match_faults(r.derivation, defn, prog)
        assert not faults, f"{label}: derivation of {r.name}: {faults[0]}"
        faults = encoding_faults(r.derivation)
        assert not faults, f"{label}: encoding of {r.name}: {faults[0]}"
        counts["encodings"] += 1
    ctx = dict(prog.main.params)
    g = explore(prog.main.body, prog, max_states=500, max_depth=500)
    assert not g.partial, f"{label}: exploration truncated"
    walked = []
    for sid, state in enumerate(g.states):
        counts["states"] += 1
        assert pretty_process(depth_canonical(state)[1]) == pretty_process(state), \
            f"{label}: state {sid} prints apart from its depth-named canonical form"
        det = enabled_steps(state, prog, deterministic=True)
        for term in (state, *(st.reduct for st in det)):
            assert free_names(term) == free_names_walk(term), \
                f"{label}: state {sid} or a reduct of it keeps free names apart from the reference walk"
        if not is_close_normal(state, prog):
            assert det, f"{label}: stuck state {sid}"
        walked += ((sid, st) for st in det)
        u = unfold(state, prog)
        assert threads(u) > channels(u), f"{label}: counting lemma failed"
    # forward, then backward: the second pass meets a session that every
    # step of the program has warmed
    for sid, st in walked + walked[::-1]:
        step = (st.exposed, st.cut, st.reduct, ctx, prog, st.info.kind)
        rep = simulate_step(*step)
        assert rep.matched and rep.steps == PRINCIPAL_STEPS[st.info.kind], \
            f"{label}: state {sid}, {st.info}: {rep.detail}"
        assert rep == reference_step(*step), f"{label}: state {sid}, {st.info}: {rep}"
        counts["steps"] += 1
    refreshing = RefreshingProgram(prog.defs, prog.main)
    reducts = [(f"reduct {tid}", g.states[tid]) for sid in g.expanded for _, tid in g.edges[sid]]
    counts["edges"] += len(reducts)
    for where, reduct in reducts + [(f"state {sid}, {st.info}", st.reduct) for sid, st in walked]:
        (shared,) = check_outcomes(prog, [(reduct, ctx)])
        assert not isinstance(shared, Diagnostic), f"{label}: {where} does not re-typecheck: {shared}"
        assert [shared] == check_outcomes(refreshing, [(reduct, ctx)]), \
            f"{label}: {where} checks apart from refreshing every unfolding"


def nested_recheck(label: str, prog, counts: Counter) -> None:
    """Check every explored state of prog (at most 60), and each of its
    reducts, as with every unfolding built afresh."""
    ctx = dict(prog.main.params)
    terms = [(q, ctx) for state in explore(prog.main.body, prog, max_states=60).states
             for q in (state, *(st.reduct for st in enabled_steps(state, prog)))]
    assert check_outcomes(prog, terms) == check_outcomes(RefreshingProgram(prog.defs, prog.main), terms), \
        f"{label}: a state or reduct checks apart from refreshing every unfolding"
    counts["nested"] += len(terms)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=500)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    # the pool-end programs as well: gen_program puts no guard behind a pool
    fixed = ((label, parse_program(text, label)) for label, text in pool_end_texts().items())
    seeds = range(args.seed_base, args.seed_base + args.n)
    counts: Counter = Counter()
    for label, prog in itertools.chain(fixed, ((f"seed {seed}", gen_program(seed)) for seed in seeds)):
        sweep(label, prog, counts)
        counts["programs"] += 1
    for label, text in (("nested_r", NESTED_R), ("nested_send", NESTED_SEND), ("nested_recv", NESTED_RECV)):
        nested_recheck(label, parse_program(text, label), counts)
    for label, text in PATH_SENSITIVE.items():  # rejected, so not swept: their derivations are compared
        prog = parse_program(text, label)
        for defn, r in zip(prog.all_definitions(), check_program(prog).defs):
            faults = match_faults(r.derivation, defn, prog) + encoding_faults(r.derivation)
            assert not faults, f"{label}: derivation of {r.name}: {faults[0]}"
            counts["encodings"] += 1
    dt = time.monotonic() - t0
    print(f"{counts['programs']} programs, {counts['encodings']} encodings, {counts['states']} states, "
          f"{counts['edges']} re-checked reducts, {counts['steps']} simulated steps, {counts['nested']} "
          f"nested-unfolding terms: all OK in {dt:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
