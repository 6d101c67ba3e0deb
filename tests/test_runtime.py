from hypothesis import given, settings

from csll import types as ty
from csll.canon import canonical_form
from csll.gen import gen_program
from csll.printer import pretty_process
from csll.process import (
    Call, ChannelName, Close, Cons, Cut, Fork, Join, Nil, Process, Program, Server, Wait,
    channels, fresh, rename, threads, unfold,
)
from csll.typecheck import check
from .conftest import CORPUS_FILES, cas_text, load_corpus, lock_text
from .oracles import alpha_equal, find_state
from .strategies import processes
from csll.parser import parse_program
from csll.runtime import (
    check_fair_termination, enabled_steps, explore,
    is_close_normal, is_weakly_terminating, run, step_all, step_det,
)

EMPTY = Program({})


def test_step_close():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    steps = step_all(p, EMPTY)
    assert [i.kind for i, _ in steps] == ["r-close"]
    assert steps[0][1] == canonical_form(Close(z))


def test_close_needs_a_cut_typed_one():
    x, z = fresh("x"), fresh("z")
    for anno in (ty.Tensor(ty.ONE, ty.ONE), ty.BOT):
        assert enabled_steps(Cut(x, anno, Close(x), Wait(x, Close(z))), EMPTY) == []


def test_step_done():
    x, z, y = fresh("x"), fresh("z"), fresh("y")
    p = Cut(x, ty.Client(ty.ONE), Nil(x), Server(x, y, Close(z), Close(z)))
    steps = step_all(p, EMPTY)
    assert [i.kind for i, _ in steps] == ["r-done"]
    assert steps[0][1] == canonical_form(Close(z))


def test_two_client_lock_has_two_equivalent_successors(lock):
    steps = step_all(lock.main.body, lock)
    assert len(steps) == 2
    assert all(i.kind == "r-connect" for i, _ in steps)
    assert {i.client_index for i, _ in steps} == {0, 1}
    assert len({q for _, q in steps}) == 1  # identical after canonicalization


def test_step_det_connects_head_only(lock):
    steps = step_det(lock.main.body, lock)
    assert len(steps) == 1
    assert steps[0][0].kind == "r-connect"
    assert steps[0][0].client_index == 0


def test_step_det_subset_of_step_all():
    checked_states = 0
    seed = 0
    while checked_states < 1000:
        prog = gen_program(seed)
        seed += 1
        g = explore(prog.main.body, prog, max_states=50, max_depth=50)
        for state in g.states:
            det = {q for _, q in step_det(state, prog)}
            full = {q for _, q in step_all(state, prog)}
            assert det <= full
            checked_states += 1


def test_step_det_on_normal_form():
    assert step_det(Close(fresh("x")), EMPTY) == []


def test_find_redex_on_lock(lock):
    info = enabled_steps(lock.main.body, lock, deterministic=True)[0].info
    assert info.kind == "r-connect"
    assert info.client_index == 0


def test_find_redex_close_and_counts():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    st = enabled_steps(p, EMPTY, deterministic=True)[0]
    assert st.info.kind == "r-close"
    assert st.reduct == Close(z)
    assert threads(p) == 2 and channels(p) == 1
    assert threads(p) > channels(p)


def test_find_redex_rejects_normal_form():
    assert not enabled_steps(Close(fresh("x")), EMPTY, deterministic=True)


def test_run_det_lock_terminates(lock):
    tr = run(lock.main.body, dict(lock.main.params), lock, scheduler="det", max_steps=1000)
    assert tr.terminated and not tr.truncated
    assert pretty_process(tr.final) == "close z"
    assert is_close_normal(tr.final, lock)


def test_is_close_normal_false_on_divergent_unfolding():
    from csll.parser import parse_program
    prog = parse_program("def Loop(x: 1) = Loop(x)\nmain(z: 1) = Loop(z)\n", "<loop>")
    assert is_close_normal(prog.main.body, prog) is False


def test_run_det_traces_are_reproducible(lock):
    t1 = run(lock.main.body, dict(lock.main.params), lock, scheduler="det")
    t2 = run(lock.main.body, dict(lock.main.params), lock, scheduler="det")
    assert [s.line() for s in t1.steps] == [s.line() for s in t2.steps]


def test_run_random_cas_reaches_both_outcomes(cas):
    finals = set()
    for seed in range(16):
        tr = run(cas.main.body, dict(cas.main.params), cas,
                 scheduler="random", seed=seed, max_steps=300)
        assert tr.terminated
        finals.add(pretty_process(canonical_form(tr.final)))
    assert finals == {"z.in1; close z", "z.in2; close z"}


def test_run_on_terminal_state_is_empty():
    tr = run(Close(fresh("x")), {}, EMPTY, scheduler="det")
    assert tr.steps == [] and tr.terminated


def test_explore_close_singleton():
    g = explore(Close(fresh("x")), EMPTY)
    assert len(g.states) == 1
    assert g.normal_forms() == {0}
    assert sum(len(v) for v in g.edges.values()) == 0


def test_explore_cas_two_normal_forms(cas):
    g = explore(cas.main.body, cas)
    assert not g.partial
    normals = {pretty_process(g.states[i]) for i in g.normal_forms()}
    assert normals == {"z.in1; close z", "z.in2; close z"}


def test_explore_omega_self_loop(omega):
    g = explore(omega.main.body, omega)
    assert len(g.states) == 1
    assert not g.normal_forms()
    assert g.edges[0][0][1] == 0  # the single edge re-enters the same state


def test_weak_termination_verdicts(omega, lock):
    g = explore(omega.main.body, omega)
    assert is_weakly_terminating(0, g) == "no"
    g2 = explore(Close(fresh("x")), EMPTY)
    assert is_weakly_terminating(0, g2) == "yes"
    g3 = explore(lock.main.body, lock)
    assert all(is_weakly_terminating(s, g3) == "yes" for s in range(len(g3.states)))


def test_weak_termination_unknown_when_partial(omega_server):
    # a bounded exploration that stops before expanding everything
    x = fresh("x")
    g = explore(omega_server.main.body, omega_server, max_states=1, max_depth=1)
    if g.partial:
        assert is_weakly_terminating(0, g) in ("unknown", "yes", "no")
    del x


def test_fair_termination_verdicts(lock, cas, omega, omega_server):
    assert check_fair_termination(lock.main.body, lock).verdict == "fairly-terminating"
    assert check_fair_termination(cas.main.body, cas).verdict == "fairly-terminating"
    assert check_fair_termination(omega.main.body, omega).verdict == "not-fairly-terminating"
    assert check_fair_termination(omega_server.main.body, omega_server).verdict == "not-fairly-terminating"


def test_feasibility_every_state_has_a_maximal_fair_run(lock, cas, omega, omega_server, comm):
    # witnessed by: a normal form is reachable, or the state sits in a region
    # of non-weakly-terminating states that always has a successor (a lasso)
    for prog in (lock, cas, omega, omega_server, comm):
        g = explore(prog.main.body, prog, max_states=200, max_depth=200)
        for sid in range(len(g.states)):
            wt = is_weakly_terminating(sid, g)
            if wt == "yes":
                continue
            assert wt == "no"
            assert g.edges[sid], "non-weakly-terminating state must reduce"
            for _, t in g.edges[sid]:
                assert is_weakly_terminating(t, g) == "no"


def test_subject_reduction_over_corpus_graphs(lock, cas, omega, omega_server, comm):
    from csll.typecheck import check
    for prog in (lock, cas, omega, omega_server, comm):
        ctx = dict(prog.main.params)
        g = explore(prog.main.body, prog, max_states=200, max_depth=200)
        for sid in g.expanded:
            for _, tid in g.edges[sid]:
                check(g.states[tid], ctx, prog)  # must not raise


def test_unfolding_during_execution_is_bounded(omega):
    # states stay at the canonical invocation; the engine unfolds on demand
    tr = run(omega.main.body, {}, omega, scheduler="det", max_steps=5)
    assert tr.truncated
    assert isinstance(canonical_form(tr.final), Call)


def test_graph_exports(lock):
    g = explore(lock.main.body, lock)
    doc = g.to_json_dict()
    assert len(doc["states"]) == len(g.states)
    assert any(s["normal"] for s in doc["states"])
    dot = g.to_dot()
    assert dot.startswith("digraph") and "r-connect" in dot


LOOP_THROUGH_CUT = "def L(x: 1) = new y : 1 { L(y) | wait y; close x }\nmain(z: 1) = L(z)\n"


def test_unguarded_call_cycle_is_stuck_not_crashing(tmp_path, capsys):
    from csll.cli import main
    from csll.process import Definition
    # B's cycle exposes nothing; L's runs through the left side of a cut
    loop = parse_program(LOOP_THROUGH_CUT)
    cases = [(Program({"B": Definition("B", (), Call("B", ()))}), Call("B", ())),
             (loop, loop.main.body)]
    for prog, p in cases:
        assert step_all(p, prog) == [] and step_det(p, prog) == []
        assert not enabled_steps(p, prog, deterministic=True)
        for scheduler in ("det", "random"):
            tr = run(p, {}, prog, scheduler=scheduler, seed=0, max_steps=10)
            assert tr.terminated and tr.steps == []
        assert len(explore(p, prog).states) == 1
    path = tmp_path / "loop.csll"
    path.write_text(LOOP_THROUGH_CUT)
    assert main(["explore", str(path)]) == 0
    assert "normal forms: 0" in capsys.readouterr().out  # L(z) diverges: no normal form
    assert main(["run", "--scheduler", "random", str(path)]) == 0
    assert "terminal: L(z)" in capsys.readouterr().out


def test_divergent_invocation_is_not_a_normal_form(tmp_path, capsys):
    # L(z) cannot step, but only because its unfolding never ends: explore
    # must not count it as a normal form, as `check` rejects the program
    from csll.cli import main
    prog = parse_program(LOOP_THROUGH_CUT)
    ft = check_fair_termination(prog.main.body, prog)
    assert ft.graph.diverging == {0} and ft.graph.normal_forms() == set()
    assert ft.verdict == "not-fairly-terminating" and ft.offending_state == 0
    assert is_weakly_terminating(0, ft.graph) == "no"
    path = tmp_path / "loop.csll"
    path.write_text(LOOP_THROUGH_CUT)
    assert main(["explore", str(path)]) == 0
    out = capsys.readouterr().out
    assert "normal forms: 0" in out and "normal[" not in out
    assert "fair termination: not-fairly-terminating" in out
    assert main(["check", str(path)]) == 2


def test_long_unguarded_chain_unfolds_in_both_semantics():
    # A1(x) = A2(x), ..., A70(x) = close x: a terminating unguarded
    # unfolding is followed to its end, however long
    text = "".join(f"def A{i}(x: 1) = A{i + 1}(x)\n" for i in range(1, 70))
    text += "def A70(x: 1) = close x\nmain(z: 1) = new x : 1 { A1(x) | wait x; close z }\n"
    prog = parse_program(text)
    p = prog.main.body
    for steps in (step_all(p, prog), step_det(p, prog)):
        assert [info.kind for info, _ in steps] == ["r-close"]
    for scheduler in ("det", "random"):
        tr = run(p, {}, prog, scheduler=scheduler, seed=0)
        assert [s.info.kind for s in tr.steps] == ["r-close"]
        assert tr.terminated and is_close_normal(tr.final, prog)
    ft = check_fair_termination(p, prog)
    assert len(ft.graph.states) == 2 and ft.verdict == "fairly-terminating"


def test_undefined_name_is_opaque_in_both_semantics():
    from csll.process import Definition, call_depth
    x, y, z = fresh("x"), fresh("y"), fresh("z")
    prog = Program({"A": Definition("A", ((x, ty.ONE),), Call("U", (x,)))})
    p = Cut(y, ty.ONE, Call("A", (y,)), Wait(y, Close(z)))
    assert call_depth(p, prog) == 2
    assert unfold(p, prog) == Cut(y, ty.ONE, Call("U", (y,)), Wait(y, Close(z)))
    assert step_all(p, prog) == [] and step_det(p, prog) == []
    assert not enabled_steps(p, prog, deterministic=True)
    for scheduler in ("det", "random"):
        tr = run(p, {}, prog, scheduler=scheduler, seed=0)
        assert tr.terminated and tr.steps == []


# the det step at b leaves A(a) folded, as exploration does
LAZY_SIDE = ("def A(a: 1) = close a\n"
             "main(z: 1) = new a : 1 { A(a) | new b : 1 { close b | wait b; wait a; close z } }\n")


def test_det_run_states_are_graph_states():
    progs = [(name, load_corpus(name)) for name in CORPUS_FILES]
    progs += [(f"gen_{seed}", gen_program(seed)) for seed in range(200)]
    progs.append(("lazy_side", parse_program(LAZY_SIDE)))
    for name, prog in progs:
        g = explore(prog.main.body, prog, max_states=500)
        assert not g.partial, name
        tr = run(prog.main.body, {}, prog, scheduler="det", max_steps=100)
        assert all(find_state(g, state) is not None for state in tr.states), name
    assert [s.line() for s in tr.steps] == ["0, r-close, b, c8528cd2ff44", "1, r-close, a, d317002044d6"]


def test_det_run_steps_past_a_divergent_invocation():
    # B(y) is stuck, but the cut on w next to it still reduces
    prog = parse_program("def B(y: 1) = B(y)\n"
                         "main(z: 1) = new y : 1 { B(y) | new w : 1 { close w | wait w; wait y; close z } }\n")
    p = prog.main.body
    assert [str(info) for info, _ in step_det(p, prog)] == ["r-close@w[R]"]
    assert str(enabled_steps(p, prog, deterministic=True)[0].info) == "r-close@w[R]"
    for scheduler in ("det", "random"):
        tr = run(p, {}, prog, scheduler=scheduler, seed=0)
        assert [str(s.info) for s in tr.steps] == ["r-close@w[R]"] and tr.terminated


@settings(max_examples=80)
@given(processes())
def test_step_all_total_on_arbitrary_terms(p):
    # stepping has no typing precondition; it may find nothing on ill-typed
    # terms but must never crash
    for _, q in step_all(p, EMPTY):
        canonical_form(q)
    step_det(p, EMPTY)


def _graph_programs() -> list[tuple[str, Program]]:
    progs = [(name, load_corpus(name)) for name in CORPUS_FILES]
    progs += [(f"lock_{n}", parse_program(lock_text(n))) for n in range(1, 9)]
    mixes = [["TF"], ["FT", "TF"], ["TF", "TF", "FT"], ["FT", "TF", "FT", "TF"],
             ["TF", "FT", "FT", "TF", "TF"], ["FT", "FT", "TF", "TF", "FT", "TF"]]
    progs += [(f"cas_{len(m)}", parse_program(cas_text(m))) for m in mixes]
    return progs + [(f"gen_{seed}", gen_program(seed)) for seed in range(100)]


def test_step_all_equals_per_step_canonicalisation():
    # step_all canonicalizes one reduct per orbit of interchangeable clients;
    # the reference canonicalizes every step's own reduct
    shared = 0
    for name, prog in _graph_programs():
        g = explore(prog.main.body, prog, max_states=300)
        for state in g.states:
            steps = enabled_steps(state, prog)
            assert step_all(state, prog) == [(st.info, canonical_form(st.reduct)) for st in steps], name
            shared += len(steps) - len({st.orbit for st in steps})
    assert shared > 0


def test_random_runs_continue_from_the_drawn_client():
    # connecting u0 or u1 first gives one canonical state, but the run goes on
    # with the client the scheduler drew
    prog = parse_program(lock_text(3))
    lines = {seed: [s.line() for s in run(prog.main.body, {}, prog, "random", seed=seed).steps]
             for seed in (0, 1)}
    assert lines[0] == ["0, r-connect, x, 246a83c4ed88", "1, r-close, u1, 051c2ff3bdca",
                        "2, r-connect, x, 7294ff60965c", "3, r-close, u0, 4eb6d6eed2c7",
                        "4, r-connect, x, 38d4e9d735f1", "5, r-close, u2, 4910815dd83e",
                        "6, r-done, x, d317002044d6"]
    assert [line.split(", ")[2] for line in lines[1]] == ["x", "u0", "x", "u2", "x", "u1", "x"]


def _fair_termination_reference(g) -> tuple[str, int | None]:
    unknown = False
    for sid in range(len(g.states)):
        wt = is_weakly_terminating(sid, g)
        if wt == "no":
            return "not-fairly-terminating", sid
        unknown = unknown or wt == "unknown"
    return ("unknown" if unknown or g.partial else "fairly-terminating"), None


# whoever connects with in1 first stalls the pool in a loop, so a bounded
# exploration finds a state that is not weakly terminating beside unexpanded ones
GATE = """
def Hold(x: srv (bot & bot), z: 1) = new w : 1 { close w | wait w; Hold(x, z) }

def Gate(x: srv (bot & bot), z: 1) =
  server x(y) { case y { in1: wait y; Hold(x, z) ; in2: wait y; Gate(x, z) } } idle { close z }

main(z: 1) =
  new x : cli (1 + 1) {
    client x(a) { a.in1; close a }; client x(b) { b.in2; close b }; client x(c) { c.in2; close c }; done x
    | Gate(x, z)
  }
"""


def test_fair_termination_equals_per_state_reference():
    progs = [(name, load_corpus(name)) for name in CORPUS_FILES]
    progs += [("lock_6", parse_program(lock_text(6))), ("cas_4", parse_program(cas_text(["TF", "FT"] * 2))),
              ("gate", parse_program(GATE))]
    progs += [(f"gen_{seed}", gen_program(seed)) for seed in range(20)]
    seen = set()
    for name, prog in progs:
        for max_states, max_depth in ((100_000, 10_000), (1, 10_000), (2, 10_000), (5, 10_000),
                                      (100_000, 1), (100_000, 2), (100_000, 4)):
            rep = check_fair_termination(prog.main.body, prog, max_states, max_depth)
            expected = _fair_termination_reference(rep.graph)
            assert (rep.verdict, rep.offending_state) == expected, (name, max_states, max_depth)
            seen.add((rep.verdict, rep.graph.partial))
    assert {("unknown", True), ("not-fairly-terminating", True),
            ("not-fairly-terminating", False), ("fairly-terminating", False)} <= seen


def _count_renames(monkeypatch) -> list[int]:
    """Route `process.rename`, wherever csll imported it, through a counter."""
    import sys
    from csll import process
    real, calls = process.rename, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("csll") and getattr(mod, "rename", None) is real:
            monkeypatch.setattr(mod, "rename", counting)
    return calls


def test_step_all_renames_once_per_orbit_not_per_client(monkeypatch):
    # lock_n's clients form one orbit: one reduct is built, whatever n is
    calls = _count_renames(monkeypatch)
    counts = []
    for n in (8, 64):
        prog = parse_program(lock_text(n))
        calls[0] = 0
        assert len(step_all(prog.main.body, prog)) == n
        counts.append(calls[0])
    assert counts[0] == counts[1], counts


def test_random_run_builds_only_the_drawn_step(monkeypatch):
    calls = _count_renames(monkeypatch)
    prog = parse_program(lock_text(32))
    tr = run(prog.main.body, {}, prog, scheduler="random", seed=3)
    assert tr.terminated and len(tr.steps) == 65
    assert calls[0] <= 3 * (len(tr.steps) + 1), calls[0]


def test_step_records_keep_what_they_build(lock, cas, comm):
    # the exposed cut is a shared subterm of the exposed term, and every
    # field is built once
    def nodes(p):
        yield p
        for child in vars(p).values():
            if isinstance(child, Process):
                yield from nodes(child)
    for prog in (lock, cas, comm):
        g = explore(prog.main.body, prog)
        for state in g.states:
            for det in (False, True):
                for st in enabled_steps(state, prog, deterministic=det):
                    assert st.reduct is st.reduct and st.exposed is st.exposed
                    assert any(node is st.cut for node in nodes(st.exposed))


def test_state_lookup_is_exact_under_hash_collisions(monkeypatch, cas):
    # states are bucketed by the hash of their canonical key; with every
    # hash equal, term equality alone must still tell the states apart
    from csll import runtime
    progs = [cas, parse_program(lock_text(4)), parse_program(cas_text(["TF", "FT", "TF"]))]
    expected = [explore(p.main.body, p).to_json_dict() for p in progs]
    monkeypatch.setattr(runtime, "canonical_hashed", lambda p: (canonical_form(p), 0))
    for prog, doc in zip(progs, expected):
        g = explore(prog.main.body, prog)
        assert g.to_json_dict() == doc and len(g.collisions) == len(g.states) - 1
        assert all(find_state(g, state) == sid for sid, state in enumerate(g.states))


def test_sibling_scopes_that_reuse_a_binder_step_without_capture():
    # both sides of the cut on x bind the same c around their x-guard, as a
    # canonical form names the binders of sibling scopes; the reduct nests
    # the right side's cut on c inside the left's, around the left's use of c
    c = ChannelName("c", -2)
    x, y, u, z = (fresh(n) for n in "xyuz")
    p = Cut(x, ty.Tensor(ty.ONE, ty.ONE),
            Cut(c, ty.BOT, Fork(x, y, Close(y), Wait(c, Close(x))), Close(c)),
            Cut(c, ty.BOT, Join(x, u, Wait(u, Wait(x, Wait(c, Close(z))))), Close(c)))
    for det in (False, True):
        steps = enabled_steps(p, EMPTY, deterministic=det)
        fresh_steps = enabled_steps(rename(p, {}, refresh=True), EMPTY, deterministic=det)
        assert [st.info for st in steps] == [st.info for st in fresh_steps] != []
        for st, ref in zip(steps, fresh_steps):
            assert alpha_equal(st.reduct, ref.reduct), pretty_process(st.reduct)
            check(st.reduct, {z: ty.ONE}, EMPTY)


def test_explored_states_step_as_their_refreshed_copies():
    # explored states are canonical forms, whose sibling scopes share binder
    # names; a copy with every binder fresh has the same canonical reducts
    steps = 0
    for seed in [*range(300), *range(1000, 1200)]:
        prog = gen_program(seed)
        for state in explore(prog.main.body, prog, max_states=500, max_depth=500).states:
            copy = rename(state, {}, refresh=True)
            for det in (False, True):
                got = [(st.info, canonical_form(st.reduct)) for st in enabled_steps(state, prog, det)]
                assert got == [(st.info, canonical_form(st.reduct))
                               for st in enabled_steps(copy, prog, det)], (seed, pretty_process(state))
                steps += len(got)
    assert steps > 6000
