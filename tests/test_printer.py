"""The printer against the recursive reference printer of `tests/oracles.py`
on every explored state of the corpus, lock_8, cas_6, the pool-end programs
and gen_program 0-59, and on every state of det and random runs of lock_32
and cas_10 printed cold, warm and in shuffled order, and on one pool printed
in three contexts; the namer's state after a scope closes; the number of
pool cells a det run prints afresh; a deep pool printed at the default
recursion limit."""

import random
import sys

import pytest

from csll import printer, runtime
from csll.gen import gen_program
from csll.parser import parse_program
from csll.printer import pretty_process
from csll.process import Case, Close, Cons, Nil, Wait, fresh
from csll.runtime import explore, run

from .conftest import CORPUS_FILES, cas_text, load_corpus, lock_text, pool_end_texts
from .oracles import pretty_reference


def _explored():
    for name in CORPUS_FILES:
        yield name, load_corpus(name)
    yield "lock_8", parse_program(lock_text(8))
    yield "cas_6", parse_program(cas_text(["TF", "FT"] * 3))
    for label, text in pool_end_texts().items():
        yield label, parse_program(text, label)
    for seed in range(60):
        yield f"gen_{seed}", gen_program(seed)


def test_explored_states_print_as_the_reference():
    for label, prog in _explored():
        g = explore(prog.main.body, prog, max_states=400, max_depth=400)
        for s in g.states:
            assert pretty_process(s) == pretty_reference(s), label


@pytest.mark.parametrize("text", [lock_text(32), cas_text(["TF", "FT"] * 5)], ids=["lock_32", "cas_10"])
@pytest.mark.parametrize("scheduler,seed", [("det", None), ("random", 1), ("random", 2)])
def test_run_states_print_as_the_reference_cold_and_warm(text, scheduler, seed):
    # the run prints each state once for its digest, with the records its
    # predecessors left; printing them all again, in order and shuffled,
    # reads the records every state left
    prog = parse_program(text)
    tr = run(prog.main.body, {}, prog, scheduler=scheduler, seed=seed)
    assert tr.terminated
    reference = [pretty_reference(s) for s in tr.states]
    assert [s.state_hash for s in tr.steps] == [runtime._text_digest(t) for t in reference[1:]]
    order = list(range(len(tr.states)))
    for shuffle in (False, True):
        if shuffle:
            random.Random(len(order)).shuffle(order)
        assert [pretty_process(tr.states[i]) for i in order] == [reference[i] for i in order]


def test_a_shared_pool_prints_as_the_reference_in_every_context():
    # one pool printed at two indents, and with the channel its cell waits
    # on shown as a2 and as a while the same names are taken: its cell keeps
    # a text for each context
    x, u = fresh("x"), fresh("u")
    a1, a2, a3 = fresh("a"), fresh("a"), fresh("a")
    body = Close(u)
    for _ in range(6):
        body = Wait(a2, body)  # too long for one line, so the block's layout follows the indent
    pool = Cons(x, u, body, Nil(x))
    terms = [Wait(a1, pool), Wait(a3, pool), Case(a1, pool, Close(a1))]
    for p in terms + terms[::-1]:
        assert pretty_process(p) == pretty_reference(p)
    assert len(pool.__dict__[printer._TEXTS]) == 3


def test_a_closed_scope_leaves_the_namer_as_it_found_it():
    # so every cell of a pool is printed in the context the pool began in,
    # whether or not its binder hid a name shown outside it
    n = printer._Namer()
    x, y = fresh("x"), fresh("y")
    n.bind(x)
    before = n.context(0)
    for c in (y, x):
        n.unbind(c, n.bind(c))
        assert n.context(0) == before


def test_a_det_run_prints_as_many_cells_afresh_per_step_at_any_pool_width(monkeypatch):
    # a state shares its pool's cells with the state before it, and a cell
    # keeps its text, so a det run prints each cell afresh only in the first
    # states that show it in a new context
    fresh_cells = 0
    cell = printer._cell

    def counting(p, n, indent):
        nonlocal fresh_cells
        fresh_cells += type(p) is Cons
        return cell(p, n, indent)

    monkeypatch.setattr(printer, "_cell", counting)
    for n in (32, 128):
        prog = parse_program(lock_text(n))
        fresh_cells = 0
        tr = run(prog.main.body, {}, prog)
        assert tr.terminated and len(tr.steps) > 2 * n
        assert 0 < fresh_cells <= len(tr.steps), n


def test_a_deep_pool_prints_at_the_default_limit():
    # free names and printing walk a pool's cells in a loop, so a
    # 3,000-cell pool, which the parser would not take, prints under the
    # default limit of 1000 frames
    x = fresh("x")
    pool = Nil(x)
    for i in reversed(range(3000)):
        u = fresh(f"u{i}")
        pool = Cons(x, u, Close(u), pool)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = pretty_process(pool)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "".join(f"client x(u{i}){{ close u{i} }}; " for i in range(3000)) + "done x"
