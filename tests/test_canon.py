"""Properties of canonical forms on every explored state and every reduct (in
both semantics) of the corpus, lock_1..8, six cas mixes and gen_program
0-99, among them agreement with the depth-named oracle of
`tests/oracles.py`, and of free names on the same terms; the records added
per reduct an exploration keys on lock_8 and lock_32; binders that reuse a free
channel; one pinned printed form; the source spans of canonical pool cells;
printing and keying of deep terms at the default recursion limit."""

import random
import sys

import pytest

from csll import types as ty
from csll.canon import _RECORD, _binder, canonical_form, canonical_hashed
from csll.gen import gen_program
from csll.parser import parse_program
from csll.printer import pretty_process, pretty_program
from csll.process import (
    BINDING, Case, ChannelName, Close, Cons, Cut, Definition, Fork, Join, Nil, Process,
    Program, Server, Wait, free_names, fresh, rename,
)
from csll.runtime import ReductionGraph, enabled_steps, explore
from csll.typecheck import check

from .conftest import CORPUS_FILES, cas_text, load_corpus, lock_text
from .oracles import alpha_equal, depth_canonical, free_names_agree

MIXES = (["TF"], ["FT"], ["TF", "FT"], ["FT", "TF"], ["TF", "FT"] * 2, ["FT", "TF"] * 3)


def _programs():
    for name in CORPUS_FILES:
        yield name, load_corpus(name)
    for n in range(1, 9):
        yield f"lock_{n}", parse_program(lock_text(n))
    for kinds in MIXES:
        yield f"cas_{''.join(kinds)}", parse_program(cas_text(kinds))
    for seed in range(100):
        yield f"gen_{seed}", gen_program(seed)


@pytest.fixture(scope="module")
def explored() -> list[tuple[str, Program, list, list]]:
    """(label, program, explored states, states and reducts) per program."""
    out = []
    for label, prog in _programs():
        g = explore(prog.main.body, prog, max_states=400, max_depth=400)
        terms = list(g.states)
        for s in g.states:
            for det in (False, True):
                terms.extend(st.reduct for st in enabled_steps(s, prog, det))
        out.append((label, prog, g.states, terms))
    return out


def greatest_binder(p, scopes: list[tuple[ChannelName, int]]) -> int:
    """The greatest binder name inside p (k for `_binder(k)`), 0 if p has no
    binder; appends to scopes each binder of p with that number for its scope."""
    row = BINDING[type(p)]
    vals = row.fields(p)
    top = max((greatest_binder(vals[i], scopes) for i in row.outside), default=0)
    if row.binder is not None:
        b = vals[row.binder]
        scopes.append((b, max(greatest_binder(vals[i], scopes) for i in row.inside)))
        top = max(top, -b.uid)
    return top


def test_binders_are_named_by_height(explored):
    # every binder is named 1 + the greatest binder name in its scope
    for label, _, _, terms in explored:
        for p in terms:
            scopes: list[tuple[ChannelName, int]] = []
            greatest_binder(canonical_form(p), scopes)
            assert all(b == _binder(1 + inner) for b, inner in scopes), (label, p)


def test_forms_agree_with_the_depth_named_oracle(explored):
    # each form prints as the oracle's, and two terms of one program get
    # equal forms exactly when their oracle forms are equal, so relative keys
    # order siblings as levels did; the terms are keyed in the order of the
    # exploration, so later ones reuse the records of earlier ones
    for label, _, _, terms in explored:
        pairs = set()
        for p in terms:
            form, (_, reference) = canonical_form(p), depth_canonical(p)
            assert pretty_process(form) == pretty_process(reference), (label, p)
            pairs.add((form, reference))
        assert len(pairs) == len({f for f, _ in pairs}) == len({r for _, r in pairs}), label


def records(p) -> dict[int, tuple]:
    """The record on each node of p that has one, by node id."""
    out, todo = {}, [p]
    while todo:
        q = todo.pop()
        if _RECORD in q.__dict__:
            out[id(q)] = q.__dict__[_RECORD]
        todo.extend(v for v in vars(q).values() if isinstance(v, Process))
    return out


def test_records_added_per_edge_do_not_grow_with_the_pool(monkeypatch):
    # each reduct the graph keys (one per orbit of a state's steps) gets as
    # many new or replaced records on lock_32 as its like does on lock_8: a
    # step's cost follows what it changed, not the width of the pool
    def added(n: int) -> list[int]:
        counts = []

        def add_state(g, p):
            before = records(p)
            sid = add(g, p)
            counts.append(sum(before.get(i) is not r for i, r in records(p).items()))
            return sid

        add = ReductionGraph.add_state
        with monkeypatch.context() as m:
            m.setattr(ReductionGraph, "add_state", add_state)
            prog = parse_program(lock_text(n))
            explore(prog.main.body, prog)
        # the root's records grow with n, and so do those its form gets when
        # its one reduct is keyed: its nodes are new there
        return counts[2:]

    small, large = added(8), added(32)
    assert len(large) > len(small) and set(small) == set(large)


def test_canonicalisation_is_idempotent(explored):
    for label, _, _, terms in explored:
        for p in terms:
            c, h = canonical_hashed(p)
            assert canonical_hashed(c) == (c, h), (label, p)


def test_canonical_form_ignores_binder_ids(explored):
    for label, _, _, terms in explored:
        for p in terms:
            assert canonical_hashed(rename(p, {}, refresh=True)) == canonical_hashed(p), (label, p)


def test_free_names_agree_with_the_checkers_walk(explored):
    rng = random.Random(0)
    for label, _, _, terms in explored:
        for p in terms:
            assert free_names_agree(p, rng), (label, p)


def test_canonical_states_type_and_round_trip(explored):
    # an explored state is a canonical form: it types in main's context, and
    # printing and parsing it back gives an alpha-variant (the states of one
    # program are printed as definitions of one program, parsed once)
    for label, prog, states, _ in explored:
        params = prog.main.params
        named = {f"State{i}": Definition(f"State{i}", params, c) for i, c in enumerate(states)}
        assert not named.keys() & prog.defs.keys()
        again = parse_program(pretty_program(Program({**prog.defs, **named}))).defs
        for name, d in named.items():
            check(d.body, dict(params), prog)
            back = again[name]
            assert alpha_equal(d.body, back.body, dict(zip(d.param_names, back.param_names))), \
                (label, name, pretty_process(d.body))


def test_a_binder_that_reuses_a_free_channel_binds_only_its_scope():
    # each pair differs only in the name of a binder: in the first term the
    # binder is y, which is also free outside the binder's scope
    a, b, w, y = (fresh(n) for n in "abwy")

    def terms(binder):
        return [Fork(a, binder, Close(binder), Close(y)),
                Server(a, binder, Close(binder), Wait(y, Nil(a))),
                Cons(a, binder, Close(binder), Wait(y, Nil(a))),
                Case(a, Cut(binder, ty.ONE, Close(binder), Wait(binder, Close(b))), Close(y))]

    for p, q in zip(terms(y), terms(w)):
        assert canonical_hashed(p) == canonical_hashed(q), p


def test_pinned_form_where_a_free_c2_meets_binders_named_c():
    # a free channel displayed c2; binders named c nest inside one cut side
    # and reuse their display names in sibling scopes
    f, x, y, u, v, w, a = (fresh(n) for n in ("c2", "x", "y", "u", "v", "w", "a"))
    left = Join(f, y, Fork(y, u, Close(u), Wait(x, Close(f))))
    right = Cons(a, v, Close(v), Cons(a, w, Wait(w, Close(x)), Nil(a)))
    c = canonical_form(Cut(x, ty.ONE, left, right))
    assert pretty_process(c) == (
        "new c : bot {\n"
        "  client a(c3){ close c3 }; client a(c3){ wait c3; close c }; done a\n"
        "  | recv c2(c3); send c3(c4){ close c4 }; wait c; close c2\n"
        "}")


def test_pool_cells_keep_their_own_spans():
    p = parse_program(lock_text(3), "lock_3.csll").main.body

    def spans(q):
        q = q.left if type(q.left) is Cons else q.right
        out = []
        while type(q) is Cons:
            out.append(str(q.span))
            q = q.pool
        return sorted(out)

    assert spans(canonical_form(p)) == spans(p) == [
        "lock_3.csll:3:30", "lock_3.csll:3:57", "lock_3.csll:3:84"]


def test_deep_terms_print_and_canonicalise_at_the_default_limit():
    # printing, free names, keying and building take at most one frame per
    # node (a pool's cells take none), so an 800-cell pool and an 800-long
    # wait chain fit under the default limit of 1000 frames; a second frame
    # per node would not
    x, z = fresh("x"), fresh("z")
    pool, chain = Nil(x), Close(z)
    for _ in range(800):
        y = fresh("y")
        pool = Cons(x, y, Close(y), pool)
        chain = Wait(fresh("w"), chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for p, free in ((pool, 1), (chain, 801)):
            c, _ = canonical_hashed(p)
            assert len(free_names(p)) == len(free_names(c)) == free
            assert pretty_process(p).count(";") == pretty_process(c).count(";") == 800
    finally:
        sys.setrecursionlimit(limit)
