"""Properties of canonical forms on every explored state and every reduct (in
both semantics) of the corpus, lock_1..8, six cas mixes and gen_program
0-99, and of free names on the same terms; binders that reuse a free
channel; one pinned printed form; the source spans of canonical pool cells;
printing and keying of deep terms at the default recursion limit."""

import sys

import pytest

from csll import types as ty
from csll.canon import _binder, canonical_form, canonical_hashed
from csll.gen import gen_program
from csll.parser import parse_program
from csll.printer import pretty_process, pretty_program
from csll.process import (
    BINDING, Case, ChannelName, Close, Cons, Cut, Definition, Fork, Join, Nil, Program,
    Server, Wait, _free_names, free_names, fresh, rename,
)
from csll.runtime import enabled_steps, explore
from csll.typecheck import check

from .conftest import CORPUS_FILES, cas_text, load_corpus, lock_text
from .oracles import alpha_equal

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


def binders(p, depth: int = 1) -> list[tuple[int, ChannelName]]:
    """The binders of p with their depths (the number of binders whose scope
    encloses a binder, itself included), a binder before its scope."""
    row = BINDING[type(p)]
    vals = row.fields(p)
    out = [] if row.binder is None else [(depth, vals[row.binder])]
    for i in row.inside:
        out += binders(vals[i], depth + 1)
    for i in row.outside:
        out += binders(vals[i], depth)
    return out


def test_binders_are_named_by_depth(explored):
    for label, _, _, terms in explored:
        for p in terms:
            bs = binders(canonical_form(p))
            assert all(b == _binder(d) for d, b in bs), (label, p)


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
    for label, _, _, terms in explored:
        for p in terms:
            assert free_names(p) == _free_names(p, {}), (label, p)


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
    # printing, free names, keying and building take one frame per node, so
    # an 800-cell pool and an 800-long wait chain fit under the default
    # limit of 1000 frames; a second frame per node would not
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
