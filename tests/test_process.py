import random

from hypothesis import given

from csll import types as ty
from csll.canon import canonical_form
from csll.process import (
    Call, Case, ChannelName, Close, Cons, Cut, Definition, Fork, Join, Nil,
    Program, Server, Wait, call_depth, free_names, fresh, rename,
)

from .oracles import alpha_equal, channels, free_names_agree, threads, unfold
from .strategies import processes


def test_free_names_basics():
    x, y = fresh("x"), fresh("y")
    assert free_names(Close(x)) == {x}
    assert free_names(Fork(x, y, Close(y), Close(x))) == {x}
    assert free_names(Cons(x, y, Close(y), Nil(x))) == {x}


def test_free_names_under_shadowing():
    a, b, x, y, z = (fresh(n) for n in "abxyz")
    cases = [
        # a binder with the same name as its subject binds only inside its scope
        (Join(x, x, Close(x)), {x}),
        (Join(x, x, Wait(x, Close(z))), {x, z}),
        # one binder reused in sibling scopes, and nested in its own scope:
        # leaving the inner scope leaves y bound by the outer one
        (Case(a, Join(a, y, Close(y)), Join(a, y, Wait(y, Close(b)))), {a, b}),
        (Fork(a, y, Fork(y, y, Close(y), Close(y)), Close(a)), {a}),
        (Fork(a, y, Close(y), Cons(b, y, Close(y), Close(y))), {a, b, y}),
        # free on one cut side and re-bound on the other, in either order
        (Cut(x, ty.ONE, Wait(z, Close(x)), Join(x, z, Close(z))), {z}),
        (Cut(x, ty.ONE, Join(x, z, Close(z)), Wait(z, Close(x))), {z}),
        # invocation arguments under a binder
        (Join(a, y, Call("F", (y, b, y))), {a, b}),
        (Cut(x, ty.ONE, Call("F", (x, z)), Server(x, y, Call("G", (y, x)), Call("H", (x, y)))),
         {z, y}),
    ]
    rng = random.Random(0)
    for p, expected in cases:
        assert free_names_agree(p, rng) and free_names(p) == expected, p


@given(processes())
def test_free_names_agree_with_the_memoised_walk(p):
    assert free_names_agree(p, random.Random(0))


def test_rename_simple_and_identity():
    x, z = fresh("x"), fresh("z")
    assert rename(Close(x), {x: z}) == Close(z)
    p = Fork(x, fresh("y"), Close(x), Close(x))
    assert rename(p, {}) == p


def test_rename_capture_avoiding():
    x, y = fresh("x"), fresh("y")
    p = Fork(x, y, Close(y), Close(x))
    q = rename(p, {x: y})
    assert isinstance(q, Fork)
    assert q.chan == y
    assert q.payload != y  # the binder was refreshed to avoid capture
    assert q.payload_body == Close(q.payload)
    assert q.cont == Close(y)


@given(processes())
def test_rename_free_names_image(p):
    fn = sorted(free_names(p), key=lambda c: c.uid)
    mapping = {c: fresh(c.name + "r") for c in fn}
    assert free_names(rename(p, mapping)) == {mapping[c] for c in fn}


def omega_program():
    x = fresh("x")
    body = Cut(x, ty.ONE, Close(x), Wait(x, Call("Omega", ())))
    return Program({"Omega": Definition("Omega", (), body)})


def test_call_depth_guard_is_zero():
    prog = omega_program()
    assert call_depth(Close(fresh("x")), prog) == 0


def test_call_depth_omega_is_two():
    prog = omega_program()
    assert call_depth(Call("Omega", ()), prog) == 2


def test_call_depth_divergence_flag():
    prog = Program({"B": Definition("B", (), Call("B", ()))})
    assert call_depth(Call("B", ()), prog) is None
    # a diverging unfolding is not taken: the invocation stays, stuck
    assert unfold(Call("B", ()), prog) == Call("B", ())


def lock_program():
    x, z, y = fresh("x"), fresh("z"), fresh("y")
    body = Server(x, y, Wait(y, Call("Lock", (x, z))), Close(z))
    return Program({"Lock": Definition("Lock", ((x, ty.Server(ty.BOT)), (z, ty.ONE)), body)}), x, z


def test_unfold_lock_single_step():
    prog, x, z = lock_program()
    a, b = fresh("x"), fresh("z")
    got = unfold(Call("Lock", (a, b)), prog)
    assert isinstance(got, Server)
    assert got.chan == a and got.idle == Close(b)
    assert isinstance(got.accept, Wait)
    assert got.accept.body == Call("Lock", (a, b))


def test_unfold_already_unfolded():
    prog, *_ = lock_program()
    p = Close(fresh("x"))
    assert unfold(p, prog) == p


def test_unfold_inlines_both_cut_sides():
    x1, x2 = fresh("x"), fresh("x")
    a = Definition("A", ((x1, ty.ONE),), Close(x1))
    b = Definition("B", ((x2, ty.BOT),), Wait(x2, Call("A", (x2,))))
    # B's unguarded body references A only under a guard, so one unfolding
    # of each call suffices
    prog = Program({"A": a, "B": b})
    x = fresh("x")
    p = Cut(x, ty.ONE, Call("A", (x,)), Call("B", (x,)))
    got = unfold(p, prog)
    assert isinstance(got, Cut)
    assert got.left == Close(got.chan)
    assert isinstance(got.right, Wait)


def test_threads_channels_counts():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    assert threads(p) == 2
    assert channels(p) == 1


# --- canonical forms ---------------------------------------------------------


def test_canonical_commutes_cut():
    x, z = fresh("x"), fresh("z")
    p = Cut(x, ty.ONE, Close(x), Wait(x, Close(z)))
    q = Cut(x, ty.BOT, Wait(x, Close(z)), Close(x))
    assert canonical_form(p) == canonical_form(q)


def test_canonical_sorts_pool():
    x = fresh("x")
    y, v = fresh("y"), fresh("v")
    z = fresh("z")
    client_a = Wait(z, Close(y))
    client_b = Close(v)
    p1 = Cons(x, y, client_a, Cons(x, v, client_b, Nil(x)))
    p2 = Cons(x, v, client_b, Cons(x, y, client_a, Nil(x)))
    assert canonical_form(p1) == canonical_form(p2)


def test_canonical_orders_cut_sides_by_pool_clients():
    # the sides differ only in a client, so that client's key decides the order
    x, a, y, v, z = fresh("x"), fresh("a"), fresh("y"), fresh("v"), fresh("z")
    left = Cons(a, y, Close(y), Cons(a, v, Close(v), Nil(a)))
    right = Cons(a, y, Close(y), Cons(a, v, Wait(v, Close(z)), Nil(a)))
    p = Cut(x, ty.ONE, left, right)
    q = Cut(x, ty.BOT, right, left)
    assert canonical_form(p) == canonical_form(q)


def test_canonical_binders_capture_no_free_channel():
    # a free channel named like the canonical binders, with the first id that
    # `fresh` hands out, stays free
    c, a, b = ChannelName("c", 1), fresh("a"), fresh("b")
    p = Cut(a, ty.ONE, Close(a), Cut(b, ty.ONE, Close(b), Wait(b, Wait(a, Close(c)))))
    assert free_names(canonical_form(p)) == {c}


@given(processes())
def test_canonical_idempotent(p):
    c = canonical_form(p)
    assert canonical_form(c) == c


@given(processes())
def test_canonical_preserves_free_names(p):
    assert free_names(canonical_form(p)) == free_names(p)


@given(processes())
def test_canonical_alpha_invariant(p):
    # refreshing every binder gives an alpha-variant; canonical forms agree
    q = rename(p, {}, refresh=True)
    assert q == p or alpha_equal(q, p, {c: c for c in free_names(p)})
    assert canonical_form(q) == canonical_form(p)
