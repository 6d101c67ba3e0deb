"""Hypothesis strategies for random types and processes."""

from __future__ import annotations

import hypothesis.strategies as st

from csll import types as ty
from csll.process import (
    Case, ChannelName, Close, Cons, Cut, Fail, Fork, Join, Nil, Select,
    Server, Wait, fresh,
)

atoms = st.sampled_from([ty.ONE, ty.BOT, ty.Top(), ty.Zero()])

session_types = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(ty.Tensor, sub, sub),
        st.builds(ty.Par, sub, sub),
        st.builds(ty.Plus, sub, sub),
        st.builds(ty.With, sub, sub),
        st.builds(ty.Server, sub),
        st.builds(ty.Client, sub),
    ),
    max_leaves=12,
)

_names = st.sampled_from(["x", "y", "z", "u", "v", "w", "ch"])


@st.composite
def processes(draw, max_depth: int = 4):
    """Arbitrary (possibly ill-typed) closed-under-binders process terms.

    Invocations are excluded: calls need a surrounding program, which the
    corpus round-trip tests cover.
    """

    def go(env: tuple[ChannelName, ...], depth: int):
        chan = lambda: draw(st.sampled_from(env))
        leafs = ["close", "fail", "done"]
        inners = ["wait", "fork", "join", "select", "case", "server", "cons", "cut"]
        kind = draw(st.sampled_from(leafs if depth <= 0 else leafs + 2 * inners))
        if kind == "close":
            return Close(chan())
        if kind == "fail":
            return Fail(chan())
        if kind == "done":
            return Nil(chan())
        if kind == "wait":
            return Wait(chan(), go(env, depth - 1))
        if kind == "fork":
            y = fresh(draw(_names))
            return Fork(chan(), y, go(env + (y,), depth - 1), go(env, depth - 1))
        if kind == "join":
            y = fresh(draw(_names))
            return Join(chan(), y, go(env + (y,), depth - 1))
        if kind == "select":
            return Select(chan(), draw(st.sampled_from((1, 2))), go(env, depth - 1))
        if kind == "case":
            return Case(chan(), go(env, depth - 1), go(env, depth - 1))
        if kind == "server":
            y = fresh(draw(_names))
            return Server(chan(), y, go(env + (y,), depth - 1), go(env, depth - 1))
        if kind == "cons":
            y = fresh(draw(_names))
            return Cons(chan(), y, go(env + (y,), depth - 1), go(env, depth - 1))
        x = fresh(draw(_names))
        anno = draw(session_types)
        return Cut(x, anno, go(env + (x,), depth - 1), go(env + (x,), depth - 1))

    base = tuple(fresh(n) for n in ("a", "b"))
    return go(base, draw(st.integers(min_value=1, max_value=max_depth)))
