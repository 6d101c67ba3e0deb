"""Forwarder generation: a family of definitions copying a session between
two channels of dual types, so no built-in link construct is needed.

Negative types get a direct definition; positive types dispatch to the dual
forwarder with the arguments swapped.  Servers forward by turning every
accepted connection into a client connection on the other side.
"""

from __future__ import annotations

from . import types as ty
from .process import (
    Call, Case, Cons, Definition, Fail, Fork, Join, Nil, Process, Program,
    Select, Server, Wait, Close, fresh,
)


# the surface words that are not identifiers, spelled out
_SPELLED = {"1": "one", "0": "zero", "*": "ten", "+": "plus", "&": "with"}


def mangle(t: ty.SessionType) -> str:
    word = ty._SYNTAX[type(t)][0]
    return "_".join((_SPELLED.get(word, word), *map(mangle, ty.children(t))))


def link_name(t: ty.SessionType) -> str:
    return f"Link_{mangle(t)}"


def _definition(t: ty.SessionType) -> tuple[Definition, list[ty.SessionType]]:
    """The forwarder for t plus the types it depends on."""
    x, y = fresh("x"), fresh("y")
    params = ((x, t), (y, ty.dual(t)))

    def D(body: Process, deps: list[ty.SessionType]) -> tuple[Definition, list[ty.SessionType]]:
        return Definition(link_name(t), params, body), deps

    match t:
        case ty.Bot():
            return D(Wait(x, Close(y)), [])
        case ty.Top():
            return D(Fail(x), [])
        case ty.Par(l, r):
            u, v = fresh("u"), fresh("v")
            body = Join(x, u, Fork(y, v, Call(link_name(l), (u, v)), Call(link_name(r), (x, y))))
            return D(body, [l, r])
        case ty.With(l, r):
            body = Case(x,
                        Select(y, 1, Call(link_name(l), (x, y))),
                        Select(y, 2, Call(link_name(r), (x, y))))
            return D(body, [l, r])
        case ty.Server(inner):
            u, v = fresh("u"), fresh("v")
            body = Server(x, u,
                          Cons(y, v, Call(link_name(inner), (u, v)), Call(link_name(t), (x, y))),
                          Nil(y))
            return D(body, [inner])
        case _:
            # positive: forward through the dual with swapped endpoints
            d = ty.dual(t)
            return D(Call(link_name(d), (y, x)), [d])


def gen_link(t: ty.SessionType) -> Program:
    """All forwarder definitions transitively needed for t."""
    defs: dict[str, Definition] = {}
    pending = [t]
    while pending:
        cur = pending.pop(0)
        name = link_name(cur)
        if name in defs:
            continue
        defn, deps = _definition(cur)
        defs[name] = defn
        pending.extend(deps)
    return Program(defs)
