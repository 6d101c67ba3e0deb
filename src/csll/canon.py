"""Canonical forms for processes.

Two rewrites are applied.  One bottom-up pass orders commutative siblings
(cut sides, clients within a pool on the same channel) by a structural key
that is invariant under renaming of bound channels; each node's key is built
from the keys of its already-sorted children, so every subterm is keyed
once; apart from cuts, pools and invocations a node's key follows its row
of `process.BINDING`.  Bound channels are then renamed in traversal order by
`process.rename`, with binder ids -1, -2, ...: parsed and fresh channels have
positive ids, so no free channel is captured.  The result is a
deterministic, idempotent normal form used as state identity during
exploration.  Invocations are never unfolded here and cut nests are not
reassociated, so the quotient is coarser than full structural
pre-congruence; exploration over-approximates accordingly.
"""

from __future__ import annotations

import itertools
from functools import cache

from .process import BINDING, Call, ChannelName, Cons, Cut, Process, rename
from .types import dual, type_key


def _sort(p: Process, env: dict[ChannelName, int], depth: int) -> tuple[Process, tuple]:
    """p with its commutative siblings ordered, and the structural key of the
    result: bound channels appear as binder levels, free ones by identity.
    A parent's key is built from its children's keys."""

    def ck(c: ChannelName) -> tuple:
        level = env.get(c)
        return ("f", c.name, c.uid) if level is None else ("b", level)

    match p:
        case Cut(x, anno, l, r):
            env2 = {**env, x: depth}
            ls, lk = _sort(l, env2, depth + 1)
            rs, rk = _sort(r, env2, depth + 1)
            if rk < lk:
                # the annotation types the left side, so commuting dualizes it
                ls, lk, rs, rk, anno = rs, rk, ls, lk, dual(anno)
            return Cut(x, anno, ls, rs, span=p.span), ("cut", type_key(anno), lk, rk)
        case Cons(x, _, _, _):
            cells: list[tuple[tuple, ChannelName, Process]] = []
            node: Process = p
            while isinstance(node, Cons) and node.chan == x:
                body, key = _sort(node.client, {**env, node.session: depth}, depth + 1)
                cells.append((key, node.session, body))
                node = node.pool
            out, key = _sort(node, env, depth)
            cells.sort(key=lambda cell: cell[0])
            for ckey, y, body in reversed(cells):
                out = Cons(x, y, body, out, span=p.span)
                key = ("cons", ck(x), ckey, key)
            return out, key
        case Call(name, args):
            return p, ("call", name, tuple(ck(a) for a in args))
    # name, subject and scalars, then the keys inside and outside the binder's scope
    t = type(p)
    row = BINDING[t]
    vals = row.fields(p)
    key = [_NAMES[t], ck(vals[row.subject]), *(vals[i] for i in row.scalars)]
    if not (row.inside or row.outside):
        return p, tuple(key)
    vals = list(vals)
    inner = env if row.binder is None else {**env, vals[row.binder]: depth}
    for i in row.inside:
        vals[i], k = _sort(vals[i], inner, depth + 1)
        key.append(k)
    for i in row.outside:
        vals[i], k = _sort(vals[i], env, depth)
        key.append(k)
    return t(*vals, span=p.span), tuple(key)


_NAMES = {t: t.__name__.lower() for t in BINDING}


def cell_key(client: Process, session: ChannelName) -> tuple:
    """Structural key of a pool client with its session bound.  Clients of
    one pool with equal keys are interchangeable: connecting either one gives
    the same canonical reduct."""
    return _sort(client, {session: 0}, 1)[1]


def canonical_form(p: Process) -> Process:
    return canonical_hashed(p)[0]


def canonical_hashed(p: Process) -> tuple[Process, int]:
    """The canonical form of p and the hash of its structural key, which
    canonical forms share with every term they are the form of, so equal
    forms have equal hashes.  The key is a tuple, hashed in C."""
    sorted_p, key = _sort(p, {}, 0)
    ids = itertools.count(1)
    return rename(sorted_p, {}, refresh=lambda _: _binder(next(ids))), hash(key)


@cache
def _binder(k: int) -> ChannelName:
    """The name of the k-th binder of a canonical form.  Names are immutable,
    so all canonical forms share one object per position."""
    return ChannelName("c", -k)
