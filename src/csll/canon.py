"""Canonical forms for processes.

Canonicalisation makes two passes.  The key pass (`_sort`) builds no term:
it orders commutative siblings (cut sides, clients within a pool on the same
channel) by a structural key that is invariant under renaming of bound
channels, and returns that key with a plan of its decisions.  Each node's
key is made from its children's keys, so every subterm is keyed once; apart
from cuts, pools and invocations a node's key follows its row of
`process.BINDING`.  The build pass (`_build`) then follows the plan and
builds each node of the result once, naming the binders in traversal order
(the binder, then its scope, then the rest) with ids -1, -2, ...: parsed and
fresh channels have positive ids, so no free channel is captured.  Each
pass keeps one scope map for the whole traversal: a binder's entry is set
on entering its scope and restored on leaving it.  The
result is a deterministic, idempotent normal form used as state identity
during exploration.  Invocations are never unfolded here and cut nests are
not reassociated, so the quotient is coarser than full structural
pre-congruence; exploration over-approximates accordingly.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import itemgetter
from typing import Iterator

from .process import BINDING, Call, ChannelName, Cons, Cut, Process
from .types import dual, type_key


def _sort(p: Process, env: dict[ChannelName, int | None], depth: int) -> tuple[tuple, object]:
    """The structural key of p with its commutative siblings ordered (bound
    channels appear as binder levels, free ones by identity), and the plan
    that `_build` follows.  The plan runs parallel to the term: a cut's is
    its swap flag and the plans of the sides in their new order, a pool
    chain's its cells in key order (key, plan, cell) and the end with its
    plan, any other node's its children's plans in `BINDING` order.  env
    maps a channel to its binder's level (None: free)."""
    t = type(p)
    if t is Cut:
        b = p.chan
        old, env[b] = env.get(b), depth
        lk, lp = _sort(p.left, env, depth + 1)
        rk, rp = _sort(p.right, env, depth + 1)
        env[b] = old
        if rk < lk:
            # the annotation types the left side, so commuting dualizes it
            return ("cut", type_key(dual(p.anno)), rk, lk), (True, rp, lp)
        return ("cut", type_key(p.anno), lk, rk), (False, lp, rp)
    if t is Cons:
        x = p.chan
        cells: list[tuple[tuple, object, Cons]] = []
        node: Process = p
        while type(node) is Cons and node.chan == x:
            b = node.session
            old, env[b] = env.get(b), depth
            cells.append((*_sort(node.client, env, depth + 1), node))
            env[b] = old
            node = node.pool
        key, end = _sort(node, env, depth)
        cells.sort(key=itemgetter(0))
        for ckey, _, _ in reversed(cells):
            key = ("cons", _ck(x, env), ckey, key)
        return key, (cells, node, end)
    if t is Call:
        return ("call", p.name, tuple([_ck(a, env) for a in p.args])), ()
    # name, subject and scalars, then the keys inside and outside the binder's scope
    fields, subj, binder, inside, outside, scalars = BINDING[t]
    vals = fields(p)
    key = [_NAMES[t], _ck(vals[subj], env), *(vals[i] for i in scalars)]
    if not (inside or outside):
        return tuple(key), ()
    plans = []
    if binder is not None:
        b = vals[binder]
        old, env[b] = env.get(b), depth
        for i in inside:
            k, plan = _sort(vals[i], env, depth + 1)
            key.append(k)
            plans.append(plan)
        env[b] = old
    for i in outside:
        k, plan = _sort(vals[i], env, depth)
        key.append(k)
        plans.append(plan)
    return tuple(key), plans


def _ck(c: ChannelName, env: dict[ChannelName, int | None]) -> tuple:
    level = env.get(c)
    return ("f", c.name, c.uid) if level is None else ("b", level)


_NAMES = {t: t.__name__.lower() for t in BINDING}


def _build(p: Process, plan, scope: dict[ChannelName, ChannelName | None],
           ids: Iterator[int]) -> Process:
    """p built once along plan, each binder named `_binder(k)` in traversal
    order and each free channel renamed by scope.  A binder's entry in scope
    is set on entering its scope and restored on leaving it (None: unmapped)."""
    t = type(p)
    if t is Call:
        return Call(p.name, tuple([scope.get(a) or a for a in p.args]), span=p.span)
    if t is Cut:
        swap, lp, rp = plan
        l, r, anno = (p.right, p.left, dual(p.anno)) if swap else (p.left, p.right, p.anno)
        b = p.chan
        old = scope.get(b)
        x = scope[b] = _binder(next(ids))
        l, r = _build(l, lp, scope, ids), _build(r, rp, scope, ids)
        scope[b] = old
        return Cut(x, anno, l, r, span=p.span)
    if t is Cons:
        cells, end, end_plan = plan
        x = scope.get(p.chan) or p.chan
        built = []
        for _, sub, cell in cells:
            b = cell.session
            old = scope.get(b)
            y = scope[b] = _binder(next(ids))
            built.append((cell.span, y, _build(cell.client, sub, scope, ids)))
            scope[b] = old
        out = _build(end, end_plan, scope, ids)
        for span, y, body in reversed(built):
            out = Cons(x, y, body, out, span=span)
        return out
    fields, subj, binder, inside, outside, _ = BINDING[t]
    vals = list(fields(p))
    subs = iter(plan)
    if binder is not None:
        b = vals[binder]
        old = scope.get(b)
        vals[binder] = scope[b] = _binder(next(ids))
        for i in inside:
            vals[i] = _build(vals[i], next(subs), scope, ids)
        scope[b] = old
    x = vals[subj]
    vals[subj] = scope.get(x) or x
    for i in outside:
        vals[i] = _build(vals[i], next(subs), scope, ids)
    return t(*vals, span=p.span)


def cell_key(client: Process, session: ChannelName) -> tuple:
    """Structural key of a pool client with its session bound.  Clients of
    one pool with equal keys are interchangeable: connecting either one gives
    the same canonical reduct."""
    return _sort(client, {session: 0}, 1)[0]


def canonical_form(p: Process) -> Process:
    return canonical_hashed(p)[0]


def canonical_hashed(p: Process) -> tuple[Process, int]:
    """The canonical form of p and the hash of its structural key, which
    canonical forms share with every term they are the form of, so equal
    forms have equal hashes.  The key is a tuple, hashed in C."""
    key, plan = _sort(p, {}, 0)
    return _build(p, plan, {}, itertools.count(1)), hash(key)


@cache
def _binder(k: int) -> ChannelName:
    """The name of the k-th binder of a canonical form.  Names are immutable,
    so all canonical forms share one object per position."""
    return ChannelName("c", -k)
