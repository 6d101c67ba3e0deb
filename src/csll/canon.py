"""Canonical forms for processes.

Canonicalisation is one pass (`_canon`) that returns a structural key and
the canonical form together.  It orders commutative siblings (cut sides,
clients within a pool on the same channel) by the key, which is invariant
under renaming of bound channels: a bound channel appears in it as the
level of its binder, the number of binders whose scope encloses that
binder.  Each node's key is made from its children's keys, so every
subterm is keyed once; apart from cuts, pools and invocations a node's key
follows its row of `process.BINDING`.  The form names each binder by its
level alone, `_binder(level + 1)` (de Bruijn levels), so a subterm's form
does not depend on where its siblings sort and each node is built once,
while it is keyed.  Binder names have negative ids and parsed and fresh
channels positive ones, so no free channel is captured; sibling scopes
share binder names.  The pass keeps one scope map for the whole traversal:
a binder's entry is set on entering its scope and restored on leaving it.
The result is a deterministic, idempotent normal form used as state
identity during exploration.  Invocations are never unfolded here and cut
nests are not reassociated, so the quotient is coarser than full structural
pre-congruence; exploration over-approximates accordingly.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .process import BINDING, Call, ChannelName, Cons, Cut, Process
from .types import dual, type_key


def _canon(p: Process, env: dict[ChannelName, int | None], depth: int) -> tuple[tuple, Process]:
    """The structural key of p with its commutative siblings ordered, and
    p's canonical form, whose nodes follow the key.  env maps a channel to
    its binder's level (None: free); depth is the level of p's binders."""
    t = type(p)
    if t is Cut:
        b = p.chan
        old, env[b] = env.get(b), depth
        lk, lf = _canon(p.left, env, depth + 1)
        rk, rf = _canon(p.right, env, depth + 1)
        env[b] = old
        x = _binder(depth + 1)
        if rk < lk:
            # the annotation types the left side, so commuting dualizes it
            anno = dual(p.anno)
            return ("cut", type_key(anno), rk, lk), Cut(x, anno, rf, lf, span=p.span)
        return ("cut", type_key(p.anno), lk, rk), Cut(x, p.anno, lf, rf, span=p.span)
    if t is Cons:
        ck, x = _named(p.chan, env)
        cells: list[tuple[tuple, Process, object]] = []
        node: Process = p
        while type(node) is Cons and node.chan == p.chan:
            b = node.session
            old, env[b] = env.get(b), depth
            cells.append((*_canon(node.client, env, depth + 1), node.span))
            env[b] = old
            node = node.pool
        key, form = _canon(node, env, depth)
        cells.sort(key=itemgetter(0))
        y = _binder(depth + 1)
        for ckey, client, span in reversed(cells):
            key = ("cons", ck, ckey, key)
            form = Cons(x, y, client, form, span=span)
        return key, form
    if t is Call:
        args = [_named(a, env) for a in p.args]
        return (("call", p.name, tuple([k for k, _ in args])),
                Call(p.name, tuple([a for _, a in args]), span=p.span))
    # name, subject and scalars, then the keys inside and outside the binder's scope
    fields, subj, binder, inside, outside, scalars = BINDING[t]
    *vals, span = fields(p)
    sk, vals[subj] = _named(vals[subj], env)
    key = [_NAMES[t], sk, *(vals[i] for i in scalars)]
    if binder is not None:
        b = vals[binder]
        old, env[b] = env.get(b), depth
        vals[binder] = _binder(depth + 1)
        for i in inside:
            k, vals[i] = _canon(vals[i], env, depth + 1)
            key.append(k)
        env[b] = old
    for i in outside:
        k, vals[i] = _canon(vals[i], env, depth)
        key.append(k)
    return tuple(key), t(*vals, span=span)


def _named(c: ChannelName, env: dict[ChannelName, int | None]) -> tuple[tuple, ChannelName]:
    """The key of channel c and its name in the form."""
    level = env.get(c)
    return (("f", c.name, c.uid), c) if level is None else (("b", level), _binder(level + 1))


_NAMES = {t: t.__name__.lower() for t in BINDING}


def cell_key(client: Process, session: ChannelName) -> tuple:
    """Structural key of a pool client with its session bound.  Clients of
    one pool with equal keys are interchangeable: connecting either one gives
    the same canonical reduct."""
    return _canon(client, {session: 0}, 1)[0]


def canonical_form(p: Process) -> Process:
    return canonical_hashed(p)[0]


def canonical_hashed(p: Process) -> tuple[Process, int]:
    """The canonical form of p and the hash of its structural key, which
    canonical forms share with every term they are the form of, so equal
    forms have equal hashes.  The key is a tuple, hashed in C."""
    key, form = _canon(p, {}, 0)
    return form, hash(key)


@cache
def _binder(k: int) -> ChannelName:
    """The name of every binder at level k - 1 of a canonical form: the k-th
    binder on its path from the root.  Names are immutable, so all canonical
    forms share one object per depth."""
    return ChannelName("c", -k)
