"""Canonical forms for processes.

Canonicalisation returns a structural key and the canonical form of a term
together.  It orders commutative siblings (cut sides, clients within a pool
on the same channel) by the key, which is invariant under renaming of bound
channels: a bound channel appears in it as `("b", level - depth)`, where
level is the level of its binder (the number of binders whose scope
encloses that binder) and depth the level of the binders at the use site.
Where two sibling keys first differ both elements sit at one depth, so these
relative keys order siblings as absolute levels would.  Each node's key is
made from its children's keys; apart from cuts, pools and invocations it
follows the node's row of `process.BINDING`.

The form names each binder by its height, `_binder(h)`: h is 1 + the
greatest binder name inside its scope, or 1 when there is none (the named
form of locally nameless terms).  An outer binder's name exceeds every name
inside its scope, so no free occurrence is captured; sibling scopes share
names.  Binder names have negative ids and parsed and fresh channels
positive ones.  A subterm's key then depends only on the offsets
(level - depth) of its free bound channels, and its form only on their
names.

Every term keyed but a leaf keeps a record on itself, in its instance
dictionary as `functools.cached_property` keeps a value, so the record
lives exactly as long as the term: its form, key and height, and the level
and name of the binder of each free channel when it was keyed (none for a
free channel no binder encloses).  Wherever the term appears again with
each free channel's name unchanged and its level moved by as much as the
term's depth, the record is reused, so a term that shares most of its nodes
with one keyed before costs what it changed: a run's next state shares the
nodes of the reduct keyed before it, and a reduct of an explored state the
nodes of that state.  A term that is its own form keeps that record rather
than one that holds another form.  A binder's height is read from the
records of its scope: a node without one gets a record of its height alone,
which keying the node completes and which is never reused as a fit, so a
call keeps no memo of its own.  Pool cells are sorted by key; a pool whose
tail has a record keeps that tail when its new cells sort ahead of it.

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

# A record: (height, key, form, frees, depth), under _RECORD in its term's
# instance dictionary; form is None when the term is its own form.  A node
# whose height was read before it was keyed holds (height,) alone.  frees
# maps each channel c free in the term to the (level, name) of its binder
# when the term was keyed at depth, or to (None, c) when no binder enclosed
# c.  Records and their frees never change, so one frees map serves every
# record whose term has the same free channels, bound alike.
_HEIGHT, _KEY, _FORM, _FREES, _DEPTH = range(5)
_RECORD = "_canonical"

# a scope: each bound channel's binder level and canonical name
_Env = dict[ChannelName, "tuple[int, ChannelName] | None"]

_NAMES = {t: t.__name__.lower() for t in BINDING}
# the field names of each constructor's subterms inside and outside its binder's scope
_SUBTERMS = {t: tuple(tuple(t.__match_args__[j] for j in js) for js in (row.inside, row.outside))
             for t, row in BINDING.items()}
# the constructors with no subterm, whose height is 0
_LEAVES = frozenset(t for t, parts in _SUBTERMS.items() if parts == ((), ()))


def canonical_form(p: Process) -> Process:
    return canonical_hashed(p)[0]


def canonical_hashed(p: Process) -> tuple[Process, int]:
    """The canonical form of p and the hash of its structural key, which
    canonical forms share with every term they are the form of, so equal
    forms have equal hashes.  The key is a tuple, hashed in C."""
    rec = _canon(p, {}, 0)
    return rec[_FORM] or p, hash(rec[_KEY])


def cell_key(client: Process, session: ChannelName) -> tuple:
    """Structural key of a pool client with its session bound.  Clients of
    one pool with equal keys are interchangeable: connecting either one gives
    the same canonical reduct."""
    return _canon(client, {session: (0, _binder(1 + _height(client)))}, 1)[_KEY]


def _height(p: Process) -> int:
    """The greatest binder name inside p's form, 0 if it has no binder, read
    from p's record; a node without one gets a height-only record, which
    keying it completes."""
    t = type(p)
    if t in _LEAVES:
        return 0
    rec = p.__dict__.get(_RECORD)
    if rec is not None:
        return rec[_HEIGHT]
    if t is Cons:  # a pool tail is walked in a loop, not a frame per cell
        cells = []
        while type(p) is Cons and _RECORD not in p.__dict__:
            cells.append(p)
            p = p.pool
        h = _height(p)
        for node in reversed(cells):
            c = 1 + _height(node.client)
            if c > h:
                h = c
            node.__dict__[_RECORD] = (h,)
        return h
    inside, outside = _SUBTERMS[t]
    h = 0
    for a in outside:
        q = getattr(p, a)
        if type(q) not in _LEAVES:
            c = _height(q)
            if c > h:
                h = c
    for a in inside:
        q = getattr(p, a)
        c = 1 if type(q) in _LEAVES else 1 + _height(q)
        if c > h:
            h = c
    p.__dict__[_RECORD] = (h,)
    return h


def _fits(rec: tuple, env: _Env, depth: int) -> bool:
    """Whether each free channel of rec's term is bound in env as it was when
    the term was keyed, with every level moved by as much as depth."""
    shift = depth - rec[_DEPTH]
    for c, (level, name) in rec[_FREES].items():
        e = env.get(c)
        if e is None:
            if level is not None:
                return False
        elif level is None or e[1] is not name or e[0] - level != shift:
            return False
    return True


def _frees(rec: tuple, depth: int) -> dict:
    """The frees of rec's term keyed at depth."""
    shift = depth - rec[_DEPTH]
    if not shift:
        return rec[_FREES]
    return {c: v if v[0] is None else (v[0] + shift, v[1]) for c, v in rec[_FREES].items()}


def _canon(p: Process, env: _Env, depth: int) -> tuple:
    """The record of p where env gives the binder level and name of each
    bound channel and depth is the level of p's binders; kept on p unless p
    is a leaf, whose record costs as much as keying it, or p keeps the
    record of being its own form.  A height-only record is never reused:
    keying p completes it."""
    t = type(p)
    if t is Call:
        frees = {}
        keys, names = [], []
        for a in p.args:
            e = env.get(a)
            if e is None:
                keys.append(("f", a))
                names.append(a)
                frees[a] = (None, a)
            else:
                keys.append(_bound(e[0] - depth))
                names.append(e[1])
                frees[a] = e
        args = tuple(names)
        return 0, ("call", p.name, tuple(keys)), None if args == p.args else Call(p.name, args, span=p.span), \
            frees, depth
    if t in _LEAVES:
        c = p.chan
        e = env.get(c)
        if e is None:
            return 0, (_NAMES[t], ("f", c)), None, {c: (None, c)}, depth
        return 0, (_NAMES[t], _bound(e[0] - depth)), None if e[1] == c else t(e[1], span=p.span), {c: e}, depth
    d = p.__dict__
    old = d.get(_RECORD)
    if old is not None and len(old) > 1 and _fits(old, env, depth):
        return old
    if t is Cons:
        rec = _pool(p, env, depth)
    elif t is Cut:
        b, left, right = p.chan, p.left, p.right
        h = _height(p)  # a cut's height is its binder's name
        x = _binder(h)
        inner = depth + 1
        outer, env[b] = env.get(b), (depth, x)
        lr = _canon(left, env, inner)
        rr = _canon(right, env, inner)
        env[b] = outer
        frees = {**(lr[_FREES] if lr[_DEPTH] == inner else _frees(lr, inner)),
                 **(rr[_FREES] if rr[_DEPTH] == inner else _frees(rr, inner))}
        frees.pop(b, None)  # no channel named b is free around a cut on b
        lk, lf, rk, rf = lr[_KEY], lr[_FORM] or left, rr[_KEY], rr[_FORM] or right
        if rk < lk:
            # the annotation types the left side, so commuting dualizes it
            anno = dual(p.anno)
            rec = (h, ("cut", type_key(anno), rk, lk), Cut(x, anno, rf, lf, span=p.span), frees, depth)
        else:
            form = None if x == b and lf is left and rf is right else Cut(x, p.anno, lf, rf, span=p.span)
            rec = (h, ("cut", type_key(p.anno), lk, rk), form, frees, depth)
    else:
        # name, subject and scalars, then the keys inside and outside the binder's scope
        fields, subj, binder, inside, outside, scalars = BINDING[t]
        *vals, span = fields(p)
        c = vals[subj]
        e = env.get(c)
        if e is None:
            keys, ce = [_NAMES[t], ("f", c)], (None, c)
            same = True
        else:
            keys, ce = [_NAMES[t], _bound(e[0] - depth)], e
            same = e[1] == c
            vals[subj] = e[1]
        for j in scalars:
            keys.append(vals[j])
        h, frees = 0, None
        if binder is not None:
            b = vals[binder]
            for j in inside:
                q = vals[j]
                k = 1 if type(q) in _LEAVES else 1 + _height(q)
                if k > h:
                    h = k
            vals[binder] = x = _binder(h)
            same = same and x == b
            outer, env[b] = env.get(b), (depth, x)
            for j in inside:
                r = _canon(vals[j], env, depth + 1)
                keys.append(r[_KEY])
                if r[_FORM] is not None:
                    vals[j], same = r[_FORM], False
                f = r[_FREES] if r[_DEPTH] == depth + 1 else _frees(r, depth + 1)
                frees = f if frees is None else {**frees, **f}
            env[b] = outer
            if b in frees:
                frees = frees.copy()
                del frees[b]
        for j in outside:
            r = _canon(vals[j], env, depth)
            keys.append(r[_KEY])
            if r[_FORM] is not None:
                vals[j], same = r[_FORM], False
            if r[_HEIGHT] > h:
                h = r[_HEIGHT]
            f = r[_FREES] if r[_DEPTH] == depth else _frees(r, depth)
            frees = f if frees is None or frees is f else {**frees, **f}
        # the subject is named outside the binder's scope
        if frees.get(c) != ce:
            frees = {**frees, c: ce}
        rec = (h, tuple(keys), None if same else t(*vals, span=span), frees, depth)
    if old is None or len(old) == 1 or old[_FORM] is not None:
        d[_RECORD] = rec
    return rec


def _pool(p: Cons, env: _Env, depth: int) -> tuple:
    """The record of the pool p: its cells on p's channel sorted by key.  The
    walk down the cells stops at a tail with a record that fits when every
    cell above it sorts ahead of the tail's first cell.  Each source node
    whose cells from there down keep their order in the form has the form's
    pool from there for its own form, and keeps that record."""
    x = p.chan
    e = env.get(x)
    if e is None:
        ck, xn, xe = ("f", x), x, (None, x)
    else:
        ck, xn, xe = _bound(e[0] - depth), e[1], e
    cells: list[tuple[tuple, tuple, int, Cons, int]] = []
    node: Process = p
    end = None
    top = None  # the greatest cell key so far
    while True:
        y, client = node.session, node.client
        h = 1 if type(client) in _LEAVES else 1 + _height(client)
        outer, env[y] = env.get(y), (depth, _binder(h))
        rec = _canon(client, env, depth + 1)
        env[y] = outer
        k = rec[_KEY]
        cells.append((k, rec, h, node, len(cells)))
        if top is None or top < k:
            top = k
        node = node.pool
        if type(node) is not Cons or node.chan != x:
            break
        rec = node.__dict__.get(_RECORD)
        if rec is not None and len(rec) > 1 and not top > rec[_KEY][2] and _fits(rec, env, depth):
            end = rec
            break
    if end is None:
        end = _canon(node, env, depth)
    if len(cells) > 1:
        cells.sort(key=itemgetter(0))
    # the source nodes from `aligned` down hold the cells the form has there
    aligned = len(cells)
    while aligned and cells[aligned - 1][4] == aligned - 1:
        aligned -= 1
    key, form, h = end[_KEY], end[_FORM] or node, end[_HEIGHT]
    frees = _frees(end, depth)
    if frees.get(x) != xe:
        frees = {**frees, x: xe}
    for i in range(len(cells) - 1, -1, -1):
        ckey, rec, hc, src, _ = cells[i]
        key = ("cons", ck, ckey, key)
        if hc > h:
            h = hc
        y = src.session
        f = rec[_FREES] if rec[_DEPTH] == depth + 1 else _frees(rec, depth + 1)
        for c, v in f.items():
            if c != y and frees.get(c) != v:
                # a new dict, as the one so far may sit in a record; the
                # session binds y in the cell only
                outer = frees.get(y)
                frees = {**frees, **f}
                if outer is None:
                    frees.pop(y, None)
                else:
                    frees[y] = outer
                break
        name, cf = _binder(hc), rec[_FORM] or src.client
        if i >= aligned and xn == x and name == y and cf is src.client and form is src.pool:
            form = src
        else:
            form = Cons(xn, name, cf, form, span=src.span)
        if i and i >= aligned:
            old = src.__dict__.get(_RECORD)
            if old is None or len(old) == 1 or old[_FORM] is not None:
                src.__dict__[_RECORD] = (h, key, None if form is src else form, frees, depth)
    return (h, key, None if form is p else form, frees, depth)


@cache
def _bound(offset: int) -> tuple[str, int]:
    """The key of a bound channel at offset, one object per offset: keys are
    kept in every record."""
    return ("b", offset)


@cache
def _binder(k: int) -> ChannelName:
    """The name of every canonical binder of height k.  Names are immutable,
    so all canonical forms share one object per height."""
    return ChannelName("c", -k)
