"""Process terms, global definitions, and the syntactic operations on them.

Channels carry a unique id so that binder instances stay distinct under
rewriting; alpha-equivalence is checked structurally through a binder
correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator, Optional

from .types import SessionType


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ChannelName:
    name: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.name}#{self.uid}"


_uid_counter = itertools.count(1)


def fresh(name: str) -> ChannelName:
    """A channel with a globally fresh unique id."""
    return ChannelName(name, next(_uid_counter))


@dataclass(frozen=True)
class Process:
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Call(Process):
    name: str
    args: tuple[ChannelName, ...]


@dataclass(frozen=True)
class Fail(Process):
    chan: ChannelName


@dataclass(frozen=True)
class Close(Process):
    chan: ChannelName


@dataclass(frozen=True)
class Wait(Process):
    chan: ChannelName
    body: Process


@dataclass(frozen=True)
class Fork(Process):
    """send x(y){P}; Q -- emits a fresh session y over x; y is bound in P only."""

    chan: ChannelName
    payload: ChannelName
    payload_body: Process
    cont: Process


@dataclass(frozen=True)
class Join(Process):
    """recv x(y); P -- receives a session y over x; y is bound in P."""

    chan: ChannelName
    payload: ChannelName
    body: Process


@dataclass(frozen=True)
class Select(Process):
    chan: ChannelName
    tag: int  # 1 or 2
    body: Process


@dataclass(frozen=True)
class Case(Process):
    chan: ChannelName
    left: Process
    right: Process


@dataclass(frozen=True)
class Server(Process):
    """server x(y){P} idle {Q} -- accepts connections on x; y bound in P."""

    chan: ChannelName
    session: ChannelName
    accept: Process
    idle: Process


@dataclass(frozen=True)
class Cons(Process):
    """client x(y){P}; Q -- a client at the head of the pool Q; y bound in P only."""

    chan: ChannelName
    session: ChannelName
    client: Process
    pool: Process


@dataclass(frozen=True)
class Nil(Process):
    chan: ChannelName


@dataclass(frozen=True)
class Cut(Process):
    """new x : T { P | Q } -- x bound in both sides; P uses x at T, Q at dual(T)."""

    chan: ChannelName
    anno: SessionType
    left: Process
    right: Process


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[tuple[ChannelName, SessionType], ...]
    body: Process

    @property
    def param_names(self) -> tuple[ChannelName, ...]:
        return tuple(c for c, _ in self.params)

    @property
    def param_types(self) -> tuple[SessionType, ...]:
        return tuple(t for _, t in self.params)


@dataclass
class Program:
    defs: dict[str, Definition]
    main: Definition | None = None

    def all_definitions(self) -> Iterator[Definition]:
        yield from self.defs.values()
        if self.main is not None:
            yield self.main

    @cached_property
    def _call_depths(self) -> dict[str, int | None]:
        """`call_depth` of every definition body, built once: the definitions
        of a program do not change after construction."""
        table: dict[str, int | None] = {}
        for name in self.defs:
            _depth(Call(name, ()), self, table)
        return table


def free_names(p: Process) -> frozenset[ChannelName]:
    match p:
        case Call(_, args):
            return frozenset(args)
        case Fail(x) | Close(x) | Nil(x):
            return frozenset((x,))
        case Wait(x, body):
            return free_names(body) | {x}
        case Fork(x, y, pb, cont):
            return (free_names(pb) - {y}) | free_names(cont) | {x}
        case Join(x, y, body):
            return (free_names(body) - {y}) | {x}
        case Select(x, _, body):
            return free_names(body) | {x}
        case Case(x, l, r):
            return free_names(l) | free_names(r) | {x}
        case Server(x, y, acc, idle):
            return (free_names(acc) - {y}) | free_names(idle) | {x}
        case Cons(x, y, client, pool):
            return (free_names(client) - {y}) | free_names(pool) | {x}
        case Cut(x, _, l, r):
            return (free_names(l) | free_names(r)) - {x}
    raise TypeError(f"not a process: {p!r}")


def rename(p: Process, mapping: dict[ChannelName, ChannelName], *,
           refresh: bool | Callable[[ChannelName], ChannelName] = False) -> Process:
    """Capture-avoiding renaming of free channels.

    With refresh=True every binder gets a fresh unique id, which keeps binder
    ids distinct when a definition body is inlined more than once.  A
    function passed as refresh names every binder instead, in traversal order
    (binder before its scope, left before right).

    One scope map serves the whole traversal: a binder's entry is set on
    entering its scope and the entry it shadowed is restored on leaving it.
    """
    namer = refresh if callable(refresh) else _fresh_like if refresh else None
    return _RENAME[type(p)](p, dict(mapping), namer)


def _fresh_like(b: ChannelName) -> ChannelName:
    return fresh(b.name)


_Namer = Optional[Callable[[ChannelName], ChannelName]]


def _under(b: ChannelName, m: dict[ChannelName, ChannelName], namer: _Namer, p: Process,
           q: Process | None = None) -> tuple[ChannelName, Process, Process | None]:
    """Binder b's new name, and p (and q) renamed in b's scope; the entry of m
    that b shadows is restored on leaving it."""
    old = m.pop(b, None)
    if namer is not None:
        nb = m[b] = namer(b)
    elif b in m.values():  # b would capture the image of a free channel
        nb = m[b] = fresh(b.name)
    else:
        nb = b
    p = _RENAME[type(p)](p, m, namer)
    if q is not None:
        q = _RENAME[type(q)](q, m, namer)
    if old is None:
        m.pop(b, None)
    else:
        m[b] = old
    return nb, p, q


def _r_call(p: Call, m: dict, namer: _Namer) -> Process:
    return Call(p.name, tuple([m.get(a, a) for a in p.args]), span=p.span)


def _r_leaf(p: Fail | Close | Nil, m: dict, namer: _Namer) -> Process:
    return type(p)(m.get(p.chan, p.chan), span=p.span)


def _r_wait(p: Wait, m: dict, namer: _Namer) -> Process:
    return Wait(m.get(p.chan, p.chan), _RENAME[type(p.body)](p.body, m, namer), span=p.span)


def _r_select(p: Select, m: dict, namer: _Namer) -> Process:
    return Select(m.get(p.chan, p.chan), p.tag, _RENAME[type(p.body)](p.body, m, namer), span=p.span)


def _r_case(p: Case, m: dict, namer: _Namer) -> Process:
    left = _RENAME[type(p.left)](p.left, m, namer)
    return Case(m.get(p.chan, p.chan), left, _RENAME[type(p.right)](p.right, m, namer), span=p.span)


def _r_join(p: Join, m: dict, namer: _Namer) -> Process:
    y, body, _ = _under(p.payload, m, namer, p.body)
    return Join(m.get(p.chan, p.chan), y, body, span=p.span)


def _r_scoped(p: Fork | Server | Cons, m: dict, namer: _Namer) -> Process:
    """A subject, a binder scoped over the next subterm only, and the rest."""
    x, y, body, rest = _FIELDS[type(p)](p)
    y, body, _ = _under(y, m, namer, body)
    return type(p)(m.get(x, x), y, body, _RENAME[type(rest)](rest, m, namer), span=p.span)


def _r_cut(p: Cut, m: dict, namer: _Namer) -> Process:
    x, left, right = _under(p.chan, m, namer, p.left, p.right)
    return Cut(x, p.anno, left, right, span=p.span)


_FIELDS = {t: attrgetter(*t.__match_args__) for t in (Fork, Server, Cons)}
_RENAME: dict[type, Callable[[Process, dict, _Namer], Process]] = {
    Call: _r_call, Fail: _r_leaf, Close: _r_leaf, Nil: _r_leaf, Wait: _r_wait,
    Select: _r_select, Case: _r_case, Join: _r_join, Fork: _r_scoped,
    Server: _r_scoped, Cons: _r_scoped, Cut: _r_cut,
}


def instantiate(defn: Definition, args: tuple[ChannelName, ...]) -> Process:
    """The body of defn with parameters replaced by args and all binders refreshed."""
    if len(args) != len(defn.params):
        raise ValueError(f"{defn.name} expects {len(defn.params)} arguments, got {len(args)}")
    mapping = dict(zip(defn.param_names, args))
    return rename(defn.body, mapping, refresh=True)


def alpha_equal(p: Process, q: Process, free_map: dict[ChannelName, ChannelName] | None = None) -> bool:
    """Structural equality up to renaming of bound channels.

    Free channels must correspond via free_map; by default they are matched
    by display name, which is what the pretty-printer/parser round trip
    preserves.
    """

    def chan_eq(a: ChannelName, b: ChannelName, env: dict[ChannelName, ChannelName]) -> bool:
        if a in env:
            return env[a] == b
        if free_map is not None:
            return free_map.get(a, a) == b
        return a.name == b.name

    def go(p: Process, q: Process, env: dict[ChannelName, ChannelName]) -> bool:
        if type(p) is not type(q):
            return False
        match p, q:
            case Call(n1, a1), Call(n2, a2):
                return n1 == n2 and len(a1) == len(a2) and all(chan_eq(a, b, env) for a, b in zip(a1, a2))
            case (Fail(x1), Fail(x2)) | (Close(x1), Close(x2)) | (Nil(x1), Nil(x2)):
                return chan_eq(x1, x2, env)
            case Wait(x1, b1), Wait(x2, b2):
                return chan_eq(x1, x2, env) and go(b1, b2, env)
            case Fork(x1, y1, pb1, c1), Fork(x2, y2, pb2, c2):
                return (chan_eq(x1, x2, env)
                        and go(pb1, pb2, {**env, y1: y2})
                        and go(c1, c2, env))
            case Join(x1, y1, b1), Join(x2, y2, b2):
                return chan_eq(x1, x2, env) and go(b1, b2, {**env, y1: y2})
            case Select(x1, t1, b1), Select(x2, t2, b2):
                return t1 == t2 and chan_eq(x1, x2, env) and go(b1, b2, env)
            case Case(x1, l1, r1), Case(x2, l2, r2):
                return chan_eq(x1, x2, env) and go(l1, l2, env) and go(r1, r2, env)
            case Server(x1, y1, a1, i1), Server(x2, y2, a2, i2):
                return (chan_eq(x1, x2, env)
                        and go(a1, a2, {**env, y1: y2})
                        and go(i1, i2, env))
            case Cons(x1, y1, c1, t1), Cons(x2, y2, c2, t2):
                return (chan_eq(x1, x2, env)
                        and go(c1, c2, {**env, y1: y2})
                        and go(t1, t2, env))
            case Cut(x1, an1, l1, r1), Cut(x2, an2, l2, r2):
                env2 = {**env, x1: x2}
                return an1 == an2 and go(l1, l2, env2) and go(r1, r2, env2)
        return False

    return go(p, q, {})


def call_depth(p: Process, prog: Program) -> int | None:
    """Depth of unguarded unfolding needed below p, or None if it diverges.

    Invocations add one plus the depth of their body, cuts add one plus the
    max of their sides, and every guard resets to zero.  An invocation of a
    name the program does not define is opaque: it never unfolds, and counts
    as zero like a guard.
    """
    return _depth(p, prog, prog._call_depths)


def _depth(p: Process, prog: Program, table: dict[str, int | None]) -> int | None:
    match p:
        case Call(name, _) if name in prog.defs:
            if name not in table:
                table[name] = None  # met again before it is done: an unguarded cycle
                table[name] = _depth(prog.defs[name].body, prog, table)
            d = table[name]
            return None if d is None else 1 + d
        case Cut(_, _, l, r):
            dl, dr = _depth(l, prog, table), _depth(r, prog, table)
            if dl is None or dr is None:
                return None
            return 1 + max(dl, dr)
    return 0


def unfold_head(p: Process, prog: Program) -> Process:
    """The unfolding rule: an invocation unfolds exactly when its unguarded
    unfolding terminates.  One whose unfolding diverges stays, stuck, and so
    does an invocation of a name the program does not define (depth 0)."""
    while isinstance(p, Call) and call_depth(p, prog):
        p = instantiate(prog.defs[p.name], p.args)
    return p


def unfold(p: Process, prog: Program) -> Process:
    """`unfold_head` at every position reachable through cuts only."""
    p = unfold_head(p, prog)
    if isinstance(p, Cut):
        return Cut(p.chan, p.anno, unfold(p.left, prog), unfold(p.right, prog), span=p.span)
    return p


def threads(p: Process) -> int:
    """Number of unguarded guards: cuts add their sides, everything else is one."""
    if isinstance(p, Cut):
        return threads(p.left) + threads(p.right)
    return 1


def channels(p: Process) -> int:
    """Number of unguarded restrictions."""
    if isinstance(p, Cut):
        return 1 + channels(p.left) + channels(p.right)
    return 0


def subject(p: Process) -> ChannelName | None:
    """The channel a guard acts on; None for cuts and invocations."""
    match p:
        case Fail(x) | Close(x) | Nil(x):
            return x
        case Wait(x, _) | Join(x, _, _) | Select(x, _, _) | Case(x, _, _):
            return x
        case Fork(x, _, _, _) | Server(x, _, _, _) | Cons(x, _, _, _):
            return x
    return None
