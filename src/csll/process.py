"""Process terms, global definitions, and the syntactic operations on them.

Channels carry a unique id, but a binder need not be unique in a term: the
unfolding rule keeps one unfolding per invocation on its program
(`unfold_head`), so a body's binders recur wherever it is unfolded.
Renaming is capture-avoiding, and `runtime` steps such terms without
capture.  The binding structure of every constructor is stated once, in
`BINDING`: the field of its subject, the channel it binds, and which
subterms lie inside and outside that binder's scope.  Free names, subjects,
renaming (and `canon`'s keys and builds) all read that table rather than
restating it per constructor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .types import SessionType, record


@record
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ChannelName(NamedTuple):
    name: str
    uid: int

    def __repr__(self) -> str:
        return f"{self.name}#{self.uid}"


_uid_counter = itertools.count(1)


def fresh(name: str) -> ChannelName:
    """A channel with a globally fresh unique id."""
    return ChannelName(name, next(_uid_counter))


@record
class Process:
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False, kw_only=True)
    _free = None  # not a field: `free_names` keeps a non-leaf term's set here


@record
class Call(Process):
    name: str
    args: tuple[ChannelName, ...]


@record
class Fail(Process):
    chan: ChannelName


@record
class Close(Process):
    chan: ChannelName


@record
class Wait(Process):
    chan: ChannelName
    body: Process


@record
class Fork(Process):
    """send x(y){P}; Q -- emits a fresh session y over x; y is bound in P only."""

    chan: ChannelName
    payload: ChannelName
    payload_body: Process
    cont: Process


@record
class Join(Process):
    """recv x(y); P -- receives a session y over x; y is bound in P."""

    chan: ChannelName
    payload: ChannelName
    body: Process


@record
class Select(Process):
    chan: ChannelName
    tag: int  # 1 or 2
    body: Process


@record
class Case(Process):
    chan: ChannelName
    left: Process
    right: Process


@record
class Server(Process):
    """server x(y){P} idle {Q} -- accepts connections on x; y bound in P."""

    chan: ChannelName
    session: ChannelName
    accept: Process
    idle: Process


@record
class Cons(Process):
    """client x(y){P}; Q -- a client at the head of the pool Q; y bound in P only."""

    chan: ChannelName
    session: ChannelName
    client: Process
    pool: Process


@record
class Nil(Process):
    chan: ChannelName


@record
class Cut(Process):
    """new x : T { P | Q } -- x bound in both sides; P uses x at T, Q at dual(T)."""

    chan: ChannelName
    anno: SessionType
    left: Process
    right: Process


@record
class Definition:
    name: str
    params: tuple[tuple[ChannelName, SessionType], ...]
    body: Process

    @property
    def param_names(self) -> tuple[ChannelName, ...]:
        return tuple(c for c, _ in self.params)


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

    def refreshed(self) -> Program:
        """A copy whose definition bodies have fresh binders, so that nothing
        it unfolds shares a binder with a term built from this program."""
        return Program({name: replace(d, body=rename(d.body, {}, refresh=True)) for name, d in self.defs.items()},
                       self.main)

    @cached_property
    def _bodies(self) -> dict[tuple[str, tuple[ChannelName, ...]], Process]:
        """The unfolding of each invocation `unfold_head` met, by name and arguments."""
        return {}


class Binding(NamedTuple):
    """A `BINDING` row as field positions; scalars are the fields it does not name."""

    fields: Callable[[Process], tuple]  # all fields in constructor order, then the span
    subject: int | None
    binder: int | None
    inside: tuple[int, ...]
    outside: tuple[int, ...]
    scalars: tuple[int, ...]


def _binding(t: type, subject: str | None, binder: str | None,
             inside: tuple[str, ...], outside: tuple[str, ...]) -> Binding:
    order = t.__match_args__
    at = {f: i for i, f in enumerate(order)}
    named = {subject, binder, *inside, *outside}
    return Binding(attrgetter(*order, "span"), at.get(subject), at.get(binder), tuple(at[f] for f in inside),
                   tuple(at[f] for f in outside), tuple(i for f, i in at.items() if f not in named))


# The binding structure of every constructor, by field name: (subject,
# binder, subterms in the binder's scope, subterms outside it).  An
# invocation's arguments are free.
BINDING: dict[type, Binding] = {t: _binding(t, *row) for t, row in {
    Call: (None, None, (), ()),
    Fail: ("chan", None, (), ()),
    Close: ("chan", None, (), ()),
    Nil: ("chan", None, (), ()),
    Wait: ("chan", None, (), ("body",)),
    Select: ("chan", None, (), ("body",)),
    Case: ("chan", None, (), ("left", "right")),
    Join: ("chan", "payload", ("body",), ()),
    Fork: ("chan", "payload", ("payload_body",), ("cont",)),
    Server: ("chan", "session", ("accept",), ("idle",)),
    Cons: ("chan", "session", ("client",), ("pool",)),
    Cut: (None, "chan", ("left", "right"), ()),
}.items()}


def free_names(p: Process) -> frozenset[ChannelName]:
    """The channels free in p.  A term is immutable, so a non-leaf term keeps
    its set once found: a later call on it, or on a term that shares it (a
    step's reduct shares most of its state), walks only the nodes that are
    new.  A leaf or an invocation returns its set without keeping it.  A
    pool's cells are walked in a loop, not a frame per cell."""
    names = p._free
    if names is None and type(p) is Cons:
        cells = []
        while type(p) is Cons and p._free is None:
            cells.append(p)
            p = p.pool
        names = free_names(p)
        for cell in reversed(cells):
            names = free_names(cell.client) - {cell.session} | names | {cell.chan}
            object.__setattr__(cell, "_free", names)
    elif names is None:
        row = BINDING[type(p)]
        vals = row.fields(p)
        found = set(p.args) if type(p) is Call else set()
        for i in row.inside:
            found |= free_names(vals[i])
        if row.binder is not None:
            found.discard(vals[row.binder])
        for i in row.outside:
            found |= free_names(vals[i])
        if row.subject is not None:
            found.add(vals[row.subject])
        names = frozenset(found)
        if row.inside or row.outside:
            object.__setattr__(p, "_free", names)
    return names


def subject(p: Process) -> ChannelName | None:
    """The channel a guard acts on; None for cuts and invocations."""
    row = BINDING[type(p)]
    return None if row.subject is None else row.fields(p)[row.subject]


def rename(p: Process, mapping: dict[ChannelName, ChannelName], *,
           refresh: bool = False) -> Process:
    """Capture-avoiding renaming of free channels.

    With refresh=True every binder gets a fresh unique id, which keeps binder
    ids distinct when a definition body is inlined more than once.

    One scope map serves the whole traversal: a binder's entry is set on
    entering its scope and the entry it shadowed is restored on leaving it.
    """
    return _rename(p, dict(mapping), refresh)


def _rename(p: Process, m: dict, refresh: bool) -> Process:
    """p renamed by m: its binder and the subterms in its scope (restoring the
    entry of m the binder shadows on leaving it), then its subject and the
    rest.  Without refresh, a node none of whose fields changed is kept."""
    if type(p) is Call:
        args = tuple([m.get(a, a) for a in p.args])
        return p if not refresh and args == p.args else Call(p.name, args, span=p.span)
    row = BINDING[type(p)]
    *vals, span = row.fields(p)
    changed = refresh
    if row.binder is not None:
        b = vals[row.binder]
        old = m.pop(b, None)
        # without refresh b keeps its name unless it would capture the image
        # of a free channel
        if refresh or b in m.values():
            vals[row.binder] = m[b] = fresh(b.name)
            changed = True
        for i in row.inside:
            q = _rename(vals[i], m, refresh)
            if q is not vals[i]:
                vals[i] = q
                changed = True
        if old is None:
            m.pop(b, None)
        else:
            m[b] = old
    if row.subject is not None and (x := vals[row.subject]) in m:
        vals[row.subject], changed = m[x], True
    for i in row.outside:
        q = _rename(vals[i], m, refresh)
        if q is not vals[i]:
            vals[i] = q
            changed = True
    return type(p)(*vals, span=span) if changed else p


def instantiate(defn: Definition, args: tuple[ChannelName, ...], *, refresh: bool = True) -> Process:
    """The body of defn with parameters replaced by args, and with refresh all binders refreshed."""
    if len(args) != len(defn.params):
        raise ValueError(f"{defn.name} expects {len(defn.params)} arguments, got {len(args)}")
    mapping = dict(zip(defn.param_names, args))
    return rename(defn.body, mapping, refresh=refresh)


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
    does an invocation of a name the program does not define (depth 0).

    The program keeps one unfolding per name and arguments: the body renamed
    without refresh, which keeps its binders unless one would capture an
    argument.  Every later unfolding of that invocation is that term, so the
    canonical records and free-name sets kept on it serve them all."""
    bodies = prog._bodies
    while isinstance(p, Call) and call_depth(p, prog):
        key = (p.name, p.args)
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = instantiate(prog.defs[p.name], p.args, refresh=False)
        p = body
    return p
