"""Process terms, global definitions, and the syntactic operations on them.

Channels carry a unique id so that binder instances stay distinct under
rewriting.  The binding structure of every constructor is stated once, in
`BINDING`: the field of its subject, the channel it binds, and which
subterms lie inside and outside that binder's scope.  Free names, subjects,
renaming (and `canon`'s keys and builds) all read that table rather than
restating it per constructor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .types import SessionType


@dataclass(frozen=True)
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
    """The channels free in p, found in one walk that keeps one set of found
    names and the number of open scopes of each binder (`_free_names` keeps
    each subterm's set instead, for a caller that asks about many subterms)."""
    found: set[ChannelName] = set()
    _free(p, found, {})
    return frozenset(found)


def _free(p: Process, found: set[ChannelName], bound: dict[ChannelName, int]) -> None:
    """Add to found the channels free in p that no scope in bound encloses."""
    if type(p) is Call:
        found.update(a for a in p.args if not bound.get(a))
        return
    fields, subj, binder, inside, outside, _ = BINDING[type(p)]
    vals = fields(p)
    if subj is not None and not bound.get(x := vals[subj]):
        found.add(x)
    if binder is not None:
        b = vals[binder]
        bound[b] = bound.get(b, 0) + 1
        for i in inside:
            _free(vals[i], found, bound)
        bound[b] -= 1
    for i in outside:
        _free(vals[i], found, bound)


def _free_names(p: Process, memo: dict[int, frozenset[ChannelName]]) -> frozenset[ChannelName]:
    """free_names(p), taking and leaving each subterm's set in memo under its id()."""
    names = memo.get(id(p))
    if names is None:
        row = BINDING[type(p)]
        vals = row.fields(p)
        found = set(p.args) if type(p) is Call else set()
        for i in row.inside:
            found |= _free_names(vals[i], memo)
        if row.binder is not None:
            found.discard(vals[row.binder])
        for i in row.outside:
            found |= _free_names(vals[i], memo)
        if row.subject is not None:
            found.add(vals[row.subject])
        names = memo[id(p)] = frozenset(found)
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
    """p renamed by m: first its binder and the subterms in the binder's scope
    (the entry of m that the binder shadows is restored on leaving the
    scope), then its subject and the subterms outside the scope."""
    if type(p) is Call:
        return Call(p.name, tuple([m.get(a, a) for a in p.args]), span=p.span)
    row = BINDING[type(p)]
    *vals, span = row.fields(p)
    if row.binder is not None:
        b = vals[row.binder]
        old = m.pop(b, None)
        # without refresh b keeps its name unless it would capture the image
        # of a free channel
        if refresh or b in m.values():
            vals[row.binder] = m[b] = fresh(b.name)
        for i in row.inside:
            vals[i] = _rename(vals[i], m, refresh)
        if old is None:
            m.pop(b, None)
        else:
            m[b] = old
    if row.subject is not None:
        x = vals[row.subject]
        vals[row.subject] = m.get(x, x)
    for i in row.outside:
        vals[i] = _rename(vals[i], m, refresh)
    return type(p)(*vals, span=span)


def instantiate(defn: Definition, args: tuple[ChannelName, ...]) -> Process:
    """The body of defn with parameters replaced by args and all binders refreshed."""
    if len(args) != len(defn.params):
        raise ValueError(f"{defn.name} expects {len(defn.params)} arguments, got {len(args)}")
    mapping = dict(zip(defn.param_names, args))
    return rename(defn.body, mapping, refresh=True)


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
