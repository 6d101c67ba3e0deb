"""Session types: MALL constants and connectives plus the client/server modalities.

The same classes are the connectives of `csll.formulas`, which adds only
variables and fixed points.  `_CONNECTIVES` states each connective once: its
dual, its word in the surface syntax and its precedence level, which the
parser and the printer both read.  `record` builds the package's records.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields
from functools import cache


def record(cls: type | None = None, /, *, slots: bool = False):
    """`dataclass(frozen=True[, slots=True])` whose `__init__` sets each field
    by one pre-bound call, `object.__setattr__` or the slot's `__set__` (the
    generated one looks `object.__setattr__` up per field).  A class without
    fields keeps `object.__init__`; all else is dataclass's own."""
    def wrap(cls: type) -> type:
        doc, cls.__doc__ = cls.__doc__, cls.__doc__ or "-"  # else dataclass signs the inherited __init__
        cls = dataclass(frozen=True, init=False, slots=slots)(cls)
        if fs := fields(cls):
            ns = {"__name__": cls.__module__, "_set": object.__setattr__}
            ns.update((f"_{i}", getattr(cls, f.name).__set__) for i, f in enumerate(fs) if slots)
            pos, kw = [f for f in fs if not f.kw_only], [f for f in fs if f.kw_only]
            params = ", ".join(["self", *(f.name for f in pos), *(["*"] if kw else []), *(f.name for f in kw)])
            sets = (f"_{i}(self, {f.name})" if slots else f"_set(self, {f.name!r}, {f.name})"
                    for i, f in enumerate(fs))
            exec(f"def __init__({params}):\n " + "\n ".join(sets), ns)
            init = cls.__init__ = ns["__init__"]
            init.__defaults__ = tuple(f.default for f in pos if f.default is not MISSING) or None
            init.__kwdefaults__ = {f.name: f.default for f in kw if f.default is not MISSING} or None
            init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
        cls.__doc__ = doc or cls.__name__ + (str(inspect.signature(cls)).replace(" -> None", "") if fs else "()")
        return cls
    return wrap if cls is None else wrap(cls)


class SessionType:
    """Base class for session type trees.  Values are immutable and hashable."""

    __match_args__ = ()
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        """Covers the connective at every node, so trees of one shape do not
        all collide in the caches below; computed once per value."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((_TAG[type(self)], *vars(self).values())))
            return self._hash

    def __getstate__(self) -> dict:
        return vars(self)  # a copy computes its own hash


def _connective(cls: type) -> type:
    """A record with SessionType's hash (the generated one hashes only the
    fields)."""
    cls.__hash__ = SessionType.__hash__
    return record(cls)


@_connective
class One(SessionType):
    pass


@_connective
class Bot(SessionType):
    pass


@_connective
class Zero(SessionType):
    pass


@_connective
class Top(SessionType):
    pass


@_connective
class Tensor(SessionType):
    left: SessionType
    right: SessionType


@_connective
class Par(SessionType):
    left: SessionType
    right: SessionType


@_connective
class Plus(SessionType):
    left: SessionType
    right: SessionType


@_connective
class With(SessionType):
    left: SessionType
    right: SessionType


@_connective
class Server(SessionType):
    """Shared channel offering a session of the inner type to each client."""

    inner: SessionType


@_connective
class Client(SessionType):
    """Shared channel used by a queue of clients, each opening a session of the inner type."""

    inner: SessionType


ONE = One()
BOT = Bot()

# Precedence levels of the surface syntax; higher binds tighter.  Binary
# operators chain to the right, and two operators of one level do not mix.
_ADD, _MULT, _PREFIX, _ATOM = 1, 2, 3, 4

# Each connective once: a positive connective and its word, its dual and
# that one's word, and the level of both.
_CONNECTIVES = (
    (One, "1", Bot, "bot", _ATOM),
    (Zero, "0", Top, "top", _ATOM),
    (Client, "cli", Server, "srv", _PREFIX),
    (Tensor, "*", Par, "par", _MULT),
    (Plus, "+", With, "&", _ADD),
)
_POSITIVE = {pos: neg for pos, _, neg, _, _ in _CONNECTIVES}
_DUAL = {**_POSITIVE, **{neg: pos for pos, neg in _POSITIVE.items()}}
# connective -> (surface word, precedence level)
_SYNTAX = {ctor: (word, level) for pos, pos_word, neg, neg_word, level in _CONNECTIVES
           for ctor, word in ((pos, pos_word), (neg, neg_word))}
_TAG = {ctor: i for i, ctor in enumerate(_SYNTAX)}  # a deterministic hash seed per connective


def children(t: SessionType) -> tuple[SessionType, ...]:
    """The operands of a connective, left to right (its fields, in order)."""
    return tuple(vars(t).values())


@cache
def dual(t: SessionType) -> SessionType:
    """Involution swapping each constructor with its dual, recursing on children."""
    return _DUAL[type(t)](*map(dual, children(t)))


@cache
def type_key(t: SessionType) -> tuple:
    """A sort key for types: the constructor names of the tree, in pre-order."""
    return (type(t).__name__,) + tuple(map(type_key, children(t)))
