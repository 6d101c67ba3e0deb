"""Session types: MALL constants and connectives plus the client/server modalities.

The same classes are the connectives of `csll.formulas`, which adds only
variables and fixed points.  `_CONNECTIVES` states each connective once: its
dual, its word in the surface syntax and its precedence level, which the
parser and the printer both read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


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
    """A frozen dataclass with SessionType's hash (the generated one hashes
    only the fields)."""
    cls.__hash__ = SessionType.__hash__
    return dataclass(frozen=True)(cls)


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
