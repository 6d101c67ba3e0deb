"""Session types: MALL constants and connectives plus the client/server modalities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class SessionType:
    """Base class for session type trees.  Values are immutable and hashable."""

    __match_args__ = ()


@dataclass(frozen=True)
class One(SessionType):
    pass


@dataclass(frozen=True)
class Bot(SessionType):
    pass


@dataclass(frozen=True)
class Zero(SessionType):
    pass


@dataclass(frozen=True)
class Top(SessionType):
    pass


@dataclass(frozen=True)
class Tensor(SessionType):
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class Par(SessionType):
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class Plus(SessionType):
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class With(SessionType):
    left: SessionType
    right: SessionType


@dataclass(frozen=True)
class Server(SessionType):
    """Shared channel offering a session of the inner type to each client."""

    inner: SessionType


@dataclass(frozen=True)
class Client(SessionType):
    """Shared channel used by a queue of clients, each opening a session of the inner type."""

    inner: SessionType


ONE = One()
BOT = Bot()
ZERO = Zero()
TOP = Top()


def dual(t: SessionType) -> SessionType:
    """Involution swapping each constructor with its dual, recursing on children."""
    match t:
        case One():
            return BOT
        case Bot():
            return ONE
        case Zero():
            return TOP
        case Top():
            return ZERO
        case Tensor(l, r):
            return Par(dual(l), dual(r))
        case Par(l, r):
            return Tensor(dual(l), dual(r))
        case Plus(l, r):
            return With(dual(l), dual(r))
        case With(l, r):
            return Plus(dual(l), dual(r))
        case Server(inner):
            return Client(dual(inner))
        case Client(inner):
            return Server(dual(inner))
    raise TypeError(f"not a session type: {t!r}")


def is_positive(t: SessionType) -> bool:
    """Positive types describe outputs (close, send, select, client pools)."""
    return isinstance(t, (One, Zero, Tensor, Plus, Client))


def children(t: SessionType) -> tuple[SessionType, ...]:
    match t:
        case Tensor(l, r) | Par(l, r) | Plus(l, r) | With(l, r):
            return (l, r)
        case Server(inner) | Client(inner):
            return (inner,)
    return ()


def type_key(t: SessionType) -> tuple:
    """A sort key for types: the constructor names of the tree, in pre-order."""
    return (type(t).__name__,) + tuple(type_key(c) for c in children(t))


def subtypes(t: SessionType) -> Iterator[SessionType]:
    """All subtrees of t, including t itself (pre-order)."""
    yield t
    for c in children(t):
        yield from subtypes(c)


def depth(t: SessionType) -> int:
    kids = children(t)
    if not kids:
        return 1
    return 1 + max(depth(k) for k in kids)
