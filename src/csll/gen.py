"""Seeded random generation of well-typed programs.

Generation is goal-directed over the typing rules, read backwards from
`typecheck.GUARDS`: a move is only taken when a completability oracle
confirms every premise context can still be finished.  While fuel lasts,
moves are sampled; once it runs out, the oracle's memoized witness moves
drive the context to completion, so generation always terminates.

Two tiers: plain finite processes (multiplicative/additive fragment), and
client/server systems wrapping a recursive one-connection-at-a-time server
with a generated pool of finite clients.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from . import types as ty
from .process import (
    Call, ChannelName, Close, Cons, Cut, Definition, Fail, Nil, Process,
    Program, Server, Wait, fresh,
)
from .typecheck import GUARDS

_FRESH_NAMES = "uvwstpq"


def _ms(types: tuple[ty.SessionType, ...]) -> tuple[ty.SessionType, ...]:
    return tuple(sorted(types, key=ty.type_key))


@ty.record
class _Move:
    kind: type         # the guard the move builds
    index: int = 0     # position of the acted-on type in the sorted multiset
    alt: int = 0       # which of the rule's alternatives (a select's tag - 1)
    mask: tuple[int, ...] = ()  # positions sent to the first premise of a split


# connective -> (guard, `GUARDS` row) of the rules read backwards; not the
# server's, whose accept premise keeps its own type and so never bottoms out
_BACKWARDS = {row.connective: (guard, row) for guard, row in GUARDS.items()
              if row.alts != ((),) and guard is not Server}


class Oracle:
    """Decides whether a multiset of types admits a closed process, and
    remembers one witness move per completable multiset."""

    def __init__(self) -> None:
        self.memo: dict[tuple, _Move | None] = {}

    def completable(self, types: tuple[ty.SessionType, ...]) -> bool:
        return self.witness(types) is not None

    def witness(self, types: tuple[ty.SessionType, ...]) -> _Move | None:
        ms = _ms(types)
        key = tuple(ty.type_key(t) for t in ms)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = None  # in-progress: treat self-dependency as failure
        # a fail on the first top closes any context, whatever else it holds
        top = next((i for i, t in enumerate(ms) if isinstance(t, ty.Top)), None)
        move = _Move(Fail, top) if top is not None else next(self.moves(ms), None)
        self.memo[key] = move
        return move

    def moves(self, ms: tuple[ty.SessionType, ...]) -> Iterator[_Move]:
        """Every typing-rule move on the sorted multiset ms whose premises are
        all completable, in a fixed order (it decides the generated programs);
        the oracle is asked lazily, so the first move costs only its own checks."""
        if len(ms) == 1 and isinstance(ms[0], ty.One):
            yield _Move(Close)
        if len(ms) == 1 and isinstance(ms[0], ty.Client):
            yield _Move(Nil)
        for i, t in enumerate(ms):
            if isinstance(t, ty.Top):
                yield _Move(Fail, i)
            guard, row = _BACKWARDS.get(type(t), (None, None))
            if row is None:
                continue
            rest, kids = ms[:i] + ms[i + 1:], (*ty.children(t), t)
            for alt, premises in enumerate(row.alts):
                extras = [tuple(kids[k] for k in p if k is not None) for p in premises]
                if row.split:
                    mask = self._split(rest, *extras)
                    if mask is not None:
                        yield _Move(guard, i, alt, mask)
                elif all(self.completable(rest + extra) for extra in extras):
                    yield _Move(guard, i, alt)

    def _split(self, rest: tuple[ty.SessionType, ...], extra_a: tuple, extra_b: tuple
               ) -> tuple[int, ...] | None:
        n = len(rest)
        for k in range(n + 1):
            for mask in combinations(range(n), k):
                a = tuple(rest[i] for i in mask)
                b = tuple(rest[i] for i in range(n) if i not in mask)
                if self.completable(a + extra_a) and self.completable(b + extra_b):
                    return mask
        return None


_CUT_ATOMS = (ty.ONE, ty.BOT)
_TYPE_CTORS = (None, ty.Tensor, ty.Par, ty.Plus, ty.With)  # None: an atom


def random_type(rng: random.Random, depth: int = 2) -> ty.SessionType:
    """A random MALL type over the atoms 1 and bot, at most depth deep."""
    if depth <= 1:
        return rng.choice(_CUT_ATOMS)
    ctor = rng.choice(_TYPE_CTORS)
    if ctor is None:
        return rng.choice(_CUT_ATOMS)
    return ctor(random_type(rng, depth - 1), random_type(rng, depth - 1))


class ProcessGen:
    def __init__(self, rng: random.Random, oracle: Oracle | None = None):
        self.rng = rng
        self.oracle = oracle or Oracle()
        self._name_i = 0

    def _fresh(self) -> ChannelName:
        self._name_i += 1
        return fresh(_FRESH_NAMES[self._name_i % len(_FRESH_NAMES)])

    def generate(self, ctx: dict[ChannelName, ty.SessionType], fuel: int) -> Process:
        """A random process well typed in ctx (which must be completable)."""
        ms_items = sorted(ctx.items(), key=lambda kv: (ty.type_key(kv[1]), kv[0]))
        ms = tuple(t for _, t in ms_items)
        chans = [c for c, _ in ms_items]
        if fuel > 0:
            moves = list(self.oracle.moves(ms))
            assert moves, f"uncompletable context: {ms}"
            if len(ctx) <= 3 and self.rng.random() < 0.4:
                cut = self._try_cut(ctx, fuel)
                if cut is not None:
                    return cut
        else:
            w = self.oracle.witness(ms)
            assert w is not None, f"uncompletable context: {ms}"
            moves = [w]
        move = self.rng.choice(moves)
        return self._apply(move, chans, ms, fuel - 1)

    def _try_cut(self, ctx: dict[ChannelName, ty.SessionType], fuel: int) -> Process | None:
        rng = self.rng
        anno = random_type(rng, depth=rng.choice((1, 2)))
        items = list(ctx.items())
        rng.shuffle(items)
        k = rng.randrange(len(items) + 1)
        left = dict(items[:k])
        right = dict(items[k:])
        x = self._fresh()
        la = tuple(t for t in left.values()) + (anno,)
        ra = tuple(t for t in right.values()) + (ty.dual(anno),)
        if not (self.oracle.completable(la) and self.oracle.completable(ra)):
            return None
        lp = self.generate({**left, x: anno}, fuel - 1)
        rp = self.generate({**right, x: ty.dual(anno)}, fuel - 1)
        return Cut(x, anno, lp, rp)

    def _apply(self, m: _Move, chans: list[ChannelName], ms: tuple[ty.SessionType, ...],
               fuel: int) -> Process:
        c, t = chans[m.index], ms[m.index]
        if m.kind in (Close, Nil, Fail):
            return m.kind(c)
        row = GUARDS[m.kind]
        premises = row.alts[m.alt]
        rest = list(zip(chans[:m.index] + chans[m.index + 1:], ms[:m.index] + ms[m.index + 1:]))
        kids = (*ty.children(t), t)
        y = self._fresh() if any(b is not None for b, _ in premises) else None
        bodies = []
        for k, (binder, subj) in enumerate(premises):
            # a split sends the masked part of the rest to the first premise
            ctx = dict(rest if not row.split
                       else [kv for j, kv in enumerate(rest) if (j in m.mask) == (k == 0)])
            if binder is not None:
                ctx[y] = kids[binder]
            if subj is not None:
                ctx[c] = kids[subj]
            bodies.append(self.generate(ctx, fuel))
        head = (y,) if y is not None else (m.alt + 1,) if len(row.alts) > 1 else ()
        return m.kind(c, *head, *bodies)


def gen_finite_main(seed: int) -> Program:
    """A definition-free program whose main is well typed at a single 1-channel."""
    rng = random.Random(seed)
    g = ProcessGen(rng)
    z = fresh("z")
    body = g.generate({z: ty.ONE}, 7)
    return Program({}, Definition("main", ((z, ty.ONE),), body))


def gen_server_main(seed: int) -> Program:
    """A racy client/server program: a recursive server draining a pool of
    one to three generated finite clients, reporting completion on z."""
    rng = random.Random(seed)
    oracle = Oracle()
    g = ProcessGen(rng, oracle)
    while True:
        proto = random_type(rng, depth=rng.choice((1, 2)))
        if oracle.completable((proto,)) and oracle.completable((ty.dual(proto), ty.ONE)):
            break
    srv_type = ty.Server(ty.dual(proto))

    x, z = fresh("x"), fresh("z")
    y, w = fresh("y"), fresh("w")
    handler_body = g.generate({y: ty.dual(proto), w: ty.ONE}, 5)
    accept = Cut(w, ty.ONE, handler_body, Wait(w, Call("Srv", (x, z))))
    srv = Definition("Srv", ((x, srv_type), (z, ty.ONE)),
                     Server(x, y, accept, Close(z)))

    xm, zm = fresh("x"), fresh("z")
    pool: Process = Nil(xm)
    for _ in range(rng.randint(1, 3)):
        yc = fresh("y")
        pool = Cons(xm, yc, g.generate({yc: proto}, 5), pool)
    main_body = Cut(xm, ty.Client(proto), pool, Call("Srv", (xm, zm)))
    main = Definition("main", ((zm, ty.ONE),), main_body)
    return Program({"Srv": srv}, main)


def gen_program(seed: int) -> Program:
    """Mixed generator: mostly finite systems, some client/server systems."""
    if seed % 10 < 7:
        return gen_finite_main(seed)
    return gen_server_main(seed)
