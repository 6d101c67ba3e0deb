"""Operational semantics: redex discovery, full and deterministic stepping,
schedulers, state-space exploration, and termination verdicts.

Redexes live at a cut whose two sides expose dual actions on the cut
channel.  One walk down the spine of a state (its cuts and, in the full
semantics, its pool heads) finds every step: each subterm returns the
guards it exposes, keyed by subject, and each cut pairs the two guards on
its channel when their `typecheck.GUARDS` connectives are dual and the cut
types the positive one at its connective.  Pulling a guard out through
enclosing cuts and pool heads mirrors the pre-congruence moves that justify
the step.  The walk reads a pool's cells in one loop (`_pool_cells`) and
hands them with the pool's guard to the cut that pairs it, which reads them
itself only in the deterministic semantics, where the walk does not.  A
state's binders need not be distinct: sibling scopes may reuse a name, as
canonical forms do, and an invocation unfolded in the scope of an earlier
unfolding of the same body repeats its binders.  A step nests the right
side inside the cuts around the left guard, and its core inside the cuts
around both, so where a binder of one side would capture a channel the
other names, that side's guard is taken from a copy whose binders and
unfoldings are fresh.  The walk unfolds an invocation only where it meets
one, by the one unfolding rule, `process.unfold_head`: an invocation
unfolds exactly when its unguarded unfolding terminates; one that
diverges, or names no definition, is stuck while the rest of the state may
step.  The deterministic fragment drops every pool rule, so clients connect
in queue order, and its scheduler takes the first step.  In the full
semantics, connecting either of two clients with equal canonical keys gives
one canonical state (symmetry reduction).  A step is one small record of
its cut, the two guards it pairs, its path and its context; it builds its
rearrangement and reduct on first access, by rules stated once
(`Step.core`).  The connects at one cut are such records over what they
share (`_Pool`): the pool's cells as the walk read them, and one orbit per
client key read.  So exploration keys each client and builds one reduct
per such class, and a run builds only the drawn step and keys no client.
The reduction graph buckets its states by the C-level hash of their
canonical keys and confirms a hit by canonical-term equality.  Each term
keyed but a leaf keeps a record of its canonical form and key (`canon`); a
reduct holds the nodes of the state it steps from, and a run's next state
those of the reduct before it, so keying a state costs what its step
changed.
"""

from __future__ import annotations

import hashlib
import random as _random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from . import types as ty
from .canon import canonical_form, canonical_hashed, cell_key
from .process import (
    ChannelName, Close, Cons, Cut, Fork, Nil, Process, Program, Select, call_depth,
    free_names, fresh, rename, subject, unfold_head,
)
from .printer import pretty_process
from .typecheck import GUARDS


@ty.record(slots=True)
class RedexInfo:
    kind: str                 # r-close | r-comm | r-case | r-done | r-connect
    channel: str              # display name of the synchronizing channel
    path: tuple[str, ...]     # steps to the cut: L/R (cut sides), T (pool tail)
    client_index: int = 0     # which pool cell connects, for r-connect

    def __str__(self) -> str:
        loc = "".join(self.path) or "·"
        return f"{self.kind}@{self.channel}[{loc}]"


# an exposed guard, the closure that rebuilds its exposing term around a
# replacement, the binders of the cuts that term puts around it, and, for a
# pool head that the walk read, what `_pool_cells` gave (else None)
_Guard = tuple[Process, Callable[[Process], Process], tuple[ChannelName, ...],
               "tuple[list[Cons], Process, int] | None"]


def _hole(h: Process) -> Process:
    return h


def _pool_cells(g: Process, x: ChannelName, defs: Program) -> tuple[list[Cons], Process, int]:
    """The pool g's cells on x, its end, and the position of the last invocation unfolded (0 if none)."""
    cells: list[Cons] = []
    node, last = g, 0
    while True:
        head = unfold_head(node, defs)
        if head is not node:
            last = len(cells)
        if isinstance(head, Cons) and head.chan == x:
            cells.append(head)
            node = head.pool
        else:
            return cells, head, last


def _stack(cells: list[Cons], q: Process) -> Process:
    """The pool of cells over q."""
    for c in reversed(cells):
        q = Cons(c.chan, c.session, c.client, q)
    return q


class Step:
    """One enabled reduction: the cut on x typed anno whose sides expose the
    dual guards g1 and g2, its path, `around`, which rebuilds the state
    around a replacement of the cut, and for a connect (`_Connect`) the pool
    and the index i of the cell it connects.  Its redex `info` is computed
    when read; the exposed `cut`, the pre-congruence rearrangement `exposed`
    that embeds it, and the `reduct` are built on first access and kept, so
    a step nobody reads costs one small record.  A step is its own orbit."""

    __slots__ = ("kind", "x", "anno", "g1", "g2", "path", "around", "pool", "i", "_cut", "_exposed", "_reduct")

    def __init__(self, kind: str, x: ChannelName, anno: ty.SessionType, g1: Process, g2: Process,
                 path: tuple[str, ...], around: Callable[[Process], Process], pool: _Pool | None = None,
                 i: int = 0):
        self.kind, self.x, self.anno, self.g1, self.g2 = kind, x, anno, g1, g2
        self.path, self.around, self.pool, self.i = path, around, pool, i
        self._cut = self._exposed = self._reduct = None

    @property
    def info(self) -> RedexInfo:
        return RedexInfo(self.kind, self.x.name, self.path, self.i)

    @property
    def orbit(self) -> object:
        return self

    @property
    def cut(self) -> Cut:
        """The exposed cut node, embedded in `exposed`."""
        if self._cut is None:
            self._cut = self.redex()
        return self._cut

    @property
    def exposed(self) -> Process:
        if self._exposed is None:
            self._exposed = self.around(self.cut)
        return self._exposed

    @property
    def reduct(self) -> Process:
        if self._reduct is None:
            self._reduct = self.around(self.core())
        return self._reduct

    def redex(self) -> Cut:
        return Cut(self.x, self.anno, self.g1, self.g2)

    def positive(self) -> tuple[Process, Process, ty.SessionType]:
        """The guard of positive connective, the other guard, and the type the cut gives the first."""
        if GUARDS[type(self.g1)].connective in ty._POSITIVE:
            return self.g1, self.g2, self.anno
        return self.g2, self.g1, ty.dual(self.anno)

    def core(self) -> Process:
        """What the cut reduces to, by the close, comm, case or done rule."""
        x, (a, b, t) = self.x, self.positive()
        match self.kind:
            case "r-close":
                return b.body
            case "r-comm":
                c = fresh(a.payload.name)
                payload = rename(a.payload_body, {a.payload: c})
                return Cut(c, t.left, payload, Cut(x, t.right, a.cont, rename(b.body, {b.payload: c})))
            case "r-case":
                return Cut(x, t.left, a.body, b.left) if a.tag == 1 else Cut(x, t.right, a.body, b.right)
        return b.idle


# the rule of a step whose positive guard is not a pool head, by that guard
_RULES = {Close: "r-close", Fork: "r-comm", Select: "r-case", Nil: "r-done"}


class _Pool:
    """What the connects at one cut share: the pool's cells, its end and the
    position of the last invocation unfolded, as `_pool_cells` read them, and
    one orbit per client key read so far."""

    __slots__ = ("cells", "end", "last", "orbits")

    def __init__(self, read: tuple[list[Cons], Process, int]):
        self.cells, self.end, self.last = read
        self.orbits: dict[tuple, object] = {}

    def rest(self, i: int) -> Process:
        """The pool without cell i, keeping what stands below it."""
        cells = self.cells
        return _stack(cells[:i], cells[i].pool) if i >= self.last else _stack(cells[:i] + cells[i + 1:], self.end)


class _Connect(Step):
    """The step that connects cell i of a pool to the server at its cut.
    Connects of clients with equal `cell_key`s share an orbit."""

    __slots__ = ()

    @property
    def orbit(self) -> object:
        c = self.pool.cells[self.i]
        # a token, not a step: a step holds its pool, and the cycle would keep
        # every step of the state alive until the cycle collector runs
        return self.pool.orbits.setdefault(cell_key(c.client, c.session), object())

    def redex(self) -> Cut:
        """The cut with cell i at the pool's head."""
        c = self.pool.cells[self.i]
        head = Cons(self.x, c.session, c.client, self.pool.rest(self.i))
        return Cut(self.x, self.anno, *((head, self.g2) if type(self.g1) is Cons else (self.g1, head)))

    def core(self) -> Process:
        _, server, t = self.positive()
        cell = self.pool.cells[self.i]
        c = fresh(cell.session.name)
        client = rename(cell.client, {cell.session: c})
        accept = rename(server.accept, {server.session: c})
        return Cut(c, t.inner, client, Cut(self.x, t, self.pool.rest(self.i), accept))


def _sync_redexes(x: ChannelName, anno: ty.SessionType, lg: _Guard, rg: _Guard, defs: Program,
                  pool_ok: bool, path: tuple[str, ...], ctx: Callable[[Process], Process],
                  out: list[Step]) -> None:
    """Append to out the steps at the cut on x (typed anno) whose sides
    expose the x-guards lg and rg, and whose enclosing context is ctx.  A
    pool's cells are read here only if the walk did not read them."""
    (g1, rb1, _, read1), (g2, rb2, _, read2) = lg, rg
    # two guards of dual connectives pair when the cut types the positive one
    # at its connective, that is, when it types the left one at its own
    c1 = GUARDS[type(g1)].connective
    if ty._DUAL[c1] is not GUARDS[type(g2)].connective or not isinstance(anno, c1):
        return
    a = g1 if c1 in ty._POSITIVE else g2

    def around(core: Process) -> Process:
        return ctx(rb1(rb2(core)))

    if type(a) is not Cons:
        out.append(Step(_RULES[type(a)], x, anno, g1, g2, path, around))
        return
    pool = _Pool(read1 or read2 or _pool_cells(a, x, defs))
    # symmetry reduction in the full semantics; queue order: the head connects
    out.extend(_Connect("r-connect", x, anno, g1, g2, path, around, pool, i)
               for i in range(len(pool.cells) if pool_ok else 1))


def _walk(p: Process, defs: Program, pool_ok: bool, path: tuple[str, ...],
          ctx: Callable[[Process], Process], out: list[Step]) -> dict[ChannelName, _Guard]:
    """Append to out every step below p, whose enclosing context is ctx, in
    preorder, and return the guards p exposes.  A cut unfolds each side once;
    the context of a step below one side keeps the other side as it was.  A
    cut hands up no guard on its own channel, which an enclosing cut that
    binds the same name would otherwise pair.  A pool head walks its end
    once, and hands up its guards on other channels that no client names."""
    p = unfold_head(p, defs)
    if isinstance(p, Cut):
        x, anno = p.chan, p.anno
        at = len(out)
        lg = _walk(p.left, defs, pool_ok, path + ("L",), lambda q: ctx(Cut(x, anno, q, p.right)), out)
        rg = _walk(p.right, defs, pool_ok, path + ("R",), lambda q: ctx(Cut(x, anno, p.left, q)), out)
        if x in lg and x in rg:
            left, right = lg[x], rg[x]
            # a step nests the right side, rebuilt, inside the cuts around the
            # left guard, and its core inside the cuts around both guards, so
            # a binder of the right's cuts that the left guard names, or of
            # the left's that the right side names, would capture it: sibling
            # scopes that reuse a name do this, and so does an unfolding in
            # the scope of an earlier one of the same body.  Such a side's
            # guard is taken from a copy whose binders and unfoldings are fresh
            if right[2] and not free_names(left[0]).union(left[2]).isdisjoint(right[2]):
                right = _walk(rename(p.right, {}, refresh=True), defs.refreshed(), pool_ok, (), _hole, [])[x]
            if left[2] and not free_names(p.right).isdisjoint(left[2]):
                left = _walk(rename(p.left, {}, refresh=True), defs.refreshed(), pool_ok, (), _hole, [])[x]
            own: list[Step] = []
            _sync_redexes(x, anno, left, right, defs, pool_ok, path, ctx, own)
            out[at:at] = own
        guards = {s: (g, lambda h, rb=rb: Cut(x, anno, p.left, rb(h)), (x, *bs), pool)
                  for s, (g, rb, bs, pool) in rg.items() if s != x}
        guards.update({s: (g, lambda h, rb=rb: Cut(x, anno, rb(h), p.right), (x, *bs), pool)
                       for s, (g, rb, bs, pool) in lg.items() if s != x})
        return guards
    s = subject(p)
    if not (pool_ok and isinstance(p, Cons)):
        return {} if s is None else {s: (p, _hole, (), None)}
    read = cells, end, _ = _pool_cells(p, s, defs)
    guards = {s: (p, _hole, (), read)}
    tail = _walk(end, defs, pool_ok, path + ("T",) * len(cells), lambda q: ctx(_stack(cells, q)), out)
    if any(t != s for t in tail):
        heads = set().union(*(free_names(c.client) - {c.session} for c in cells))
        guards.update({t: (g, lambda h, rb=rb: _stack(cells, rb(h)), bs, pool)
                       for t, (g, rb, bs, pool) in tail.items() if t != s and t not in heads})
    return guards


def enabled_steps(p: Process, defs: Program, deterministic: bool = False) -> list[Step]:
    """Full step records including the exposed rearrangement, uncanonicalized.
    p's binders need not be distinct: sibling scopes may reuse a name."""
    out: list[Step] = []
    _walk(p, defs, not deterministic, (), lambda q: q, out)
    return out


def step_det(p: Process, defs: Program) -> list[tuple[RedexInfo, Process]]:
    """One-step reducts with all pool rules removed (queue order only)."""
    return [(st.info, canonical_form(st.reduct)) for st in enabled_steps(p, defs, deterministic=True)]


def is_close_normal(p: Process, defs: Program) -> bool:
    """True when p unfolds to a bare close (the terminal shape at a 1-typed context)."""
    return isinstance(unfold_head(p, defs), Close)


def _digest(canonical: Process) -> str:
    return _text_digest(pretty_process(canonical))


def _text_digest(text: str) -> str:
    """The hash of a state printed as text."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass
class TraceStep:
    index: int
    info: RedexInfo
    state_hash: str

    def line(self) -> str:
        return f"{self.index}, {self.info.kind}, {self.info.channel}, {self.state_hash}"


@dataclass
class Trace:
    steps: list[TraceStep]
    final: Process
    terminated: bool   # reached a normal form
    truncated: bool    # stopped because of the step budget
    scheduler: str
    seed: int | None = None
    states: list[Process] = field(default_factory=list)  # canonical, one per step

    @property
    def diverging(self) -> bool:
        """Stuck only on a diverging invocation: not a normal form, as in `explore`."""
        return not self.terminated and not self.truncated


def run(p: Process, ctx: dict, defs: Program, scheduler: str = "det",
        seed: int | None = None, max_steps: int = 1000) -> Trace:
    """Drive p to a normal form (or a step budget) under the chosen scheduler."""
    del ctx  # typing is the caller's concern; kept for symmetry with checking
    if scheduler not in ("det", "random"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    det = scheduler == "det"
    if det:
        seed = None  # the deterministic schedule takes the first step and draws nothing
    pick = itemgetter(0) if det else _random.Random(seed).choice
    steps: list[TraceStep] = []
    states: list[Process] = [canonical_form(p)]
    cur = p
    while (enabled := enabled_steps(cur, defs, deterministic=det)) and len(steps) < max_steps:
        st = pick(enabled)
        cur = st.reduct
        states.append(canonical_form(cur))
        steps.append(TraceStep(len(steps), st.info, _digest(states[-1])))
    return Trace(steps, cur, not enabled and call_depth(cur, defs) is not None, bool(enabled), scheduler,
                 seed, states=states)


@dataclass
class ReductionGraph:
    states: list[Process] = field(default_factory=list)  # canonical forms
    # the last state added whose canonical key has a given hash, and for each
    # state the one added before it with the same hash
    buckets: dict[int, int] = field(default_factory=dict)
    collisions: dict[int, int] = field(default_factory=dict)
    edges: dict[int, list[tuple[RedexInfo, int]]] = field(default_factory=dict)
    expanded: set[int] = field(default_factory=set)
    diverging: set[int] = field(default_factory=set)  # stuck on an invocation that diverges
    bound: str | None = None  # the bound that stopped exploration: "max_states" or "max_depth"

    @property
    def partial(self) -> bool:
        return self.bound is not None

    def _find(self, q: Process, h: int) -> int | None:
        sid = self.buckets.get(h)
        while sid is not None and self.states[sid] != q:
            sid = self.collisions.get(sid)
        return sid

    def add_state(self, p: Process) -> int:
        """The id of the state that is p's canonical form, added if the graph has none."""
        q, h = canonical_hashed(p)
        sid = self._find(q, h)
        if sid is None:
            sid = len(self.states)
            self.states.append(q)
            if h in self.buckets:
                self.collisions[sid] = self.buckets[h]
            self.buckets[h] = sid
            self.edges[sid] = []
        return sid

    def normal_forms(self) -> set[int]:
        """The expanded states without a step, except those in `diverging`."""
        return {sid for sid in self.expanded if not self.edges[sid]} - self.diverging

    def to_json_dict(self) -> dict:
        normals = self.normal_forms()
        return {
            "states": [{"id": i, "term": t, "hash": _text_digest(t),
                        "normal": i in normals, "expanded": i in self.expanded}
                       for i, t in enumerate(map(pretty_process, self.states))],
            "edges": [{"from": src, "rule": info.kind, "channel": info.channel, "to": tgt}
                      for src, outs in sorted(self.edges.items()) for info, tgt in outs],
            "partial": self.partial,
        }

    def to_dot(self) -> str:
        lines = ["digraph reduction {", "  node [shape=box, fontname=monospace];"]
        normals = self.normal_forms()
        for i, s in enumerate(self.states):
            label = pretty_process(s).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\l")
            style = ', style=filled, fillcolor="palegreen"' if i in normals else ""
            lines.append(f'  s{i} [label="{label}"{style}];')
        for src, outs in sorted(self.edges.items()):
            for info, tgt in outs:
                lines.append(f'  s{src} -> s{tgt} [label="{info.kind}@{info.channel}"];')
        lines.append("}")
        return "\n".join(lines)


def explore(p: Process, defs: Program, max_states: int = 100_000,
            max_depth: int = 10_000) -> ReductionGraph:
    """Breadth-first closure of the full semantics' steps, one state per
    canonical form.
    A state stuck only on a diverging invocation is `diverging`, not normal.
    The bound that stops it short, if one does, is the graph's `bound`."""
    g = ReductionGraph()
    frontier = [g.add_state(p)]
    depth = 0
    while frontier and depth < max_depth:
        nxt: list[int] = []
        for sid in frontier:
            if sid in g.expanded:
                continue
            if len(g.states) >= max_states:
                g.bound = "max_states"
                return g
            g.expanded.add(sid)
            targets: dict[object, int] = {}  # the steps of one orbit share their canonical reduct
            for st in enabled_steps(g.states[sid], defs):
                orbit = st.orbit
                tid = targets.get(orbit)
                if tid is None:
                    tid = targets[orbit] = g.add_state(st.reduct)
                g.edges[sid].append((st.info, tid))
                if tid not in g.expanded:
                    nxt.append(tid)
            if not g.edges[sid] and call_depth(g.states[sid], defs) is None:
                g.diverging.add(sid)
        frontier = nxt
        depth += 1
    if frontier:
        g.bound = "max_depth"
    return g


def is_weakly_terminating(sid: int, g: ReductionGraph) -> str:
    """'yes' | 'no' | 'unknown' for reachability of a normal form from sid."""
    seen = {sid}
    queue = [sid]
    hit_unexpanded = False
    while queue:
        cur = queue.pop()
        if cur not in g.expanded:
            hit_unexpanded = True
            continue
        if not g.edges[cur] and cur not in g.diverging:  # one of `normal_forms`
            return "yes"
        for _, t in g.edges[cur]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return "unknown" if hit_unexpanded else "no"


@dataclass
class FairTerminationReport:
    verdict: str  # "fairly-terminating" | "not-fairly-terminating" | "unknown"
    graph: ReductionGraph
    offending_state: int | None = None


def check_fair_termination(p: Process, defs: Program, max_states: int = 100_000,
                           max_depth: int = 10_000) -> FairTerminationReport:
    """Fair termination holds iff every reachable state is weakly terminating.

    One backward pass from the normal forms and the unexpanded states finds
    every state whose `is_weakly_terminating` answer is 'yes' or 'unknown';
    the first state it misses answers 'no'.  A graph that is not partial has
    every state expanded, so there every state the pass finds answers 'yes'."""
    g = explore(p, defs, max_states, max_depth)
    preds: list[list[int]] = [[] for _ in g.states]
    for src, outs in g.edges.items():
        for _, tgt in outs:
            preds[tgt].append(src)
    seen = g.normal_forms() | (set(range(len(g.states))) - g.expanded)
    stack = list(seen)
    while stack:
        for s in preds[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    for sid in range(len(g.states)):
        if sid not in seen:
            return FairTerminationReport("not-fairly-terminating", g, sid)
    return FairTerminationReport("unknown" if g.partial else "fairly-terminating", g)
