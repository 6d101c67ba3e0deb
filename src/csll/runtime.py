"""Operational semantics: redex discovery, full and deterministic stepping,
schedulers, state-space exploration, and termination verdicts.

Redexes live at a cut whose two sides expose dual actions on the cut
channel.  One walk down the spine of a state (its cuts and, in the full
semantics, its pool heads) finds every step: each subterm returns the
guards it exposes, keyed by subject, and each cut pairs the two guards on
its channel when their `typecheck.GUARDS` connectives are dual and the cut
types the positive one at its connective.  Pulling a guard out through
enclosing cuts and pool heads mirrors the pre-congruence moves that justify
the step.  A state's sibling scopes may reuse a binder name, as canonical
forms do: a step nests the right guard's cuts inside the left's, so when
both bind one name the right guard is taken from a copy of its side with
fresh binders.  The walk unfolds an invocation only where it meets one, by
the one unfolding rule, `process.unfold_head`: an invocation unfolds
exactly when its unguarded unfolding terminates; one that diverges, or
names no definition, is stuck while the rest of the state may step.  The
deterministic fragment drops every pool rule, so clients connect in queue
order, and its scheduler takes the first step.  In the full semantics,
connecting either of two clients with equal canonical keys gives one
canonical state (symmetry reduction).  A step record builds its
rearrangement and reduct on first access, so exploration builds one reduct
per such class and a random run only the drawn step's.  The reduction
graph buckets its states by the C-level hash of their canonical keys and
confirms a hit by canonical-term equality.
"""

from __future__ import annotations

import hashlib
import random as _random
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable

from . import types as ty
from .canon import canonical_form, canonical_hashed, cell_key
from .process import (
    ChannelName, Close, Cons, Cut, Nil, Process, Program, Server, call_depth,
    free_names, fresh, rename, subject, unfold_head,
)
from .printer import pretty_process
from .typecheck import GUARDS


@dataclass(frozen=True, slots=True)
class RedexInfo:
    kind: str                 # r-close | r-comm | r-case | r-done | r-connect
    channel: str              # display name of the synchronizing channel
    path: tuple[str, ...]     # steps to the cut: L/R (cut sides), T (pool tail)
    client_index: int = 0     # which pool cell connects, for r-connect

    def __str__(self) -> str:
        loc = "".join(self.path) or "·"
        return f"{self.kind}@{self.channel}[{loc}]"


# an exposed guard, the closure that rebuilds its exposing term around a
# replacement, and the binders of the cuts that term puts around it
_Guard = tuple[Process, Callable[[Process], Process], tuple[ChannelName, ...]]


def _hole(h: Process) -> Process:
    return h


def _pool_cells(g: Process, x: ChannelName, defs: Program
                ) -> tuple[list[tuple[ChannelName, Process]], Process]:
    cells: list[tuple[ChannelName, Process]] = []
    node = g
    while True:
        node = unfold_head(node, defs)
        if isinstance(node, Cons) and node.chan == x:
            cells.append((node.session, node.client))
            node = node.pool
        else:
            return cells, node


class Step:
    """One enabled reduction: the redex, the pre-congruence rearrangement that
    exposes it (with the synchronizing cut as a shared subterm), and the
    reduct.  `cut`, `exposed` and `reduct` are built on first access and
    kept.  Steps that connect interchangeable clients of one pool share
    their `orbit` token, and their reducts have one canonical form."""

    def __init__(self, info: RedexInfo, orbit: object, around: Callable[[Process], Process],
                 cut: Callable[[], Cut], core: Callable[[], Process]):
        self.info, self.orbit = info, orbit
        self._around, self._cut, self._core = around, cut, core

    @cached_property
    def cut(self) -> Cut:
        """The exposed cut node, embedded in `exposed`."""
        return self._cut()

    @cached_property
    def exposed(self) -> Process:
        return self._around(self.cut)

    @cached_property
    def reduct(self) -> Process:
        return self._around(self._core())


def _sync_redexes(x: ChannelName, left_type: ty.SessionType, lg: _Guard, rg: _Guard, defs: Program,
                  pool_ok: bool, path: tuple[str, ...], ctx: Callable[[Process], Process],
                  out: list[Step]) -> None:
    """Append to out the steps at the cut on x (typed left_type) whose sides
    expose the x-guards lg and rg, and whose enclosing context is ctx."""
    (g1, rb1, _), (g2, rb2, _) = lg, rg

    def around(core: Process) -> Process:
        return ctx(rb1(rb2(core)))

    def add(kind: str, core: Callable[[], Process],
            cut: Callable[[], Cut] = lambda: Cut(x, left_type, g1, g2), orbit: object = None,
            client_index: int = 0) -> None:
        out.append(Step(RedexInfo(kind, x.name, path, client_index),
                        orbit if orbit is not None else object(), around, cut, core))

    def pool_server(gp: Process, gs: Server, client_type: ty.Client, pool_is_left: bool) -> None:
        cells, end = _pool_cells(gp, x, defs)

        def rest(i: int) -> Process:
            out = end
            for y, body in reversed(cells[:i] + cells[i + 1:]):
                out = Cons(x, y, body, out)
            return out

        def exposed(i: int) -> Cut:
            """The exposed cut, with cell i at the pool's head if there are cells."""
            pool = Cons(x, *cells[i], rest(i)) if cells else end
            return Cut(x, left_type, pool, g2) if pool_is_left else Cut(x, left_type, g1, pool)

        def connect(i: int) -> Process:
            y, body = cells[i]
            c = fresh(y.name)
            client = rename(body, {y: c})
            accept = rename(gs.accept, {gs.session: c})
            return Cut(c, client_type.inner, client, Cut(x, client_type, rest(i), accept))

        if not cells:
            if isinstance(end, Nil) and end.chan == x:
                add("r-done", lambda: gs.idle, partial(exposed, 0))
            return
        # symmetry reduction: clients with equal keys share one orbit
        orbits: dict[tuple, object] = {}
        for i in range(len(cells)) if pool_ok else range(1):
            y, body = cells[i]
            add("r-connect", partial(connect, i), partial(exposed, i),
                orbits.setdefault(cell_key(body, y), object()), i)

    # two guards of dual connectives pair when the cut types the positive
    # one at its connective, which names the rule
    c1, c2 = GUARDS[type(g1)].connective, GUARDS[type(g2)].connective
    if ty._DUAL[c1] is not c2:
        return
    a_is_left = c1 in ty._POSITIVE
    a, b, a_type, conn = (g1, g2, left_type, c1) if a_is_left else (g2, g1, ty.dual(left_type), c2)
    if not isinstance(a_type, conn):
        return
    match conn:
        case ty.One:
            add("r-close", lambda: b.body)
        case ty.Tensor:
            def comm() -> Process:
                c = fresh(a.payload.name)
                payload = rename(a.payload_body, {a.payload: c})
                jbody = rename(b.body, {b.payload: c})
                return Cut(c, a_type.left, payload, Cut(x, a_type.right, a.cont, jbody))
            add("r-comm", comm)
        case ty.Plus:
            chosen, branch = (a_type.left, b.left) if a.tag == 1 else (a_type.right, b.right)
            add("r-case", lambda: Cut(x, chosen, a.body, branch))
        case ty.Client:
            pool_server(a, b, a_type, a_is_left)


def _walk(p: Process, defs: Program, pool_ok: bool, path: tuple[str, ...],
          ctx: Callable[[Process], Process], out: list[Step]) -> dict[ChannelName, _Guard]:
    """Append to out every step below p, whose enclosing context is ctx, in
    preorder, and return the guards p exposes.  A cut unfolds each side once;
    the context of a step below one side keeps the other side as it was."""
    p = unfold_head(p, defs)
    if isinstance(p, Cut):
        x, anno = p.chan, p.anno
        at = len(out)
        lg = _walk(p.left, defs, pool_ok, path + ("L",), lambda q: ctx(Cut(x, anno, q, p.right)), out)
        rg = _walk(p.right, defs, pool_ok, path + ("R",), lambda q: ctx(Cut(x, anno, p.left, q)), out)
        if x in lg and x in rg:
            right = rg[x]
            if not set(lg[x][2]).isdisjoint(right[2]):
                # a step nests the right guard's cuts inside the left's, so
                # a binder of both would capture the left's channel: pair
                # with the right side's guard in a copy with fresh binders
                right = _walk(rename(p.right, {}, refresh=True), defs, pool_ok, (), _hole, [])[x]
            own: list[Step] = []
            _sync_redexes(x, anno, lg[x], right, defs, pool_ok, path, ctx, own)
            out[at:at] = own
        guards = {s: (g, lambda h, rb=rb: Cut(x, anno, p.left, rb(h)), (x, *bs))
                  for s, (g, rb, bs) in rg.items()}
        guards.update({s: (g, lambda h, rb=rb: Cut(x, anno, rb(h), p.right), (x, *bs))
                       for s, (g, rb, bs) in lg.items()})
        return guards
    s = subject(p)
    guards = {} if s is None else {s: (p, _hole, ())}
    if pool_ok and isinstance(p, Cons):
        tail = _walk(p.pool, defs, pool_ok, path + ("T",),
                     lambda q: ctx(Cons(p.chan, p.session, p.client, q)), out)
        if any(t != s for t in tail):
            head = free_names(p.client) - {p.session}
            guards.update({t: (g, lambda h, rb=rb: Cons(p.chan, p.session, p.client, rb(h)), bs)
                           for t, (g, rb, bs) in tail.items() if t != s and t not in head})
    return guards


def enabled_steps(p: Process, defs: Program, deterministic: bool = False) -> list[Step]:
    """Full step records including the exposed rearrangement, uncanonicalized.
    p's binders need not be distinct: sibling scopes may reuse a name."""
    out: list[Step] = []
    _walk(p, defs, not deterministic, (), lambda q: q, out)
    return out


def step_all(p: Process, defs: Program) -> list[tuple[RedexInfo, Process]]:
    """Every one-step reduct under the full semantics, canonicalized once per orbit."""
    forms: dict[object, Process] = {}
    out = []
    for st in enabled_steps(p, defs):
        q = forms.get(st.orbit)
        if q is None:
            q = forms[st.orbit] = canonical_form(st.reduct)
        out.append((st.info, q))
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
    terminated: bool   # reached a state with no applicable redex
    truncated: bool    # stopped because of the step budget
    scheduler: str
    seed: int | None = None
    states: list[Process] = field(default_factory=list)  # canonical, one per step


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
    terminated = not enabled
    return Trace(steps, cur, terminated, not terminated, scheduler, seed, states=states)


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
    partial: bool = False
    root: int = 0

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
    """Breadth-first closure of step_all with canonical-form deduplication.
    A state stuck only on a diverging invocation is `diverging`, not normal."""
    g = ReductionGraph()
    g.root = g.add_state(p)
    frontier = [g.root]
    depth = 0
    while frontier and depth < max_depth:
        nxt: list[int] = []
        for sid in frontier:
            if sid in g.expanded:
                continue
            if len(g.states) >= max_states:
                g.partial = True
                return g
            g.expanded.add(sid)
            targets: dict[object, int] = {}  # the steps of one orbit share their canonical reduct
            for st in enabled_steps(g.states[sid], defs):
                tid = targets.get(st.orbit)
                if tid is None:
                    tid = targets[st.orbit] = g.add_state(st.reduct)
                g.edges[sid].append((st.info, tid))
                if tid not in g.expanded:
                    nxt.append(tid)
            if not g.edges[sid] and call_depth(g.states[sid], defs) is None:
                g.diverging.add(sid)
        frontier = nxt
        depth += 1
    if frontier:
        g.partial = True
    return g


def is_weakly_terminating(sid: int, g: ReductionGraph) -> str:
    """'yes' | 'no' | 'unknown' for reachability of a normal form from sid."""
    normals = g.normal_forms()
    seen = {sid}
    queue = [sid]
    hit_unexpanded = False
    while queue:
        cur = queue.pop()
        if cur in normals:
            return "yes"
        if cur not in g.expanded:
            hit_unexpanded = True
            continue
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

    Two backward passes give every state's `is_weakly_terminating` answer:
    'yes' for the states that reach a normal form, else 'unknown' for those
    that reach an unexpanded state, else 'no'."""
    g = explore(p, defs, max_states, max_depth)
    preds = _predecessors(g)
    yes = _backward_closure(preds, g.normal_forms())
    maybe = _backward_closure(preds, set(range(len(g.states))) - g.expanded)
    for sid in range(len(g.states)):
        if sid not in yes and sid not in maybe:
            return FairTerminationReport("not-fairly-terminating", g, sid)
    if g.partial or len(yes) < len(g.states):
        return FairTerminationReport("unknown", g)
    return FairTerminationReport("fairly-terminating", g)


def _predecessors(g: ReductionGraph) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in g.states]
    for src, outs in g.edges.items():
        for _, tgt in outs:
            preds[tgt].append(src)
    return preds


def _backward_closure(preds: list[list[int]], seeds: set[int]) -> set[int]:
    """The states that reach some seed."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for s in preds[stack.pop()]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen
