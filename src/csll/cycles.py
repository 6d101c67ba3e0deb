"""Exact trace conditions on cyclic graphs, by size-change closure.

Both validity conditions of csll have one shape: every infinite path through
a finite graph must carry a thread that progresses infinitely often.  The
graph is a typing derivation or a proof graph, read directly: its `root`,
and for every node `n` the premise edges `nodes[n].premises`, each with a
`target` and a `back` flag.  The callable `arcs(n, i)` lists the arcs along
premise edge `i` of `n`; an arc `(src_slot, tgt_slot, progressing)` says
that a thread at `src_slot` of `n` continues at `tgt_slot` of the edge's
target.  Non-back edges form a tree below the root and back edges point at
ancestors, as in cyclic derivations and proofs.

The targets of back edges are the heads, and every cycle passes through one,
so only the edges below a head carry threads that matter: `arcs` is asked
for those edges alone, once each, and a graph without back edges costs one
scan of its nodes' back flags.  The tree paths between heads are summarised
once as size-change graphs: sets of arcs between slots, an arc progressing
when some step along the path progressed.  Closing these graphs under
composition decides the condition exactly (Lee, Jones & Ben-Amram, POPL
2001; for cyclic proofs Brotherston & Simpson, JLC 2011): every infinite
path carries a progressing thread if and only if every idempotent loop
graph `G;G = G` at a head has a progressing self-arc.  The closure is
explored shortest walk first, so every element keeps a shortest walk that
realises it.  `closure_check` stops at the first loop without such an arc
and returns its walk as a counterexample; `closure_thread` stops at the
first loop with one and returns a progressing thread around its walk.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator

Slot = Hashable
Arc = tuple[Slot, Slot, bool]
Graph = frozenset  # of arcs, at most one per (src, tgt) slot pair
Step = tuple[int, int]  # (node, premise index)
Walk = list[tuple[int, tuple[Arc, ...]]]  # (node, arcs of the edge taken from it) per step


def _graph(arcs: Iterable[Arc]) -> Graph:
    out: dict[tuple[Slot, Slot], bool] = {}
    for i, j, p in arcs:
        out[i, j] = out.get((i, j), False) or p
    return frozenset((i, j, p) for (i, j), p in out.items())


def _compose(g1: Iterable[Arc], g2: Iterable[Arc]) -> Graph:
    nxt: dict[Slot, list[tuple[Slot, bool]]] = {}
    for j, k, q in g2:
        nxt.setdefault(j, []).append((k, q))
    return _graph((i, k, p or q) for i, j, p in g1 for k, q in nxt.get(j, ()))


def _idempotent_loops(graph, arcs: Callable[[int, int], Iterable[Arc]]
                      ) -> Iterator[tuple[Graph, Callable[[], Walk]]]:
    """The idempotent loop graphs `G;G = G` at heads, shortest walk first,
    each with a function that gives a shortest closed walk realising it."""
    nodes = graph.nodes
    if not any(e.back for n in nodes.values() for e in n.premises):  # no head, no loop
        return
    parent: dict[int, Step] = {}
    depth = {graph.root: 0}
    order = [graph.root]  # preorder: parents before children
    heads: set[int] = set()
    for n in order:
        for i, e in enumerate(nodes[n].premises):
            if e.back:
                heads.add(e.target)
            else:
                parent[e.target] = (n, i)
                depth[e.target] = depth[n] + 1
                order.append(e.target)

    # segments[h]: one (walk length, next head, graph, last step) per tree
    # path from head h to the next head, entered by a tree or a back edge
    segments: dict[int, list[tuple[int, int, Graph, Step]]] = {h: [] for h in heads}
    below: dict[int, tuple[int, Graph | None]] = {}  # node -> (head above it, graph from there)
    step_arcs: dict[Step, tuple[Arc, ...]] = {}  # the arcs of every edge below a head
    for n in order:
        head, g = below.pop(n, (None, None))
        if n in heads:
            if head is not None:
                segments[head].append((depth[n] - depth[head], n, g, parent[n]))
            head, g = n, None
        if head is None:
            continue
        for i, e in enumerate(nodes[n].premises):
            a = step_arcs[n, i] = tuple(arcs(n, i))
            g2 = _graph(a) if g is None else _compose(g, a)
            if e.back:
                segments[head].append((depth[n] - depth[head] + 1, e.target, g2, (n, i)))
            else:
                below[e.target] = (head, g2)

    seen: dict[tuple, tuple] = {}  # (head, head, graph) -> (previous element, last segment)

    def walk(key: tuple | None) -> Walk:
        steps: Walk = []
        while key is not None:
            prev, (_, _, _, (n, i)) = seen[key]
            start = key[0] if prev is None else prev[1]
            path = [(n, step_arcs[n, i])]
            while n != start:
                n, i = parent[n]
                path.append((n, step_arcs[n, i]))
            steps[:0] = path[::-1]
            key = prev
        return steps

    tie = itertools.count()
    heap = [(s[0], next(tie), a, s[1], s[2], None, s) for a, out in segments.items() for s in out]
    heapq.heapify(heap)
    while heap:
        length, _, a, b, g, prev, seg = heapq.heappop(heap)
        key = (a, b, g)
        if key in seen:
            continue
        seen[key] = (prev, seg)
        if a == b and _compose(g, g) == g:
            yield g, partial(walk, key)
        for s in segments[b]:
            nkey = (a, s[1], _compose(g, s[2]))
            if nkey not in seen:
                heapq.heappush(heap, (length + s[0], next(tie), *nkey, key, s))


def closure_check(graph, arcs: Callable[[int, int], Iterable[Arc]]) -> list[int] | None:
    """Decide the trace condition of the module docstring for the graph below
    its root: None when it holds, else the nodes of a shortest closed walk
    whose graph is an idempotent loop without a progressing self-arc, so
    that the walk, repeated forever, carries no progressing thread."""
    for g, walk in _idempotent_loops(graph, arcs):
        if not any(p and i == j for i, j, p in g):
            return [n for n, _ in walk()]
    return None


def closure_thread(graph, arcs: Callable[[int, int], Iterable[Arc]]) -> list[tuple[int, Slot]]:
    """A progressing thread, as (node, slot) pairs, around the shortest walk
    of an idempotent loop that has a progressing self-arc; empty when none has."""
    for g, walk in _idempotent_loops(graph, arcs):
        loops = {i for i, j, p in g if p and i == j}
        if loops:
            return _thread(walk(), loops)
    return []


def _thread(steps: Walk, loops: set[Slot]) -> list[tuple[int, Slot]]:
    """A thread around the closed walk that returns to its start slot and
    progresses on the way; `loops` are the slots whose self-arc guarantees it."""
    slot = next(s for s, _, _ in steps[0][1] if s in loops)
    layers: list[dict[tuple[Slot, bool], tuple[Slot, bool] | None]] = [{(slot, False): None}]
    for _, step_arcs in steps:
        layer: dict[tuple[Slot, bool], tuple[Slot, bool] | None] = {}
        for s, done in layers[-1]:
            for a, b, p in step_arcs:
                if a == s:
                    layer.setdefault((b, done or p), (s, done))
        layers.append(layer)
    state: tuple[Slot, bool] | None = (slot, True)
    thread = []
    for pos in range(len(steps), 0, -1):
        state = layers[pos][state]
        thread.append((steps[pos - 1][0], state[0]))
    return thread[::-1]
