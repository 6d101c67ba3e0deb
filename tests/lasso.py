"""Brute-force lasso oracle for the two validity checkers.

A lasso is a closed walk repeated forever.  The oracle enumerates every
closed walk of at most MAX_EDGES edges that starts at a back-edge target,
and decides each one on its own: its repetition carries a thread that
progresses infinitely often exactly when the finite product graph of
(position on the walk, slot) has a cycle through a progressing arc.  It
shares nothing with the closure engine but the definition of threads.
"""

from __future__ import annotations

from csll.proofs import ProofGraph, _succ_addresses
from csll.typecheck import Derivation

MAX_EDGES = 8


def derivation_edges(d: Derivation) -> dict:
    """node -> [(target, back, arcs)]; a lineage arc progresses at a server on
    its subject.  A back edge's lineage is its argument correspondence, a
    tree edge's the channels both judgments hold, each continuing as itself."""
    def lineage(n, e) -> list:
        if e.back:
            return list(e.down)
        held = {c for c, _ in d.nodes[e.target].context}
        return [(c, c) for c, _ in n.context if c in held]

    return {nid: [(e.target, e.back, [(s, t, n.rule == "server" and s == n.subject) for s, t in lineage(n, e)])
                  for e in n.premises]
            for nid, n in d.nodes.items()}


def proof_edges(g: ProofGraph) -> dict:
    """node -> [(target, back, arcs)]; an occurrence arc progresses at a principal nu."""
    return {nid: [(e.target, e.back, [(a, t, n.rule == "nu" and a == n.principal)
                              for a, t in _succ_addresses(g, n, e)])
                  for e in n.premises]
            for nid, n in g.nodes.items()}


def closed_walks(edges: dict):
    """Every closed walk of at most MAX_EDGES edges from a back-edge target,
    as a list of (node, premise index) steps."""
    for h in sorted({t for out in edges.values() for t, back, _ in out if back}):
        stack: list[tuple[int, list[tuple[int, int]]]] = [(h, [])]
        while stack:
            n, walk = stack.pop()
            for i, (t, _, _) in enumerate(edges[n]):
                w = walk + [(n, i)]
                if t == h:
                    yield w
                if len(w) < MAX_EDGES:
                    stack.append((t, w))


def walk_through(edges: dict, nodes: list[int]) -> list[tuple[int, int]]:
    """The closed walk visiting `nodes` in order, taking the edge to the next one."""
    steps = []
    for n, m in zip(nodes, nodes[1:] + nodes[:1]):
        (i,) = [i for i, (t, _, _) in enumerate(edges[n]) if t == m]
        steps.append((n, i))
    return steps


def lasso_passes(edges: dict, walk: list[tuple[int, int]]) -> bool:
    """Does the walk, repeated forever, carry a thread that progresses
    infinitely often?"""
    k = len(walk)
    succ: dict[tuple, list[tuple[tuple, bool]]] = {}
    for pos, (n, i) in enumerate(walk):
        for s, t, p in edges[n][i][2]:
            succ.setdefault((pos, s), []).append((((pos + 1) % k, t), p))

    def reaches(src: tuple, dst: tuple) -> bool:
        seen, stack = {src}, [src]
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            for y, _ in succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    return any(p and reaches(v, u) for u, out in succ.items() for v, p in out)


def thread_passes(edges: dict, thread: list[tuple]) -> bool:
    """Is thread, as (node, slot) pairs, a closed thread along edges that
    progresses somewhere on the way round?"""
    progress = []
    for (n, a), (m, b) in zip(thread, thread[1:] + thread[:1]):
        found = [p for t, _, arcs in edges[n] if t == m for s, u, p in arcs if (s, u) == (a, b)]
        if not found:
            return False
        progress += found
    return any(progress)


def agrees(edges: dict, verdict: str, witness: list[int] | None) -> bool:
    """A valid verdict passes every short lasso; an invalid one names a
    walk whose lasso fails."""
    if verdict == "valid":
        return all(lasso_passes(edges, w) for w in closed_walks(edges))
    return not lasso_passes(edges, walk_through(edges, witness))
