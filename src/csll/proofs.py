"""Cyclic pre-proofs: encoding of typing derivations, thread validity, and
top-level principal cut reduction.

A typing derivation maps onto a proof graph rule by rule, in one recursion
of `_Encoder.edge`, one call per derivation node.  It erases invocation
nodes, so a derivation back edge becomes a proof back edge targeting the
encoding of the ancestor's body, with an address re-rooting map; an
invocation chain closing on itself becomes a degenerate `loop` node.  It
plans a node's premises, each with the parent's addresses overridden by
those the rule introduces and a stream of fresh atomic addresses: an
injective stream is split between independent premises and shared between
mutually exclusive ones.  A guard's plan is read from its `typecheck.GUARDS`
row, so only the cut is stated by hand.  It encodes the premises in plan
order, then adds the node's proof node; a shared channel becomes three
rules (fixed point, additive, then axiom or multiplicative), matching its
list interpretation, whose ids are drawn before the premises are encoded.
A channel keeps its type and address until a rule acts on it, so the
assignment maps each channel to its occurrence and hands it down unchanged:
a node builds occurrences only for the channels its rule introduces, and a
shared channel occurrence unfolds once.

Thread validity: a thread follows occurrence successors (descent at the
principal occurrence, carry elsewhere, the address map across back edges),
and it progresses where its occurrence is the principal formula of a `nu`
rule.  The proof is valid exactly when every infinite path carries a thread
that progresses infinitely often, decided by the same size-change closure as
derivation validity (`cycles.closure_check`).  The closure reads the proof
graph's premise edges itself, and `_thread_arcs` gives it the occurrence
arcs of an edge; it asks for arcs only below a back-edge target, so an
acyclic proof never computes a successor.  Encoded formulas have
fixed-point bodies closed but for their own variable, so a thread that
unfolds a greatest fixed point infinitely often has a greatest fixed point
as its least recurring formula; a thread that merely carries one unchanged
does not progress.

Principal reduction (`principal_reduce_at`) states the key cases as one
fold over (child steps, positive premises, negative premise), listed in
`_KEY_CASES`: one/bot is the empty fold, tensor/par folds "lr", plus/with
the chosen side and mu/nu "i".  `simulate_step` checks one process step
against its proof image: the reduced proof must be bisimilar to the
reduct's encoding, compared one node signature (`_signature`) at a time.

A walk's steps share most of their terms, so `simulate_step` carries one
session per program (`_Session`, kept on the program and dropped with it).
The session is itself the checker: a `typecheck._Checker` whose derivation
node store and memo span every call.  It also holds one proof node store
and the proof node of each derivation node encoded so far.  The
exposed term of a step shares everything but its spine with the previous
step's reduct, so a call checks and encodes little more than the spine and
what the step changed.  A derivation node keeps its earlier proof node
unless it is the redex cut or an ancestor of it, or a node that principal
reduction reads: a premise of the cut or of a premise, reached through the
call chain erased above it.  Those are encoded again under the current
addresses.  This is sound: every occurrence formula is
`encode_type` of its judgment's type, so a shared term-level subtree (no
back edge leaves it) encodes alike up to addresses.  Bisimulation ignores
addresses, and `principal_reduce_at` compares them only within two
derivation levels of the cut: the principal occurrences of its premises,
and the cut formulas it removes from their premises' sequents.  (So the
session's graphs serve bisimulation and reduction only; a node and a reused
premise may place a channel at different addresses, and threads are not
followed there.)  Reduction rewrites the cut's proof node in place, so the
spine never enters the proof map.  The cut is looked for among the nodes
the call's check adds, in the order they are added (a node after its
premises), and in the whole derivation when its node is older than the
call, as on a revisited step.  Once the store holds half as much again as
the last compaction kept, it keeps only what the last reduct's derivation
and proof reach, and rebuilds the memo and the proof map over the nodes
it keeps.  A memo entry leads to a node that holds its term, so a
term's id() in the memo is never reused while the entry stands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import formulas as mf
from . import types as ty
from .cycles import closure_thread
from .formulas import Address, MuFormula, Occurrence, encode_type, occ_step
from .process import BINDING, Call, ChannelName, Process
from .typecheck import GUARDS, Derivation, DerivNode, TypeContext, ValidityReport, _closure_report, check
from .typecheck import _Checker, _ctx_tuple


# --- streams of atomic addresses ---------------------------------------------


@ty.record
class AddressStream:
    """Injective stream of atomic addresses: offset, offset + step, ...
    Its even and odd halves are disjoint streams of the same shape."""

    offset: int
    step: int

    def head(self) -> int:
        return self.offset

    def tail(self) -> AddressStream:
        return AddressStream(self.offset + self.step, self.step)

    def even(self) -> AddressStream:
        return AddressStream(self.offset, 2 * self.step)

    def odd(self) -> AddressStream:
        return AddressStream(self.offset + self.step, 2 * self.step)


def address_stream(start: int = 0) -> AddressStream:
    return AddressStream(start, 1)


# --- proof graphs -------------------------------------------------------------


@ty.record(slots=True)
class ProofEdge:
    target: int
    back: bool = False
    corr: tuple[tuple[Address, Address], ...] = ()


@ty.record(slots=True)
class ProofNode:
    nid: int
    rule: str  # cut top bot one par tensor with plus nu mu loop
    sequent: tuple[Occurrence, ...]
    premises: tuple[ProofEdge, ...] = ()
    principal: Address | None = None
    side: int | None = None                      # chosen branch of a plus rule
    cut_pair: tuple[Address, Address] | None = None

    def occurrence_at(self, addr: Address) -> Occurrence:
        for o in self.sequent:
            if o.address == addr:
                return o
        raise KeyError(f"no occurrence at {addr} in node {self.nid}")


@dataclass
class ProofGraph:
    nodes: dict[int, ProofNode] = field(default_factory=dict)
    root: int = 0
    _ids: itertools.count = field(default_factory=lambda: itertools.count(0))

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, node: ProofNode) -> int:
        self.nodes[node.nid] = node
        return node.nid


def _address_order(o: Occurrence) -> tuple[int, bool, str]:
    return o.address.atom, o.address.bar, o.address.word


def _mkseq(*occs: Occurrence) -> tuple[Occurrence, ...]:
    """The occurrences in address order, which must be pairwise disjoint.  In
    that order the words extending an address follow it directly, so two
    addresses overlap exactly when some adjacent pair does."""
    out = tuple(sorted(occs, key=_address_order))
    for a, b in zip(out, out[1:]):
        if mf.prefix_leq(a.address, b.address):
            raise AssertionError(f"overlapping addresses in sequent: {a.address} vs {b.address}")
    return out


# each channel of a judgment's context with its occurrence: its type as a
# formula, at its address
Assignment = dict[ChannelName, Occurrence]


def initial_assignment(ctx: dict[ChannelName, ty.SessionType]) -> tuple[Assignment, AddressStream]:
    """Give every context channel its own atomic address, returning the rest
    of the stream."""
    sigma = {c: Occurrence(encode_type(ctx[c]), Address(i, False)) for i, c in enumerate(sorted(ctx))}
    return sigma, address_stream(len(sigma))


@dataclass
class EncodedProof:
    graph: ProofGraph
    deriv_to_proof: dict[int, int]


class _Encoder:
    """One encoding pass over a derivation, into g, where a derivation node
    in `reuse` already has its proof node.  `calls` records, for every call
    node on the current path, the proof node standing for it and its address
    assignment: back edges target ancestors only.  A channel keeps its type
    and address down the tree until a rule acts on it, so the assignment
    hands its occurrence down unchanged; `gadgets` holds the three rule
    occurrences of each shared channel occurrence."""

    def __init__(self, d: Derivation, g: ProofGraph | None = None, reuse: dict[int, int] | None = None):
        self.d = d
        self.g = ProofGraph() if g is None else g
        self.reuse = reuse or {}
        self.mapping: dict[int, int] = {}
        self.calls: dict[int, tuple[int, Assignment]] = {}
        self.gadgets: dict[Occurrence, tuple[Occurrence, Occurrence, Occurrence]] = {}

    def edge(self, nid: int, sigma: Assignment, rho: AddressStream) -> ProofEdge:
        """The edge to the encoding of derivation node nid: invocation chains
        are erased, and one closing on itself becomes a degenerate `loop`.
        The node's premises are planned as (index, stream, addresses the
        rule introduces) and encoded in plan order before its proof node is
        added."""
        if nid in self.reuse:
            return ProofEdge(self.reuse[nid])
        node = self.d.nodes[nid]
        pending: list[int] = []
        pid: int | None = None
        while node.rule == "call":
            e = node.premises[0]
            if e.back:
                anc_pid, anc_sigma = self.calls[e.target]
                to = {sigma[s]: anc_sigma[t].address for s, t in e.down}
                corr = tuple([(o.address, to[o]) for o in sorted(to, key=_address_order)])
                if pid is None:
                    return ProofEdge(anc_pid, True, corr)
                seq = _mkseq(*(sigma[c] for c, _ in node.context))
                self.g.add(ProofNode(pid, "loop", seq, (ProofEdge(anc_pid, True, corr),)))
                self.mapping.update(dict.fromkeys(pending, pid))
                return ProofEdge(pid, False)
            if pid is None:
                pid = self.g.new_id()
            self.calls[nid] = (pid, sigma)
            pending.append(nid)
            nid = e.target
            node = self.d.nodes[nid]
        if pid is None:
            pid = self.g.new_id()
        self.mapping.update(dict.fromkeys(pending, pid))
        self.mapping[nid] = pid
        rule, x = node.rule, node.subject
        gadget = rule == "done" or rule == "client" or rule == "server"
        if gadget:  # a shared channel's rules draw their ids before the premises are encoded
            top = sigma[x]
            if top not in self.gadgets:
                (unfolded,) = occ_step(top)
                self.gadgets[top] = (unfolded, *occ_step(unfolded))
            unfolded, left, right = self.gadgets[top]
            ids = pid, self.g.new_id(), self.g.new_id(), self.g.new_id() if rule == "server" else None
        cut_pair = None
        plan: list[tuple[int, AddressStream, dict[ChannelName, Address]]] = []
        if rule == "cut":
            c = node.process.chan
            cut_pair = (Address(rho.head(), False), Address(rho.head(), True))
            rest = rho.tail()
            plan = [(0, rest.even(), {c: cut_pair[0]}), (1, rest.odd(), {c: cut_pair[1]})]
        elif node.premises:  # a guard: its binder and subject take the children of address a
            p = node.process
            row, binding = GUARDS[type(p)], BINDING[type(p)]
            y = None if binding.binder is None else binding.fields(p)[binding.binder]
            a = right.address if gadget else sigma[x].address
            streams = (rho.even(), rho.odd()) if row.split else (rho, rho)
            for i, (b, s) in enumerate(row.alts[(node.tag or 1) - 1]):
                over = {}
                if b is not None:
                    over[y] = a.child("l" if b == 0 else "r")
                if s is not None:
                    over[x] = a.child("l" if s == 0 else "r")
                plan.append((i, streams[i], over))
            if rule == "server":  # the idle branch, which drops x, comes first
                plan.reverse()
        edges = []
        for i, stream, over in plan:
            target = node.premises[i].target
            child = {c: Occurrence(encode_type(t), over[c]) if c in over else sigma[c]
                     for c, t in self.d.nodes[target].context}
            edges.append(self.edge(target, child, stream))
        for c in pending:  # no back edge outside the subtree targets them
            del self.calls[c]
        if not gadget:
            seq = _mkseq(*(sigma[c] for c, _ in node.context))
            self.g.add(ProofNode(pid, rule, seq, tuple(edges), None if x is None else sigma[x].address,
                                 node.tag, cut_pair))
            return ProofEdge(pid, False)
        if rule == "server":
            idle, accept = edges
            rules = [("nu", top, (ProofEdge(ids[1]),), None),
                     ("with", unfolded, (ProofEdge(ids[2]), ProofEdge(ids[3])), None),
                     ("bot", left, (idle,), None), ("par", right, (accept,), None)]
        else:  # done ends in an axiom, client in a multiplicative
            rules = [("mu", top, (ProofEdge(ids[1]),), None),
                     ("plus", unfolded, (ProofEdge(ids[2]),), 2 if edges else 1),
                     ("tensor", right, tuple(edges), None) if edges else ("one", left, (), None)]
        rest = [sigma[c] for c, _ in node.context if c != x]
        for gid, (kind, occ, premises, side) in zip(ids, rules):
            self.g.add(ProofNode(gid, kind, _mkseq(occ, *rest), premises, occ.address, side))
        return ProofEdge(pid, False)


def encode_derivation(d: Derivation, g: ProofGraph | None = None, reuse: dict | None = None) -> EncodedProof:
    """Encode a typing derivation into a cyclic pre-proof (into g, reusing the proof nodes reuse gives).

    Accepts invalid derivations as well (their encodings are exactly what the
    proof-level validity check is for)."""
    sigma0, rho0 = initial_assignment(dict(d.nodes[d.root].context))
    enc = _Encoder(d, g, reuse)
    enc.g.root = enc.edge(d.root, sigma0, rho0).target
    return EncodedProof(enc.g, enc.mapping)


# --- thread validity ----------------------------------------------------------


def _succ_addresses(g: ProofGraph, node: ProofNode, edge: ProofEdge) -> list[tuple[Address, Address]]:
    """(address, successor) pairs of node's occurrences along one premise
    edge, in sequent order: the address map across a back edge, else descent
    at the principal occurrence and carry elsewhere."""
    if edge.back:
        corr = dict(edge.corr)
        return [(o.address, corr[o.address]) for o in node.sequent if o.address in corr]
    child_addrs = {o.address for o in g.nodes[edge.target].sequent}
    out = []
    for o in node.sequent:
        if o.address == node.principal:
            out.extend((o.address, s.address) for s in occ_step(o) if s.address in child_addrs)
        elif o.address in child_addrs:
            out.append((o.address, o.address))
    return out


def _thread_arcs(g: ProofGraph):
    """The closure's arcs on g: the occurrence successors along premise
    edge i of node nid, an arc progressing where its source is the principal
    occurrence of a greatest fixed point."""
    def arcs(nid: int, i: int) -> list[tuple[Address, Address, bool]]:
        node = g.nodes[nid]
        nu = node.rule == "nu"
        return [(a, nxt, nu and a == node.principal)
                for a, nxt in _succ_addresses(g, node, node.premises[i])]
    return arcs


def proof_validity(g: ProofGraph) -> ValidityReport:
    """Thread-based counterpart of the derivation validity check."""
    return _closure_report(g, _thread_arcs(g),
                           "every cycle supports a recurring greatest-fixed-point thread",
                           "cycle admits no recurring greatest-fixed-point thread",
                           "composite cycle admits no recurring greatest-fixed-point thread")


def nu_thread_witness(g: ProofGraph) -> list[tuple[int, Address]]:
    """Node/address pairs of one recurring greatest-fixed-point thread, for
    rendering; empty when none exists."""
    return closure_thread(g, _thread_arcs(g))


# --- principal reduction ------------------------------------------------------


class NotPrincipalError(Exception):
    pass


# (positive rule, negative rule, chosen side): the child steps that the cut
# formula pair takes, one new cut each, innermost last
_KEY_CASES = {("one", "bot", None): "", ("tensor", "par", None): "lr", ("mu", "nu", None): "i",
              ("plus", "with", 1): "l", ("plus", "with", 2): "r"}


def principal_reduce_at(g: ProofGraph, cut_id: int) -> None:
    """One principal cut-reduction step at the given cut node, in place: the
    result is written under the cut's own id, so every edge into the cut now
    leads to it.

    Every key case is one fold over (child steps, positive premises, negative
    premise): from the right, each positive premise is cut against what the
    fold has built so far, starting from the negative rule's premise (the
    chosen branch of a `with`).  one/bot is the empty fold, which leaves the
    `bot` premise itself."""
    node = g.nodes[cut_id]
    if node.rule != "cut" or node.cut_pair is None:
        raise NotPrincipalError(f"node {cut_id} is not a cut")
    e1, e2 = node.premises
    if e1.back or e2.back:
        raise NotPrincipalError("cut premise is a back edge; cannot reduce here")
    n1, n2 = g.nodes[e1.target], g.nodes[e2.target]
    a_pos, a_neg = node.cut_pair
    # orient positive rule first
    if n1.rule in ("bot", "par", "with", "nu") or n2.rule in ("one", "tensor", "plus", "mu"):
        n1, n2 = n2, n1
        a_pos, a_neg = a_neg, a_pos
    if n1.principal != a_pos or n2.principal != a_neg:
        raise NotPrincipalError(
            f"cut occurrences are not principal in both premises ({n1.rule}/{n2.rule})")
    steps = _KEY_CASES.get((n1.rule, n2.rule, n1.side))
    if steps is None:
        raise NotPrincipalError(f"no key case for {n1.rule}/{n2.rule}")
    pos, neg = n1.premises, n2.premises[steps == "r"]
    if pos and any(e.back for e in (*pos, neg)):
        raise NotPrincipalError("premise behind a back edge")
    for step, e in zip(reversed(steps), reversed(pos)):
        pair = (a_pos.child(step), a_neg.child(step))
        seq = _mkseq(*(o for o in g.nodes[e.target].sequent if o.address != pair[0]),
                     *(o for o in g.nodes[neg.target].sequent if o.address != pair[1]))
        neg = ProofEdge(g.add(ProofNode(g.new_id(), "cut", seq, (e, neg), cut_pair=pair)))
    g.nodes[cut_id] = replace(g.nodes[neg.target], nid=cut_id)


# --- process-step / proof-step correspondence ---------------------------------


PRINCIPAL_STEPS = {"r-close": 1, "r-comm": 1, "r-case": 1, "r-done": 3, "r-connect": 3}


def _signature(n: ProofNode) -> tuple:
    """What `proof_bisimilar` compares at a node: rule, chosen side, principal
    formula, premise count and the multiset of sequent formulas (a plain
    dict, which compares in C)."""
    counts: dict[MuFormula, int] = {}
    for o in n.sequent:
        counts[o.formula] = counts.get(o.formula, 0) + 1
    principal = None if n.principal is None else n.occurrence_at(n.principal).formula
    return n.rule, n.side, principal, len(n.premises), counts


def proof_bisimilar(g1: ProofGraph, g2: ProofGraph) -> bool:
    """Do the two graphs present the same infinite proof tree?

    Compares rules, principal formulas, sequent formula multisets (addresses
    are re-rooted across back edges, so they are ignored) and premise order,
    following back edges transparently; regular presentations that differ
    only by loop unrolling compare equal."""
    seen: set[tuple[int, int]] = set()
    stack = [(g1.root, g2.root)]
    while stack:
        pair = stack.pop()
        if pair in seen or pair[0] == pair[1] and g1.nodes is g2.nodes:  # one node, bisimilar to itself
            continue
        seen.add(pair)
        na, nb = g1.nodes[pair[0]], g2.nodes[pair[1]]
        if _signature(na) != _signature(nb):
            return False
        stack.extend((ea.target, eb.target) for ea, eb in zip(na.premises, nb.premises))
    return True


@dataclass
class SimulationReport:
    kind: str
    steps: int
    matched: bool
    detail: str = ""


class _Session(_Checker):
    """What `simulate_step` keeps of one program between calls: a checker
    whose node store and memo span every call, one proof node store with its
    id counter, and each derivation node's proof node.  It holds the program
    only during a call.  The memo knows a term-level subterm (no back edge
    leaves its derivation) by its identity and an invocation by its name and
    arguments, each with its context: invocations alike in all three have
    one derivation up to the names of bound channels."""

    def __init__(self):
        super().__init__(None)
        self.memo: dict[tuple, int] = {}  # (id(subterm), context) or (name, args, context) -> node id
        self.store = ProofGraph()
        self.proof_of: dict[int, int] = {}
        self.last: tuple[int, int] | None = None  # the last reduct's derivation and proof roots
        self.live = 0  # proof nodes the last compaction kept

    def check(self, p: Process, ctx: TypeContext, path: dict) -> int:
        if path:
            return super().check(p, ctx, path)
        call = type(p) is Call
        nid = self.memo.get((p.name, p.args, _ctx_tuple(ctx)) if call else (id(p), _ctx_tuple(ctx)))
        if nid is None:  # keyed by the node's own context tuple, which the key then shares
            nid = super().check(p, ctx, path)
            c = self.nodes[nid].context
            self.memo[(p.name, p.args, c) if call else (id(p), c)] = nid
        return nid

    def graph(self) -> ProofGraph:
        return ProofGraph(self.store.nodes, _ids=self.store._ids)

    def compact(self) -> None:
        """Once the store holds half as much again as the last compaction
        kept, keep only what the last reduct's derivation and proof reach,
        and the memo entries and proof map pairs that lead to kept nodes.  A
        memo entry leads to a node that holds its term, so an id() in the
        memo is always that of a live term."""
        if len(self.store.nodes) <= 1.5 * self.live:
            return
        droot, proot = self.last or (None, None)
        keep_d, keep_p = _reach(self.nodes, droot), _reach(self.store.nodes, proot)
        self.nodes = {nid: n for nid, n in self.nodes.items() if nid in keep_d}
        self.memo = {key: nid for key, nid in self.memo.items() if nid in keep_d}
        self.store.nodes = {pid: n for pid, n in self.store.nodes.items() if pid in keep_p}
        self.proof_of = {nid: pid for nid, pid in self.proof_of.items() if nid in keep_d and pid in keep_p}
        self.live = len(keep_p)


def _reach(nodes: dict, root: int | None) -> set[int]:
    """The ids of the derivation or proof nodes that root reaches."""
    seen = set() if root is None else {root}
    stack = list(seen)
    while stack:
        for e in nodes[stack.pop()].premises:
            if e.target not in seen:
                seen.add(e.target)
                stack.append(e.target)
    return seen


def _session(prog) -> _Session:
    """prog's session, kept on the program as `Program._call_depths` keeps its
    table, so it goes when the program does."""
    s = prog.__dict__.get("_session")
    if s is None:
        s = prog._session = _Session()
    return s


def _spine(nodes: dict[int, DerivNode], order: list[int], cut_obj) -> dict[int, None]:
    """The node of the redex cut among order's nodes, then its ancestors
    there, in order; a node comes after its premises in a store's order."""
    spine: dict[int, None] = {}
    for nid in order:
        n = nodes[nid]
        if (any(e.target in spine for e in n.premises) if spine else n.process is cut_obj):
            spine[nid] = None
    return spine


def _read_by_reduction(nodes: dict[int, DerivNode], cut: int) -> list[int]:
    """The derivation nodes whose proof nodes principal reduction at the cut
    reads: its premises and theirs, each with the call chain erased above it."""
    read, level = [], [cut]
    for _ in range(2):
        below = []
        for nid in level:
            for e in nodes[nid].premises:
                while not e.back:
                    read.append(e.target)
                    n = nodes[e.target]
                    if n.rule != "call":
                        below.append(e.target)
                        break
                    e = n.premises[0]
        level = below
    return read


def simulate_step(exposed, cut_obj, reduct, ctx, prog, kind: str) -> SimulationReport:
    """Check one reduction against its proof image: encode the derivation of
    the exposed term, apply the redex kind's number of principal steps at the
    encoded cut, and compare with the encoding of the reduct's derivation."""
    s = _session(prog)
    s.compact()
    nodes, proof_of = s.nodes, s.proof_of
    s.prog = prog
    try:
        before = len(nodes)
        d1 = check(exposed, ctx, prog, s)
        added = list(itertools.islice(reversed(nodes), len(nodes) - before))[::-1]
        spine = _spine(nodes, added, cut_obj)
        if not spine:  # the cut's node is older than this call: search the whole derivation
            reach = _reach(nodes, d1.root)
            spine = _spine(nodes, [nid for nid in nodes if nid in reach], cut_obj)
        if not spine:
            return SimulationReport(kind, 0, False, "redex cut not found in derivation")
        for nid in (*spine, *_read_by_reduction(nodes, next(iter(spine)))):
            proof_of.pop(nid, None)
        enc1 = encode_derivation(d1, s.graph(), proof_of)
        # principal reduction rewrites the cut's proof node in place, and so what the spine presents
        proof_of.update((nid, pid) for nid, pid in enc1.deriv_to_proof.items() if nid not in spine)
        g1, cut = enc1.graph, enc1.deriv_to_proof[next(iter(spine))]
        n = PRINCIPAL_STEPS[kind]
        try:
            for _ in range(n):
                principal_reduce_at(g1, cut)
        except NotPrincipalError as e:
            return SimulationReport(kind, n, False, f"principal reduction failed: {e}")
        d2 = check(reduct, ctx, prog, s)
        enc2 = encode_derivation(d2, s.graph(), proof_of)
        proof_of.update(enc2.deriv_to_proof)
        s.last = d2.root, enc2.graph.root
        ok = proof_bisimilar(g1, enc2.graph)
        return SimulationReport(kind, n, ok, "" if ok else "reduced proof differs from reduct's encoding")
    finally:
        s.prog = None


# --- exports -------------------------------------------------------------------


def proof_to_json_dict(g: ProofGraph) -> dict:
    nodes = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        nodes.append({
            "id": n.nid,
            "rule": n.rule,
            "sequent": [{"formula": mf.render_formula(o.formula), "address": o.address.render()}
                        for o in n.sequent],
            "premises": [e.target for e in n.premises],
            "back": any(e.back for e in n.premises),
        })
    return {"root": g.root, "nodes": nodes}


def proof_to_dot(g: ProofGraph, highlight: list[tuple[int, Address]] | None = None) -> str:
    marked: dict[int, set[str]] = {}
    for nid, addr in highlight or []:
        marked.setdefault(nid, set()).add(addr.render())
    lines = ["digraph proof {", "  node [shape=box, fontname=monospace];"]
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        seq = ", ".join(
            ("*" if o.address.render() in marked.get(nid, ()) else "")
            + f"{mf.render_formula(o.formula)}@{o.address.render()}"
            for o in n.sequent)
        label = f"[{n.rule}] |- {seq}".replace("\\", "\\\\").replace('"', '\\"')
        style = ', style=filled, fillcolor="lightgoldenrod1"' if nid in marked else ""
        lines.append(f'  n{nid} [label="{label}"{style}];')
    for nid in sorted(g.nodes):
        for e in g.nodes[nid].premises:
            style = " [style=dashed, label=back]" if e.back else ""
            lines.append(f"  n{nid} -> n{e.target}{style};")
    lines.append("}")
    return "\n".join(lines)
