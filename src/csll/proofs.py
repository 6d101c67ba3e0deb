"""Cyclic pre-proofs: encoding of typing derivations, thread validity, and
top-level principal cut reduction.

A typing derivation maps onto a proof graph rule by rule, in one pass of
`_Encoder`.  Its `edge` erases invocation nodes, so a derivation back edge
becomes a proof back edge targeting the encoding of the ancestor's body,
with an address re-rooting map; an invocation chain closing on itself
becomes a degenerate `loop` node.  Its `premise` gives a premise the
parent's addresses, overridden by those the rule introduces, and a stream
of fresh atomic addresses: an injective stream is split between independent
premises and shared between mutually exclusive ones.  `premises` reads a
guard's premises from its `typecheck.GUARDS` row, so `emit` states only the
cut by hand; `gadget` expands a shared channel into three rules (fixed
point, additive, then axiom or multiplicative), matching its list
interpretation.  A channel keeps its type and address until a rule acts on
it, so the encoder's assignment maps each channel to its occurrence and
hands it down unchanged: a node builds occurrences only for the channels
its rule introduces, and a shared channel occurrence unfolds once.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import formulas as mf
from . import types as ty
from .cycles import closure_check
from .formulas import Address, MuFormula, Occurrence, encode_type, occ_step
from .process import BINDING, ChannelName
from .typecheck import GUARDS, Derivation, DerivNode, ValidityReport, _closure_report, check


# --- streams of atomic addresses ---------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ProofEdge:
    target: int
    back: bool = False
    corr: tuple[tuple[Address, Address], ...] = ()


@dataclass(frozen=True)
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
    """One encoding pass over a derivation.  `calls` records, for every call
    node that a back edge targets, the proof node standing for it and its
    address assignment: back edges target ancestors only, and each ancestor
    is entered once, before the back edges below it.  A channel keeps its
    type and address down the tree until a rule acts on it, so the
    assignment hands its occurrence down unchanged; `gadgets` holds the
    three rule occurrences of each shared channel occurrence."""

    def __init__(self, d: Derivation):
        self.d = d
        self.g = ProofGraph()
        self.mapping: dict[int, int] = {}
        self.calls: dict[int, tuple[int, Assignment] | None] = dict.fromkeys(
            e.target for n in d.nodes.values() for e in n.premises if e.back)
        self.gadgets: dict[Occurrence, tuple[Occurrence, Occurrence, Occurrence]] = {}

    def edge(self, nid: int, sigma: Assignment, rho: AddressStream) -> ProofEdge:
        """The edge to the encoding of derivation node nid: invocation chains
        are erased, and one closing on itself becomes a degenerate `loop`."""
        node = self.d.nodes[nid]
        pending: list[int] = []
        pid: int | None = None
        while node.rule == "call":
            e = node.premises[0]
            if e.back:
                anc_pid, anc_sigma = self.calls[e.target]
                corr = tuple(sorted(((sigma[s].address, anc_sigma[t].address) for s, t in e.down),
                                    key=lambda st: (st[0].atom, st[0].bar, st[0].word)))
                if pid is None:
                    return ProofEdge(anc_pid, True, corr)
                seq = _mkseq(*(sigma[c] for c, _ in node.judgment.context))
                self.g.add(ProofNode(pid, "loop", seq, (ProofEdge(anc_pid, True, corr),)))
                self.mapping.update(dict.fromkeys(pending, pid))
                return ProofEdge(pid, False)
            if pid is None:
                pid = self.g.new_id()
            if nid in self.calls:
                self.calls[nid] = (pid, sigma)
            pending.append(nid)
            nid = e.target
            node = self.d.nodes[nid]
        if pid is None:
            pid = self.g.new_id()
        self.mapping.update(dict.fromkeys(pending, pid))
        self.emit(node, sigma, rho, pid)
        return ProofEdge(pid, False)

    def premise(self, node: DerivNode, i: int, sigma: Assignment, rho: AddressStream,
                introduced: dict[ChannelName, Address] | None = None) -> ProofEdge:
        """The edge to premise i, whose channels keep the parent's occurrences
        unless the rule introduces them at the given addresses, encoded from
        stream rho."""
        target = node.premises[i].target
        over = introduced or {}
        child = {c: Occurrence(encode_type(t), over[c]) if c in over else sigma[c]
                 for c, t in self.d.nodes[target].judgment.context}
        return self.edge(target, child, rho)

    def premises(self, node: DerivNode, sigma: Assignment, rho: AddressStream,
                 a: Address) -> tuple[ProofEdge, ...]:
        """The edges to a guard node's premises, read from its `GUARDS` row:
        a premise's binder or subject goes to a's left child for component 0
        of the connective and to its right child otherwise.  The premises of
        a split row take the even and odd halves of rho; the others share it."""
        p = node.judgment.process
        row, binding = GUARDS[type(p)], BINDING[type(p)]
        y = None if binding.binder is None else binding.fields(p)[binding.binder]
        streams = (rho.even(), rho.odd()) if row.split else (rho, rho)
        edges = []
        for i, (b, s) in enumerate(row.alts[(node.tag or 1) - 1]):
            over = {}
            if b is not None:
                over[y] = a.child("l" if b == 0 else "r")
            if s is not None:
                over[node.subject] = a.child("l" if s == 0 else "r")
            edges.append(self.premise(node, i, sigma, streams[i], over))
        return tuple(edges)

    def emit(self, node: DerivNode, sigma: Assignment, rho: AddressStream, pid: int) -> None:
        self.mapping[node.nid] = pid
        x = node.subject
        cut_pair = None
        match node.rule:
            case "cut":
                c = node.judgment.process.chan
                cut_pair = (Address(rho.head(), False), Address(rho.head(), True))
                rest = rho.tail()
                edges = (self.premise(node, 0, sigma, rest.even(), {c: cut_pair[0]}),
                         self.premise(node, 1, sigma, rest.odd(), {c: cut_pair[1]}))
            case "done" | "client" | "server":
                return self.gadget(node, sigma, rho, pid)
            case _:
                edges = self.premises(node, sigma, rho, sigma[x].address) if node.premises else ()
        seq = _mkseq(*(sigma[c] for c, _ in node.judgment.context))
        self.g.add(ProofNode(pid, node.rule, seq, edges, None if x is None else sigma[x].address,
                             node.tag, cut_pair))

    def gadget(self, node: DerivNode, sigma: Assignment, rho: AddressStream, pid: int) -> None:
        """A shared channel's three rules: fixed point, additive, then axiom
        (`done`) or multiplicative (`client`, and a server's two branches)."""
        x = node.subject
        p = node.judgment.process
        top = sigma[x]
        if top not in self.gadgets:
            (unfolded,) = occ_step(top)
            self.gadgets[top] = (unfolded, *occ_step(unfolded))
        unfolded, left, right = self.gadgets[top]
        a = right.address
        ids = [pid] + [self.g.new_id() for _ in range(3 if node.rule == "server" else 2)]
        match node.rule:
            case "done":
                rules = [("mu", top, (ProofEdge(ids[1]),), None),
                         ("plus", unfolded, (ProofEdge(ids[2]),), 1),
                         ("one", left, (), None)]
            case "client":
                edges = self.premises(node, sigma, rho, a)
                rules = [("mu", top, (ProofEdge(ids[1]),), None),
                         ("plus", unfolded, (ProofEdge(ids[2]),), 2),
                         ("tensor", right, edges, None)]
            case _:  # server: the idle branch drops x and shares the stream with accept
                idle = self.premise(node, 1, sigma, rho)
                accept = self.premise(node, 0, sigma, rho, {x: a.child("r"), p.session: a.child("l")})
                rules = [("nu", top, (ProofEdge(ids[1]),), None),
                         ("with", unfolded, (ProofEdge(ids[2]), ProofEdge(ids[3])), None),
                         ("bot", left, (idle,), None),
                         ("par", right, (accept,), None)]
        rest = [sigma[c] for c, _ in node.judgment.context if c != x]
        for nid, (rule, occ, edges, side) in zip(ids, rules):
            self.g.add(ProofNode(nid, rule, _mkseq(occ, *rest), edges, occ.address, side))


def encode_derivation(d: Derivation) -> EncodedProof:
    """Encode a typing derivation into a cyclic pre-proof.

    Accepts invalid derivations as well (their encodings are exactly what the
    proof-level validity check is for)."""
    sigma0, rho0 = initial_assignment(dict(d.nodes[d.root].judgment.context))
    enc = _Encoder(d)
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
    """`closure_check`'s arcs on g: the occurrence successors along premise
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
    return closure_check(g, _thread_arcs(g)).thread


# --- principal reduction ------------------------------------------------------


class NotPrincipalError(Exception):
    pass


# (positive rule, negative rule, chosen side): the child steps that the cut
# formula pair takes, one new cut each, innermost last
_KEY_CASES = {("one", "bot", None): "", ("tensor", "par", None): "lr", ("mu", "nu", None): "i",
              ("plus", "with", 1): "l", ("plus", "with", 2): "r"}


def principal_reduce_at(g: ProofGraph, cut_id: int) -> tuple[ProofGraph, int]:
    """One principal cut-reduction step at the given cut node, in place: the
    result is written under the cut's own id, so every edge into the cut now
    leads to it.  Returns the graph and that id.

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
    return g, cut_id


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
        if pair in seen:
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


def simulate_step(exposed, cut_obj, reduct, ctx, prog, kind: str) -> SimulationReport:
    """Check one reduction against its proof image: encode the derivation of
    the exposed term, apply the redex kind's number of principal steps at the
    encoded cut, and compare with the encoding of the reduct's derivation."""
    d1 = check(exposed, ctx, prog)
    enc1 = encode_derivation(d1)
    dnid = None
    for nid, n in d1.nodes.items():
        if n.judgment.process is cut_obj:
            dnid = nid
            break
    if dnid is None:
        return SimulationReport(kind, 0, False, "redex cut not found in derivation")
    g1 = enc1.graph
    cur = enc1.deriv_to_proof[dnid]
    n = PRINCIPAL_STEPS[kind]
    try:
        for _ in range(n):
            g1, cur = principal_reduce_at(g1, cur)
    except NotPrincipalError as e:
        return SimulationReport(kind, n, False, f"principal reduction failed: {e}")
    d2 = check(reduct, ctx, prog)
    g2 = encode_derivation(d2).graph
    ok = proof_bisimilar(g1, g2)
    return SimulationReport(kind, n, ok, "" if ok else "reduced proof differs from reduct's encoding")


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
