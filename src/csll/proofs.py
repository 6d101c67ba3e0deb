"""Cyclic pre-proofs: encoding of typing derivations, thread validity, and
top-level principal cut reduction.

A typing derivation maps onto a proof graph rule by rule; invocation nodes
are erased, so a derivation back edge becomes a proof back edge targeting
the encoding of the ancestor's body, with an address re-rooting map.  Shared
channels expand into three-rule gadgets (fixed point, additive, then axiom
or multiplicative), matching their list interpretation.  Fresh atomic
addresses come from an injective stream that is split between independent
premises and shared between mutually exclusive ones.

Thread validity: a thread follows occurrence successors (descent at the
principal occurrence, carry elsewhere, the address map across back edges),
and it progresses where its occurrence is the principal formula of a `nu`
rule.  The proof is valid exactly when every infinite path carries a thread
that progresses infinitely often, decided by the same size-change closure as
derivation validity (`cycles.closure_check`).  Encoded formulas have
fixed-point bodies closed but for their own variable, so a thread that
unfolds a greatest fixed point infinitely often has a greatest fixed point
as its least recurring formula; a thread that merely carries one unchanged
does not progress.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

from . import formulas as mf
from . import types as ty
from .cycles import closure_check
from .formulas import Address, MuFormula, Occurrence, encode_type, occ_step
from .process import Case, ChannelName, Cons, Cut, Fork, Join, Nil, Select, Server
from .typecheck import Derivation, ValidityReport, check


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

    def at(self, n: int) -> int:
        return self.offset + n * self.step


def address_stream(start: int = 0) -> AddressStream:
    return AddressStream(start, 1)


# --- proof graphs -------------------------------------------------------------


@dataclass(frozen=True)
class ProofEdge:
    target: int
    back: bool = False
    corr: tuple[tuple[Address, Address], ...] = ()

    @property
    def corr_map(self) -> dict[Address, Address]:
        return dict(self.corr)


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

    def node(self, nid: int) -> ProofNode:
        return self.nodes[nid]


def _mkseq(*occs: Occurrence) -> tuple[Occurrence, ...]:
    out = tuple(sorted(occs, key=lambda o: (o.address.atom, o.address.bar, o.address.word)))
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            if not mf.disjoint(a.address, b.address):
                raise AssertionError(f"overlapping addresses in sequent: {a.address} vs {b.address}")
    return out


def initial_assignment(ctx: dict[ChannelName, ty.SessionType]
                       ) -> tuple[dict[ChannelName, Address], AddressStream]:
    """Give every context channel its own atomic address, returning the rest
    of the stream."""
    stream = address_stream()
    sigma: dict[ChannelName, Address] = {}
    for c in sorted(ctx, key=lambda c: (c.name, c.uid)):
        sigma[c] = Address(stream.head(), False)
        stream = stream.tail()
    return sigma, stream


@dataclass
class EncodedProof:
    graph: ProofGraph
    deriv_to_proof: dict[int, int]


def encode_derivation(d: Derivation) -> EncodedProof:
    """Encode a typing derivation into a cyclic pre-proof.

    Accepts invalid derivations as well (their encodings are exactly what the
    proof-level validity check is for)."""
    sigma0, rho0 = initial_assignment(d.node(d.root).judgment.ctx)

    g = ProofGraph()
    mapping: dict[int, int] = {}

    def ctx_occs(sigma: dict[ChannelName, Address], ctx: dict[ChannelName, ty.SessionType],
                 *skip: ChannelName) -> list[Occurrence]:
        return [Occurrence(encode_type(t), sigma[c]) for c, t in ctx.items() if c not in skip]

    def child_sigma(sigma: dict[ChannelName, Address], child_ctx: dict[ChannelName, ty.SessionType],
                    overrides: dict[ChannelName, Address]) -> dict[ChannelName, Address]:
        out: dict[ChannelName, Address] = {}
        for c in child_ctx:
            addr = overrides.get(c, sigma.get(c))
            if addr is None:
                raise AssertionError(f"no address for channel {c!r} in premise")
            out[c] = addr
        return out

    def make_edge(nid: int, sigma: dict[ChannelName, Address], rho: AddressStream,
                  path: dict[int, tuple[int, dict[ChannelName, Address]]]) -> ProofEdge:
        node = d.node(nid)
        pending: list[int] = []
        pid: int | None = None
        while node.rule == "call":
            e = node.premises[0]
            if e.back:
                anc_pid, anc_sigma = path[e.target]
                corr = tuple(sorted(((sigma[s], anc_sigma[t]) for s, t in e.down),
                                    key=lambda st: (st[0].atom, st[0].bar, st[0].word)))
                if pid is not None:
                    # pure invocation chain closing on itself: keep the graph
                    # well-formed with a degenerate looping node
                    seq = _mkseq(*ctx_occs(sigma, node.judgment.ctx))
                    g.add(ProofNode(pid, "loop", seq, (ProofEdge(anc_pid, True, corr),)))
                    for dnid in pending:
                        mapping[dnid] = pid
                    return ProofEdge(pid, False)
                return ProofEdge(anc_pid, True, corr)
            if pid is None:
                pid = g.new_id()
            path = {**path, nid: (pid, dict(sigma))}
            pending.append(nid)
            nid = e.target
            node = d.node(nid)
        if pid is None:
            pid = g.new_id()
        for dnid in pending:
            mapping[dnid] = pid
        emit(nid, sigma, rho, pid, path)
        return ProofEdge(pid, False)

    def emit(nid: int, sigma: dict[ChannelName, Address], rho: AddressStream,
             pid: int, path: dict[int, tuple[int, dict[ChannelName, Address]]]) -> None:
        node = d.node(nid)
        mapping[nid] = pid
        ctx = node.judgment.ctx
        p = node.judgment.process
        rule = node.rule

        def prem_ctx(i: int) -> dict[ChannelName, ty.SessionType]:
            return d.node(node.premises[i].target).judgment.ctx

        if rule == "one":
            x = node.subject
            g.add(ProofNode(pid, "one", _mkseq(Occurrence(mf.F_ONE, sigma[x])), principal=sigma[x]))
            return
        if rule == "top":
            x = node.subject
            g.add(ProofNode(pid, "top", _mkseq(*ctx_occs(sigma, ctx)), principal=sigma[x]))
            return
        if rule == "bot":
            x = node.subject
            s2 = child_sigma(sigma, prem_ctx(0), {})
            edge = make_edge(node.premises[0].target, s2, rho, path)
            g.add(ProofNode(pid, "bot", _mkseq(*ctx_occs(sigma, ctx)), (edge,), principal=sigma[x]))
            return
        if rule == "par":
            assert isinstance(p, Join)
            x, y = p.chan, p.payload
            alpha = sigma[x]
            s2 = child_sigma(sigma, prem_ctx(0), {y: alpha.child("l"), x: alpha.child("r")})
            edge = make_edge(node.premises[0].target, s2, rho, path)
            g.add(ProofNode(pid, "par", _mkseq(*ctx_occs(sigma, ctx)), (edge,), principal=alpha))
            return
        if rule == "tensor":
            assert isinstance(p, Fork)
            x, y = p.chan, p.payload
            alpha = sigma[x]
            s1 = child_sigma(sigma, prem_ctx(0), {y: alpha.child("l")})
            s2 = child_sigma(sigma, prem_ctx(1), {x: alpha.child("r")})
            e1 = make_edge(node.premises[0].target, s1, rho.even(), path)
            e2 = make_edge(node.premises[1].target, s2, rho.odd(), path)
            g.add(ProofNode(pid, "tensor", _mkseq(*ctx_occs(sigma, ctx)), (e1, e2), principal=alpha))
            return
        if rule == "plus":
            assert isinstance(p, Select)
            x = p.chan
            alpha = sigma[x]
            step = "l" if p.tag == 1 else "r"
            s2 = child_sigma(sigma, prem_ctx(0), {x: alpha.child(step)})
            edge = make_edge(node.premises[0].target, s2, rho, path)
            g.add(ProofNode(pid, "plus", _mkseq(*ctx_occs(sigma, ctx)), (edge,),
                            principal=alpha, side=p.tag))
            return
        if rule == "with":
            assert isinstance(p, Case)
            x = p.chan
            alpha = sigma[x]
            s1 = child_sigma(sigma, prem_ctx(0), {x: alpha.child("l")})
            s2 = child_sigma(sigma, prem_ctx(1), {x: alpha.child("r")})
            e1 = make_edge(node.premises[0].target, s1, rho, path)
            e2 = make_edge(node.premises[1].target, s2, rho, path)
            g.add(ProofNode(pid, "with", _mkseq(*ctx_occs(sigma, ctx)), (e1, e2), principal=alpha))
            return
        if rule == "cut":
            assert isinstance(p, Cut)
            x = p.chan
            atom = rho.head()
            rest = rho.tail()
            a_pos = Address(atom, False)
            a_neg = Address(atom, True)
            s1 = child_sigma(sigma, prem_ctx(0), {x: a_pos})
            s2 = child_sigma(sigma, prem_ctx(1), {x: a_neg})
            e1 = make_edge(node.premises[0].target, s1, rest.even(), path)
            e2 = make_edge(node.premises[1].target, s2, rest.odd(), path)
            g.add(ProofNode(pid, "cut", _mkseq(*ctx_occs(sigma, ctx)), (e1, e2),
                            cut_pair=(a_pos, a_neg)))
            return
        if rule == "done":
            assert isinstance(p, Nil)
            x = node.subject
            alpha = sigma[x]
            top = Occurrence(encode_type(ctx[x]), alpha)
            (unfolded,) = occ_step(top)
            one_occ, _tensor_occ = occ_step(unfolded)
            plus_id, one_id = g.new_id(), g.new_id()
            g.add(ProofNode(pid, "mu", _mkseq(top), (ProofEdge(plus_id),), principal=alpha))
            g.add(ProofNode(plus_id, "plus", _mkseq(unfolded), (ProofEdge(one_id),),
                            principal=unfolded.address, side=1))
            g.add(ProofNode(one_id, "one", _mkseq(one_occ), principal=one_occ.address))
            return
        if rule == "client":
            assert isinstance(p, Cons)
            x, y = p.chan, p.session
            alpha = sigma[x]
            rest_occs = ctx_occs(sigma, ctx, x)
            top = Occurrence(encode_type(ctx[x]), alpha)
            (unfolded,) = occ_step(top)
            _one_occ, tensor_occ = occ_step(unfolded)
            s1 = child_sigma(sigma, prem_ctx(0), {y: tensor_occ.address.child("l")})
            s2 = child_sigma(sigma, prem_ctx(1), {x: tensor_occ.address.child("r")})
            plus_id, tensor_id = g.new_id(), g.new_id()
            e1 = make_edge(node.premises[0].target, s1, rho.even(), path)
            e2 = make_edge(node.premises[1].target, s2, rho.odd(), path)
            g.add(ProofNode(pid, "mu", _mkseq(top, *rest_occs), (ProofEdge(plus_id),), principal=alpha))
            g.add(ProofNode(plus_id, "plus", _mkseq(unfolded, *rest_occs), (ProofEdge(tensor_id),),
                            principal=unfolded.address, side=2))
            g.add(ProofNode(tensor_id, "tensor", _mkseq(tensor_occ, *rest_occs), (e1, e2),
                            principal=tensor_occ.address))
            return
        if rule == "server":
            assert isinstance(p, Server)
            x, y = p.chan, p.session
            alpha = sigma[x]
            rest_occs = ctx_occs(sigma, ctx, x)
            top = Occurrence(encode_type(ctx[x]), alpha)
            (unfolded,) = occ_step(top)
            bot_occ, par_occ = occ_step(unfolded)
            with_id, bot_id, par_id = g.new_id(), g.new_id(), g.new_id()
            # idle branch: x is dropped, the stream is shared with the accept branch
            s_idle = child_sigma(sigma, prem_ctx(1), {})
            e_idle = make_edge(node.premises[1].target, s_idle, rho, path)
            s_acc = child_sigma(sigma, prem_ctx(0),
                                {x: par_occ.address.child("r"), y: par_occ.address.child("l")})
            e_acc = make_edge(node.premises[0].target, s_acc, rho, path)
            g.add(ProofNode(pid, "nu", _mkseq(top, *rest_occs), (ProofEdge(with_id),), principal=alpha))
            g.add(ProofNode(with_id, "with", _mkseq(unfolded, *rest_occs),
                            (ProofEdge(bot_id), ProofEdge(par_id)), principal=unfolded.address))
            g.add(ProofNode(bot_id, "bot", _mkseq(bot_occ, *rest_occs), (e_idle,),
                            principal=bot_occ.address))
            g.add(ProofNode(par_id, "par", _mkseq(par_occ, *rest_occs), (e_acc,),
                            principal=par_occ.address))
            return
        raise AssertionError(f"unexpected derivation rule {rule!r}")

    root_edge = make_edge(d.root, sigma0, rho0, {})
    g.root = root_edge.target
    # make_edge and emit call each other, so their closures form a cycle that
    # holds g; clearing them lets reference counting free g after its last use
    del make_edge, emit
    return EncodedProof(g, mapping)


# --- thread validity ----------------------------------------------------------


def _succ_addresses(g: ProofGraph, node: ProofNode, edge: ProofEdge) -> list[tuple[Address, Address]]:
    """(address, successor) pairs of node's occurrences along one premise
    edge, in sequent order: the address map across a back edge, else descent
    at the principal occurrence and carry elsewhere."""
    if edge.back:
        corr = edge.corr_map
        return [(o.address, corr[o.address]) for o in node.sequent if o.address in corr]
    child_addrs = {o.address for o in g.node(edge.target).sequent}
    out = []
    for o in node.sequent:
        if o.address == node.principal:
            out.extend((o.address, s.address) for s in occ_step(o) if s.address in child_addrs)
        elif o.address in child_addrs:
            out.append((o.address, o.address))
    return out


def _thread_edges(g: ProofGraph):
    """Occurrence successors as closure arcs; an arc progresses where its
    source is the principal occurrence of a greatest fixed point."""
    def out_edges(nid: int):
        node = g.node(nid)
        for e in node.premises:
            yield e.target, e.back, [(a, nxt, node.rule == "nu" and a == node.principal)
                                     for a, nxt in _succ_addresses(g, node, e)]
    return out_edges


def proof_validity(g: ProofGraph) -> ValidityReport:
    """Thread-based counterpart of the derivation validity check."""
    walk = closure_check(g.root, _thread_edges(g)).counterexample
    if walk is None:
        return ValidityReport("valid", "every cycle supports a recurring greatest-fixed-point thread")
    if len(set(walk)) == len(walk):
        return ValidityReport("invalid", "cycle admits no recurring greatest-fixed-point thread", walk)
    return ValidityReport("invalid", "composite cycle admits no recurring greatest-fixed-point thread",
                          walk)


def nu_thread_witness(g: ProofGraph) -> list[tuple[int, Address]]:
    """Node/address pairs of one recurring greatest-fixed-point thread, for
    rendering; empty when none exists."""
    return closure_check(g.root, _thread_edges(g)).thread


# --- principal reduction ------------------------------------------------------


class NotPrincipalError(Exception):
    pass


def _retarget(g: ProofGraph, old: int, new: int) -> None:
    for nid, node in list(g.nodes.items()):
        changed = False
        prems = []
        for e in node.premises:
            if e.target == old:
                prems.append(replace(e, target=new))
                changed = True
            else:
                prems.append(e)
        if changed:
            g.nodes[nid] = replace(node, premises=tuple(prems))
    if g.root == old:
        g.root = new


def _strip(seq: tuple[Occurrence, ...], addr: Address) -> list[Occurrence]:
    return [o for o in seq if o.address != addr]


def principal_reduce_at(g: ProofGraph, cut_id: int) -> tuple[ProofGraph, int]:
    """One principal cut-reduction step at the given cut node; returns the new
    graph and the node standing where the cut stood."""
    node = g.node(cut_id)
    if node.rule != "cut" or node.cut_pair is None:
        raise NotPrincipalError(f"node {cut_id} is not a cut")
    e1, e2 = node.premises
    if e1.back or e2.back:
        raise NotPrincipalError("cut premise is a back edge; cannot reduce here")
    n1, n2 = g.node(e1.target), g.node(e2.target)
    a_pos, a_neg = node.cut_pair
    # orient positive rule first
    if n1.rule in ("bot", "par", "with", "nu") or n2.rule in ("one", "tensor", "plus", "mu"):
        n1, n2 = n2, n1
        a_pos, a_neg = a_neg, a_pos
    if n1.principal != a_pos or n2.principal != a_neg:
        raise NotPrincipalError(
            f"cut occurrences are not principal in both premises ({n1.rule}/{n2.rule})")

    def new_cut(pair: tuple[Address, Address], left: ProofEdge, right: ProofEdge,
                left_strip: ProofNode, right_strip: ProofNode) -> int:
        seq = _mkseq(*(_strip(left_strip.sequent, pair[0]) + _strip(right_strip.sequent, pair[1])))
        nid = g.new_id()
        g.add(ProofNode(nid, "cut", seq, (left, right), cut_pair=pair))
        return nid

    if n1.rule == "one" and n2.rule == "bot":
        result = n2.premises[0].target
        _retarget(g, cut_id, result)
        return g, result
    if n1.rule == "tensor" and n2.rule == "par":
        eL, eR = n1.premises
        (eP,) = n2.premises
        if eL.back or eR.back or eP.back:
            raise NotPrincipalError("premise behind a back edge")
        right_pair = (a_pos.child("r"), a_neg.child("r"))
        inner = new_cut(right_pair, eR, eP, g.node(eR.target), g.node(eP.target))
        left_pair = (a_pos.child("l"), a_neg.child("l"))
        outer = new_cut(left_pair, eL, ProofEdge(inner), g.node(eL.target), g.node(inner))
        _retarget(g, cut_id, outer)
        return g, outer
    if n1.rule == "plus" and n2.rule == "with":
        (eP,) = n1.premises
        branch = n2.premises[0] if n1.side == 1 else n2.premises[1]
        if eP.back or branch.back:
            raise NotPrincipalError("premise behind a back edge")
        step = "l" if n1.side == 1 else "r"
        pair = (a_pos.child(step), a_neg.child(step))
        nid = new_cut(pair, eP, branch, g.node(eP.target), g.node(branch.target))
        _retarget(g, cut_id, nid)
        return g, nid
    if n1.rule == "mu" and n2.rule == "nu":
        (eM,) = n1.premises
        (eN,) = n2.premises
        if eM.back or eN.back:
            raise NotPrincipalError("premise behind a back edge")
        pair = (a_pos.child("i"), a_neg.child("i"))
        nid = new_cut(pair, eM, eN, g.node(eM.target), g.node(eN.target))
        _retarget(g, cut_id, nid)
        return g, nid
    raise NotPrincipalError(f"no key case for {n1.rule}/{n2.rule}")


def principal_reduce(g: ProofGraph) -> ProofGraph:
    """One principal step at the root cut."""
    g2, _ = principal_reduce_at(g, g.root)
    return g2


# --- process-step / proof-step correspondence ---------------------------------


PRINCIPAL_STEPS = {"r-close": 1, "r-comm": 1, "r-case": 1, "r-done": 3, "r-connect": 3}


def proof_bisimilar(g1: ProofGraph, g2: ProofGraph) -> bool:
    """Do the two graphs present the same infinite proof tree?

    Compares rules, principal formulas, sequent formula multisets (addresses
    are re-rooted across back edges, so they are ignored) and premise order,
    following back edges transparently; regular presentations that differ
    only by loop unrolling compare equal."""
    def principal_formula(g: ProofGraph, n: ProofNode) -> MuFormula | None:
        return n.occurrence_at(n.principal).formula if n.principal is not None else None

    seen: set[tuple[int, int]] = set()
    stack = [(g1.root, g2.root)]
    while stack:
        a, b = stack.pop()
        if (a, b) in seen:
            continue
        seen.add((a, b))
        na, nb = g1.node(a), g2.node(b)
        if na.rule != nb.rule or na.side != nb.side:
            return False
        if Counter(o.formula for o in na.sequent) != Counter(o.formula for o in nb.sequent):
            return False
        if principal_formula(g1, na) != principal_formula(g2, nb):
            return False
        if len(na.premises) != len(nb.premises):
            return False
        for ea, eb in zip(na.premises, nb.premises):
            stack.append((ea.target, eb.target))
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
