"""Test oracles: structural helpers that only the tests and
`scripts/fuzz_systems.py` read.

Each one states a property directly on the data structures, so the tests can
check the package against it without the package carrying it.
"""

from __future__ import annotations

import random
from functools import partial
from operator import itemgetter
from typing import Iterable

from csll import printer, runtime
from csll import types as ty
from csll.canon import canonical_form
from csll.formulas import Address, Mu, MuFormula, Nu, Var, formula_children, prefix_leq
from csll.parser import KEYWORDS, ParseError
from csll.process import (
    BINDING, Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork, Join, Nil, Process,
    Program, Select, Server, SourceSpan, Wait, call_depth, free_names, instantiate, rename,
    unfold_head,
)
from csll.proofs import (
    PRINCIPAL_STEPS, AddressStream, NotPrincipalError, SimulationReport, encode_derivation,
    principal_reduce_at, proof_bisimilar,
)
from csll.typecheck import (
    GUARDS, DerivEdge, Derivation, DerivNode, TypeCheckError, TypeContext, _Checker, _callee,
    _ctx_tuple, _err, _subject_type, check, definition_derivation, split_context, validity_check,
)


def alpha_equal(p: Process, q: Process, free_map: dict[ChannelName, ChannelName] | None = None) -> bool:
    """Structural equality up to renaming of bound channels.

    Free channels must correspond via free_map; by default they are matched
    by display name, which is what the pretty-printer/parser round trip
    preserves.
    """

    def chan_eq(a: ChannelName, b: ChannelName, env: dict[ChannelName, ChannelName]) -> bool:
        if a in env:
            return env[a] == b
        if free_map is not None:
            return free_map.get(a, a) == b
        return a.name == b.name

    def go(p: Process, q: Process, env: dict[ChannelName, ChannelName]) -> bool:
        t = type(p)
        if t is not type(q):
            return False
        if t is Call:
            return (p.name == q.name and len(p.args) == len(q.args)
                    and all(chan_eq(a, b, env) for a, b in zip(p.args, q.args)))
        row = BINDING[t]
        a, b = row.fields(p), row.fields(q)
        if any(a[i] != b[i] for i in row.scalars):
            return False
        if row.subject is not None and not chan_eq(a[row.subject], b[row.subject], env):
            return False
        inner = env if row.binder is None else {**env, a[row.binder]: b[row.binder]}
        return (all(go(a[i], b[i], inner) for i in row.inside)
                and all(go(a[i], b[i], env) for i in row.outside))

    return go(p, q, {})


def free_names_walk(p: Process) -> frozenset[ChannelName]:
    """The channels free in p, found in one walk that keeps one set of found
    names and the number of open scopes of each binder; it reads no set that
    `process.free_names` keeps on a term."""
    found: set[ChannelName] = set()
    _free(p, found, {})
    return frozenset(found)


def _free(p: Process, found: set[ChannelName], bound: dict[ChannelName, int]) -> None:
    """Add to found the channels free in p that no scope in bound encloses."""
    if type(p) is Call:
        found.update(a for a in p.args if not bound.get(a))
        return
    fields, subj, binder, inside, outside, _ = BINDING[type(p)]
    vals = fields(p)
    if subj is not None and not bound.get(x := vals[subj]):
        found.add(x)
    if binder is not None:
        b = vals[binder]
        bound[b] = bound.get(b, 0) + 1
        for i in inside:
            _free(vals[i], found, bound)
        bound[b] -= 1
    for i in outside:
        _free(vals[i], found, bound)


def rebuilt(p: Process) -> Process:
    """A copy of p with the same channels that shares no node with it, and so
    keeps no free-name set."""
    *vals, span = BINDING[type(p)].fields(p)
    return type(p)(*(rebuilt(v) if isinstance(v, Process) else v for v in vals), span=span)


def subterms(p: Process) -> list[Process]:
    """p and every subterm occurrence of p."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        out.append(q)
        todo.extend(v for v in BINDING[type(q)].fields(q) if isinstance(v, Process))
    return out


def free_names_agree(p: Process, rng: random.Random) -> bool:
    """`free_names` agrees with the reference walk on a copy of p that keeps
    no set, and on another copy once the set of one of its subterms, chosen
    by rng, is kept: a kept set that depended on the order of calls would
    differ in one of the two."""
    cold, primed = rebuilt(p), rebuilt(p)
    free_names(rng.choice(subterms(primed)))
    return all(free_names(q) == free_names_walk(q) for q in (cold, primed))


def subformula_leq(phi: MuFormula, psi: MuFormula) -> bool:
    """phi occurs as a subtree of psi (reflexive)."""
    if phi == psi:
        return True
    return any(subformula_leq(phi, c) for c in formula_children(psi))


def min_formula(formulas: Iterable[MuFormula]) -> MuFormula | None:
    """The subformula-least element, if one exists."""
    items = list(formulas)
    for cand in items:
        if all(subformula_leq(cand, other) for other in items):
            return cand
    return None


def is_nu(phi: MuFormula) -> bool:
    return isinstance(phi, Nu)


def is_positive(t: ty.SessionType) -> bool:
    """Positive types describe outputs (close, send, select, client pools)."""
    return isinstance(t, (ty.One, ty.Zero, ty.Client, ty.Tensor, ty.Plus))


def depth(t: ty.SessionType) -> int:
    return 1 + max(map(depth, ty.children(t)), default=0)


def random_any_type(rng: random.Random, depth: int = 3) -> ty.SessionType:
    """Arbitrary type tree over the full grammar (for structural properties)."""
    if depth <= 1:
        return rng.choice((ty.ONE, ty.BOT, ty.Top(), ty.Zero()))
    c = rng.randrange(10)
    if c < 4:
        return rng.choice((ty.ONE, ty.BOT, ty.Top(), ty.Zero()))
    if c < 6:
        ctor = rng.choice((ty.Server, ty.Client))
        return ctor(random_any_type(rng, depth - 1))
    ctor = rng.choice((ty.Tensor, ty.Par, ty.Plus, ty.With))
    return ctor(random_any_type(rng, depth - 1), random_any_type(rng, depth - 1))


def dual_formula(phi: MuFormula) -> MuFormula:
    """Involution; propositional variables are self-dual (formulas are closed
    when dualized, so this is harmless)."""
    match phi:
        case Var(_):
            return phi
        case Mu(x, b) | Nu(x, b):
            return (Nu if isinstance(phi, Mu) else Mu)(x, dual_formula(b))
    return ty._DUAL[type(phi)](*map(dual_formula, ty.children(phi)))


def disjoint(a: Address, b: Address) -> bool:
    return not prefix_leq(a, b) and not prefix_leq(b, a)


def stream_at(s: AddressStream, n: int) -> int:
    """The n-th address of the stream s."""
    return s.offset + n * s.step


def param_types(defn: Definition) -> tuple[ty.SessionType, ...]:
    return tuple(t for _, t in defn.params)


def step_all(p: Process, defs: Program) -> list[tuple[runtime.RedexInfo, Process]]:
    """Every one-step reduct under the full semantics, canonicalized once per
    orbit: the (step, target) pairs of one state in `runtime.explore`."""
    forms: dict[object, Process] = {}
    out = []
    for st in runtime.enabled_steps(p, defs):
        q = forms.get(st.orbit)
        if q is None:
            q = forms[st.orbit] = canonical_form(st.reduct)
        out.append((st.info, q))
    return out


def unfold(p: Process, prog: Program) -> Process:
    """`unfold_head` at every position reachable through cuts only."""
    p = unfold_head(p, prog)
    if isinstance(p, Cut):
        return Cut(p.chan, p.anno, unfold(p.left, prog), unfold(p.right, prog), span=p.span)
    return p


def refreshing_unfold_head(p: Process, prog: Program) -> Process:
    """The unfolding rule with every unfolding built afresh, all its binders
    refreshed: what `process.unfold_head` keeps one of per invocation."""
    while isinstance(p, Call) and call_depth(p, prog):
        p = instantiate(prog.defs[p.name], p.args)
    return p


def uid_free_repr(p: Process) -> str:
    """The repr of p with its free channels renamed to uid 0, so that it does
    not depend on the ids drawn before p's program was parsed."""
    return repr(rename(p, {c: ChannelName(c.name, 0) for c in free_names(p)}))


def threads(p: Process) -> int:
    """Number of unguarded guards: cuts add their sides, everything else is one."""
    if isinstance(p, Cut):
        return threads(p.left) + threads(p.right)
    return 1


def channels(p: Process) -> int:
    """Number of unguarded restrictions."""
    if isinstance(p, Cut):
        return 1 + channels(p.left) + channels(p.right)
    return 0


def find_state(g: runtime.ReductionGraph, p: Process) -> int | None:
    """The id of the state that is p's canonical form, if g has one, hashed
    as `runtime` hashes the states it adds."""
    return g._find(*runtime.canonical_hashed(p))


def simulate_step(exposed, cut_obj, reduct, ctx, prog, kind: str) -> SimulationReport:
    """`proofs.simulate_step` from scratch: the exposed term and the reduct
    each get their own derivation and their own proof graph, and the
    bisimulation compares every node pair."""
    d1 = check(exposed, ctx, prog)
    enc1 = encode_derivation(d1)
    dnid = next((nid for nid, n in d1.nodes.items() if n.process is cut_obj), None)
    if dnid is None:
        return SimulationReport(kind, 0, False, "redex cut not found in derivation")
    g1, cut = enc1.graph, enc1.deriv_to_proof[dnid]
    n = PRINCIPAL_STEPS[kind]
    try:
        for _ in range(n):
            principal_reduce_at(g1, cut)
    except NotPrincipalError as e:
        return SimulationReport(kind, n, False, f"principal reduction failed: {e}")
    ok = proof_bisimilar(g1, encode_derivation(check(reduct, ctx, prog)).graph)
    return SimulationReport(kind, n, ok, "" if ok else "reduced proof differs from reduct's encoding")


def depth_canonical(p: Process) -> tuple[tuple, Process]:
    """The structural key and canonical form of p as `csll.canon` made them
    before binders were named by height: one pass from scratch, a bound
    channel keyed by the absolute level of its binder, and every binder
    named by its depth, `ChannelName("c", -(level + 1))`.  Its forms print
    as `csll.canon`'s do, and two terms get equal forms from both exactly
    together."""
    return _depth_canon(p, {}, 0)


def _depth_canon(p: Process, env: dict[ChannelName, int | None], depth: int) -> tuple[tuple, Process]:
    def named(c: ChannelName) -> tuple[tuple, ChannelName]:
        level = env.get(c)
        return (("f", c.name, c.uid), c) if level is None else (("b", level), ChannelName("c", -(level + 1)))

    t = type(p)
    binder = ChannelName("c", -(depth + 1))
    if t is Cut:
        b = p.chan
        old, env[b] = env.get(b), depth
        (lk, lf), (rk, rf) = _depth_canon(p.left, env, depth + 1), _depth_canon(p.right, env, depth + 1)
        env[b] = old
        if rk < lk:
            anno = ty.dual(p.anno)
            return ("cut", ty.type_key(anno), rk, lk), Cut(binder, anno, rf, lf, span=p.span)
        return ("cut", ty.type_key(p.anno), lk, rk), Cut(binder, p.anno, lf, rf, span=p.span)
    if t is Cons:
        ck, x = named(p.chan)
        cells = []
        node: Process = p
        while type(node) is Cons and node.chan == p.chan:
            old, env[node.session] = env.get(node.session), depth
            cells.append((*_depth_canon(node.client, env, depth + 1), node.span))
            env[node.session] = old
            node = node.pool
        key, form = _depth_canon(node, env, depth)
        for ckey, client, span in reversed(sorted(cells, key=itemgetter(0))):
            key, form = ("cons", ck, ckey, key), Cons(x, binder, client, form, span=span)
        return key, form
    if t is Call:
        args = [named(a) for a in p.args]
        return ("call", p.name, tuple(k for k, _ in args)), Call(p.name, tuple(a for _, a in args), span=p.span)
    fields, subj, bound, inside, outside, scalars = BINDING[t]
    *vals, span = fields(p)
    sk, vals[subj] = named(vals[subj])
    key = [t.__name__.lower(), sk, *(vals[i] for i in scalars)]
    if bound is not None:
        b = vals[bound]
        old, env[b] = env.get(b), depth
        vals[bound] = binder
        for i in inside:
            k, vals[i] = _depth_canon(vals[i], env, depth + 1)
            key.append(k)
        env[b] = old
    for i in outside:
        k, vals[i] = _depth_canon(vals[i], env, depth)
        key.append(k)
    return tuple(key), t(*vals, span=span)


def pretty_reference(p: Process) -> str:
    """`printer.pretty_process` as it was before a pool printed in one loop
    and each cell kept its text: one recursive render per node, keeping no
    text and reading no free-name set kept on a term."""
    namer = printer._Namer()
    for c in sorted(free_names_walk(p)):
        namer.bind(c)
    return _reference(p, namer, 0)


def _reference(p: Process, n: printer._Namer, indent: int) -> str:
    limit, block = 2 * printer._INLINE_LIMIT, printer._block
    pad = "  " * (indent + 1)
    match p:
        case Call(name, args):
            return f"{name}({', '.join(map(n.of, args))})"
        case Close(c) | Fail(c) | Nil(c):
            return f"{printer._WORDS[type(p)]} {n.of(c)}"
        case Wait(c, body):
            return f"wait {n.of(c)}; " + _reference(body, n, indent)
        case Select(c, tag, body):
            return f"{n.of(c)}.in{tag}; " + _reference(body, n, indent)
        case Join(c, y, body):
            head = f"recv {n.of(c)}("
            yd = n.bind(y)
            out = f"{head}{yd}); " + _reference(body, n, indent)
            n.unbind(y, yd)
            return out
        case Fork(x, y, body, rest) | Cons(x, y, body, rest):
            yd = n.bind(y)
            text = block(_reference(body, n, indent), indent)
            n.unbind(y, yd)
            return f"{printer._WORDS[type(p)]} {n.of(x)}({yd}){text}; " + _reference(rest, n, indent)
        case Case(c, left, right):
            left, right = _reference(left, n, indent + 1), _reference(right, n, indent + 1)
            one_line = f"case {n.of(c)} {{ in1: {left} ; in2: {right} }}"
            if "\n" not in one_line and len(one_line) <= limit:
                return one_line
            return f"case {n.of(c)} {{\n{pad}in1: {left} ;\n{pad}in2: {right}\n" + "  " * indent + "}"
        case Server(x, y, accept, idle):
            yd = n.bind(y)
            accept = _reference(accept, n, indent + 1)
            n.unbind(y, yd)
            idle = _reference(idle, n, indent + 1)
            return f"server {n.of(x)}({yd}) " + block(accept, indent) + " idle " + block(idle, indent)
        case Cut(x, anno, left, right):
            xd = n.bind(x)
            left, right = _reference(left, n, indent + 1), _reference(right, n, indent + 1)
            n.unbind(x, xd)
            head = f"new {xd} : {printer.pretty_type(anno)} "
            one_line = head + "{ " + left + " | " + right + " }"
            if "\n" not in one_line and len(one_line) <= limit:
                return one_line
            return head + "{\n" + pad + left + "\n" + pad + "| " + right + "\n" + "  " * indent + "}"
    raise TypeError(p)


class MatchChecker(_Checker):
    """The checker's rules as one ten-arm structural `match`: the reference
    that `_Checker.check`, which dispatches on the constructor, must agree
    with node for node and diagnostic for diagnostic."""

    def check(self, p: Process, ctx: TypeContext, path: dict[str, tuple[int, tuple[ChannelName, ...]]]) -> int:
        nid = next(self.ids)
        tag = None
        edges: list[DerivEdge] = []
        premises: tuple[tuple[Process, TypeContext], ...] = ()  # (process, context)
        row = GUARDS.get(type(p))
        if row is not None:
            rule, x = row.rule, p.chan
            t = _subject_type(p, ctx, row)
            rest = {c: v for c, v in ctx.items() if c != x}
        match p:
            case Call(name, args):
                rule = "call"
                _callee(p, ctx, self.prog)
                if name in path:
                    anc_id, anc_args = path[name]
                    edges.append(DerivEdge(anc_id, True, tuple(zip(args, anc_args))))
                else:
                    premises = ((self.prog.unfolding(name, args), dict(ctx)),)
                    path = {**path, name: (nid, args)}
            case Cut(x, anno, first, second):
                rule = "cut"
                if x in ctx:
                    raise _err("scope", "cut", f"cut rebinds channel {x.name} already in context", p.span)
                left, right = split_context(ctx, free_names(first), free_names(second), p.span)
                premises = ((first, {**left, x: anno}), (second, {**right, x: ty.dual(anno)}))
            case Close() | Nil():
                if rest:
                    raise _err("linearity", rule, f"unused channel(s) {sorted(c.name for c in rest)}", p.span)
            case Fail():  # the top rule absorbs any context
                pass
            case Wait(_, body):
                premises = ((body, rest),)
            case Join(_, y, body):
                if y in ctx:
                    raise _err("scope", rule, f"recv rebinds channel {y.name} already in context", p.span)
                premises = ((body, {**rest, y: t.left, x: t.right}),)
            case Fork(_, y, first, second) | Cons(_, y, first, second):
                if y in ctx:
                    word = "send" if rule == "tensor" else "client"
                    raise _err("scope", rule, f"{word} rebinds channel {y.name} already in context", p.span)
                a, b = (t.left, t.right) if rule == "tensor" else (t.inner, t)
                left, right = split_context(rest, free_names(first) - {y}, free_names(second), p.span, rule)
                premises = ((first, {**left, y: a}), (second, {**right, x: b}))
            case Select(_, tag, body):
                premises = ((body, {**ctx, x: t.left if tag == 1 else t.right}),)
            case Case(_, first, second):
                premises = ((first, {**ctx, x: t.left}), (second, {**ctx, x: t.right}))
            case Server(_, y, accept, idle):
                if y in ctx:
                    raise _err("scope", rule, f"server rebinds channel {y.name} already in context", p.span)
                premises = ((accept, {**ctx, y: t.inner}), (idle, rest))
            case _:
                raise _err("type-mismatch", "?", f"cannot type {type(p).__name__}", p.span)
        for q, q_ctx in premises:  # a tree edge stores no lineage
            edges.append(DerivEdge(self.check(q, q_ctx, path), False, None))
        self.nodes[nid] = DerivNode(nid, p, _ctx_tuple(ctx), rule, tuple(edges),
                                    x if row else None, tag)
        return nid


class RefreshingProgram(Program):
    """A program whose every unfolding is built afresh, all its binders
    refreshed: the checker's call rule as it was before it read the
    program's one unfolding per invocation (`Program.unfolding`)."""

    def unfolding(self, name: str, args: tuple[ChannelName, ...]) -> Process:
        return instantiate(self.defs[name], args)


def check_outcomes(prog: Program, terms: Iterable[tuple[Process, TypeContext]] | None = None) -> list:
    """For each definition of prog, or each (term, context) of terms, its
    derivation's `path_doc` and validity report, or its diagnostic."""
    runs = ([partial(definition_derivation, defn, prog) for defn in prog.all_definitions()] if terms is None
            else [partial(check, p, ctx, prog) for p, ctx in terms])
    out = []
    for derive in runs:
        try:
            d = derive()
        except TypeCheckError as e:
            out.append(e.diagnostic)
        else:
            out.append((path_doc(d), validity_check(d)))
    return out


def reference_lineage(d: Derivation, nid: int, i: int) -> tuple[tuple[ChannelName, ChannelName], ...]:
    """The lineage of tree edge i of node nid, from the two judgments alone:
    the identity on the channels both contexts hold, by uid."""
    n = d.nodes[nid]
    below = d.nodes[n.premises[i].target]
    both = {c for c, _ in n.context} & {c for c, _ in below.context}
    return tuple((c, c) for c in sorted(both, key=lambda c: c.uid))


def lineage_faults(d: Derivation) -> list[str]:
    """Where d departs from keeping a lineage only where its judgments do not
    determine it: a tree edge that stores one or whose `Derivation.lineage`
    is not `reference_lineage`, or a back edge whose lineage is not its
    call's arguments against its target call's, position by position."""
    faults = []
    for nid, n in sorted(d.nodes.items()):
        for i, e in enumerate(n.premises):
            if e.back:
                target = d.nodes[e.target].process
                if d.lineage(nid, i) != tuple(zip(n.process.args, target.args)):
                    faults.append(f"back edge {nid}.{i} keeps {e.down}")
            elif e.down is not None:
                faults.append(f"tree edge {nid}.{i} stores {e.down}")
            elif d.lineage(nid, i) != reference_lineage(d, nid, i):
                faults.append(f"tree edge {nid}.{i} has lineage {d.lineage(nid, i)}")
    return faults


def match_faults(d: Derivation, defn: Definition, prog: Program) -> list[str]:
    """Where d, defn's derivation, departs from `MatchChecker`'s, which
    derives every call afresh: the node ids in insertion order, a node's
    record, or a node's process object (but the root's, which each
    derivation of a callable definition builds afresh)."""
    root = Call(defn.name, defn.param_names, span=defn.body.span) if defn.name in prog.defs else defn.body
    ref = check(root, dict(defn.params), prog, MatchChecker(prog)).nodes
    if list(d.nodes) != list(ref):
        return [f"node ids in insertion order {list(d.nodes)[:6]}..., the reference's {list(ref)[:6]}..."]
    return [f"node {nid} departs from the reference's" for nid, n in d.nodes.items()
            if n != ref[nid] or n.process is not ref[nid].process and nid != d.root]


def encoding_faults(d: Derivation) -> list[str]:
    """Where `proofs.encode_derivation(d)` departs from encoding d with no
    copy recorded, which runs the rules at every node: the root, the proof
    nodes in insertion order (ids, sequents, edges with their back-edge
    maps, principal, side, cut pair), or the derivation-to-proof pairs in
    insertion order."""
    got, ref = encode_derivation(d), encode_derivation(Derivation(d.nodes, d.root))
    if got.graph.root != ref.graph.root:
        return [f"root {got.graph.root}, the reference's {ref.graph.root}"]
    if list(got.graph.nodes) != list(ref.graph.nodes):
        return [f"proof ids in insertion order {list(got.graph.nodes)[:6]}..., "
                f"the reference's {list(ref.graph.nodes)[:6]}..."]
    faults = [f"proof node {pid} departs from the reference's" for pid, n in got.graph.nodes.items()
              if n != ref.graph.nodes[pid]]
    if list(got.deriv_to_proof.items()) != list(ref.deriv_to_proof.items()):
        faults.append("the derivation-to-proof pairs depart from the reference's")
    return faults


def path_doc(d: Derivation) -> list:
    """d's nodes, in id order, with each channel named by its display name
    and the id of the node where it enters the path from the root: equal for
    two derivations that differ only in the ids of bound channels.  Contexts
    and tree-edge lineages are sorted by those names; a back edge keeps
    argument order."""
    names: dict[int, dict[ChannelName, tuple[str, int]]] = {}  # per node: channel -> its name
    docs = {}
    todo: list[tuple[int, dict[ChannelName, tuple[str, int]]]] = [(d.root, {})]
    while todo:  # an ancestor is named before the nodes below it
        nid, above = todo.pop()
        n = d.nodes[nid]
        env = names[nid] = {c: above.get(c, (c.name, nid)) for c, _ in n.context}
        premises = []
        for i, e in enumerate(n.premises):
            if e.back:
                down = [(env[s], names[e.target][t]) for s, t in e.down]
            else:
                lineage = reference_lineage(d, nid, i)
                down = sorted((env[s], t.name) for s, t in lineage)
                todo.append((e.target, {t: env[s] for s, t in lineage}))
            premises.append((e.target, e.back, down))
        docs[nid] = (n.rule, None if n.subject is None else env[n.subject], n.tag,
                     sorted((env[c], t) for c, t in n.context), premises)
    return sorted(docs.items())


@ty.record
class ReferenceToken:
    kind: str
    text: str
    span: SourceSpan


REFERENCE_SYMBOLS = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ":": "COLON", ";": "SEMI", ",": "COMMA", "|": "PIPE", ".": "DOT",
    "=": "EQUALS", "+": "PLUS", "&": "AMP", "*": "STAR",
    "1": "ONE", "0": "ZERO",  # type constants; identifiers may not start with a digit
}


def reference_tokenize(text: str, filename: str = "<input>") -> list[ReferenceToken]:
    """The lexer that scans one character at a time, keeping the line and
    column by hand: the reference that `parser.tokenize`, one compiled
    pattern, must agree with in every token's text and span and in every
    error."""
    toks: list[ReferenceToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if ch in REFERENCE_SYMBOLS:
            toks.append(ReferenceToken(REFERENCE_SYMBOLS[ch], ch, span))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            span = SourceSpan(filename, line, col, len(word))
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            toks.append(ReferenceToken(kind, word, span))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    toks.append(ReferenceToken("EOF", "", SourceSpan(filename, line, col)))
    return toks
