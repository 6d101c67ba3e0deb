"""Linear typechecker building finite cyclic derivations, plus the validity check.

The typing rules are applied syntax-directedly.  Invocations recurse into the
definition body (renamed to the call's arguments); when the same definition is
already being checked on the current ancestor path, a back edge with the
argument correspondence is emitted instead, which keeps every derivation
finite.

Validity rules out derivations whose infinite unfoldings contain a branch
that stops witnessing a server on one fixed channel.  A thread is a channel
lineage: it follows rule premises and back-edge argument correspondences,
and dies where a channel is introduced (cut and session binders) or dropped
(the idle branch of a server).  A thread progresses at a server node whose
subject it is.  The derivation is valid exactly when every infinite path
carries a thread that progresses infinitely often; `cycles.closure_check`
decides this by size-change closure: every idempotent loop graph at a
back-edge target must have a progressing self-arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import types as ty
from .cycles import closure_check
from .process import (
    Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork, Join,
    Nil, Process, Program, Select, Server, SourceSpan, Wait, free_names,
    instantiate,
)

TypeContext = dict[ChannelName, ty.SessionType]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error"
    kind: str      # "type-mismatch" | "linearity" | "arity" | "zero-subject" | "scope"
    rule: str
    message: str
    span: SourceSpan | None = None

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}[{self.kind}/{self.rule}]: {self.message}"


class TypeCheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _err(kind: str, rule: str, message: str, span: SourceSpan | None) -> TypeCheckError:
    return TypeCheckError(Diagnostic("error", kind, rule, message, span))


@dataclass(frozen=True)
class Judgment:
    process: Process
    context: tuple[tuple[ChannelName, ty.SessionType], ...]


def _ctx_tuple(ctx: TypeContext) -> tuple[tuple[ChannelName, ty.SessionType], ...]:
    return tuple(sorted(ctx.items(), key=lambda kv: (kv[0].name, kv[0].uid)))


@dataclass(frozen=True)
class DerivEdge:
    target: int
    back: bool
    # lineage: source-judgment channel -> target-judgment channel.  For tree
    # edges this maps a conclusion channel to its continuation in the premise
    # (absent if consumed/dropped); for back edges it is the argument
    # correspondence, a type-preserving bijection.
    down: tuple[tuple[ChannelName, ChannelName], ...]


@dataclass(frozen=True)
class DerivNode:
    nid: int
    judgment: Judgment
    rule: str  # one of: call cut one bot top tensor par plus with server client done
    premises: tuple[DerivEdge, ...]
    subject: ChannelName | None = None
    tag: int | None = None  # selected branch for the plus rule


@dataclass
class Derivation:
    nodes: dict[int, DerivNode]
    root: int

    def node(self, nid: int) -> DerivNode:
        return self.nodes[nid]


def split_context(ctx: TypeContext, fn_left: frozenset[ChannelName], fn_right: frozenset[ChannelName],
                  span: SourceSpan | None = None, rule: str = "cut") -> tuple[TypeContext, TypeContext]:
    """Assign every context entry to the unique side whose free names use it."""
    left: TypeContext = {}
    right: TypeContext = {}
    for c, t in ctx.items():
        in_l, in_r = c in fn_left, c in fn_right
        if in_l and in_r:
            raise _err("linearity", rule, f"channel {c.name} is used by both sides", span)
        if not in_l and not in_r:
            raise _err("linearity", rule, f"channel {c.name} is not used", span)
        (left if in_l else right)[c] = t
    return left, right


def _identity_down(ctx: TypeContext, *drop: ChannelName) -> dict[ChannelName, ChannelName]:
    return {c: c for c in ctx if c not in drop}


class _Checker:
    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes: dict[int, DerivNode] = {}
        self.next_id = 0

    def new_id(self) -> int:
        nid = self.next_id
        self.next_id += 1
        return nid

    def emit(self, nid: int, p: Process, ctx: TypeContext, rule: str,
             premises: list[tuple[int | DerivEdge, dict[ChannelName, ChannelName]]] | None = None,
             subject: ChannelName | None = None, tag: int | None = None) -> int:
        edges = []
        for item, down in premises or []:
            if isinstance(item, DerivEdge):
                edges.append(item)
            else:
                edges.append(DerivEdge(item, False, tuple(sorted(down.items(), key=lambda kv: kv[0].uid))))
        self.nodes[nid] = DerivNode(nid, Judgment(p, _ctx_tuple(ctx)), rule, tuple(edges), subject, tag)
        return nid

    def check(self, p: Process, ctx: TypeContext, path: dict[str, tuple[int, tuple[ChannelName, ...]]]) -> int:
        nid = self.new_id()
        span = p.span

        def want(x: ChannelName, ctor: type, rule: str) -> ty.SessionType:
            if x not in ctx:
                raise _err("scope", rule, f"channel {x.name} is not in the context", span)
            t = ctx[x]
            if isinstance(t, ctor):
                return t
            if isinstance(t, ty.Zero):
                raise _err("zero-subject", rule,
                           f"channel {x.name} has the empty type 0; no action can introduce it", span)
            raise _err("type-mismatch", rule,
                       f"channel {x.name} has type {_ty_str(t)} but is used as {_ty_str_ctor(ctor)}", span)

        match p:
            case Call(name, args):
                defn = self.prog.defs.get(name)
                if defn is None:
                    raise _err("scope", "call", f"undefined process {name!r}", span)
                if len(args) != len(defn.params):
                    raise _err("arity", "call",
                               f"{name} takes {len(defn.params)} argument(s), got {len(args)}", span)
                if len(set(args)) != len(args):
                    raise _err("linearity", "call", f"repeated argument in call to {name}", span)
                if set(args) != set(ctx):
                    missing = {c.name for c in set(ctx) - set(args)}
                    extra = {c.name for c in set(args) - set(ctx)}
                    what = []
                    if missing:
                        what.append(f"unused channel(s) {sorted(missing)}")
                    if extra:
                        what.append(f"unknown channel(s) {sorted(extra)}")
                    raise _err("linearity", "call", f"call to {name}: {', '.join(what)}", span)
                for a, (_, expected) in zip(args, defn.params):
                    if ctx[a] != expected:
                        raise _err("type-mismatch", "call",
                                   f"argument {a.name} of {name} has type {_ty_str(ctx[a])}, "
                                   f"annotation says {_ty_str(expected)}", span)
                if name in path:
                    anc_id, anc_args = path[name]
                    corr = tuple(zip(args, anc_args))
                    back = DerivEdge(anc_id, True, corr)
                    return self.emit(nid, p, ctx, "call", [(back, {})])
                body = instantiate(defn, args)
                child = self.check(body, dict(ctx), {**path, name: (nid, args)})
                return self.emit(nid, p, ctx, "call", [(child, _identity_down(ctx))])

            case Close(x):
                want(x, ty.One, "one")
                self._exactly(ctx, {x}, "one", span)
                return self.emit(nid, p, ctx, "one", subject=x)

            case Fail(x):
                want(x, ty.Top, "top")
                return self.emit(nid, p, ctx, "top", subject=x)

            case Nil(x):
                want(x, ty.Client, "done")
                self._exactly(ctx, {x}, "done", span)
                return self.emit(nid, p, ctx, "done", subject=x)

            case Wait(x, body):
                want(x, ty.Bot, "bot")
                ctx2 = {c: t for c, t in ctx.items() if c != x}
                child = self.check(body, ctx2, path)
                return self.emit(nid, p, ctx, "bot", [(child, _identity_down(ctx, x))], subject=x)

            case Join(x, y, body):
                t = want(x, ty.Par, "par")
                ctx2 = {**{c: v for c, v in ctx.items() if c != x}, y: t.left, x: t.right}
                child = self.check(body, ctx2, path)
                return self.emit(nid, p, ctx, "par", [(child, _identity_down(ctx))], subject=x)

            case Fork(x, y, payload, cont):
                t = want(x, ty.Tensor, "tensor")
                rest = {c: v for c, v in ctx.items() if c != x}
                fl = free_names(payload) - {y}
                fr = free_names(cont) - {x}
                left, right = split_context(rest, fl, fr, span, "tensor")
                cl = self.check(payload, {**left, y: t.left}, path)
                cr = self.check(cont, {**right, x: t.right}, path)
                return self.emit(nid, p, ctx, "tensor",
                                 [(cl, _identity_down(left)),
                                  (cr, {**_identity_down(right), x: x})], subject=x)

            case Select(x, tag, body):
                t = want(x, ty.Plus, "plus")
                chosen = t.left if tag == 1 else t.right
                ctx2 = {**ctx, x: chosen}
                child = self.check(body, ctx2, path)
                return self.emit(nid, p, ctx, "plus", [(child, _identity_down(ctx))],
                                 subject=x, tag=tag)

            case Case(x, lbody, rbody):
                t = want(x, ty.With, "with")
                cl = self.check(lbody, {**ctx, x: t.left}, path)
                cr = self.check(rbody, {**ctx, x: t.right}, path)
                down = _identity_down(ctx)
                return self.emit(nid, p, ctx, "with", [(cl, down), (cr, down)], subject=x)

            case Server(x, y, accept, idle):
                t = want(x, ty.Server, "server")
                ctx_accept = {**ctx, y: t.inner}
                cl = self.check(accept, ctx_accept, path)
                ctx_idle = {c: v for c, v in ctx.items() if c != x}
                cr = self.check(idle, ctx_idle, path)
                return self.emit(nid, p, ctx, "server",
                                 [(cl, _identity_down(ctx)),
                                  (cr, _identity_down(ctx, x))], subject=x)

            case Cons(x, y, client, pool):
                t = want(x, ty.Client, "client")
                rest = {c: v for c, v in ctx.items() if c != x}
                fl = free_names(client) - {y}
                fr = free_names(pool) - {x}
                left, right = split_context(rest, fl, fr, span, "client")
                cl = self.check(client, {**left, y: t.inner}, path)
                cr = self.check(pool, {**right, x: t}, path)
                return self.emit(nid, p, ctx, "client",
                                 [(cl, _identity_down(left)),
                                  (cr, {**_identity_down(right), x: x})], subject=x)

            case Cut(x, anno, lbody, rbody):
                if x in ctx:
                    raise _err("scope", "cut", f"cut rebinds channel {x.name} already in context", span)
                fl = free_names(lbody) - {x}
                fr = free_names(rbody) - {x}
                left, right = split_context(ctx, fl, fr, span, "cut")
                cl = self.check(lbody, {**left, x: anno}, path)
                cr = self.check(rbody, {**right, x: ty.dual(anno)}, path)
                return self.emit(nid, p, ctx, "cut",
                                 [(cl, _identity_down(left)), (cr, _identity_down(right))])

        raise _err("type-mismatch", "?", f"cannot type {type(p).__name__}", span)

    def _exactly(self, ctx: TypeContext, allowed: set[ChannelName], rule: str, span) -> None:
        extra = set(ctx) - allowed
        if extra:
            names = sorted(c.name for c in extra)
            raise _err("linearity", rule, f"unused channel(s) {names}", span)


def _ty_str(t: ty.SessionType) -> str:
    from .printer import pretty_type
    return pretty_type(t)


def _ty_str_ctor(ctor: type) -> str:
    samples = {
        ty.One: "1 (close)", ty.Bot: "bot (wait)", ty.Top: "top (fail)",
        ty.Tensor: "an output pair (send)", ty.Par: "an input pair (recv)",
        ty.Plus: "a selection (.in1/.in2)", ty.With: "a branch (case)",
        ty.Server: "a server", ty.Client: "a client pool",
    }
    return samples.get(ctor, ctor.__name__)


def check(p: Process, ctx: TypeContext, prog: Program) -> Derivation:
    """Typecheck p against ctx; raises TypeCheckError on failure."""
    missing = free_names(p) - set(ctx)
    if missing:
        names = sorted(c.name for c in missing)
        raise _err("scope", "judgment", f"free channel(s) {names} missing from the context", p.span)
    checker = _Checker(prog)
    root = checker.check(p, dict(ctx), {})
    return Derivation(checker.nodes, root)


# --- validity ---------------------------------------------------------------


@dataclass
class ValidityReport:
    verdict: str  # "valid" | "invalid"
    reason: str
    witness: list[int] | None = None

    @property
    def is_valid(self) -> bool:
        return self.verdict == "valid"


def _closure_report(root: int, out_edges, valid: str, cycle: str, composite: str) -> ValidityReport:
    """`cycles.closure_check`'s verdict as a report: valid, or invalid with a
    shortest witness walk that is either a simple or a composite cycle."""
    walk = closure_check(root, out_edges).counterexample
    if walk is None:
        return ValidityReport("valid", valid)
    return ValidityReport("invalid", cycle if len(set(walk)) == len(walk) else composite, walk)


def validity_check(d: Derivation) -> ValidityReport:
    """Decide the criterion of the module docstring: a thread is a channel
    lineage, and it progresses at a server whose subject it is."""
    def out_edges(nid: int):
        node = d.node(nid)
        for e in node.premises:
            yield e.target, e.back, [(s, t, node.rule == "server" and s == node.subject)
                                     for s, t in e.down]

    return _closure_report(d.root, out_edges,
                           "every cycle recurs through a server on a fixed channel",
                           "cycle with no server whose subject channel recurs",
                           "composite cycle with no recurring server channel")


# --- whole programs ----------------------------------------------------------


@dataclass
class DefReport:
    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    validity: ValidityReport | None = None
    derivation: Derivation | None = None

    @property
    def well_typed(self) -> bool:
        return not self.diagnostics

    @property
    def accepted(self) -> bool:
        return self.well_typed and self.validity is not None and self.validity.is_valid


@dataclass
class ProgramReport:
    defs: list[DefReport]

    @property
    def accepted(self) -> bool:
        return all(r.accepted for r in self.defs)

    @property
    def well_typed(self) -> bool:
        return all(r.well_typed for r in self.defs)

    def report_for(self, name: str) -> DefReport:
        for r in self.defs:
            if r.name == name:
                return r
        raise KeyError(name)


def definition_derivation(defn: Definition, prog: Program) -> Derivation:
    """Derivation rooted at an invocation of defn on its own parameters."""
    if defn.name in prog.defs:
        root_proc: Process = Call(defn.name, defn.param_names, span=defn.body.span)
    else:
        root_proc = defn.body  # main is not callable
    return check(root_proc, dict(defn.params), prog)


def check_program(prog: Program) -> ProgramReport:
    reports = []
    for defn in prog.all_definitions():
        rep = DefReport(defn.name)
        try:
            d = definition_derivation(defn, prog)
            rep.derivation = d
            rep.validity = validity_check(d)
        except TypeCheckError as e:
            rep.diagnostics.append(e.diagnostic)
        reports.append(rep)
    return ProgramReport(reports)
