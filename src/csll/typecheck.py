"""Linear typechecker building finite cyclic derivations, plus the validity check.

The typing rules are applied syntax-directedly.  Each guard construct's
rule is one `GUARDS` row: its name, the subject's connective, how a mismatch
names it, whether the premises split the rest of the context, and each
premise's binder and subject types; the generator, the proof encoder and the
reducer read the rows too.  `_Checker.check` dispatches on the constructor
and lists each case's premises as (process, context) pairs, each context a
dict of its own, the reference a test pins to the table; it checks them in
order, allocating node ids in preorder.  A tree edge's lineage is the
identity on the channels both contexts hold, so the edge stores none and
`Derivation.lineage` computes it from the two judgments.  A binder may not
shadow a channel of the context (cut, recv, send, server and client
reject one).
Invocations recurse into the program's one unfolding of the definition on
the call's arguments (`Program.unfolding`), in the call's own context, and
the call node holds its unfolding root's context tuple; when the same
definition is already being checked on the current ancestor path, a back
edge storing the argument correspondence is emitted instead, which keeps
every derivation finite.
Every call with the same arguments shares the unfolding's binders, and that
is sound: at a call the context is exactly the arguments, the unfolding
renames a binder only where it would capture one, and no unfolding nests
inside another of the same body on one path.

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

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from . import types as ty
from .cycles import closure_check
from .printer import pretty_type
from .process import (
    Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork, Join,
    Nil, Process, Program, Select, Server, SourceSpan, Wait, free_names,
)

TypeContext = dict[ChannelName, ty.SessionType]


@ty.record
class Diagnostic:
    kind: str  # "type-mismatch" | "linearity" | "arity" | "zero-subject" | "scope"
    rule: str
    message: str
    span: SourceSpan | None = None

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}error[{self.kind}/{self.rule}]: {self.message}"


class TypeCheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _err(kind: str, rule: str, message: str, span: SourceSpan | None) -> TypeCheckError:
    return TypeCheckError(Diagnostic(kind, rule, message, span))


def _ctx_tuple(ctx: TypeContext) -> tuple[tuple[ChannelName, ty.SessionType], ...]:
    return tuple(sorted(ctx.items()))


@ty.record(slots=True)
class DerivEdge:
    target: int
    back: bool
    # a back edge's argument correspondence (source-judgment channel ->
    # target-judgment channel), a type-preserving bijection; None on a tree
    # edge, whose lineage its two judgments determine (`Derivation.lineage`)
    down: tuple[tuple[ChannelName, ChannelName], ...] | None


@ty.record(slots=True)
class DerivNode:
    nid: int
    process: Process
    context: tuple[tuple[ChannelName, ty.SessionType], ...]  # sorted by channel
    rule: str  # one of: call cut one bot top tensor par plus with server client done
    premises: tuple[DerivEdge, ...]
    subject: ChannelName | None = None
    tag: int | None = None  # selected branch for the plus rule


@dataclass
class Derivation:
    nodes: dict[int, DerivNode]
    root: int

    def lineage(self, nid: int, i: int) -> tuple[tuple[ChannelName, ChannelName], ...]:
        """The lineage along premise edge i of node nid: a back edge's
        argument correspondence, or, on a tree edge, the identity on the
        channels both judgments hold, in uid order (a channel continues into
        a premise whose context holds it; absent if consumed or dropped)."""
        e = self.nodes[nid].premises[i]
        if e.back:
            return e.down
        below = dict(self.nodes[e.target].context)
        return tuple([(c, c) for c in sorted(dict(self.nodes[nid].context), key=_UID) if c in below])


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


class Guard(NamedTuple):
    rule: str
    connective: type  # the constructor the subject's type must have
    shown: str        # how a type-mismatch message names that constructor
    split: bool = False  # whether the premises split the rest of the context
    # per alternative, its premises as (binder type, subject type): positions
    # in (*children, the type itself), None where the premise lacks the channel
    alts: tuple[tuple[tuple[int | None, int | None], ...], ...] = ((),)


# Each guard construct's typing rule once, read by the checker, gen, proofs and runtime.
GUARDS: dict[type, Guard] = {
    Close: Guard("one", ty.One, "1 (close)"),
    Fail: Guard("top", ty.Top, "top (fail)"),
    Nil: Guard("done", ty.Client, "a client pool"),
    Wait: Guard("bot", ty.Bot, "bot (wait)", False, (((None, None),),)),
    Join: Guard("par", ty.Par, "an input pair (recv)", False, (((0, 1),),)),
    Fork: Guard("tensor", ty.Tensor, "an output pair (send)", True, (((0, None), (None, 1)),)),
    Select: Guard("plus", ty.Plus, "a selection (.in1/.in2)", False, (((None, 0),), ((None, 1),))),
    Case: Guard("with", ty.With, "a branch (case)", False, (((None, 0), (None, 1)),)),
    Server: Guard("server", ty.Server, "a server", False, (((0, -1), (None, None)),)),
    Cons: Guard("client", ty.Client, "a client pool", True, (((0, None), (None, -1)),)),
}

_UID = attrgetter("uid")


def _subject_type(p: Process, ctx: TypeContext, row: Guard) -> ty.SessionType:
    """The type of p's subject, which must be in ctx and have row's connective."""
    rule, x = row.rule, p.chan
    if x not in ctx:
        raise _err("scope", rule, f"channel {x.name} is not in the context", p.span)
    t = ctx[x]
    if isinstance(t, row.connective):
        return t
    if isinstance(t, ty.Zero):
        raise _err("zero-subject", rule,
                   f"channel {x.name} has the empty type 0; no action can introduce it", p.span)
    raise _err("type-mismatch", rule,
               f"channel {x.name} has type {pretty_type(t)} but is used as {row.shown}", p.span)


def _unbound(y: ChannelName, ctx: TypeContext, rule: str, word: str, span: SourceSpan | None) -> None:
    """A binder may not shadow a context channel: the premise would drop its entry."""
    if y in ctx:
        raise _err("scope", rule, f"{word} rebinds channel {y.name} already in context", span)


def _callee(p: Call, ctx: TypeContext, prog: Program) -> None:
    """Check that p invokes a definition of prog on exactly the channels of
    ctx, each of its parameter's type."""
    name, args, span = p.name, p.args, p.span
    defn = prog.defs.get(name)
    if defn is None:
        raise _err("scope", "call", f"undefined process {name!r}", span)
    if len(args) != len(defn.params):
        raise _err("arity", "call", f"{name} takes {len(defn.params)} argument(s), got {len(args)}", span)
    passed = set(args)
    if len(passed) != len(args):
        raise _err("linearity", "call", f"repeated argument in call to {name}", span)
    if passed != ctx.keys():
        missing = sorted({c.name for c in ctx.keys() - passed})
        extra = sorted({c.name for c in passed - ctx.keys()})
        what = [f"{label} channel(s) {names}" for label, names in (("unused", missing), ("unknown", extra))
                if names]
        raise _err("linearity", "call", f"call to {name}: {', '.join(what)}", span)
    for a, (_, expected) in zip(args, defn.params):
        t = ctx[a]
        if t is not expected and t != expected:
            raise _err("type-mismatch", "call", f"argument {a.name} of {name} has type "
                       f"{pretty_type(t)}, annotation says {pretty_type(expected)}", span)


class _Checker:
    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes: dict[int, DerivNode] = {}
        self.ids = itertools.count()

    def check(self, p: Process, ctx: TypeContext, path: dict[str, tuple[int, tuple[ChannelName, ...]]]) -> int:
        nid = next(self.ids)
        cls, x, tag = type(p), None, None
        edges: list[DerivEdge] = []
        premises: tuple[tuple[Process, TypeContext], ...] = ()  # (process, context)
        if cls is Call:
            rule, name, args = "call", p.name, p.args
            _callee(p, ctx, self.prog)
            if name in path:
                anc_id, anc_args = path[name]
                edges.append(DerivEdge(anc_id, True, tuple(zip(args, anc_args))))
            else:  # the unfolding's judgment is the call's: it is checked in the call's
                # context dict (no rule mutates its input), and both nodes hold one tuple
                target = self.check(self.prog.unfolding(name, args), ctx, {**path, name: (nid, args)})
                self.nodes[nid] = DerivNode(nid, p, self.nodes[target].context, rule,
                                            (DerivEdge(target, False, None),))
                return nid
        elif cls is Cut:
            rule, y = "cut", p.chan
            _unbound(y, ctx, rule, rule, p.span)
            left, right = split_context(ctx, free_names(p.left), free_names(p.right), p.span)
            left[y], right[y] = p.anno, ty.dual(p.anno)
            premises = ((p.left, left), (p.right, right))
        elif (row := GUARDS.get(cls)) is None:
            raise _err("type-mismatch", "?", f"cannot type {cls.__name__}", p.span)
        else:
            rule, x = row.rule, p.chan
            t = _subject_type(p, ctx, row)
            if cls is Select:  # select and case retype the subject in place
                tag, body = p.tag, ctx.copy()
                body[x] = t.left if tag == 1 else t.right
                premises = ((p.body, body),)
            elif cls is Case:
                first, second = ctx.copy(), ctx.copy()
                first[x], second[x] = t.left, t.right
                premises = ((p.left, first), (p.right, second))
            elif cls is not Fail:  # the top rule absorbs any context
                rest = ctx.copy()
                del rest[x]
                if cls is Wait:
                    premises = ((p.body, rest),)
                elif cls is Join:
                    _unbound(p.payload, ctx, rule, "recv", p.span)
                    rest[p.payload], rest[x] = t.left, t.right
                    premises = ((p.body, rest),)
                elif cls is Server:
                    _unbound(p.session, ctx, rule, "server", p.span)
                    accept = ctx.copy()
                    accept[p.session] = t.inner
                    premises = ((p.accept, accept), (p.idle, rest))
                elif cls is Fork or cls is Cons:
                    y, first, second, a, b = ((p.payload, p.payload_body, p.cont, t.left, t.right) if cls is Fork
                                              else (p.session, p.client, p.pool, t.inner, t))
                    _unbound(y, ctx, rule, "send" if cls is Fork else "client", p.span)
                    left, right = split_context(rest, free_names(first) - {y}, free_names(second), p.span, rule)
                    left[y], right[x] = a, b
                    premises = ((first, left), (second, right))
                elif rest:  # close and done end the context
                    raise _err("linearity", rule, f"unused channel(s) {sorted(c.name for c in rest)}", p.span)
        for q, q_ctx in premises:  # a tree edge's lineage is `Derivation.lineage`'s to compute
            edges.append(DerivEdge(self.check(q, q_ctx, path), False, None))
        self.nodes[nid] = DerivNode(nid, p, _ctx_tuple(ctx), rule, tuple(edges), x, tag)
        return nid


def check(p: Process, ctx: TypeContext, prog: Program, checker: _Checker | None = None) -> Derivation:
    """Typecheck p against ctx (into a given checker's node store); raises TypeCheckError on failure."""
    checker = checker or _Checker(prog)
    missing = free_names(p) - set(ctx)
    if missing:
        names = sorted(c.name for c in missing)
        raise _err("scope", "judgment", f"free channel(s) {names} missing from the context", p.span)
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


def _closure_report(graph, arcs, valid: str, cycle: str, composite: str) -> ValidityReport:
    """`cycles.closure_check`'s verdict as a report: valid, or invalid with a
    shortest witness walk that is either a simple or a composite cycle."""
    walk = closure_check(graph, arcs)
    if walk is None:
        return ValidityReport("valid", valid)
    return ValidityReport("invalid", cycle if len(set(walk)) == len(walk) else composite, walk)


def validity_check(d: Derivation) -> ValidityReport:
    """Decide the criterion of the module docstring: a thread is a channel
    lineage, and it progresses at a server whose subject it is."""
    def arcs(nid: int, i: int) -> list[tuple[ChannelName, ChannelName, bool]]:
        node = d.nodes[nid]
        server = node.rule == "server"
        return [(s, t, server and s == node.subject) for s, t in d.lineage(nid, i)]

    return _closure_report(d, arcs,
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
            rep.derivation = d = definition_derivation(defn, prog)
            rep.validity = validity_check(d)
        except TypeCheckError as e:
            rep.diagnostics.append(e.diagnostic)
        reports.append(rep)
    return ProgramReport(reports)
