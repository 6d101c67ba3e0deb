"""The pipelines a pass applies to an item, as calls into csll's public API.

`run_item` executes an item's ops, times each op, checks its outputs against
the known answers and returns the op times, exact counts and failures.  With
a `Tracer` it records a span around every public call instead of calling the
coarse entry points (`check_program`, `check_fair_termination`), and then
replays explored and traced states through `enabled_steps` and
`canonical_form` under a `replay` span, to split exploration into step
enumeration, canonicalisation and the residual.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter

from csll.canon import canonical_form
from csll.gen import gen_program
from csll.linkgen import gen_link
from csll.parser import parse_program, parse_type, tokenize
from csll.printer import pretty_process, pretty_program
from csll.proofs import PRINCIPAL_STEPS, encode_derivation, proof_validity, simulate_step
from csll.runtime import (
    check_fair_termination, enabled_steps, explore, is_close_normal,
    is_weakly_terminating, run, step_det,
)
from csll.typecheck import TypeCheckError, check, check_program, definition_derivation, validity_check

from workloads import Item, Op

_NULL = contextlib.nullcontext()


class NullTracer:
    on = False

    def span(self, name: str):
        return _NULL


class Tracer:
    """In-memory spans: (name, start, end, parent index, ItemResult of the item)."""

    on = True

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.item: ItemResult | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.item)


@dataclass
class ItemResult:
    name: str
    times: dict[str, float] = field(default_factory=dict)  # op kind -> s; "item" = whole item
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed_ops: set[str] = field(default_factory=set)
    verdicts: int = 0          # validity verdicts produced
    decided: int = 0           # ... that are not "inconclusive"
    run_steps: int = 0
    corr_steps: int = 0
    probe: float | None = None  # speed probe around the item (run.py)
    scale: float = 1.0          # machine-speed calibration of the times (run.py)


class _State:
    """What the ops of one item share: the program and the explored graph."""

    def __init__(self, item: Item):
        self.item = item
        self.prog = None
        self.graph = None
        self.texts: list[str] = []  # every text handed to the parser
        self.traces: list = []      # (trace states, deterministic) for replay


# --- the timed part of each op: public calls only ------------------------------


def _parse(st: _State, text: str, tr):
    st.texts.append(text)
    with tr.span("parser.parse"):
        return parse_program(text)


def _check_defs(prog, tr, proofs: bool) -> list[tuple]:
    """Per definition: (name, well_typed, derivation verdict, proof verdict,
    derivation nodes, proof nodes)."""
    rows = []
    if not tr.on:
        for r in check_program(prog).defs:
            if not r.well_typed:
                rows.append((r.name, False, None, None, 0, 0))
                continue
            pv = nodes = None
            if proofs:
                enc = encode_derivation(r.derivation)
                pv = proof_validity(enc.graph).verdict
                nodes = len(enc.graph.nodes)
            rows.append((r.name, True, r.validity.verdict, pv, len(r.derivation.nodes), nodes))
        return rows
    derivations = []
    with tr.span("typecheck.check_program"):
        for defn in prog.all_definitions():
            try:
                with tr.span("typecheck.derive"):
                    d = definition_derivation(defn, prog)
            except TypeCheckError:
                rows.append([defn.name, False, None, None, 0, 0])
                derivations.append(None)
                continue
            with tr.span("typecheck.validity"):
                v = validity_check(d).verdict
            rows.append([defn.name, True, v, None, len(d.nodes), None])
            derivations.append(d)
    for row, d in zip(rows, derivations):
        if proofs and d is not None:
            with tr.span("proofs.encode"):
                enc = encode_derivation(d)
            with tr.span("proofs.validity"):
                row[3] = proof_validity(enc.graph).verdict
            row[5] = len(enc.graph.nodes)
    return [tuple(r) for r in rows]


def _op_check(st: _State, op: Op, tr):
    item = st.item
    if item.text is not None:
        text = item.text
    else:
        with tr.span("printer.pretty"):
            text = pretty_program(st.prog)
    st.prog = _parse(st, text, tr)
    return _check_defs(st.prog, tr, proofs=True)


def _op_explore(st: _State, op: Op, tr):
    prog = st.prog
    depth = min(op.max_states, 10_000)
    if not tr.on:
        ft = check_fair_termination(prog.main.body, prog, max_states=op.max_states, max_depth=depth)
        st.graph = ft.graph
        return ft.verdict
    with tr.span("runtime.explore"):
        g = explore(prog.main.body, prog, op.max_states, depth)
    st.graph = g
    # the verdict rule of check_fair_termination, one public call per state
    with tr.span("runtime.fair"):
        verdict = "fairly-terminating"
        for sid in range(len(g.states)):
            wt = is_weakly_terminating(sid, g)
            if wt == "no":
                return "not-fairly-terminating"
            if wt == "unknown":
                verdict = "unknown"
    return "unknown" if g.partial else verdict


def _op_deadlock(st: _State, op: Op, tr):
    """States with no deterministic step (criterion 5 skips bare closes)."""
    stuck = []
    with tr.span("runtime.deadlock"):
        for sid, state in enumerate(st.graph.states):
            if not is_close_normal(state, st.prog) and not step_det(state, st.prog):
                stuck.append(sid)
    return stuck


def _op_recheck(st: _State, op: Op, tr):
    g, prog = st.graph, st.prog
    ctx = dict(prog.main.params)
    rejected = checked = 0
    with tr.span("typecheck.recheck"):
        for sid in sorted(g.expanded):
            for _, tid in g.edges[sid]:
                checked += 1
                try:
                    check(g.states[tid], ctx, prog)
                except TypeCheckError:
                    rejected += 1
    return checked, rejected


def _op_run(st: _State, op: Op, tr):
    prog = st.prog
    with tr.span("runtime.run"):
        trace = run(prog.main.body, dict(prog.main.params), prog,
                    scheduler=op.scheduler, seed=op.seed, max_steps=op.max_steps)
    st.traces.append((trace.states, op.scheduler == "det"))
    return trace


def _op_corr(st: _State, op: Op, tr):
    """Walk the deterministic trace, checking each step against its proof image."""
    prog = st.prog
    ctx = dict(prog.main.params)
    cur = prog.main.body
    steps = mismatched = 0
    while steps < op.max_steps:
        with tr.span("runtime.enabled_steps"):
            enabled = enabled_steps(cur, prog, deterministic=True)
        if not enabled:
            break
        s = enabled[0]
        with tr.span("proofs.simulate"):
            rep = simulate_step(s.exposed, s.cut, s.reduct, ctx, prog, s.info.kind)
        steps += 1
        if not (rep.matched and rep.steps == PRINCIPAL_STEPS[s.info.kind]):
            mismatched += 1
        cur = s.reduct
    return steps, mismatched, cur


def _op_link(st: _State, op: Op, tr):
    """gen-link's round trip: print the family, parse it back, check it."""
    with tr.span("printer.pretty"):
        text = pretty_program(st.prog)
    prog = _parse(st, text, tr)
    return len(prog.defs), _check_defs(prog, tr, proofs=False)


_OPS = {"check": _op_check, "explore": _op_explore, "deadlock": _op_deadlock,
        "recheck": _op_recheck, "run": _op_run, "corr": _op_corr, "link": _op_link}


def _load(st: _State, tr) -> None:
    item = st.item
    if item.gen_seed is not None:
        with tr.span("gen.gen_program"):
            st.prog = gen_program(item.gen_seed)
    elif item.link_type is not None:
        with tr.span("parser.parse_type"):
            t = parse_type(item.link_type)
        with tr.span("linkgen.gen_link"):
            st.prog = gen_link(t)
    elif item.ops[0].kind != "check":
        st.prog = _parse(st, item.text, tr)


# --- known answers (untimed) -----------------------------------------------------


def _final(p) -> str:
    return pretty_process(canonical_form(p))


def _verify(st: _State, op: Op, out, res: ItemResult) -> list[str]:
    item, e = st.item, op.expect
    bad: list[str] = []
    if op.kind in ("check", "link"):
        if op.kind == "link":
            ndefs, rows = out
            res.counts["definitions"] = ndefs
        else:
            rows = out
        for name, typed, dv, pv, dn, pn in rows:
            want = item.defs.get(name, "valid")
            if not typed:
                bad.append(f"{name}: not well typed")
                continue
            res.counts[f"deriv_nodes.{name}"] = dn
            for side, v in (("derivation", dv), ("proof", pv)):
                if v is None:
                    continue
                res.verdicts += 1
                if v == "inconclusive":
                    continue
                res.decided += 1
                if v != want:
                    bad.append(f"{name}: {side} verdict {v}, expected {want}")
            if pn is not None:
                res.counts[f"proof_nodes.{name}"] = pn
        missing = set(item.defs) - {r[0] for r in rows}
        bad += [f"{name}: definition missing" for name in sorted(missing)]
    elif op.kind == "explore":
        g = st.graph
        states, edges = len(g.states), sum(len(v) for v in g.edges.values())
        res.counts["states"], res.counts["edges"] = states, edges
        normals = {pretty_process(g.states[i]) for i in g.normal_forms()}
        if g.partial:
            bad.append("exploration truncated by its bounds")
        if out != e["verdict"]:
            bad.append(f"fair termination {out}, expected {e['verdict']}")
        if "states" in e and states != e["states"]:
            bad.append(f"{states} states, expected {e['states']}")
        if normals != set(e["normals"]):
            bad.append(f"normal forms {sorted(normals)}, expected {sorted(e['normals'])}")
    elif op.kind == "deadlock":
        stuck = [sid for sid in out if pretty_process(st.graph.states[sid]) not in e["terminal"]]
        if stuck:
            bad.append(f"states {stuck[:5]} are stuck under the deterministic semantics")
    elif op.kind == "recheck":
        checked, rejected = out
        res.counts["reducts_rechecked"] = checked
        if rejected:
            bad.append(f"{rejected} of {checked} reducts fail to re-typecheck")
    elif op.kind == "run":
        n = len(out.steps)
        res.run_steps += n
        res.counts["run_steps"] = n
        if n != e["steps"] or out.terminated != e["terminated"]:
            bad.append(f"{n} steps, terminated={out.terminated}; expected {e['steps']}, {e['terminated']}")
        if "final" in e and _final(out.final) not in e["final"]:
            bad.append(f"final state {_final(out.final)!r} not in {sorted(e['final'])}")
    elif op.kind == "corr":
        steps, mismatched, cur = out
        res.corr_steps += steps
        res.counts["corr_steps"] = steps
        if mismatched:
            bad.append(f"{mismatched} of {steps} steps do not match PRINCIPAL_STEPS")
        if steps != e["steps"]:
            bad.append(f"{steps} correspondence steps, expected {e['steps']}")
        if "final" in e and _final(cur) not in e["final"]:
            bad.append(f"final state {_final(cur)!r} not in {sorted(e['final'])}")
    return bad


# --- replay (traced runs only) ------------------------------------------------------


def _replay(st: _State, tr, res: ItemResult) -> None:
    tokens = canon = 0
    with tr.span("replay"):
        for text in st.texts:
            with tr.span("parser.tokenize"):
                tokens += len(tokenize(text))
        walks = list(st.traces)
        if st.graph is not None:
            g = st.graph
            walks.append(([g.states[sid] for sid in sorted(g.expanded)], False))
        for states, det in walks:
            for state in states:
                with tr.span("runtime.steps"):
                    enabled = enabled_steps(state, st.prog, deterministic=det)
                for s in enabled:
                    with tr.span("canon.canonical_form"):
                        canonical_form(s.reduct)
                canon += len(enabled)
    res.counts["tokens"] = tokens
    res.counts["canon_calls"] = canon


def run_item(item: Item, tr) -> ItemResult:
    """Execute one item; exceptions and wrong answers are recorded, never raised."""
    res = ItemResult(item.name)
    st = _State(item)
    if tr.on:
        tr.item = res
    busy = 0.0
    kind = "load"
    try:
        t0 = perf_counter()
        _load(st, tr)
        busy += perf_counter() - t0
        for op in item.ops:
            kind = op.kind
            t0 = perf_counter()
            out = _OPS[op.kind](st, op, tr)
            dt = perf_counter() - t0
            busy += dt
            res.times[op.kind] = res.times.get(op.kind, 0.0) + dt
            bad = _verify(st, op, out, res)
            if bad:
                res.failed_ops.add(op.kind)
                res.failures += [f"{item.name} {op.kind}: {b}" for b in bad]
        kind = "replay"
        if tr.on:
            _replay(st, tr, res)
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        res.failed_ops.add(kind)
        res.failures.append(f"{item.name} {kind}: {type(exc).__name__}: {exc}"[:300])
    res.times["item"] = busy
    return res
