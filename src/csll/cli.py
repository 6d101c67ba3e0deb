"""Command-line driver: check, run, explore, export-proof, gen-link.

Exit codes: 0 success; 1 syntax/scope/type error (run and explore check the
whole program first) or unreadable input; 2 validity failure (or refused
proof export); 4 step budget exhausted; 5 internal error (the derivation and
proof validity checkers disagree); 6 the input nests too deeply to process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .linkgen import gen_link
from .parser import CsllError, parse_program, parse_type
from .printer import pretty_process, pretty_program
from .process import Program
from .proofs import (
    encode_derivation, nu_thread_witness, proof_to_dot, proof_to_json_dict,
    proof_validity,
)
from .runtime import check_fair_termination, run
from .typecheck import ValidityReport, check_program


def _load(path: str) -> Program:
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text, path)


def _validity_json(v: ValidityReport | None) -> dict | None:
    if v is None:
        return None
    return {"verdict": v.verdict, "reason": v.reason, "witness": v.witness}


def cmd_check(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    report = check_program(prog)
    rows = []
    worst = 0
    disagree = []
    for r in report.defs:
        row: dict = {"name": r.name, "well_typed": r.well_typed,
                     "diagnostics": [str(d) for d in r.diagnostics],
                     "validity": _validity_json(r.validity)}
        if not r.well_typed:
            worst = max(worst, 1)
        else:
            enc = encode_derivation(r.derivation)
            pv = proof_validity(enc.graph)
            row["proof_validity"] = _validity_json(pv)
            row["agreement"] = pv.verdict == r.validity.verdict
            if not row["agreement"]:
                disagree.append(r.name)
            if r.validity.verdict == "invalid":
                worst = max(worst, 2)
        rows.append(row)
    verdict = {0: "accepted", 1: "type-error", 2: "invalid"}[worst]
    if args.format == "json":
        print(json.dumps({"file": args.file, "verdict": verdict, "definitions": rows}, indent=2))
    else:
        for row in rows:
            if not row["well_typed"]:
                print(f"{row['name']}: TYPE ERROR")
                for d in row["diagnostics"]:
                    print(f"  {d}")
                continue
            v = row["validity"]
            print(f"{row['name']}: {v['verdict']} ({v['reason']})")
            if v["witness"]:
                print(f"  witness cycle through nodes {v['witness']}")
        print(f"verdict: {verdict}")
    if disagree:
        print(f"internal error: derivation and proof validity disagree on {', '.join(disagree)}",
              file=sys.stderr)
        return 5
    return worst


def _runnable(prog: Program) -> bool:
    """Whether prog has a main and is well typed; if not, why goes to stderr."""
    if prog.main is None:
        print("error: no main in program", file=sys.stderr)
        return False
    report = check_program(prog)
    for r in report.defs:
        for d in r.diagnostics:
            print(str(d), file=sys.stderr)
    return report.well_typed


def cmd_run(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if not _runnable(prog):
        return 1
    trace = run(prog.main.body, dict(prog.main.params), prog,
                scheduler=args.scheduler, seed=args.seed, max_steps=args.max_steps)
    if args.format == "json":
        print(json.dumps({
            "file": args.file, "scheduler": trace.scheduler, "seed": trace.seed,
            "steps": [{"index": s.index, "rule": s.info.kind, "channel": s.info.channel,
                       "state": s.state_hash} for s in trace.steps],
            "final": pretty_process(trace.final),
            "terminated": trace.terminated, "truncated": trace.truncated,
        }, indent=2))
    else:
        for s in trace.steps:
            print(s.line())
        status = "terminal" if trace.terminated else "step budget exhausted at"
        print(f"{status}: {pretty_process(trace.final)}")
    return 4 if trace.truncated else 0


def cmd_explore(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    if not _runnable(prog):
        return 1
    ft = check_fair_termination(prog.main.body, prog,
                                max_states=args.max_states, max_depth=args.max_depth)
    g = ft.graph
    normals = sorted(g.normal_forms())
    if args.format == "dot":
        print(g.to_dot())
        return 0
    if args.format == "json":
        doc = g.to_json_dict()
        doc["fair_termination"] = ft.verdict
        print(json.dumps(doc, indent=2))
    else:
        edge_count = sum(len(v) for v in g.edges.values())
        print(f"states: {len(g.states)}  edges: {edge_count}  normal forms: {len(normals)}")
        for sid in normals:
            print(f"  normal[{sid}]: {pretty_process(g.states[sid])}")
        print(f"fair termination: {ft.verdict}")
        if g.partial:
            print("warning: exploration truncated by bounds; verdicts are partial",
                  file=sys.stderr)
    return 0


def cmd_export_proof(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    defs = {d.name: d for d in prog.all_definitions()}
    if args.definition not in defs:
        print(f"error: no definition named {args.definition!r}", file=sys.stderr)
        return 1
    report = check_program(prog)
    rep = report.report_for(args.definition)
    if not rep.well_typed:
        for d in rep.diagnostics:
            print(str(d), file=sys.stderr)
        return 1
    if not rep.validity.is_valid and not args.force:
        print(f"error: derivation of {args.definition} is {rep.validity.verdict}; "
              "use --force to export anyway", file=sys.stderr)
        return 2
    g = encode_derivation(rep.derivation).graph
    if args.format == "dot":
        out = proof_to_dot(g, highlight=nu_thread_witness(g))
    else:
        doc = proof_to_json_dict(g)
        doc["validity"] = _validity_json(proof_validity(g))
        out = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(out + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(out)
    return 0


def cmd_gen_link(args: argparse.Namespace) -> int:
    t = parse_type(args.type)
    prog = gen_link(t)
    report = check_program(prog)
    if not report.accepted:
        print("internal error: generated forwarders failed checking", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"type": args.type,
                          "definitions": [d.name for d in prog.defs.values()],
                          "program": pretty_program(prog)}, indent=2))
    else:
        print(pretty_program(prog), end="")
    return 0


def _bound(text: str) -> int:
    """The value of a --max-* option: an integer that is not negative."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csll", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt=("text", "json")) -> None:
        p.add_argument("--format", choices=fmt, default="text")

    p = sub.add_parser("check", help="typecheck and validate every definition")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="execute main under a scheduler")
    p.add_argument("file")
    p.add_argument("--scheduler", choices=("det", "random"), default="det")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_bound, default=1000)
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="explore the reduction graph of main")
    p.add_argument("file")
    p.add_argument("--max-states", type=_bound, default=100_000)
    p.add_argument("--max-depth", type=_bound, default=10_000)
    common(p, fmt=("text", "json", "dot"))
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("export-proof", help="encode a definition's derivation")
    p.add_argument("file")
    p.add_argument("definition")
    p.add_argument("--force", action="store_true",
                   help="export even when the derivation is invalid")
    p.add_argument("-o", "--output", default=None)
    common(p, fmt=("json", "dot"))
    p.set_defaults(fn=cmd_export_proof)

    p = sub.add_parser("gen-link", help="emit forwarder definitions for a type")
    p.add_argument("type")
    common(p)
    p.set_defaults(fn=cmd_gen_link)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CsllError, OSError) as e:  # an OSError names its file: missing, a directory, unreadable
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: {args.file} is not UTF-8 text: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: the input nests too deeply to process (Python recursion limit "
              f"{sys.getrecursionlimit()})", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
