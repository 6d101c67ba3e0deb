#!/usr/bin/env python3
"""Benchmark of the csll pipelines: check, run, explore and the fuzz sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository and measures the library in ./src.
One process, one thread, closed loop: each public call starts after the
previous one returned.  Passes over the workload's items repeat until S
seconds have gone, in an order shuffled from the seed; each metric is built
from per-item medians over the passes.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics, with --trace 1
with the per-layer metrics from a run that alternates untraced and traced
passes.  A result file with the run's context, counts, failures and (traced)
spans is written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

# Machine-speed calibration.  The speed of the machine this benchmark was
# built on drifted by up to 50% over seconds to minutes, in CPU time as much
# as in wall time, and a whole run could sit in a slow phase.  So a short
# pure-Python probe runs between items (at most every PROBE_EVERY_S) and
# every time is reported at the reference speed: measured seconds times
# PROBE_REF_S / (probe time around the item).  The raw times and the probes
# are in the result file.
PROBE_REF_S = 0.0020  # speed_probe() on the reference machine in its fast phase
PROBE_EVERY_S = 0.25

# name -> unit; the order is the order of printing
END_TO_END = {
    "setup_s": "s", "check_s": "s", "explore_s": "s", "run_steps_per_s": "1/s",
    "corr_steps_per_s": "1/s", "programs_per_s": "1/s", "program_s.p50": "s",
    "program_s.p95": "s", "decided_ratio": "ratio", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

# per-layer time metric -> the spans it sums
LAYER_SPANS = {
    "parser.parse_s": ("parser.parse", "parser.parse_type"),
    "printer.pretty_s": ("printer.pretty",),
    "typecheck.derive_s": ("typecheck.derive",),
    "typecheck.validity_s": ("typecheck.validity",),
    "typecheck.recheck_s": ("typecheck.recheck",),
    "proofs.encode_s": ("proofs.encode",),
    "proofs.validity_s": ("proofs.validity",),
    "proofs.simulate_s": ("proofs.simulate",),
    "runtime.explore_s": ("runtime.explore",),
    "runtime.fair_s": ("runtime.fair",),
    "runtime.steps_s": ("runtime.steps",),
    "canon.canonical_form_s": ("canon.canonical_form",),
    "runtime.run_s": ("runtime.run",),
    "runtime.deadlock_s": ("runtime.deadlock",),
    "gen.gen_program_s": ("gen.gen_program",),
    "linkgen.gen_link_s": ("linkgen.gen_link",),
}

SPAN_METRIC = {span: metric for metric, spans in LAYER_SPANS.items() for span in spans}

# per-layer count metric -> the item count keys it sums (prefix match)
LAYER_COUNTS = {
    "parser.tokens": "tokens", "typecheck.deriv_nodes": "deriv_nodes.",
    "typecheck.reducts_rechecked": "reducts_rechecked", "proofs.proof_nodes": "proof_nodes.",
    "proofs.simulated_steps": "corr_steps", "runtime.states": "states", "runtime.edges": "edges",
    "canon.calls": "canon_calls", "runtime.trace_steps": "run_steps",
    "linkgen.definitions": "definitions",
}

# per-layer metrics not in seconds
LAYER_UNITS = {**{metric: "count" for metric in LAYER_COUNTS},
               "runtime.new_state_ratio": "ratio", "trace.overhead_pct": "%"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes this script starts
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import csll  # noqa: F401
    import ops
    import workloads
    return ops, workloads


# --- context -----------------------------------------------------------------------


class _Node:
    __slots__ = ("a", "b", "h")

    def __init__(self, a, b):
        self.a, self.b, self.h = a, b, hash((a, b))


def speed_probe() -> float:
    """Fastest of three runs of a fixed pure-Python loop (about 2 ms each).

    It fills a dict with small objects under tuple keys and sorts strings,
    the kind of work csll does, so it slows down with the machine the way
    csll does; a plain arithmetic loop left about 1.5 times the scatter."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i & 255)] = _Node(i, i)
        ",".join(sorted(str(i * 7919 % 10007) for i in range(3000)))
        best = min(best, time.perf_counter() - t0)
    return best


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "probe_s": statistics.median(speed_probe() for _ in range(9)),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


# --- child processes ------------------------------------------------------------------


def _child(args: argparse.Namespace, flag: str, env: dict | None = None) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), flag, "--workload", args.workload,
           "--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, env=env)
    if out.returncode != 0:
        raise RuntimeError(f"{flag} child failed ({out.returncode}): {out.stderr.strip()[-500:]}")
    return out.stdout.strip().splitlines()[-1]


def setup_probe(args: argparse.Namespace) -> None:
    """Time `import csll` and input generation in a fresh interpreter."""
    p0 = speed_probe()
    t0 = time.perf_counter()
    _, workloads = _import_library()
    workloads.build(args.workload, args.seed)
    dt = time.perf_counter() - t0
    print(repr(dt * PROBE_REF_S / ((p0 + speed_probe()) / 2)))


def other_hash_seed_counts(args: argparse.Namespace) -> dict:
    """Every item's counts from one traced pass under another PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    try:
        counts = json.loads(_child(args, "--counts-only", env))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return {"pythonhashseed": env["PYTHONHASHSEED"], "error": str(exc)[-500:]}
    return {"pythonhashseed": env["PYTHONHASHSEED"], "counts": counts}


# --- measurement -----------------------------------------------------------------------


class Runner:
    """Runs items, probing the machine's speed between them to calibrate."""

    def __init__(self, ops):
        self.ops = ops
        self.probes = [speed_probe()]
        self._probed_at = time.perf_counter()
        self._pending: list = []

    def execute(self, item, tracer, results: dict) -> None:
        r = self.ops.run_item(item, tracer)
        results.setdefault(item.name, []).append(r)
        self._pending.append(r)
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate the items run since the last probe by the probes around them."""
        self.probes.append(speed_probe())
        self._probed_at = time.perf_counter()
        probe = (self.probes[-2] + self.probes[-1]) / 2
        for r in self._pending:
            r.probe, r.scale = probe, PROBE_REF_S / probe
        self._pending = []


def measure(ops, items, args) -> tuple[dict, dict, list, list]:
    """Untraced (and with --trace, traced) passes until the deadline.

    Returns per-item results of untraced and traced passes, the tracers and
    the speed probes."""
    rng = random.Random(f"order:{args.workload}:{args.seed}")
    runner = Runner(ops)
    plain: dict = {}
    traced: dict = {}
    tracers = []
    deadline = time.perf_counter() + args.seconds
    first = True
    pair_s = 0.0
    while first or time.perf_counter() + (pair_s if args.trace else 0.0) < deadline:
        order = items[:]
        rng.shuffle(order)
        if args.trace:
            # whole pairs only, and none that would end well past the deadline
            t0 = time.perf_counter()
            for item in order:
                runner.execute(item, ops.NullTracer(), plain)
            tracers.append(ops.Tracer())
            for item in order:
                runner.execute(item, tracers[-1], traced)
            pair_s = time.perf_counter() - t0
        else:
            for item in order:
                if not first and time.perf_counter() >= deadline:
                    break
                runner.execute(item, ops.NullTracer(), plain)
        first = False
    runner.flush()
    return plain, traced, tracers, runner.probes


def _median_of(results: list, key: str) -> float | None:
    xs = [r.times[key] * r.scale for r in results if key in r.times]
    return statistics.median(xs) if xs else None


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when every operation behind b crashed (the failure shows in ok_ratio)."""
    return a / b if b else 0.0


def distinct_ops(items, runs: dict, count_bad: dict) -> tuple[int, int]:
    """Operations attempted and failed, each counted once however many passes ran.

    An operation is one op of one item, or one item's count check.  Counting
    executions instead would make both numbers depend on how many passes fit
    in the time, and the share that failed on where the last pass was cut."""
    total = sum(len(it.ops) for it in items) + len(items)
    failed = len({(it.name, k) for it in items for r in runs.get(it.name, []) for k in r.failed_ops})
    return total, failed + len(count_bad)


def end_to_end(items, plain: dict, count_bad: dict) -> tuple[dict, dict]:
    def total(kind: str) -> float:
        return sum(m for it in items if (m := _median_of(plain[it.name], kind)) is not None)

    first = {it.name: plain[it.name][0] for it in items}
    run_steps = sum(r.run_steps for r in first.values())
    corr_steps = sum(r.corr_steps for r in first.values())
    per_item = [_median_of(plain[it.name], "item") for it in items]
    ops_total, ops_failed = distinct_ops(items, plain, count_bad)
    verdicts = sum(r.verdicts for r in first.values())
    decided = sum(r.decided for r in first.values())
    quantiles = statistics.quantiles(per_item, n=20, method="inclusive")
    values = {
        "check_s": total("check"),
        "explore_s": total("explore"),
        "run_steps_per_s": _ratio(run_steps, total("run")),
        "corr_steps_per_s": _ratio(corr_steps, total("corr")),
        "programs_per_s": _ratio(len(items), sum(per_item)),
        "program_s.p50": quantiles[9],
        "program_s.p95": quantiles[18],
        "decided_ratio": _ratio(decided, verdicts),
        "ok_ratio": (ops_total - ops_failed) / ops_total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"program_s.samples": len(per_item), "run_steps": run_steps,
              "corr_steps": corr_steps, "ops": ops_total, "ops_failed": ops_failed,
              "verdicts": verdicts, "decided": decided,
              "passes_per_item": {it.name: len(plain[it.name]) for it in items}}
    return values, detail


def span_totals(tracer, members: dict[str, str | None]) -> tuple[dict, dict, dict]:
    """Per span name: total and self time; per (name, member): total time."""
    spans = tracer.spans
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    per_member: dict[str, float] = {}
    for name, t0, t1, parent, res in spans:
        dt = (t1 - t0) * res.scale
        total[name] = total.get(name, 0.0) + dt
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + dt
        member = members.get(res.name)
        if member:
            key = f"{SPAN_METRIC.get(name, name)}.{member}"
            per_member[key] = per_member.get(key, 0.0) + dt
    self_t: dict[str, float] = {}
    for i, (name, t0, t1, _, res) in enumerate(spans):
        self_t[name] = self_t.get(name, 0.0) + (t1 - t0) * res.scale - child.get(i, 0.0)
    return total, self_t, per_member


def per_layer(items, plain: dict, traced: dict, tracers: list) -> tuple[dict, dict]:
    members = {it.name: it.member for it in items}
    totals = [span_totals(t, members) for t in tracers]
    values: dict[str, float] = {}
    for metric, names in LAYER_SPANS.items():
        values[metric] = statistics.median(sum(t[0].get(n, 0.0) for n in names) for t in totals)
    first = [traced[it.name][0].counts for it in items]
    for metric, key in LAYER_COUNTS.items():
        values[metric] = sum(v for c in first for k, v in c.items()
                             if k == key or (key.endswith(".") and k.startswith(key)))
    explored = sum(1 for it in items for op in it.ops if op.kind == "explore")
    values["runtime.new_state_ratio"] = _ratio(values["runtime.states"] - explored, values["runtime.edges"])
    untraced = sum(_median_of(plain[it.name], "item") for it in items)
    with_spans = sum(_median_of(traced[it.name], "item") for it in items)
    values["trace.overhead_pct"] = 100.0 * _ratio(with_spans - untraced, untraced)
    member_keys = sorted({k for t in totals for k in t[2]})
    detail = {
        "traced_passes": len(tracers),
        "span_total_s": {k: statistics.median(t[0].get(k, 0.0) for t in totals)
                         for k in sorted({k for t in totals for k in t[0]})},
        "span_self_s": {k: statistics.median(t[1].get(k, 0.0) for t in totals)
                        for k in sorted({k for t in totals for k in t[1]})},
        "per_member_s": {k: statistics.median(t[2].get(k, 0.0) for t in totals) for k in member_keys},
        "untraced_item_s": untraced, "traced_item_s": with_spans,
    }
    return values, detail


def check_counts(workloads, items, plain: dict, traced: dict, other: dict | None) -> dict[str, list[str]]:
    """Exact counts must repeat across passes, match the pinned values and
    not depend on the hash seed.  Returns the mismatches per item."""
    pinned = workloads.pinned()
    out = {}
    for it in items:
        bad = []
        runs = plain[it.name] + traced.get(it.name, [])
        base = runs[0].counts
        for r in runs[1:]:
            common = base.keys() & r.counts.keys()
            if any(base[k] != r.counts[k] for k in common):
                bad.append(f"{it.name}: counts differ between passes")
                break
        for k, v in pinned.get(it.name, {}).items():
            if base.get(k) != v:
                bad.append(f"{it.name}: count {k} = {base.get(k)}, pinned {v}")
        if other is not None and "counts" in other:
            mine = traced[it.name][0].counts
            theirs = other["counts"].get(it.name)
            if mine != theirs:
                bad.append(f"{it.name}: counts differ under PYTHONHASHSEED={other['pythonhashseed']}")
        if bad:
            out[it.name] = bad
    return out


def _unique(items: list) -> list:
    return list({it.name: it for it in items}.values())


def counts_only(args: argparse.Namespace) -> None:
    ops, workloads = _import_library()
    items = _unique(workloads.build(args.workload, args.seed))
    tr = ops.Tracer()
    print(json.dumps({it.name: ops.run_item(it, tr).counts for it in items}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "csll" / "__init__.py").is_file():
        print(f"error: no csll package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.counts_only:
        counts_only(args)
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    ctx = context()
    setup = [float(_child(args, "--setup-probe")) for _ in range(SETUP_SAMPLES)]
    ops, workloads = _import_library()
    pass_items = workloads.build(args.workload, args.seed)
    items = _unique(pass_items)

    t0 = time.perf_counter()
    plain, traced, tracers, probes = measure(ops, pass_items, args)
    measured_s = time.perf_counter() - t0
    other = other_hash_seed_counts(args) if args.trace else None

    count_bad = check_counts(workloads, items, plain, traced, other)
    failures = [f for it in items for r in plain[it.name] + traced.get(it.name, []) for f in r.failures]
    failures += [f for fs in count_bad.values() for f in fs]
    child_failed = other is not None and "error" in other
    if child_failed:
        failures.append(f"counts under PYTHONHASHSEED={other['pythonhashseed']} unavailable: "
                        f"{other['error']}")
    unexpected = sorted({f for f in failures if f not in workloads.KNOWN_DEFECTS})
    # distinct operations of untraced and traced passes, and the hash-seed child
    runs = {it.name: plain[it.name] + traced.get(it.name, []) for it in items}
    attempted, failed = distinct_ops(items, runs, count_bad)
    attempted += args.trace
    failed += child_failed

    e2e, e2e_detail = end_to_end(items, plain, count_bad)
    e2e = {"setup_s": statistics.median(setup), **e2e}
    if args.trace:
        values, layer_detail = per_layer(items, plain, traced, tracers)
        metrics = {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")} for k, v in values.items()}
    else:
        layer_detail = None
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": ctx, "measured_s": measured_s,
        "setup_samples_s": setup, "probe_ref_s": PROBE_REF_S, "speed_probes_s": probes,
        "raw_samples": {it.name: [[r.probe, r.times] for r in plain[it.name]] for it in items},
        "end_to_end": e2e, "end_to_end_detail": e2e_detail,
        "per_layer": layer_detail, "metrics": metrics,
        "counts": {it.name: plain[it.name][0].counts for it in items},
        "other_hash_seed": other and other["pythonhashseed"],
        "failures": sorted(set(failures)), "unexpected_failures": unexpected,
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
    }
    if tracers:
        result["spans_last_traced_pass"] = [(n, t0, t1, parent, res.name)
                                            for n, t0, t1, parent, res in tracers[-1].spans]
    out_path.write_text(json.dumps(result, indent=1, default=list) + "\n", encoding="utf-8")

    for f in sorted(set(failures)):
        tag = "known defect" if f in workloads.KNOWN_DEFECTS else "FAILURE"
        print(f"{tag}: {f}")
    print(f"program_s samples = {e2e_detail['program_s.samples']}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
