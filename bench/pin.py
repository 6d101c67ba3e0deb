#!/usr/bin/env python3
"""Regenerate bench/expected.json: the exact counts with no closed form.

    python3 bench/pin.py

Counts every item of every workload under two workload seeds and two
PYTHONHASHSEED values, and writes the counts only when all four agree.  Run
it only when the program is meant to change these counts, and say why in
the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, build  # noqa: E402

# counts only a traced pass records; untraced passes are checked without them
TRACE_ONLY_COUNTS = ("tokens", "canon_calls")


def counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--counts-only",
                          "--workload", workload, "--seed", str(seed)],
                         cwd=BENCH.parent, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    pinned: dict[str, dict] = {}
    for workload in WORKLOADS:
        names = [it.name for it in build(workload, 0)]
        runs = [counts(workload, seed, hs) for seed in (0, 1) for hs in ("0", "1")]
        for name in names:
            seen = [{k: v for k, v in r[name].items() if k not in TRACE_ONLY_COUNTS} for r in runs]
            if any(s != seen[0] for s in seen):
                print(f"error: counts of {name} ({workload}) depend on the seed or hash seed",
                      file=sys.stderr)
                return 1
            if name in pinned and pinned[name] != seen[0]:
                print(f"error: {name} counts differ between workloads", file=sys.stderr)
                return 1
            pinned[name] = seen[0]
    path = BENCH / "expected.json"
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pinned.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(pinned)} items to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
