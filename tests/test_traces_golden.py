"""Golden random runs on wide pools, byte for byte.

For seeds 0-2 of `run --scheduler random` on lock_16 and on the cas mix
["TF", "FT"] * 4, the file pins each trace line and the repr of each
canonical state, with the free channels renamed to uid 0 (their parsed uids
depend on what was parsed before).  A random run draws any cell of a pool,
so these pin that a run goes on from the drawn cell, including one deep in
an orbit of many interchangeable clients.

Regenerate with `PYTHONPATH=src python -m tests.test_traces_golden` (only
when a change of runs is intended).
"""

import json
from pathlib import Path

from csll.parser import parse_program
from csll.runtime import run

from .conftest import cas_text, lock_text
from .oracles import uid_free_repr

GOLDEN = Path(__file__).resolve().parent / "golden" / "traces.json"
SEEDS = range(3)


def programs():
    yield "lock_16", parse_program(lock_text(16))
    yield "cas_TF_FT_x4", parse_program(cas_text(["TF", "FT"] * 4))


def traces_doc() -> dict:
    doc = {}
    for name, prog in programs():
        for seed in SEEDS:
            tr = run(prog.main.body, {}, prog, "random", seed=seed)
            doc[f"{name}:random:{seed}"] = {"lines": [s.line() for s in tr.steps],
                                            "states": [uid_free_repr(s) for s in tr.states]}
    return doc


def test_golden_random_traces_on_wide_pools():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = traces_doc()
    assert got.keys() == golden.keys()
    for key, doc in got.items():
        assert doc["lines"] == golden[key]["lines"], key
        assert doc["states"] == golden[key]["states"], key


def _dump(doc: dict) -> str:
    """The runs as JSON with one line or state per line."""
    def items(xs: list) -> str:
        return "[\n" + ",\n".join("   " + json.dumps(x) for x in xs) + "]"
    return "{\n" + ",\n".join(
        f" {json.dumps(key)}: {{\n  \"lines\": {items(d['lines'])},\n  \"states\": {items(d['states'])}}}"
        for key, d in doc.items()) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(traces_doc()), encoding="utf-8")
