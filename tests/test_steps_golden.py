"""Golden step records of the runtime, byte for byte.

For every state of a bounded exploration (at most 200 states) of each input,
the file pins the full and the deterministic `enabled_steps`: each step's
`str(info)`, `client_index`, orbit group (the index of the first step of the
state that shares its orbit) and the digest of its reduct's canonical form.
Inputs are the corpus mains, lock_1..4, one 4-client cas mix and
gen_program 0-49.

Regenerate with `PYTHONPATH=src python -m tests.test_steps_golden` (only when
a change of step records is intended).
"""

import json
from pathlib import Path

from csll.canon import canonical_form
from csll.gen import gen_program
from csll.parser import parse_program
from csll.runtime import _digest, enabled_steps, explore

from .conftest import CORPUS_FILES, cas_text, load_corpus, lock_text

GOLDEN = Path(__file__).resolve().parent / "golden" / "steps.json"
MAX_STATES = 200


def programs():
    for name in CORPUS_FILES:
        yield name, load_corpus(name)
    for n in range(1, 5):
        yield f"lock_{n}", parse_program(lock_text(n))
    yield "cas_TF_FT_TF_FT", parse_program(cas_text(["TF", "FT", "TF", "FT"]))
    for seed in range(50):
        yield f"gen_{seed}", gen_program(seed)


def step_records(state, prog, deterministic: bool) -> list[list]:
    groups: dict[object, int] = {}
    return [[str(st.info), st.info.client_index, groups.setdefault(st.orbit, i),
             _digest(canonical_form(st.reduct))]
            for i, st in enumerate(enabled_steps(state, prog, deterministic))]


def steps_doc() -> dict:
    doc = {}
    for name, prog in programs():
        g = explore(prog.main.body, prog, max_states=MAX_STATES)
        doc[name] = [{"state": _digest(s), "full": step_records(s, prog, False),
                      "det": step_records(s, prog, True)} for s in g.states]
    return doc


def test_golden_step_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = steps_doc()
    assert got.keys() == golden.keys()
    for name, states in got.items():
        assert states == golden[name], name


def _dump(doc: dict) -> str:
    """The records as JSON with one state per line."""
    return "{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(s) for s in states) + "]"
        for name, states in doc.items()) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(steps_doc()), encoding="utf-8")
