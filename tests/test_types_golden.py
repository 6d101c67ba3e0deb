"""Golden surface of session types, byte for byte.

For every type of depth at most 2 (4 atoms, 8 `srv`/`cli` of an atom, 64
binary), the file pins its printed form and that of its dual, the rendered
fixed-point formula of both, its forwarder name and the printed forwarder
family.  It also pins the message, column and length of the parse error of
each malformed type text in `MALFORMED`.

Regenerate with `PYTHONPATH=src python -m tests.test_types_golden` (only when
a change of the type surface is intended).
"""

import json
from pathlib import Path

from csll import types as ty
from csll.formulas import encode_type, render_formula
from csll.linkgen import gen_link, link_name
from csll.parser import ParseError, parse_type
from csll.printer import pretty_program, pretty_type

from .oracles import dual_formula

GOLDEN = Path(__file__).resolve().parent / "golden" / "types.json"

ATOMS = (ty.ONE, ty.BOT, ty.TOP, ty.ZERO)
MALFORMED = ("", "srv", "cli", "par 1", "* 1", "1 1", "(1", "1 +", "bot bot", "top)")


def depth2_types() -> list[ty.SessionType]:
    return (list(ATOMS)
            + [ctor(a) for ctor in (ty.Server, ty.Client) for a in ATOMS]
            + [ctor(a, b) for ctor in (ty.Tensor, ty.Par, ty.Plus, ty.With)
               for a in ATOMS for b in ATOMS])


def type_record(t: ty.SessionType) -> dict:
    phi = encode_type(t)
    return {"pretty": pretty_type(t), "dual": pretty_type(ty.dual(t)),
            "formula": render_formula(phi), "dual_formula": render_formula(dual_formula(phi)),
            "link_name": link_name(t), "link_program": pretty_program(gen_link(t))}


def parse_error(text: str) -> dict:
    try:
        parse_type(text)
    except ParseError as e:
        return {"message": e.message, "column": e.span.column, "length": e.span.length}
    raise AssertionError(f"{text!r} parsed")


def surface() -> dict:
    return {"types": [type_record(t) for t in depth2_types()],
            "errors": {text: parse_error(text) for text in MALFORMED}}


def test_depth2_types_are_all_distinct():
    assert len(set(depth2_types())) == 76


def test_golden_type_surface():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = surface()
    assert got["errors"] == golden["errors"]
    assert len(got["types"]) == len(golden["types"])
    for record, want in zip(got["types"], golden["types"]):
        assert record == want, want["pretty"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(surface(), indent=1) + "\n", encoding="utf-8")
