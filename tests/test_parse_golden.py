"""Golden parse results of one-token mutants of the corpus, byte for byte.

Every mutant deletes one token of a corpus file, duplicates it, or swaps it
with the next token, keeping the rest of the text (and so every other line
and column) as it was.  The file pins, per mutant, the error class, message,
line, column and length of the parse error, or the 12-hex sha256 of the
printed program when the mutant parses.

Regenerate with `PYTHONPATH=src python -m tests.test_parse_golden` (only
when a change of the program surface is intended).
"""

import hashlib
import json
from pathlib import Path
from typing import Iterator

from csll.parser import CsllError, parse_program, tokenize
from csll.printer import pretty_program

from .conftest import CORPUS, CORPUS_FILES

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse.json"


def token_mutants(text: str) -> Iterator[tuple[str, str]]:
    """(label, text) for every one-token deletion, duplication and swap with
    the next token, in token order."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for tok in tokenize(text)[:-1]:  # not the end-of-input token
        at = starts[tok.span.line - 1] + tok.span.column - 1
        spans.append((at, at + len(tok.text)))
    for i, (s, e) in enumerate(spans):
        yield f"del {i}", text[:s] + text[e:]
        yield f"dup {i}", text[:e] + " " + text[s:e] + text[e:]
        if i + 1 < len(spans):
            s2, e2 = spans[i + 1]
            yield f"swap {i}", text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]


def parse_record(text: str, filename: str = "<input>") -> list:
    """[class, message, line, column, length] of the parse error of text, or
    ["ok", sha] with the 12-hex sha256 of the printed program."""
    try:
        prog = parse_program(text, filename)
    except CsllError as e:
        return [type(e).__name__, e.message, e.span.line, e.span.column, e.span.length]
    return ["ok", hashlib.sha256(pretty_program(prog).encode()).hexdigest()[:12]]


def surface() -> dict[str, list]:
    out = {}
    for name in sorted(CORPUS_FILES):
        text = (CORPUS / name).read_text(encoding="utf-8")
        for label, mutant in token_mutants(text):
            out[f"{name} {label}"] = parse_record(mutant, name)
    return out


def test_golden_parse_of_token_mutants():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = surface()
    assert list(got) == list(golden)
    for label, record in got.items():
        assert record == golden[label], label


if __name__ == "__main__":
    rows = (f"{json.dumps(label)}: {json.dumps(record)}" for label, record in surface().items())
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
