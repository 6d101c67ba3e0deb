"""Source hygiene: no module of the package imports a name it never uses,
and per-call work leaves no reference cycles behind for the cycle collector."""

import ast
import gc
from pathlib import Path

import pytest

from csll.parser import parse_type
from csll.printer import pretty_type
from csll.proofs import encode_derivation
from csll.typecheck import definition_derivation

SRC = Path(__file__).resolve().parent.parent / "src" / "csll"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Callable, Iterator\n"
                     "__all__ = ['Iterator']\nprint(os.sep)\n")
    assert unused_imports(tree) == ["Callable (line 2)"]


def cyclic_garbage(fn) -> list:
    """The objects that only the cycle collector can free after fn()."""
    gc.collect()
    old, enabled = gc.get_debug(), gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(old)
        gc.garbage.clear()
        if enabled:
            gc.enable()
        gc.collect()


def test_printing_and_encoding_leave_no_cycles(lock, cas):
    t = parse_type("srv ((1 + 1) & (bot par cli (1 * bot)))")
    assert cyclic_garbage(lambda: pretty_type(t)) == []
    for prog, name in ((lock, "Lock"), (cas, "CasTrue")):
        d = definition_derivation(prog.defs[name], prog)
        assert cyclic_garbage(lambda: encode_derivation(d)) == []
