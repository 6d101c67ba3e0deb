"""Source hygiene: no module of the package imports a name it never uses or
defines a private module-level name nothing uses, and per-call work leaves
no reference cycles behind for the cycle collector."""

import ast
import gc
from pathlib import Path

import pytest

from csll.canon import canonical_hashed
from csll.parser import parse_type
from csll.printer import pretty_process, pretty_type
from csll.process import free_names
from csll.proofs import encode_derivation
from csll.runtime import run
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


def unused_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """The private (single-underscore) module-level names of trees that no
    module of trees reads, as `module.name`."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_no_unused_private_names():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(trees) == []


def test_scan_flags_an_unused_private_name():
    trees = {"a": ast.parse("_used = 1\n_unused: int = 2\ndef _helper(): return _used\n"),
             "b": ast.parse("from a import _helper\n__all__ = []\n")}
    assert unused_private_names(trees) == ["a._unused"]


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


def test_printing_keying_and_running_leave_no_cycles(lock, cas):
    for prog in (lock, cas):
        p, ctx = prog.main.body, dict(prog.main.params)
        states = run(p, ctx, prog).states
        assert cyclic_garbage(lambda: [free_names(s) for s in (p, *states)]) == []
        assert cyclic_garbage(lambda: [pretty_process(s) for s in (p, *states)]) == []
        assert cyclic_garbage(lambda: [canonical_hashed(s) for s in (p, *states)]) == []
        assert cyclic_garbage(lambda: run(p, ctx, prog)) == []
        assert cyclic_garbage(lambda: run(p, ctx, prog, "random", seed=1)) == []
