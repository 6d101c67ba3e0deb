"""Source hygiene: no module of the package imports a name it never uses
(an `__all__` entry is no use, so the package re-exports nothing), defines
a private module-level name nothing uses, or defines a public module-level
name that only the tests read, and per-call work leaves no reference cycles
behind for the cycle collector."""

import ast
import gc
import importlib
import importlib.util
from pathlib import Path

import pytest

from csll.canon import canonical_hashed
from csll.parser import parse_type
from csll.printer import pretty_process, pretty_type
from csll.process import free_names
from csll.proofs import encode_derivation
from csll.runtime import run
from csll.typecheck import definition_derivation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "csll"
# the package's callers: the benchmark and the scripts
CALLERS = sorted(path for folder in ("scripts", "bench") for path in (ROOT / folder).glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Callable, Iterator\n"
                     "__all__ = ['Iterator']\nprint(os.sep)\n")
    assert unused_imports(tree) == ["Callable (line 2)", "Iterator (line 2)"]


def defined_names(node: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines: a function or
    class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unused_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """The private (single-underscore) module-level names of trees that no
    module of trees reads, as `module.name`."""
    read = set().union(*(names_read(tree, module_aliases(tree, trees)) for tree in trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items() for node in tree.body
            for name in defined_names(node)
            if name.startswith("_") and not name.startswith("__") and not is_read(module, name, read)]


def module_aliases(tree: ast.Module, modules) -> dict[str, str]:
    """The names tree binds to a module among modules (by `import a.m as x`,
    `from . import m` or `from a import m as x`), mapped to that module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.split(".")[-1]
                if module in modules:
                    aliases[alias.asname or alias.name.split(".")[0]] = module
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def names_read(node: ast.AST, aliases: dict[str, str]) -> set[str]:
    """The names node reads: loaded names, attributes, and names imported
    from a module.  An attribute of a name in aliases is read as
    `module.attribute` of the module the name is bound to."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            value = n.value
            module = aliases.get(value.id) if isinstance(value, ast.Name) else None
            read.add(n.attr if module is None else f"{module}.{n.attr}")
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def is_read(module: str, name: str, read: set[str]) -> bool:
    return name in read or f"{module}.{name}" in read


def unread_public_names(trees: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public module-level names of trees (functions, classes and
    assignment targets) that nothing reads, as `module.name`: no top-level
    statement of trees but their own definition, and no module of readers."""
    outside = set().union(*(names_read(tree, module_aliases(tree, trees)) for tree in readers))
    statements = [(module, node, names_read(node, module_aliases(tree, trees)))
                  for module, tree in trees.items() for node in tree.body]
    return [f"{module}.{name}" for module, node, _ in statements for name in defined_names(node)
            if not name.startswith("_") and not is_read(module, name, outside)
            and not any(is_read(module, name, read) for _, other, read in statements if other is not node)]


def _parsed(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(paths)}


def test_no_unused_private_names():
    assert unused_private_names(_parsed(SRC.glob("*.py"))) == []


def test_no_public_name_only_the_tests_read():
    readers = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in CALLERS]
    assert unread_public_names(_parsed(SRC.glob("*.py")), readers) == []


def unresolved_imports(tree: ast.Module) -> list[str]:
    """The `from csll... import name` statements of tree, at any depth, whose
    name the module does not define, as `module.name`.  The package itself
    re-exports nothing, so `from csll import name` must name a submodule."""
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "csll"):
            continue
        for alias in node.names:
            if node.module == "csll":
                found = importlib.util.find_spec(f"csll.{alias.name}") is not None
            else:
                found = hasattr(importlib.import_module(node.module), alias.name)
            if not found:
                missing.append(f"{node.module}.{alias.name}")
    return missing


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_callers_import_only_what_the_package_defines(path):
    assert unresolved_imports(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_scan_flags_an_import_the_package_does_not_define():
    tree = ast.parse("from csll import process, step_all\nfrom csll.runtime import run, step_all\n"
                     "def f():\n    from csll.process import unfold, unfold_head\n")
    assert unresolved_imports(tree) == ["csll.step_all", "csll.runtime.step_all", "csll.process.unfold"]


def test_scan_flags_an_unused_private_name():
    trees = {"a": ast.parse("_used = 1\n_unused: int = 2\ndef _helper(): return _used\n"),
             "b": ast.parse("from a import _helper\n__all__ = []\n")}
    assert unused_private_names(trees) == ["a._unused"]


def test_scan_flags_a_public_name_only_its_own_body_reads():
    trees = {"a": ast.parse("def f(n): return f(n - 1)\ndef g(): return h()\ndef h(): pass\n"
                            "class C: pass\nclass D:\n    def m(self): return D()\n"
                            "X, Y = 1, 2\nZ: int = X\n"),
             "b": ast.parse("__all__ = ['C', 'Z']\n")}
    readers = [ast.parse("from a import g\n")]
    # an `__all__` entry is no read
    assert unread_public_names(trees, readers) == ["a.f", "a.C", "a.D", "a.Y", "a.Z"]


def test_scan_reads_a_module_attribute_as_a_name_of_that_module():
    # formulas re-aliases a class of types that nothing reads through
    # formulas: `t.One` and `ty.One` name the class of types, not the alias
    trees = {"types": ast.parse("class One: pass\n"),
             "formulas": ast.parse("from . import types as ty\nOne = ty.One\n"),
             "cli": ast.parse("import csll.types as t\nfrom csll import formulas\n"
                              "def f(): return t.One, formulas.Two\n")}
    readers = [ast.parse("from csll.cli import f\n")]
    assert unread_public_names(trees, readers) == ["formulas.One"]


def frozen_dataclasses(trees: dict[str, ast.Module]) -> list[str]:
    """The `dataclass(frozen=...)` calls and decorators of trees outside
    `types.record`, as `module:line`: a frozen record is built by `record`."""
    inside_record = {id(n) for f in ast.walk(trees.get("types", ast.Module([], [])))
                     if isinstance(f, ast.FunctionDef) and f.name == "record" for n in ast.walk(f)}
    return [f"{module}:{node.lineno}" for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside_record
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dataclass"
            and any(k.arg == "frozen" for k in node.keywords)]


def test_every_frozen_record_is_built_by_record():
    assert frozen_dataclasses(_parsed(SRC.glob("*.py"))) == []


def test_scan_flags_a_frozen_dataclass():
    trees = {"types": ast.parse("def record(cls):\n    return dataclass(frozen=True, init=False)(cls)\n"),
             "a": ast.parse("@dataclass(frozen=True, slots=True)\nclass A: pass\n@dataclass\nclass B: pass\n"
                            "C = dataclasses.dataclass(frozen=True)(B)\n")}
    assert frozen_dataclasses(trees) == ["a:1", "a:5"]


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
