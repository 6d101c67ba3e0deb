from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Callable

import pytest

from csll import process
from csll.parser import parse_program
from csll.process import Program

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = ["lock.csll", "omega.csll", "omega_server.csll", "cas.csll", "comm.csll"]
# two definitions that invoke each other unguarded: no derivation of them is valid
LOOP_TEXT = "def A(x: 1) = B(x)\ndef B(x: 1) = A(x)\nmain(z: 1) = A(z)\n"


def load_corpus(name: str) -> Program:
    path = CORPUS / name
    return parse_program(path.read_text(encoding="utf-8"), str(path))


@pytest.fixture(scope="session")
def lock() -> Program:
    return load_corpus("lock.csll")


@pytest.fixture(scope="session")
def omega() -> Program:
    return load_corpus("omega.csll")


@pytest.fixture(scope="session")
def omega_server() -> Program:
    return load_corpus("omega_server.csll")


@pytest.fixture(scope="session")
def cas() -> Program:
    return load_corpus("cas.csll")


@pytest.fixture(scope="session")
def comm() -> Program:
    return load_corpus("comm.csll")


@pytest.fixture
def kept_sets(monkeypatch) -> Callable[[], int]:
    """How many free-name sets `process.free_names` has newly kept on terms
    since the test began, counted by wrapping it in every csll module."""
    kept = 0
    inner = process.free_names

    def counting(p):
        nonlocal kept
        had = p._free is not None
        names = inner(p)
        kept += not had and p._free is not None
        return names

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csll" and getattr(module, "free_names", None) is inner:
            monkeypatch.setattr(module, "free_names", counting)
    return lambda: kept


LOCK_DEF = "def Lock(x: srv bot, z: 1) =\n  server x(y) { wait y; Lock(x, z) } idle { close z }\n"


def lock_text(n: int) -> str:
    """corpus/lock.csll's server with n closing clients u0..u{n-1}."""
    clients = "; ".join(f"client x(u{i}) {{ close u{i} }}" for i in range(n))
    return f"{LOCK_DEF}main(z: 1) = new x : cli 1 {{ {clients}; done x | Lock(x, z) }}\n"


def nested_cuts_text(n: int) -> str:
    """n cuts x0..x{n-1} on 1, each nested in the right premise of the last."""
    body = "close z"
    for i in reversed(range(n)):
        body = f"new x{i} : 1 {{ close x{i} | wait x{i}; {body} }}"
    return f"main(z: 1) = {body}\n"


def pool_end_texts() -> dict[str, str]:
    """Programs whose client pool ends in a guard on another channel, which
    the full semantics pulls up through the pool's cells: a wait closed by a
    cut around the pool, a cut of its own, and the server forwarder spliced
    between two clients and the lock, whose pool after a connect ends in the
    forwarder's invocation, a server on its first channel."""
    from csll import types as ty
    from csll.linkgen import gen_link
    from csll.printer import pretty_program
    clients = "client x(u) { close u }; client x(v) { close v }"
    return {
        "pool_end_wait": f"{LOCK_DEF}main(z: 1) =\n  new t : 1 {{ close t | new x : cli 1 {{ "
                         f"{clients}; wait t; done x | Lock(x, z) }} }}\n",
        "pool_end_cut": f"{LOCK_DEF}main(z: 1) =\n  new x : cli 1 {{ "
                        f"{clients}; new w : 1 {{ close w | wait w; done x }} | Lock(x, z) }}\n",
        "pool_end_link": (f"{LOCK_DEF}\n{pretty_program(gen_link(ty.Server(ty.BOT)))}\n"
                          "main(z: 1) =\n"
                          "  new a : cli 1 {\n"
                          "    client a(u) { close u }; client a(v) { close v }; done a\n"
                          "    | new b : cli 1 { Link_srv_bot(a, b) | Lock(b, z) }\n"
                          "  }\n"),
    }


def cas_text(kinds: list[str]) -> str:
    """corpus/cas.csll's register with one Client{kind} per entry of kinds ("TF" or "FT")."""
    defs = (CORPUS / "cas.csll").read_text(encoding="utf-8").split("\nmain(")[0]
    clients = "; ".join(f"client x(y{i}) {{ Client{k}(y{i}) }}" for i, k in enumerate(kinds))
    return (f"{defs}\nmain(z: 1 + 1) =\n"
            f"  new x : cli ((1 + 1) + (1 + 1)) {{ {clients}; done x | CasTrue(x, z) }}\n")


def link_types(n: int = 300) -> list[str]:
    """The type texts of the benchmark's forwarder families (fuzz_small's
    `link_*` items), first n of them, in order."""
    from bench.workloads import type_text
    rng = random.Random("fuzz_small:link-types")
    return [type_text(rng, rng.choice((3, 4))) for _ in range(n)]
