from __future__ import annotations

import random
from pathlib import Path

import pytest

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


def lock_text(n: int) -> str:
    """corpus/lock.csll's server with n closing clients u0..u{n-1}."""
    clients = "; ".join(f"client x(u{i}) {{ close u{i} }}" for i in range(n))
    return ("def Lock(x: srv bot, z: 1) =\n  server x(y) { wait y; Lock(x, z) } idle { close z }\n"
            f"main(z: 1) = new x : cli 1 {{ {clients}; done x | Lock(x, z) }}\n")


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
