"""Workload inputs and their known answers.

Everything here is the benchmark's own: program texts, generator seeds and
type texts are built from the workload seed, and the expected answers come
from closed forms where one exists (see README.md).  The library sees only
the generated text, generator seeds and parsed types.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"

WORKLOADS = ("check_chain", "explore_pool", "run_trace", "fuzz_small")

NF_CLOSE = frozenset({"close z"})
NF_CAS = frozenset({"z.in1; close z", "z.in2; close z"})

# Known defects at the commit that defined the benchmark.  They stay counted
# in `failed` and in `ok_ratio`; `correct` is false only for failures that
# are not listed here.
KNOWN_DEFECTS = {
    # ROADMAP item 4: the proof checker accepts a stationary nu-thread.
    "Bad check: Bad: proof verdict valid, expected invalid",
}


@dataclass(frozen=True)
class Op:
    """One public pipeline applied to an item.

    kind: check | explore | deadlock | recheck | run | corr | link.
    """

    kind: str
    scheduler: str = "det"     # run
    seed: int | None = None    # run (random scheduler)
    max_steps: int = 10_000    # run, corr
    max_states: int = 100_000  # explore
    expect: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass
class Item:
    """One input program and the pipelines a pass applies to it.

    Exactly one of `text` (source), `gen_seed` (csll.gen.gen_program) and
    `link_type` (type text for csll.linkgen.gen_link) is set.
    """

    name: str
    ops: tuple[Op, ...]
    text: str | None = None
    gen_seed: int | None = None
    link_type: str | None = None
    member: str | None = None  # family member, for per-member timings
    defs: dict[str, str] = field(default_factory=dict)  # expected verdict per definition


# --- program texts -------------------------------------------------------------


def chain_text(k: int) -> str:
    """chain_k: D_i(z) = new x:1 { D_{i-1}(x) | wait x; D_{i-1}(z) }, D_0(z) = close z."""
    lines = ["def D0(z: 1) = close z"]
    for i in range(1, k + 1):
        lines.append(f"def D{i}(z: 1) = new x : 1 {{ D{i - 1}(x) | wait x; D{i - 1}(z) }}")
    lines.append(f"main(z: 1) = D{k}(z)")
    return "\n".join(lines) + "\n"


LOCK_DEF = "def Lock(x: srv bot, z: 1) =\n  server x(y) { wait y; Lock(x, z) } idle { close z }\n"


def lock_text(n: int) -> str:
    """lock_n: n closing clients racing for the corpus lock server."""
    clients = "; ".join(f"client x(u{i}) {{ close u{i} }}" for i in range(n))
    return f"{LOCK_DEF}\nmain(z: 1) =\n  new x : cli 1 {{\n    {clients}; done x\n    | Lock(x, z)\n  }}\n"


# the register of corpus/cas.csll, without its two-client pool
CAS_DEFS = """\
def ClientTF(y: (1 + 1) + (1 + 1)) = y.in1; y.in2; close y

def ClientFT(y: (1 + 1) + (1 + 1)) = y.in2; y.in1; close y

def CasTrue(x: srv ((bot & bot) & (bot & bot)), z: 1 + 1) =
  server x(y) {
    case y {
      in1: case y { in1: wait y; CasTrue(x, z) ; in2: wait y; CasFalse(x, z) } ;
      in2: case y { in1: wait y; CasTrue(x, z) ; in2: wait y; CasTrue(x, z) }
    }
  } idle { z.in1; close z }

def CasFalse(x: srv ((bot & bot) & (bot & bot)), z: 1 + 1) =
  server x(y) {
    case y {
      in1: case y { in1: wait y; CasFalse(x, z) ; in2: wait y; CasFalse(x, z) } ;
      in2: case y { in1: wait y; CasTrue(x, z) ; in2: wait y; CasFalse(x, z) }
    }
  } idle { z.in2; close z }
"""


def cas_mix(n: int, rng: random.Random) -> list[str]:
    """A seeded arrangement of n/2 TF and n/2 FT clients.

    The split is fixed so the state space has a pinned size; the seed only
    chooses the queue order, which does not change the reduction graph."""
    mix = ["TF"] * (n // 2) + ["FT"] * (n - n // 2)
    rng.shuffle(mix)
    return mix


def cas_text(mix: list[str]) -> str:
    clients = "; ".join(f"client x(y{i}) {{ Client{k}(y{i}) }}" for i, k in enumerate(mix))
    return (f"{CAS_DEFS}\nmain(z: 1 + 1) =\n"
            f"  new x : cli ((1 + 1) + (1 + 1)) {{\n    {clients}; done x\n    | CasTrue(x, z)\n  }}\n")


# copy of TWO_PHASE in tests/test_typecheck.py: valid (ROADMAP item 2)
TWO_PHASE = """
def TwoPhase(x: srv bot, y: srv bot, z: 1) =
  server x(u) { wait u; TwoPhase(x, y, z) }
  idle {
    server y(v) { wait v; new x2 : cli 1 { done x2 | TwoPhase(x2, y, z) } }
    idle { close z }
  }
"""

# ROADMAP item 4: invalid, the cycle never passes a server
BAD = "def Bad(x: srv bot) = new y : 1 { close y | wait y; Bad(x) }\n"

_ATOMS = ("1", "bot", "0", "top")


def type_text(rng: random.Random, depth: int) -> str:
    """A random session type over the full grammar, every binary node parenthesised."""
    if depth <= 1:
        return rng.choice(_ATOMS)
    c = rng.randrange(6)
    if c == 0:
        return f"{rng.choice(('srv', 'cli'))} ({type_text(rng, depth - 1)})"
    op = rng.choice(("*", "par", "+", "&"))
    return f"({type_text(rng, depth - 1)}) {op} ({type_text(rng, depth - 1)})"


# --- items -----------------------------------------------------------------------


def _all(prog_defs: list[str], verdict: str) -> dict[str, str]:
    return {d: verdict for d in prog_defs}


def corpus_items() -> list[Item]:
    """The five corpus files through every pipeline (the common tail)."""
    def text(name: str) -> str:
        return (CORPUS / name).read_text(encoding="utf-8")

    explore = lambda **e: Op("explore", max_states=200, expect=e)  # noqa: E731
    sweep = (Op("deadlock", expect={"terminal": NF_CLOSE}), Op("recheck"))
    return [
        Item("lock.csll", text=text("lock.csll"), defs=_all(["Lock", "main"], "valid"), ops=(
            Op("check"),
            explore(verdict="fairly-terminating", states=6, normals=NF_CLOSE),
            *sweep,
            Op("run", expect={"steps": 5, "terminated": True, "final": NF_CLOSE}),
            Op("corr", expect={"steps": 5, "final": NF_CLOSE}),
        )),
        Item("cas.csll", text=text("cas.csll"),
             defs=_all(["ClientTF", "ClientFT", "Clients", "CasTrue", "CasFalse", "main"], "valid"), ops=(
            Op("check"),
            explore(verdict="fairly-terminating", normals=NF_CAS),
            Op("deadlock", expect={"terminal": NF_CAS}), Op("recheck"),
            # TF then FT in queue order: true -> false -> true
            Op("run", expect={"steps": 9, "terminated": True, "final": {"z.in1; close z"}}),
            Op("corr", expect={"steps": 9, "final": {"z.in1; close z"}}),
        )),
        Item("comm.csll", text=text("comm.csll"), defs=_all(["main"], "valid"), ops=(
            Op("check"),
            explore(verdict="fairly-terminating", normals=NF_CLOSE),
            *sweep,
            Op("run", expect={"steps": 3, "terminated": True, "final": NF_CLOSE}),
            Op("corr", expect={"steps": 3, "final": NF_CLOSE}),
        )),
        Item("omega.csll", text=text("omega.csll"), defs=_all(["Omega", "main"], "invalid"), ops=(
            Op("check"),
            explore(verdict="not-fairly-terminating", normals=frozenset()),
            *sweep,
            Op("run", max_steps=50, expect={"steps": 50, "terminated": False}),
            Op("corr", max_steps=4, expect={"steps": 4}),
        )),
        Item("omega_server.csll", text=text("omega_server.csll"),
             defs=_all(["OmegaServer", "main"], "invalid"), ops=(
            Op("check"),
            explore(verdict="not-fairly-terminating", normals=frozenset()),
            *sweep,
            Op("run", max_steps=50, expect={"steps": 50, "terminated": False}),
            Op("corr", max_steps=4, expect={"steps": 4}),
        )),
    ]


def sweep_ops() -> tuple[Op, ...]:
    """The fuzz sweep of a generated program (scripts/fuzz_systems.py, criterion 5)."""
    return (Op("check"),
            Op("explore", max_states=300,
               expect={"verdict": "fairly-terminating", "normals": NF_CLOSE}),
            Op("deadlock", expect={"terminal": NF_CLOSE}), Op("recheck"))


def gen_item(seed: int) -> Item:
    return Item(f"gen_{seed}", gen_seed=seed, ops=sweep_ops())


def link_item(name: str, type_src: str) -> Item:
    return Item(name, link_type=type_src, ops=(Op("link"),))


# The tail runs this many times per pass, so its small items have enough
# samples for a steady median even where a pass takes seconds.
TAIL_REPS = 4


def tail_items() -> list[Item]:
    """Shared by every workload, so every metric has work on every workload."""
    return corpus_items() + [gen_item(3), gen_item(7), link_item("link_srv_bot", "srv bot")]


def build(workload: str, seed: int) -> list[Item]:
    """The items of one pass; tail items appear TAIL_REPS times."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check_chain":
        items = [Item(f"chain_{k}", text=chain_text(k), member=f"chain_{k}",
                      defs=_all([f"D{i}" for i in range(k + 1)] + ["main"], "valid"),
                      ops=(Op("check"),))
                 for k in range(6, 11)]
        items.append(Item("TWO_PHASE", text=TWO_PHASE, defs={"TwoPhase": "valid"}, ops=(Op("check"),)))
        items.append(Item("Bad", text=BAD, defs={"Bad": "invalid"}, ops=(Op("check"),)))
    elif workload == "explore_pool":
        items = [Item(f"lock_{n}", text=lock_text(n), member=f"lock_{n}", ops=(
                     Op("explore", expect={"verdict": "fairly-terminating", "states": 2 * n + 2,
                                           "normals": NF_CLOSE}),))
                 for n in (32, 48)]
        items += [Item(f"cas_{n}", text=cas_text(cas_mix(n, rng)), member=f"cas_{n}", ops=(
                      Op("explore", expect={"verdict": "fairly-terminating", "normals": NF_CAS}),))
                  for n in (12, 16)]
    elif workload == "run_trace":
        # lock_n: every schedule is n connects, n closes and one drain: 2n+1 steps.
        # cas_n: n connects, 2n choices, n closes and one drain: 4n+1 steps.
        items = [
            Item("lock_128", text=lock_text(128), member="lock_128", ops=(
                Op("run", expect={"steps": 257, "terminated": True, "final": NF_CLOSE}),)),
            Item("lock_64", text=lock_text(64), member="lock_64", ops=(
                Op("run", scheduler="random", seed=rng.randrange(2**31),
                   expect={"steps": 129, "terminated": True, "final": NF_CLOSE}),)),
            Item("cas_32", text=cas_text(cas_mix(32, rng)), member="cas_32", ops=(
                Op("run", scheduler="random", seed=rng.randrange(2**31),
                   expect={"steps": 129, "terminated": True, "final": NF_CAS}),)),
            Item("lock_16", text=lock_text(16), member="lock_16", ops=(
                Op("corr", expect={"steps": 33, "final": NF_CLOSE}),)),
            Item("cas_10", text=cas_text(cas_mix(10, rng)), member="cas_10", ops=(
                Op("corr", expect={"steps": 41, "final": NF_CAS}),)),
        ]
    elif workload == "fuzz_small":
        # A fixed input set; the seed only shuffles the order of each pass.
        # Generated programs vary widely in cost (a 200-seed window of
        # gen_program took 1.8-3.6 s, and some seeds exceed the 300-state
        # bound), so seed-drawn windows made the workload's cost depend on
        # the seed.  Seeds 1000-1199 all explore within the bound.
        items = [gen_item(s) for s in range(1000, 1200)]
        types = random.Random("fuzz_small:link-types")
        items += [link_item(f"link_{i}", type_text(types, types.choice((3, 4)))) for i in range(300)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return items + tail_items() * TAIL_REPS


def pinned() -> dict:
    """Counts with no closed form, recorded at the commit that defined the
    benchmark (see pin.py)."""
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
