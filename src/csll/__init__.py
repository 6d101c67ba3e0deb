"""Client/server session calculus toolkit.

Parsing, linear typechecking with a cyclic-derivation validity condition,
full and deterministic reduction semantics with exploration and termination
analysis, and a fixed-point linear-logic proof backend with a mechanical
reduction/proof-step correspondence.
"""

from .canon import canonical_form
from .parser import parse_program, parse_type
from .printer import pretty_process, pretty_program, pretty_type
from .process import Definition, Program, call_depth, free_names, rename, unfold
from .runtime import (
    check_fair_termination, explore, is_weakly_terminating, run, step_all, step_det,
)
from .typecheck import check, check_program, split_context, validity_check
from .types import dual

__all__ = [
    "call_depth", "canonical_form", "check", "check_fair_termination",
    "check_program", "Definition", "dual", "explore", "free_names",
    "is_weakly_terminating", "parse_program", "parse_type", "pretty_process",
    "pretty_program", "pretty_type", "Program", "rename", "run",
    "split_context", "step_all", "step_det", "unfold", "validity_check",
]
