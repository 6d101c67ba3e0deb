"""Test oracles: structural helpers that only the tests read.

Each one states a property directly on the data structures, so the tests can
check the package against it without the package carrying it.
"""

from __future__ import annotations

import random
from typing import Iterable

from csll import runtime
from csll import types as ty
from csll.formulas import Address, Mu, MuFormula, Nu, Var, formula_children, prefix_leq
from csll.process import BINDING, Call, ChannelName, Definition, Process
from csll.proofs import AddressStream


def alpha_equal(p: Process, q: Process, free_map: dict[ChannelName, ChannelName] | None = None) -> bool:
    """Structural equality up to renaming of bound channels.

    Free channels must correspond via free_map; by default they are matched
    by display name, which is what the pretty-printer/parser round trip
    preserves.
    """

    def chan_eq(a: ChannelName, b: ChannelName, env: dict[ChannelName, ChannelName]) -> bool:
        if a in env:
            return env[a] == b
        if free_map is not None:
            return free_map.get(a, a) == b
        return a.name == b.name

    def go(p: Process, q: Process, env: dict[ChannelName, ChannelName]) -> bool:
        t = type(p)
        if t is not type(q):
            return False
        if t is Call:
            return (p.name == q.name and len(p.args) == len(q.args)
                    and all(chan_eq(a, b, env) for a, b in zip(p.args, q.args)))
        row = BINDING[t]
        a, b = row.fields(p), row.fields(q)
        if any(a[i] != b[i] for i in row.scalars):
            return False
        if row.subject is not None and not chan_eq(a[row.subject], b[row.subject], env):
            return False
        inner = env if row.binder is None else {**env, a[row.binder]: b[row.binder]}
        return (all(go(a[i], b[i], inner) for i in row.inside)
                and all(go(a[i], b[i], env) for i in row.outside))

    return go(p, q, {})


def subformula_leq(phi: MuFormula, psi: MuFormula) -> bool:
    """phi occurs as a subtree of psi (reflexive)."""
    if phi == psi:
        return True
    return any(subformula_leq(phi, c) for c in formula_children(psi))


def min_formula(formulas: Iterable[MuFormula]) -> MuFormula | None:
    """The subformula-least element, if one exists."""
    items = list(formulas)
    for cand in items:
        if all(subformula_leq(cand, other) for other in items):
            return cand
    return None


def is_nu(phi: MuFormula) -> bool:
    return isinstance(phi, Nu)


def is_positive(t: ty.SessionType) -> bool:
    """Positive types describe outputs (close, send, select, client pools)."""
    return isinstance(t, (ty.One, ty.Zero, ty.Client, ty.Tensor, ty.Plus))


def depth(t: ty.SessionType) -> int:
    return 1 + max(map(depth, ty.children(t)), default=0)


def random_any_type(rng: random.Random, depth: int = 3) -> ty.SessionType:
    """Arbitrary type tree over the full grammar (for structural properties)."""
    if depth <= 1:
        return rng.choice((ty.ONE, ty.BOT, ty.TOP, ty.ZERO))
    c = rng.randrange(10)
    if c < 4:
        return rng.choice((ty.ONE, ty.BOT, ty.TOP, ty.ZERO))
    if c < 6:
        ctor = rng.choice((ty.Server, ty.Client))
        return ctor(random_any_type(rng, depth - 1))
    ctor = rng.choice((ty.Tensor, ty.Par, ty.Plus, ty.With))
    return ctor(random_any_type(rng, depth - 1), random_any_type(rng, depth - 1))


def dual_formula(phi: MuFormula) -> MuFormula:
    """Involution; propositional variables are self-dual (formulas are closed
    when dualized, so this is harmless)."""
    match phi:
        case Var(_):
            return phi
        case Mu(x, b) | Nu(x, b):
            return (Nu if isinstance(phi, Mu) else Mu)(x, dual_formula(b))
    return ty._DUAL[type(phi)](*map(dual_formula, ty.children(phi)))


def disjoint(a: Address, b: Address) -> bool:
    return not prefix_leq(a, b) and not prefix_leq(b, a)


def stream_at(s: AddressStream, n: int) -> int:
    """The n-th address of the stream s."""
    return s.offset + n * s.step


def param_types(defn: Definition) -> tuple[ty.SessionType, ...]:
    return tuple(t for _, t in defn.params)


def find_state(g: runtime.ReductionGraph, p: Process) -> int | None:
    """The id of the state that is p's canonical form, if g has one, hashed
    as `runtime` hashes the states it adds."""
    return g._find(*runtime.canonical_hashed(p))
