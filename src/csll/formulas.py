"""Fixed-point linear-logic formulas, addresses, and formula occurrences.

Formulas are the session-type connectives of `csll.types` (the MALL
constants and connectives) plus variables and the fixed points `Mu`/`Nu`:
the formulas of muMALL.  Formulas are closed in every sequent; the
subformula order is syntactic containment.  An occurrence pairs a formula
with an address: an atomic address (with a polarity bit for duals) followed
by a word over {i,l,r} recording unfoldings and left/right descents.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import is_

from . import types as ty

# the MALL constants and connectives are the session-type classes
Tensor, Par, Plus, With = ty.Tensor, ty.Par, ty.Plus, ty.With
F_ONE, F_BOT = ty.ONE, ty.BOT


@ty.record
class Var:
    name: str


class _FixedPoint:
    """Shared by `Mu` and `Nu`: the unfolding, built on first use and kept,
    so every occurrence of one fixed point steps to the same formula.  The
    unfolding contains the fixed point itself; `encode_type` keeps every
    fixed point it builds, so that cycle costs nothing extra there."""

    @cached_property
    def unfolding(self) -> MuFormula:
        return subst(self.body, self.var, self)


@ty.record
class Mu(_FixedPoint):
    var: str
    body: MuFormula


@ty.record
class Nu(_FixedPoint):
    var: str
    body: MuFormula


MuFormula = ty.SessionType | Var | Mu | Nu

# the one spelling formulas do not share with the surface syntax of types
_RENDERED_OPS = {Tensor: "(x)", Par: "(par)", With: "(&)", Plus: "(+)"}


def subst(phi: MuFormula, var: str, repl: MuFormula) -> MuFormula:
    """phi[repl/var]; substitution stops at a rebinding of var.  A subformula
    without a free var is returned as it is, not copied."""
    match phi:
        case Var(x):
            return repl if x == var else phi
        case Mu(x, b) | Nu(x, b):
            if x == var:
                return phi
            new = subst(b, var, repl)
            return phi if new is b else type(phi)(x, new)
    kids = ty.children(phi)
    new_kids = tuple(subst(c, var, repl) for c in kids)
    return phi if all(map(is_, new_kids, kids)) else type(phi)(*new_kids)


@cache
def encode_type(t: ty.SessionType) -> MuFormula:
    """Session types as formulas: client pools are least fixed points (a list
    of clients), servers the dual greatest fixed points; the rest is
    one-to-one."""
    match t:
        case ty.Client(inner):
            return Mu("X", Plus(F_ONE, Tensor(encode_type(inner), Var("X"))))
        case ty.Server(inner):
            return Nu("X", With(F_BOT, Par(encode_type(inner), Var("X"))))
    return type(t)(*map(encode_type, ty.children(t)))


def formula_children(phi: MuFormula) -> tuple[MuFormula, ...]:
    match phi:
        case Var(_):
            return ()
        case Mu(_, b) | Nu(_, b):
            return (b,)
    return ty.children(phi)


def render_formula(phi: MuFormula) -> str:
    match phi:
        case Var(x):
            return x
        case Mu(x, b) | Nu(x, b):
            return f"{type(phi).__name__.lower()} {x}. {render_formula(b)}"
    kids = ty.children(phi)
    if not kids:
        return ty._SYNTAX[type(phi)][0]
    left, right = map(render_formula, kids)
    return f"({left} {_RENDERED_OPS[type(phi)]} {right})"


# --- addresses and occurrences ------------------------------------------------


@ty.record(slots=True)
class Address:
    atom: int
    bar: bool
    word: str = ""

    def child(self, step: str) -> Address:
        assert step in ("i", "l", "r")
        return Address(self.atom, self.bar, self.word + step)

    def render(self) -> str:
        base = f"~a{self.atom}" if self.bar else f"a{self.atom}"
        return f"{base}.{self.word}" if self.word else base

    def __str__(self) -> str:
        return self.render()


def prefix_leq(a: Address, b: Address) -> bool:
    return a.atom == b.atom and a.bar == b.bar and b.word.startswith(a.word)


@ty.record(slots=True)
class Occurrence:
    formula: MuFormula
    address: Address

    def render(self) -> str:
        return f"{render_formula(self.formula)} @ {self.address}"


def occ_step(occ: Occurrence) -> tuple[Occurrence, ...]:
    """Proper successors under the descent relation: binary connectives step
    to their components, fixed points to their unfolding (reflexivity is the
    thread's business, not ours)."""
    phi, alpha = occ.formula, occ.address
    if isinstance(phi, (Mu, Nu)):
        return (Occurrence(phi.unfolding, alpha.child("i")),)
    return tuple(Occurrence(c, alpha.child(step)) for step, c in zip("lr", formula_children(phi)))
