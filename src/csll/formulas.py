"""Fixed-point linear-logic formulas, addresses, and formula occurrences.

Formulas are closed in every sequent; the subformula order is syntactic
containment.  An occurrence pairs a formula with an address: an atomic
address (with a polarity bit for duals) followed by a word over {i,l,r}
recording unfoldings and left/right descents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import types as ty


class MuFormula:
    __match_args__ = ()


@dataclass(frozen=True)
class Var(MuFormula):
    name: str


@dataclass(frozen=True)
class One(MuFormula):
    pass


@dataclass(frozen=True)
class Bot(MuFormula):
    pass


@dataclass(frozen=True)
class Top(MuFormula):
    pass


@dataclass(frozen=True)
class Zero(MuFormula):
    pass


@dataclass(frozen=True)
class Par(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Tensor(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class With(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Plus(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Mu(MuFormula):
    var: str
    body: MuFormula


@dataclass(frozen=True)
class Nu(MuFormula):
    var: str
    body: MuFormula


F_ONE = One()
F_BOT = Bot()
F_TOP = Top()
F_ZERO = Zero()


def dual_formula(phi: MuFormula) -> MuFormula:
    """Involution; propositional variables are self-dual (formulas are closed
    when dualized, so this is harmless)."""
    match phi:
        case Var(_):
            return phi
        case One():
            return F_BOT
        case Bot():
            return F_ONE
        case Top():
            return F_ZERO
        case Zero():
            return F_TOP
        case Par(l, r):
            return Tensor(dual_formula(l), dual_formula(r))
        case Tensor(l, r):
            return Par(dual_formula(l), dual_formula(r))
        case With(l, r):
            return Plus(dual_formula(l), dual_formula(r))
        case Plus(l, r):
            return With(dual_formula(l), dual_formula(r))
        case Mu(x, b):
            return Nu(x, dual_formula(b))
        case Nu(x, b):
            return Mu(x, dual_formula(b))
    raise TypeError(f"not a formula: {phi!r}")


def subst(phi: MuFormula, var: str, repl: MuFormula) -> MuFormula:
    """phi[repl/var]; substitution stops at a rebinding of var."""
    match phi:
        case Var(x):
            return repl if x == var else phi
        case Par(l, r):
            return Par(subst(l, var, repl), subst(r, var, repl))
        case Tensor(l, r):
            return Tensor(subst(l, var, repl), subst(r, var, repl))
        case With(l, r):
            return With(subst(l, var, repl), subst(r, var, repl))
        case Plus(l, r):
            return Plus(subst(l, var, repl), subst(r, var, repl))
        case Mu(x, b):
            return phi if x == var else Mu(x, subst(b, var, repl))
        case Nu(x, b):
            return phi if x == var else Nu(x, subst(b, var, repl))
    return phi


def encode_type(t: ty.SessionType) -> MuFormula:
    """Session types as formulas: client pools are least fixed points (a list
    of clients), servers the dual greatest fixed points; the rest is
    one-to-one."""
    match t:
        case ty.One():
            return F_ONE
        case ty.Bot():
            return F_BOT
        case ty.Top():
            return F_TOP
        case ty.Zero():
            return F_ZERO
        case ty.Tensor(l, r):
            return Tensor(encode_type(l), encode_type(r))
        case ty.Par(l, r):
            return Par(encode_type(l), encode_type(r))
        case ty.Plus(l, r):
            return Plus(encode_type(l), encode_type(r))
        case ty.With(l, r):
            return With(encode_type(l), encode_type(r))
        case ty.Client(inner):
            return Mu("X", Plus(F_ONE, Tensor(encode_type(inner), Var("X"))))
        case ty.Server(inner):
            return Nu("X", With(F_BOT, Par(encode_type(inner), Var("X"))))
    raise TypeError(f"not a session type: {t!r}")


def formula_children(phi: MuFormula) -> tuple[MuFormula, ...]:
    match phi:
        case Par(l, r) | Tensor(l, r) | With(l, r) | Plus(l, r):
            return (l, r)
        case Mu(_, b) | Nu(_, b):
            return (b,)
    return ()


@lru_cache(maxsize=None)
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


def render_formula(phi: MuFormula) -> str:
    match phi:
        case Var(x):
            return x
        case One():
            return "1"
        case Bot():
            return "bot"
        case Top():
            return "top"
        case Zero():
            return "0"
        case Par(l, r):
            return f"({render_formula(l)} (par) {render_formula(r)})"
        case Tensor(l, r):
            return f"({render_formula(l)} (x) {render_formula(r)})"
        case With(l, r):
            return f"({render_formula(l)} (&) {render_formula(r)})"
        case Plus(l, r):
            return f"({render_formula(l)} (+) {render_formula(r)})"
        case Mu(x, b):
            return f"mu {x}. {render_formula(b)}"
        case Nu(x, b):
            return f"nu {x}. {render_formula(b)}"
    raise TypeError(f"not a formula: {phi!r}")


# --- addresses and occurrences ------------------------------------------------


@dataclass(frozen=True)
class Address:
    atom: int
    bar: bool
    word: str = ""

    def dual(self) -> Address:
        return Address(self.atom, not self.bar, self.word)

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


def disjoint(a: Address, b: Address) -> bool:
    return not prefix_leq(a, b) and not prefix_leq(b, a)


@dataclass(frozen=True)
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
    match phi:
        case Par(l, r) | Tensor(l, r) | With(l, r) | Plus(l, r):
            return (Occurrence(l, alpha.child("l")), Occurrence(r, alpha.child("r")))
        case Mu(x, b):
            return (Occurrence(subst(b, x, phi), alpha.child("i")),)
        case Nu(x, b):
            return (Occurrence(subst(b, x, phi), alpha.child("i")),)
    return ()
