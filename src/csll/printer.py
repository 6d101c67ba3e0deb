"""Pretty-printer; parse(pretty(v)) is alpha-equivalent to v."""

from __future__ import annotations

from . import types as ty
from .parser import FORMS, KEYWORDS
from .process import (
    Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork, Join,
    Nil, Process, Program, Select, Server, Wait, free_names,
)

def pretty_type(t: ty.SessionType) -> str:
    """Words and precedence levels are `types._SYNTAX`'s.  A binary operand
    is parenthesised unless it is a right operand that binds tighter than its
    operator or repeats it (operators chain to the right)."""
    word, level = ty._SYNTAX[type(t)]
    kids = ty.children(t)
    if len(kids) < 2:
        return " ".join((word, *map(_wrap_type, kids)))
    left, right = kids
    return f"{_wrap_type(left)} {word} {_wrap_type(right, level, word)}"


def _wrap_type(t: ty.SessionType, level: int = ty._ATOM, word: str = "") -> str:
    t_word, t_level = ty._SYNTAX[type(t)]
    if len(ty.children(t)) < 2 or t_level > level or t_word == word:
        return pretty_type(t)
    return "(" + pretty_type(t) + ")"


class _Namer:
    """Scope-aware display names; disambiguates clashes with numeric suffixes.
    `taken` holds the keywords and every display name in scope."""

    def __init__(self):
        self.display: dict[ChannelName, str] = {}
        self.taken: set[str] = set(KEYWORDS)

    def bind(self, c: ChannelName) -> str:
        base = c.name if (c.name and not c.name[0].isdigit()) else "c"
        name = base
        k = 1
        while name in self.taken:
            k += 1
            name = f"{base}{k}"
        self.taken.add(name)
        self.display[c] = name
        return name

    def unbind(self, name: str) -> None:
        """Ends the scope of the binder displayed as name."""
        self.taken.remove(name)

    def of(self, c: ChannelName) -> str:
        return self.display.get(c, c.name or "c")


_INLINE_LIMIT = 44

_WORDS = {ctor: row.split()[0] for ctor, row in FORMS.items()}


def pretty_process(p: Process) -> str:
    namer = _Namer()
    for c in sorted(free_names(p)):
        namer.bind(c)
    return _render(p, namer, 0)


def _block(body: str, indent: int) -> str:
    if "\n" not in body and len(body) <= _INLINE_LIMIT:
        return "{ " + body + " }"
    pad = "  " * (indent + 1)
    return "{\n" + pad + body + "\n" + "  " * indent + "}"


def _render(p: Process, n: _Namer, indent: int) -> str:
    match p:
        case Call(name, args):
            return f"{name}({', '.join(n.of(a) for a in args)})"
        case Close(x) | Fail(x) | Nil(x):
            return f"{_WORDS[type(p)]} {n.of(x)}"
        case Wait(x, body):
            return f"wait {n.of(x)}; " + _render(body, n, indent)
        case Select(x, tag, body):
            return f"{n.of(x)}.in{tag}; " + _render(body, n, indent)
        case Join(x, y, body):
            yd = n.bind(y)
            out = f"recv {n.of(x)}({yd}); " + _render(body, n, indent)
            n.unbind(yd)
            return out
        case Fork(x, y, body, rest) | Cons(x, y, body, rest):
            yd = n.bind(y)
            block = _block(_render(body, n, indent), indent)
            n.unbind(yd)
            return f"{_WORDS[type(p)]} {n.of(x)}({yd}){block}; " + _render(rest, n, indent)
        case Case(x, l, r):
            pad = "  " * (indent + 1)
            left = _render(l, n, indent + 1)
            right = _render(r, n, indent + 1)
            one_line = f"case {n.of(x)} {{ in1: {left} ; in2: {right} }}"
            if "\n" not in one_line and len(one_line) <= 2 * _INLINE_LIMIT:
                return one_line
            return (f"case {n.of(x)} {{\n{pad}in1: {left} ;\n{pad}in2: {right}\n"
                    + "  " * indent + "}")
        case Server(x, y, acc, idle):
            yd = n.bind(y)
            accept = _render(acc, n, indent + 1)
            n.unbind(yd)
            idle_s = _render(idle, n, indent + 1)
            return (f"server {n.of(x)}({yd}) " + _block(accept, indent)
                    + " idle " + _block(idle_s, indent))
        case Cut(x, anno, l, r):
            xd = n.bind(x)
            pad = "  " * (indent + 1)
            left = _render(l, n, indent + 1)
            right = _render(r, n, indent + 1)
            n.unbind(xd)
            head = f"new {xd} : {pretty_type(anno)} "
            one_line = head + "{ " + left + " | " + right + " }"
            if "\n" not in one_line and len(one_line) <= 2 * _INLINE_LIMIT:
                return one_line
            return (head + "{\n" + pad + left + "\n" + pad + "| " + right + "\n"
                    + "  " * indent + "}")
    raise TypeError(f"not a process: {p!r}")


def pretty_definition(d: Definition, keyword: str = "def") -> str:
    namer = _Namer()
    for c, _ in d.params:
        namer.bind(c)
    params = ", ".join(f"{namer.of(c)}: {pretty_type(t)}" for c, t in d.params)
    head = f"main({params})" if keyword == "main" else f"def {d.name}({params})"
    return f"{head} = " + _render(d.body, namer, 1)


def pretty_program(prog: Program) -> str:
    chunks = [pretty_definition(d) for d in prog.defs.values()]
    if prog.main is not None:
        chunks.append(pretty_definition(prog.main, keyword="main"))
    return "\n\n".join(chunks) + "\n"


def pretty(v) -> str:
    if isinstance(v, ty.SessionType):
        return pretty_type(v)
    if isinstance(v, Process):
        return pretty_process(v)
    if isinstance(v, Program):
        return pretty_program(v)
    if isinstance(v, Definition):
        return pretty_definition(v)
    raise TypeError(f"cannot pretty-print {type(v).__name__}")
