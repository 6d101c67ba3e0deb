"""Pretty-printer for types, processes, definitions and programs; parsing
the printed text gives back the term up to renaming of bound channels.

A process prints through `_RENDER`, a table from constructor to render
function, each rendering its subterms through the table.  A client pool
prints in one loop over its cells.  Each cell keeps its text on itself, in
its instance dictionary as `canon` keeps its records, once for every
printing context it met: the indent and the namer's state, which is one
key for all the cells of a pool.  A run's next state shares most of its
cells with the state before it, so printing it costs what the step changed.
A pool keeps no text of its own: a suffix's text would hold each cell's
text once per cell above it.
"""

from __future__ import annotations

from . import types as ty
from .parser import FORMS, KEYWORDS
from .process import (
    BINDING, Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork,
    Join, Nil, Process, Program, Select, Server, Wait, free_names,
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
    `display` names each channel in scope, and `taken` holds the keywords
    and every display name in scope.  A binder may reuse a channel that is
    displayed outside its scope; `hidden` keeps, innermost last, each such
    channel with the name its scope hides."""

    def __init__(self):
        self.display: dict[ChannelName, str] = {}
        self.taken: set[str] = set(KEYWORDS)
        self.hidden: list[tuple[ChannelName, str]] = []

    def bind(self, c: ChannelName) -> str:
        base = c.name if (c.name and not c.name[0].isdigit()) else "c"
        name = base
        k = 1
        while name in self.taken:
            k += 1
            name = f"{base}{k}"
        self.taken.add(name)
        if c in self.display:
            self.hidden.append((c, self.display[c]))
        self.display[c] = name
        return name

    def unbind(self, c: ChannelName, name: str) -> None:
        """Ends the scope of c's binder, displayed as name.  Scopes nest, so
        the innermost hidden entry is c's exactly when this binder hid one;
        otherwise c is displayed nowhere outside the scope."""
        self.taken.remove(name)
        if self.hidden and self.hidden[-1][0] == c:
            self.display[c] = self.hidden.pop()[1]
        else:
            del self.display[c]

    def context(self, indent: int) -> tuple:
        """What a subterm's text depends on besides the subterm: the indent,
        the display name of each channel in scope and the names taken, which
        are the keywords, those display names and the names hidden."""
        return indent, frozenset(self.display.items()), tuple(self.hidden)

    def of(self, c: ChannelName) -> str:
        return self.display.get(c, c.name or "c")


_INLINE_LIMIT = 44

_WORDS = {ctor: row.split()[0] for ctor, row in FORMS.items()}

# where a pool cell keeps its texts, by printing context
_TEXTS = "_printed"


def pretty_process(p: Process) -> str:
    namer = _Namer()
    for c in sorted(free_names(p)):
        namer.bind(c)
    return _RENDER[type(p)](p, namer, 0)


def _block(body: str, indent: int) -> str:
    if "\n" not in body and len(body) <= _INLINE_LIMIT:
        return "{ " + body + " }"
    pad = "  " * (indent + 1)
    return "{\n" + pad + body + "\n" + "  " * indent + "}"


def _call(p: Call, n: _Namer, indent: int) -> str:
    return f"{p.name}({', '.join(map(n.of, p.args))})"


def _end(p: Close | Fail | Nil, n: _Namer, indent: int) -> str:
    return f"{_WORDS[type(p)]} {n.of(p.chan)}"


def _wait(p: Wait, n: _Namer, indent: int) -> str:
    return f"wait {n.of(p.chan)}; " + _RENDER[type(p.body)](p.body, n, indent)


def _select(p: Select, n: _Namer, indent: int) -> str:
    return f"{n.of(p.chan)}.in{p.tag}; " + _RENDER[type(p.body)](p.body, n, indent)


def _join(p: Join, n: _Namer, indent: int) -> str:
    head = f"recv {n.of(p.chan)}("  # the subject is named outside the payload's scope
    yd = n.bind(p.payload)
    out = f"{head}{yd}); " + _RENDER[type(p.body)](p.body, n, indent)
    n.unbind(p.payload, yd)
    return out


def _cell(p: Fork | Cons, n: _Namer, indent: int) -> str:
    """The text of p up to its continuation."""
    x, y, body, _, _ = BINDING[type(p)].fields(p)
    yd = n.bind(y)
    block = _block(_RENDER[type(body)](body, n, indent), indent)
    n.unbind(y, yd)
    return f"{_WORDS[type(p)]} {n.of(x)}({yd}){block}; "


def _send(p: Fork, n: _Namer, indent: int) -> str:
    return _cell(p, n, indent) + _RENDER[type(p.cont)](p.cont, n, indent)


def _pool(p: Cons, n: _Namer, indent: int) -> str:
    """The cells of the pool p in one loop, then its end.  A cell's text
    depends on the cell and the context, which no cell changes, so the key
    is built once.  The first kept key found equal to it is used from there
    on: the cells printed with it before hold that very object, so their
    lookups compare by identity."""
    ctx = n.context(indent)
    found = False
    parts = []
    while type(p) is Cons:
        texts = p.__dict__.get(_TEXTS)
        if texts is None:
            texts = p.__dict__[_TEXTS] = {}
        elif not found:
            for k in texts:
                if k == ctx:
                    ctx, found = k, True
                    break
        text = texts.get(ctx)
        if text is None:
            text = texts[ctx] = _cell(p, n, indent)
        parts.append(text)
        p = p.pool
    parts.append(_RENDER[type(p)](p, n, indent))
    return "".join(parts)


def _case(p: Case, n: _Namer, indent: int) -> str:
    left = _RENDER[type(p.left)](p.left, n, indent + 1)
    right = _RENDER[type(p.right)](p.right, n, indent + 1)
    one_line = f"case {n.of(p.chan)} {{ in1: {left} ; in2: {right} }}"
    if "\n" not in one_line and len(one_line) <= 2 * _INLINE_LIMIT:
        return one_line
    pad = "  " * (indent + 1)
    return (f"case {n.of(p.chan)} {{\n{pad}in1: {left} ;\n{pad}in2: {right}\n"
            + "  " * indent + "}")


def _server(p: Server, n: _Namer, indent: int) -> str:
    yd = n.bind(p.session)
    accept = _RENDER[type(p.accept)](p.accept, n, indent + 1)
    n.unbind(p.session, yd)
    idle = _RENDER[type(p.idle)](p.idle, n, indent + 1)
    return (f"server {n.of(p.chan)}({yd}) " + _block(accept, indent)
            + " idle " + _block(idle, indent))


def _cut(p: Cut, n: _Namer, indent: int) -> str:
    xd = n.bind(p.chan)
    left = _RENDER[type(p.left)](p.left, n, indent + 1)
    right = _RENDER[type(p.right)](p.right, n, indent + 1)
    n.unbind(p.chan, xd)
    head = f"new {xd} : {pretty_type(p.anno)} "
    one_line = head + "{ " + left + " | " + right + " }"
    if "\n" not in one_line and len(one_line) <= 2 * _INLINE_LIMIT:
        return one_line
    pad = "  " * (indent + 1)
    return (head + "{\n" + pad + left + "\n" + pad + "| " + right + "\n"
            + "  " * indent + "}")


# The render function of each constructor.  Each renders its subterms through
# `_RENDER` itself, so a node costs one frame.
_RENDER = {Call: _call, Close: _end, Fail: _end, Nil: _end, Wait: _wait, Select: _select,
           Join: _join, Fork: _send, Cons: _pool, Case: _case, Server: _server, Cut: _cut}


def pretty_definition(d: Definition, keyword: str = "def") -> str:
    namer = _Namer()
    for c, _ in d.params:
        namer.bind(c)
    params = ", ".join(f"{namer.of(c)}: {pretty_type(t)}" for c, t in d.params)
    head = f"main({params})" if keyword == "main" else f"def {d.name}({params})"
    return f"{head} = " + _RENDER[type(d.body)](d.body, namer, 1)


def pretty_program(prog: Program) -> str:
    chunks = [pretty_definition(d) for d in prog.defs.values()]
    if prog.main is not None:
        chunks.append(pretty_definition(prog.main, keyword="main"))
    return "\n\n".join(chunks) + "\n"
