"""Concrete syntax for programs and types.

Grammar sketch (`--` starts a line comment):

    program  ::= (def | main)*
    def      ::= 'def' NAME '(' params ')' '=' process
    main     ::= 'main' '(' params ')' '=' process
    params   ::= [NAME ':' type (',' NAME ':' type)*]
    process  ::= a `FORMS` row, e.g. 'send' NAME '(' NAME ')' '{' process '}' ';' process
               | NAME '.' ('in1'|'in2') ';' process
               | NAME '(' [NAME (',' NAME)*] ')'
    type     ::= additive; additive ::= mult (('+'|'&') additive)?
    mult     ::= prefix (('*'|'par') mult)?; prefix ::= ('srv'|'cli') prefix | atom
    atom     ::= '1' | '0' | 'bot' | 'top' | '(' type ')'

The lexer is one compiled pattern, `_TOKEN`.  A token is its text and its
offset, and its kind follows from its text: a keyword, a name, a symbol, or
"" at the end of input.  A token's `span` is built on request from the
offset and the source's line starts, so only process nodes and errors make
one.

Each keyword construct is one `FORMS` row: its surface text, with the
constructor's fields marked `$`.  Which field is the subject, which the
binder and which subterms lie in the binder's scope is `process.BINDING`'s;
the one remaining field, a cut's annotation, is a type.
The words of types and their precedence levels are `types._SYNTAX`'s.
Binary type operators are right-associative; different operators at the same
precedence level must be parenthesized.  Binders are resolved to channels
with fresh unique ids during parsing; unbound channel references are
rejected here, linearity is the typechecker's job.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple

from . import types as ty
from .process import (
    BINDING, Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork,
    Join, Nil, Process, Program, Select, Server, SourceSpan, Wait, fresh,
)

# type words and operators by text, and the binary ones by precedence level
_TYPE_WORDS = {word: (ctor, level) for ctor, (word, level) in ty._SYNTAX.items()}
_BINARY = {level: {w: c for w, (c, lv) in _TYPE_WORDS.items() if lv == level}
           for level in (ty._ADD, ty._MULT)}

# every keyword construct as its surface text, its fields marked `$`
FORMS: dict[type, str] = {
    Close: "close $chan",
    Fail: "fail $chan",
    Nil: "done $chan",
    Wait: "wait $chan; $body",
    Fork: "send $chan($payload){$payload_body}; $cont",
    Join: "recv $chan($payload); $body",
    Case: "case $chan{in1: $left; in2: $right}",
    Server: "server $chan($session){$accept} idle {$idle}",
    Cons: "client $chan($session){$client}; $pool",
    Cut: "new $chan : $anno {$left | $right}",
}

# the one-character tokens; "1" and "0" are type constants, so a name may not start with a digit
_SYMBOLS = frozenset("(){}:;,|.=+&*10")

# a FORMS row as (field, "") for a `$` field and ("", text) for a literal
_LEXEME = re.compile(r"\$(\w+)|(\w+|\S)")

KEYWORDS = ({"def", "main"}
            | {text for row in FORMS.values() for _, text in _LEXEME.findall(row)
               if text and text not in _SYMBOLS}
            | {word for word in _TYPE_WORDS if word.isalpha()})

# every token that is not a name: the keywords, the symbols and the end of input
_RESERVED = KEYWORDS | _SYMBOLS | {""}


def _steps(ctor: type, row: str) -> tuple[tuple[str, object], ...]:
    """The parse of a FORMS row after its leading word, as (role, argument)
    steps: ("token", text) for a literal, else (role, field) with
    the role of the field in `BINDING` (subject, binder, inside, outside),
    or "type" for the field `BINDING` does not name."""
    b = BINDING[ctor]
    fields = ctor.__match_args__
    role = {fields[i]: "inside" for i in b.inside} | {fields[i]: "outside" for i in b.outside}
    role |= {fields[i]: r for r, i in (("subject", b.subject), ("binder", b.binder)) if i is not None}
    return tuple((role.get(field, "type"), field) if field else ("token", text)
                 for field, text in _LEXEME.findall(row)[1:])


# each form by its leading word, with its parse steps
_FORMS = {row.split()[0]: (ctor, _steps(ctor, row)) for ctor, row in FORMS.items()}


class CsllError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ParseError(CsllError):
    pass


class ScopeError(CsllError):
    pass


# blanks and comments, then a token: a word, one other character, or the end
_TOKEN = re.compile(r"(?:[ \t\r\n]+|(--[^\n]*))*(?:([^\W\d]\w*|.)|\Z)")


class _Source:
    """A source's file name and the offset at which each of its lines starts."""

    def __init__(self, text: str, file: str):
        self.file = file
        self.line_starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def span(self, at: int, length: int = 1) -> SourceSpan:
        line = bisect_right(self.line_starts, at)
        return SourceSpan(self.file, line, at - self.line_starts[line - 1] + 1, length)


class Token(NamedTuple):
    """A word, a symbol, or "" at the end of input, at an offset of its source."""
    text: str
    at: int
    source: _Source

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.at, len(self.text) or 1)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    source = _Source(text, filename)
    toks = []
    for m in _TOKEN.finditer(text):
        word, at = m[2], m.start(2)
        if word is None:  # the end: after the blanks, but at a comment that runs to it
            at = m.start(1) if m.end(1) == len(text) else len(text)
            break
        # a name starts with a letter or "_"; the pattern's words also start at numerals such as "²"
        if not (word in _SYMBOLS or word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", source.span(at))
        toks.append(Token(word, at, source))
    toks.append(Token("", at, source))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        # call sites to validate once every signature is known
        self.calls: list[tuple[str, int, SourceSpan]] = []

    def peek(self, ahead: int = 0) -> Token:
        # the tokens end in "", which `next` never moves past: only a look-ahead is clamped
        return self.toks[min(self.pos + ahead, len(self.toks) - 1) if ahead else self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.text:
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.text in _RESERVED:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    # types ------------------------------------------------------------

    def type_expr(self) -> ty.SessionType:
        return self._binary(ty._ADD)

    def _binary(self, level: int) -> ty.SessionType:
        """A right-associative chain of operands, which bind tighter than
        `level`, joined by one operator of `level`; mixing two operators of a
        level needs parentheses."""
        if level not in _BINARY:
            return self._prefix()
        ctors = _BINARY[level]
        parts = [self._binary(level + 1)]
        op = self.peek().text
        while op in ctors and self.peek().text == op:
            self.next()
            parts.append(self._binary(level + 1))
        bad = self.peek()
        if bad.text in ctors:
            raise ParseError(f"mixing {' and '.join(repr(o) for o in ctors)} needs parentheses", bad.span)
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = ctors[op](part, out)
        return out

    def _prefix(self) -> ty.SessionType:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.type_expr()
            self.expect(")")
            return inner
        ctor, level = _TYPE_WORDS.get(tok.text, (None, 0))
        if level >= ty._PREFIX:  # a prefix or an atom
            self.next()
            return ctor(self._prefix()) if level == ty._PREFIX else ctor()
        raise ParseError(f"expected a type, found {tok.text or 'end of input'!r}", tok.span)

    # processes ----------------------------------------------------------

    def chan_ref(self, env: dict[str, ChannelName]) -> ChannelName:
        tok = self.ident("channel name")
        if tok.text not in env:
            raise ScopeError(f"unbound channel {tok.text!r}", tok.span)
        return env[tok.text]

    def process(self, env: dict[str, ChannelName]) -> Process:
        tok = self.peek()
        span = tok.span
        if tok.text in KEYWORDS:
            if tok.text not in _FORMS:
                raise ParseError(f"unexpected keyword {tok.text!r}", span)
            self.next()
            ctor, steps = _FORMS[tok.text]
            vals: dict[str, object] = {}
            inner = env  # the binder's scope
            for role, arg in steps:
                if role == "token":
                    self.expect(arg)
                elif role == "subject":
                    vals[arg] = self.chan_ref(env)
                elif role == "binder":
                    name = self.ident("channel name").text
                    vals[arg] = y = fresh(name)
                    inner = {**env, name: y}
                elif role == "type":
                    vals[arg] = self.type_expr()
                else:
                    vals[arg] = self.process(inner if role == "inside" else env)
            return ctor(**vals, span=span)
        if tok.text not in _RESERVED:
            if self.peek(1).text == ".":
                x = self.chan_ref(env)
                self.expect(".")
                tag_tok = self.next()
                if tag_tok.text not in ("in1", "in2"):  # only keywords are spelt so
                    raise ParseError("expected 'in1' or 'in2' after '.'", tag_tok.span)
                self.expect(";")
                return Select(x, int(tag_tok.text[2]), self.process(env), span=span)
            if self.peek(1).text == "(":
                name = self.next().text
                self.expect("(")
                args: list[ChannelName] = []
                if self.peek().text != ")":
                    args.append(self.chan_ref(env))
                    while self.peek().text == ",":
                        self.next()
                        args.append(self.chan_ref(env))
                self.expect(")")
                self.calls.append((name, len(args), span))
                return Call(name, tuple(args), span=span)
            raise ParseError(f"unexpected name {tok.text!r} (missing call arguments or '.'?)", span)
        raise ParseError(f"expected a process, found {tok.text or 'end of input'!r}", span)

    # programs -----------------------------------------------------------

    def params(self) -> tuple[tuple[ChannelName, ty.SessionType], ...]:
        self.expect("(")
        out: list[tuple[ChannelName, ty.SessionType]] = []
        seen: set[str] = set()
        if self.peek().text != ")":
            while True:
                tok = self.ident("parameter name")
                if tok.text in seen:
                    raise ScopeError(f"duplicate parameter {tok.text!r}", tok.span)
                seen.add(tok.text)
                self.expect(":")
                out.append((fresh(tok.text), self.type_expr()))
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(")")
        return tuple(out)

    def definition(self, name: str) -> Definition:
        """params '=' process, after the head of a def or main."""
        params = self.params()
        self.expect("=")
        return Definition(name, params, self.process({c.name: c for c, _ in params}))

    def program(self) -> Program:
        defs: dict[str, Definition] = {}
        main: Definition | None = None
        while (tok := self.next()).text:
            if tok.text == "def":
                name_tok = self.ident("definition name")
                if name_tok.text in defs:
                    raise ScopeError(f"duplicate definition {name_tok.text!r}", name_tok.span)
                defs[name_tok.text] = self.definition(name_tok.text)
            elif tok.text == "main":
                if main is not None:
                    raise ScopeError("duplicate main", tok.span)
                main = self.definition("main")
            else:
                raise ParseError(f"expected 'def' or 'main', found {tok.text or 'end of input'!r}", tok.span)
        for name, nargs, span in self.calls:
            if name not in defs:
                raise ScopeError(f"call to undefined process {name!r}", span)
            arity = len(defs[name].params)
            if nargs != arity:
                raise ScopeError(f"{name} takes {arity} argument(s), got {nargs}", span)
        return Program(defs, main)


def parse_program(text: str, filename: str = "<input>") -> Program:
    return _Parser(tokenize(text, filename)).program()


def parse_type(text: str, filename: str = "<type>") -> ty.SessionType:
    p = _Parser(tokenize(text, filename))
    t = p.type_expr()
    tok = p.peek()
    if tok.text:
        raise ParseError(f"trailing input after type: {tok.text!r}", tok.span)
    return t
