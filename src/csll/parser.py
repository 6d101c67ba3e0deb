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

_SYMBOLS = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ":": "COLON", ";": "SEMI", ",": "COMMA", "|": "PIPE", ".": "DOT",
    "=": "EQUALS", "+": "PLUS", "&": "AMP", "*": "STAR",
    "1": "ONE", "0": "ZERO",  # type constants; identifiers may not start with a digit
}

_SPELLING = {kind: symbol for symbol, kind in _SYMBOLS.items()}

# a FORMS row as (field, "") for a `$` field and ("", text) for a literal
_LEXEME = re.compile(r"\$(\w+)|(\w+|\S)")

KEYWORDS = ({"def", "main"}
            | {text for row in FORMS.values() for _, text in _LEXEME.findall(row)
               if text and text not in _SYMBOLS}
            | {word for word in _TYPE_WORDS if word.isalpha()})


def _steps(ctor: type, row: str) -> tuple[tuple[str, object], ...]:
    """The parse of a FORMS row after its leading word, as (role, argument)
    steps: ("token", (kind, text)) for a literal, else (role, field) with
    the role of the field in `BINDING` (subject, binder, inside, outside),
    or "type" for the field `BINDING` does not name."""
    b = BINDING[ctor]
    fields = ctor.__match_args__
    role = {fields[i]: "inside" for i in b.inside} | {fields[i]: "outside" for i in b.outside}
    role |= {fields[i]: r for r, i in (("subject", b.subject), ("binder", b.binder)) if i is not None}
    return tuple((role.get(field, "type"), field) if field
                 else ("token", (_SYMBOLS[text], None) if text in _SYMBOLS else ("KEYWORD", text))
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


@ty.record
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if ch in _SYMBOLS:
            toks.append(Token(_SYMBOLS[ch], ch, span))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            span = SourceSpan(filename, line, col, len(word))
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            toks.append(Token(kind, word, span))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    toks.append(Token("EOF", "", SourceSpan(filename, line, col)))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        # call sites to validate once every signature is known
        self.calls: list[tuple[str, int, SourceSpan]] = []

    def peek(self, ahead: int = 0) -> Token:
        # the tokens end in EOF, which `next` never moves past: only a look-ahead is clamped
        return self.toks[min(self.pos + ahead, len(self.toks) - 1) if ahead else self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or _SPELLING[kind]
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.text == word

    def ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
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
        if tok.kind == "LPAREN":
            self.next()
            inner = self.type_expr()
            self.expect("RPAREN")
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
        if tok.kind == "KEYWORD":
            if tok.text not in _FORMS:
                raise ParseError(f"unexpected keyword {tok.text!r}", span)
            self.next()
            ctor, steps = _FORMS[tok.text]
            vals: dict[str, object] = {}
            inner = env  # the binder's scope
            for role, arg in steps:
                if role == "token":
                    self.expect(*arg)
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
        if tok.kind == "IDENT":
            if self.peek(1).kind == "DOT":
                x = self.chan_ref(env)
                self.expect("DOT")
                tag_tok = self.next()
                if tag_tok.text not in ("in1", "in2"):  # only keywords are spelt so
                    raise ParseError("expected 'in1' or 'in2' after '.'", tag_tok.span)
                self.expect("SEMI")
                return Select(x, int(tag_tok.text[2]), self.process(env), span=span)
            if self.peek(1).kind == "LPAREN":
                name = self.next().text
                self.expect("LPAREN")
                args: list[ChannelName] = []
                if self.peek().kind != "RPAREN":
                    args.append(self.chan_ref(env))
                    while self.peek().kind == "COMMA":
                        self.next()
                        args.append(self.chan_ref(env))
                self.expect("RPAREN")
                self.calls.append((name, len(args), span))
                return Call(name, tuple(args), span=span)
            raise ParseError(f"unexpected name {tok.text!r} (missing call arguments or '.'?)", span)
        raise ParseError(f"expected a process, found {tok.text or 'end of input'!r}", span)

    # programs -----------------------------------------------------------

    def params(self) -> tuple[tuple[ChannelName, ty.SessionType], ...]:
        self.expect("LPAREN")
        out: list[tuple[ChannelName, ty.SessionType]] = []
        seen: set[str] = set()
        if self.peek().kind != "RPAREN":
            while True:
                tok = self.ident("parameter name")
                if tok.text in seen:
                    raise ScopeError(f"duplicate parameter {tok.text!r}", tok.span)
                seen.add(tok.text)
                self.expect("COLON")
                out.append((fresh(tok.text), self.type_expr()))
                if self.peek().kind != "COMMA":
                    break
                self.next()
        self.expect("RPAREN")
        return tuple(out)

    def definition(self, name: str) -> Definition:
        """params '=' process, after the head of a def or main."""
        params = self.params()
        self.expect("EQUALS")
        return Definition(name, params, self.process({c.name: c for c, _ in params}))

    def program(self) -> Program:
        defs: dict[str, Definition] = {}
        main: Definition | None = None
        while self.peek().kind != "EOF":
            if self.at_keyword("def"):
                self.next()
                name_tok = self.ident("definition name")
                if name_tok.text in defs:
                    raise ScopeError(f"duplicate definition {name_tok.text!r}", name_tok.span)
                defs[name_tok.text] = self.definition(name_tok.text)
            elif self.at_keyword("main"):
                tok = self.next()
                if main is not None:
                    raise ScopeError("duplicate main", tok.span)
                main = self.definition("main")
            else:
                tok = self.peek()
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
    if tok.kind != "EOF":
        raise ParseError(f"trailing input after type: {tok.text!r}", tok.span)
    return t
