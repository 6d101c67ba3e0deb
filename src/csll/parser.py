"""Concrete syntax for programs and types.

Grammar sketch (`--` starts a line comment):

    program  ::= (def | main)*
    def      ::= 'def' NAME '(' params ')' '=' process
    main     ::= 'main' '(' params ')' '=' process
    params   ::= [NAME ':' type (',' NAME ':' type)*]
    process  ::= 'close' NAME | 'wait' NAME ';' process | 'fail' NAME
               | 'send' NAME '(' NAME ')' '{' process '}' ';' process
               | 'recv' NAME '(' NAME ')' ';' process
               | NAME '.' ('in1'|'in2') ';' process
               | 'case' NAME '{' 'in1' ':' process ';' 'in2' ':' process '}'
               | 'server' NAME '(' NAME ')' '{' process '}' 'idle' '{' process '}'
               | 'client' NAME '(' NAME ')' '{' process '}' ';' process
               | 'done' NAME
               | 'new' NAME ':' type '{' process '|' process '}'
               | NAME '(' [NAME (',' NAME)*] ')'
    type     ::= additive; additive ::= mult (('+'|'&') additive)?
    mult     ::= prefix (('*'|'par') mult)?; prefix ::= ('srv'|'cli') prefix | atom
    atom     ::= '1' | '0' | 'bot' | 'top' | '(' type ')'

The words of types and their precedence levels are `types._SYNTAX`'s.
Binary type operators are right-associative; different operators at the same
precedence level must be parenthesized.  Binders are resolved to channels
with fresh unique ids during parsing; unbound channel references are
rejected here, linearity is the typechecker's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import types as ty
from .process import (
    Call, Case, ChannelName, Close, Cons, Cut, Definition, Fail, Fork, Join,
    Nil, Process, Program, Select, Server, SourceSpan, Wait, fresh,
)

# type words and operators by text, and the binary ones by precedence level
_TYPE_WORDS = {word: (ctor, level) for ctor, (word, level) in ty._SYNTAX.items()}
_BINARY = {level: {w: c for w, (c, lv) in _TYPE_WORDS.items() if lv == level}
           for level in (ty._ADD, ty._MULT)}

KEYWORDS = {
    "def", "main", "close", "wait", "fail", "send", "recv", "case", "server",
    "idle", "client", "done", "new", "in1", "in2",
} | {word for word in _TYPE_WORDS if word.isalpha()}

_LEAVES = {"close": Close, "fail": Fail, "done": Nil}

_SYMBOLS = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ":": "COLON", ";": "SEMI", ",": "COMMA", "|": "PIPE", ".": "DOT",
    "=": "EQUALS", "+": "PLUS", "&": "AMP", "*": "STAR",
    "1": "ONE", "0": "ZERO",  # type constants; identifiers may not start with a digit
}


class CsllError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ParseError(CsllError):
    pass


class ScopeError(CsllError):
    pass


@dataclass(frozen=True)
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
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind.lower()
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "KEYWORD" and tok.text == word

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_keyword(word):
            raise ParseError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

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

    def binder(self) -> str:
        """'(' NAME ')': the name a construct binds."""
        self.expect("LPAREN")
        name = self.ident("channel name").text
        self.expect("RPAREN")
        return name

    def block(self, env: dict[str, ChannelName]) -> Process:
        self.expect("LBRACE")
        body = self.process(env)
        self.expect("RBRACE")
        return body

    def process(self, env: dict[str, ChannelName]) -> Process:
        tok = self.peek()
        span = tok.span
        if tok.kind == "KEYWORD":
            word = tok.text
            if word in _LEAVES:
                self.next()
                return _LEAVES[word](self.chan_ref(env), span=span)
            if word == "wait":
                self.next()
                x = self.chan_ref(env)
                self.expect("SEMI")
                return Wait(x, self.process(env), span=span)
            if word in ("send", "client"):
                self.next()
                x = self.chan_ref(env)
                name = self.binder()
                y = fresh(name)
                body = self.block({**env, name: y})
                self.expect("SEMI")
                return (Fork if word == "send" else Cons)(x, y, body, self.process(env), span=span)
            if word == "recv":
                self.next()
                x = self.chan_ref(env)
                name = self.binder()
                self.expect("SEMI")
                y = fresh(name)
                return Join(x, y, self.process({**env, name: y}), span=span)
            if word == "case":
                self.next()
                x = self.chan_ref(env)
                self.expect("LBRACE")
                self.expect_keyword("in1")
                self.expect("COLON")
                left = self.process(env)
                self.expect("SEMI")
                self.expect_keyword("in2")
                self.expect("COLON")
                right = self.process(env)
                self.expect("RBRACE")
                return Case(x, left, right, span=span)
            if word == "server":
                self.next()
                x = self.chan_ref(env)
                name = self.binder()
                y = fresh(name)
                accept = self.block({**env, name: y})
                self.expect_keyword("idle")
                return Server(x, y, accept, self.block(env), span=span)
            if word == "new":
                self.next()
                xtok = self.ident("channel name")
                self.expect("COLON")
                anno = self.type_expr()
                x = fresh(xtok.text)
                env2 = {**env, xtok.text: x}
                self.expect("LBRACE")
                left = self.process(env2)
                self.expect("PIPE")
                right = self.process(env2)
                self.expect("RBRACE")
                return Cut(x, anno, left, right, span=span)
            raise ParseError(f"unexpected keyword {word!r}", span)
        if tok.kind == "IDENT":
            if self.peek(1).kind == "DOT":
                x = self.chan_ref(env)
                self.expect("DOT")
                tag_tok = self.peek()
                if not (self.at_keyword("in1") or self.at_keyword("in2")):
                    raise ParseError("expected 'in1' or 'in2' after '.'", tag_tok.span)
                self.next()
                tag = 1 if tag_tok.text == "in1" else 2
                self.expect("SEMI")
                return Select(x, tag, self.process(env), span=span)
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
