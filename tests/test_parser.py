import re

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from csll import types as ty
from csll.parser import FORMS, KEYWORDS, ParseError, ScopeError, parse_program, parse_type, tokenize
from csll.printer import pretty_process, pretty_program, pretty_type
from csll.process import (
    BINDING, Call, Case, Close, Cons, Cut, Definition, Fork, Join, Nil, Program, Server, Wait,
    free_names, fresh, rename,
)

from .conftest import CORPUS_FILES, load_corpus
from .oracles import alpha_equal, param_types
from .strategies import processes, session_types


def test_parse_lock_definition():
    prog = parse_program(
        "def Lock(x: srv bot, z: 1) = server x(y) { wait y; Lock(x, z) } idle { close z }")
    d = prog.defs["Lock"]
    assert param_types(d) == (ty.Server(ty.BOT), ty.ONE)
    assert isinstance(d.body, Server)
    assert isinstance(d.body.accept, Wait)
    assert d.body.accept.body == Call("Lock", d.param_names)


def test_parse_two_client_system():
    prog = parse_program(
        "def Lock(x: srv bot, z: 1) = server x(y) { wait y; Lock(x, z) } idle { close z }\n"
        "main(z: 1) = new x : cli 1 { client x(u){close u}; client x(v){close v}; done x"
        " | Lock(x, z) }")
    body = prog.main.body
    assert isinstance(body, Cut) and body.anno == ty.Client(ty.ONE)
    pool = body.left
    assert isinstance(pool, Cons) and isinstance(pool.pool, Cons)
    assert isinstance(body.right, Call)


@pytest.mark.parametrize("ctor", list(FORMS), ids=lambda c: c.__name__)
def test_printer_spells_each_form_as_its_row(ctor):
    # subject x, binder y, subterms `close y` inside the binder's scope and
    # `close z` outside it, and the type 1 for the field BINDING leaves over
    row = BINDING[ctor]
    x, y, z = fresh("x"), fresh("y"), fresh("z")
    vals, shown = [], {}
    for i, field in enumerate(ctor.__match_args__):
        v, text = ((x, "x") if i == row.subject else (y, "y") if i == row.binder
                   else (Close(y), "close y") if i in row.inside
                   else (Close(z), "close z") if i in row.outside else (ty.ONE, "1"))
        vals.append(v)
        shown[field] = text
    expected = re.sub(r"\$(\w+)", lambda m: shown[m[1]], FORMS[ctor])
    assert ([t.text for t in tokenize(pretty_process(ctor(*vals)))]
            == [t.text for t in tokenize(expected)])


def test_keywords():
    assert KEYWORDS == {
        "def", "main", "close", "wait", "fail", "send", "recv", "case", "server",
        "idle", "client", "done", "new", "in1", "in2", "srv", "cli", "bot", "top", "par"}


def test_scope_error_unbound():
    with pytest.raises(ScopeError) as exc:
        parse_program("def A(x: 1) = close y")
    assert "y" in str(exc.value)
    assert exc.value.span.line == 1


def test_duplicate_definition_rejected():
    with pytest.raises(ScopeError):
        parse_program("def A(x: 1) = close x\ndef A(x: 1) = close x")


@pytest.mark.parametrize("text, error, shown", [
    ("main(z: 1, z: 1) = close z", ScopeError, "t.csll:1:12: duplicate parameter 'z'"),
    ("main(z: 1) = close z\nmain(z: 1) = close z", ScopeError, "t.csll:2:1: duplicate main"),
    ("main(z: 1) = idle z", ParseError, "t.csll:1:14: unexpected keyword 'idle'"),
])
def test_parser_diagnostics_name_their_position(text, error, shown):
    with pytest.raises(error) as exc:
        parse_program(text, "t.csll")
    assert str(exc.value) == shown


def test_arity_mismatch_rejected():
    with pytest.raises(ScopeError):
        parse_program("def A(x: 1) = close x\nmain(z: 1) = A(z, z)")


def test_call_to_undefined_rejected():
    with pytest.raises(ScopeError):
        parse_program("main(z: 1) = B(z)")


def test_parse_type_examples():
    assert parse_type("cli 1") == ty.Client(ty.ONE)
    assert parse_type("(1 + 1) + (1 + 1)") == ty.Plus(ty.Plus(ty.ONE, ty.ONE),
                                                      ty.Plus(ty.ONE, ty.ONE))
    assert parse_type("srv bot") == ty.Server(ty.BOT)


def test_type_precedence_and_associativity():
    assert parse_type("1 + 1 * bot") == ty.Plus(ty.ONE, ty.Tensor(ty.ONE, ty.BOT))
    assert parse_type("1 + 1 + 1") == ty.Plus(ty.ONE, ty.Plus(ty.ONE, ty.ONE))
    assert parse_type("srv bot par bot") == ty.Par(ty.Server(ty.BOT), ty.BOT)
    with pytest.raises(ParseError):
        parse_type("1 + 1 & 1")
    with pytest.raises(ParseError):
        parse_type("1 * 1 par 1")


@pytest.mark.parametrize("text, message, column, length", [
    ("1 + bot & 1", "mixing '+' and '&' needs parentheses", 9, 1),
    ("1 & bot & 1 + bot", "mixing '+' and '&' needs parentheses", 13, 1),
    ("1 * bot par 1", "mixing '*' and 'par' needs parentheses", 9, 3),
    ("(1 + bot) par 1 * 1", "mixing '*' and 'par' needs parentheses", 17, 1),
])
def test_mixing_operators_needs_parentheses(text, message, column, length):
    with pytest.raises(ParseError) as exc:
        parse_type(text)
    assert exc.value.message == message
    span = exc.value.span
    assert (span.file, span.line, span.column, span.length) == ("<type>", 1, column, length)


def test_a_missing_symbol_is_named_as_written():
    with pytest.raises(ParseError) as exc:
        parse_program("main(z: 1) = recv z(y; close y")
    assert exc.value.message == "expected ')', found ';'"


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_program("def A(x: 1) = close")
    assert exc.value.span.line == 1
    assert 1 <= exc.value.span.column <= len("def A(x: 1) = close") + 1


def test_pretty_type_examples():
    assert pretty_type(ty.Plus(ty.ONE, ty.ONE)) == "1 + 1"
    assert pretty_type(ty.Server(ty.Par(ty.BOT, ty.BOT))) == "srv (bot par bot)"


@given(session_types)
def test_type_round_trip(t):
    assert parse_type(pretty_type(t)) == t


def _programs_alpha_equal(p1: Program, p2: Program) -> bool:
    if set(p1.defs) != set(p2.defs) or (p1.main is None) != (p2.main is None):
        return False

    def defs_match(d1: Definition, d2: Definition) -> bool:
        if param_types(d1) != param_types(d2):
            return False
        fm = dict(zip(d1.param_names, d2.param_names))
        return alpha_equal(d1.body, d2.body, fm)

    for name in p1.defs:
        if not defs_match(p1.defs[name], p2.defs[name]):
            return False
    return p1.main is None or defs_match(p1.main, p2.main)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_round_trip(name):
    prog = load_corpus(name)
    again = parse_program(pretty_program(prog), f"<pretty:{name}>")
    assert _programs_alpha_equal(prog, again)


@settings(max_examples=60)
@given(processes())
def test_random_process_round_trip(p):
    fn = sorted(free_names(p), key=lambda c: (c.name, c.uid))
    params = tuple((c, ty.ONE) for c in fn)
    prog = Program({}, Definition("main", params, p))
    text = pretty_program(prog)
    again = parse_program(text, "<pretty>")
    assert _programs_alpha_equal(prog, again), text


def _round_trips(p) -> bool:
    """p printed as the body of a main whose parameters are its free
    channels parses back alpha-equal."""
    params = tuple((c, ty.ONE) for c in sorted(free_names(p)))
    prog = Program({}, Definition("main", params, p))
    return _programs_alpha_equal(prog, parse_program(pretty_program(prog), "<pretty>"))


def test_a_binder_that_reuses_a_free_channel_prints_apart_from_it():
    # the free y is printed as y both after the binder's scope and as the
    # subject of the recv that binds it
    a, b, y = fresh("a"), fresh("b"), fresh("y")
    assert pretty_process(Fork(a, y, Close(y), Close(y))) == "send a(y2){ close y2 }; close y"
    assert pretty_process(Join(y, y, Close(y))) == "recv y(y2); close y2"
    terms = [Fork(a, y, Close(y), Close(y)), Join(y, y, Close(y)),
             Fork(a, y, Fork(y, y, Close(y), Close(y)), Close(y)),
             Cons(a, y, Close(y), Wait(y, Nil(a))), Server(a, y, Close(y), Wait(y, Nil(a))),
             Case(a, Cut(y, ty.ONE, Close(y), Wait(y, Close(b))), Close(y))]
    for t in terms:
        assert _round_trips(t), pretty_process(t)


def _reuse_free_channels(p, free: list):
    """An alpha-variant of p in which every binder is renamed, where it can
    be, to the first channel of free that its scope does not mention."""
    binding = BINDING[type(p)]
    *fields, _ = binding.fields(p)
    for i in binding.inside + binding.outside:
        fields[i] = _reuse_free_channels(fields[i], free)
    if binding.binder is not None:
        y = fields[binding.binder]
        in_scope = set().union(*(free_names(fields[i]) for i in binding.inside))
        spare = [c for c in free if c not in in_scope]
        if spare:
            for i in binding.inside:
                fields[i] = rename(fields[i], {y: spare[0]})
            fields[binding.binder] = spare[0]
    return type(p)(*fields)


@settings(max_examples=60)
@given(processes())
def test_binders_reusing_free_channels_round_trip(p):
    q = _reuse_free_channels(p, sorted(free_names(p)))
    assert free_names(q) == free_names(p)
    assert alpha_equal(q, p, {c: c for c in free_names(p)})
    assert _round_trips(q), pretty_process(q)


@settings(max_examples=120)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
def test_parse_errors_stay_inside_input(s):
    from csll.parser import CsllError
    try:
        parse_program(s)
    except CsllError as e:
        lines = s.split("\n")
        assert 1 <= e.span.line <= len(lines)
        assert e.span.column >= 1
        assert e.span.column <= len(lines[e.span.line - 1]) + 1
