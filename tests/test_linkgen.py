import random

from csll import types as ty
from csll.linkgen import gen_link, link_name
from csll.parser import parse_program
from csll.printer import pretty_program
from csll.process import Call, Fail, Server, Wait
from csll.typecheck import check_program

from .oracles import param_types, random_any_type


def test_link_bot_shape():
    prog = gen_link(ty.BOT)
    d = prog.defs[link_name(ty.BOT)]
    assert param_types(d) == (ty.BOT, ty.ONE)
    assert isinstance(d.body, Wait)


def test_link_top_shape():
    prog = gen_link(ty.TOP)
    d = prog.defs[link_name(ty.TOP)]
    assert param_types(d) == (ty.TOP, ty.ZERO)
    assert isinstance(d.body, Fail)
    assert check_program(prog).accepted


def test_link_server_recurses_through_client_pool():
    t = ty.Server(ty.BOT)
    prog = gen_link(t)
    d = prog.defs[link_name(t)]
    assert isinstance(d.body, Server)
    rep = check_program(prog)
    assert rep.accepted
    # the recursive cycle passes the server rule on the first parameter
    assert rep.report_for(link_name(t)).validity.verdict == "valid"


def test_positive_dispatch_swaps_arguments():
    prog = gen_link(ty.ONE)
    d = prog.defs[link_name(ty.ONE)]
    body = d.body
    assert isinstance(body, Call)
    assert body.name == link_name(ty.BOT)
    assert body.args == (d.param_names[1], d.param_names[0])
    assert check_program(prog).accepted


def test_generated_families_parse_back():
    prog = gen_link(ty.Server(ty.Par(ty.BOT, ty.BOT)))
    text = pretty_program(prog)
    again = parse_program(text)
    assert set(again.defs) == set(prog.defs)
    assert check_program(again).accepted


def test_every_depth2_family_accepted():
    atoms = [ty.ONE, ty.BOT, ty.TOP, ty.ZERO]
    depth2 = [ctor(a) for ctor in (ty.Server, ty.Client) for a in atoms]
    depth2 += [ctor(a, b) for ctor in (ty.Tensor, ty.Par, ty.Plus, ty.With)
               for a in atoms for b in atoms]
    for t in atoms + depth2:
        assert check_program(gen_link(t)).accepted, t


def test_sampled_deep_families_accepted():
    rng = random.Random(7)
    for _ in range(40):
        t = random_any_type(rng, depth=4)
        assert check_program(gen_link(t)).accepted, t


def test_forwarder_is_behaviorally_transparent():
    # splicing the server forwarder between the clients and the lock changes
    # nothing observable: the system still drains to close z
    from csll.parser import parse_program
    from csll.printer import pretty_process
    from csll.runtime import explore, run

    fam = pretty_program(gen_link(ty.Server(ty.BOT)))
    text = (
        "def Lock(x: srv bot, z: 1) = server x(y) { wait y; Lock(x, z) } idle { close z }\n\n"
        + fam + "\n"
        + "main(z: 1) =\n"
        + "  new a : cli 1 {\n"
        + "    client a(u) { close u }; client a(v) { close v }; done a\n"
        + "    | new b : cli 1 { Link_srv_bot(a, b) | Lock(b, z) }\n"
        + "  }\n")
    prog = parse_program(text, "<spliced>")
    assert check_program(prog).accepted
    tr = run(prog.main.body, dict(prog.main.params), prog, scheduler="det", max_steps=200)
    assert tr.terminated and pretty_process(tr.final) == "close z"
    g = explore(prog.main.body, prog, max_states=500, max_depth=500)
    assert {pretty_process(g.states[i]) for i in g.normal_forms()} == {"close z"}
