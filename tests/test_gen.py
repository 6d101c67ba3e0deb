from csll import types as ty
from csll.gen import Oracle, gen_finite_main, gen_program, gen_server_main
from csll.printer import pretty_program
from csll.parser import parse_program
from csll.typecheck import check_program


def test_oracle_base_cases():
    orc = Oracle()
    assert orc.completable((ty.ONE,))
    assert orc.completable((ty.Client(ty.ONE),))
    assert not orc.completable((ty.BOT,))
    assert not orc.completable(())
    assert orc.completable((ty.BOT, ty.ONE))
    assert orc.completable((ty.Top(), ty.Zero()))


def test_oracle_does_not_read_the_server_rule_backwards():
    # its accept premise keeps srv 1 and adds 1, so reading it backwards never bottoms out
    assert not Oracle().completable((ty.Server(ty.ONE),))


def test_oracle_dead_ends():
    # joining only produces more dead negatives
    t = ty.Par(ty.BOT, ty.BOT)
    assert not Oracle().completable((t,))
    assert Oracle().completable((t, ty.ONE))
    # two separate unit channels can never both be consumed without a split
    assert not Oracle().completable((ty.ONE, ty.ONE))


def test_generator_is_deterministic_per_seed():
    p1 = pretty_program(gen_program(42))
    p2 = pretty_program(gen_program(42))
    assert p1 == p2


def test_generated_finite_programs_accepted():
    for seed in range(150):
        prog = gen_finite_main(seed)
        rep = check_program(prog)
        assert rep.accepted, (seed, pretty_program(prog))


def test_generated_server_programs_accepted():
    for seed in range(60):
        prog = gen_server_main(seed)
        rep = check_program(prog)
        assert rep.accepted, (seed, pretty_program(prog))
        assert "Srv" in prog.defs


def test_generated_programs_parse_back():
    for seed in (0, 7, 19, 23):
        prog = gen_program(seed)
        text = pretty_program(prog)
        again = parse_program(text)
        assert check_program(again).accepted, text
