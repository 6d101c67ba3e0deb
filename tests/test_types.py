import copy
import pickle

from hypothesis import given

from csll import types as ty
from csll.parser import parse_type

from .oracles import depth, is_positive
from .strategies import session_types


def test_dual_swaps_plus_with():
    t = parse_type("(1 + 1) + (1 + 1)")
    assert ty.dual(ty.Plus(ty.ONE, t)) == ty.With(ty.BOT, ty.dual(t))


def test_dual_server_client():
    t = ty.Par(ty.BOT, ty.ONE)
    assert ty.dual(ty.Server(t)) == ty.Client(ty.dual(t))
    assert ty.dual(ty.Client(ty.ONE)) == ty.Server(ty.BOT)


@given(session_types)
def test_dual_involution(t):
    assert ty.dual(ty.dual(t)) == t


@given(session_types)
def test_polarity_flips(t):
    assert is_positive(t) != is_positive(ty.dual(t))


def test_depth():
    assert depth(parse_type("srv (bot par 1)")) == 3


def test_trees_of_one_shape_hash_apart():
    atoms = (ty.ONE, ty.BOT, ty.Top(), ty.Zero())
    binary = [ctor(a, b) for ctor in (ty.Tensor, ty.Par, ty.Plus, ty.With) for a in atoms for b in atoms]
    assert len({hash(t) for t in atoms}) == 4
    assert len({hash(t) for t in binary}) == 64
    assert hash(ty.Server(ty.ONE)) != hash(ty.Client(ty.ONE))


def test_copies_are_equal_and_hash_alike():
    t = parse_type("srv (bot par 1) + cli 0")
    h = hash(t)
    for c in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert c == t and hash(c) == h
