import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest
from hypothesis import given

import csll
from csll import formulas, process, proofs, runtime, typecheck
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


def record_classes() -> list[type]:
    """Every frozen dataclass the package defines."""
    modules = [importlib.import_module(f"csll.{m.name}") for m in pkgutil.iter_modules(csll.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen]


def plain_twin(cls: type) -> type:
    """A plain `dataclass(frozen=True)` with cls's name, bases, fields, slots and hash."""
    own = cls.__dict__.get("__annotations__", {})
    ns = {"__module__": cls.__module__, "__qualname__": cls.__qualname__, "__annotations__": dict(own)}
    for f in dataclasses.fields(cls):
        if f.name in own:
            ns[f.name] = dataclasses.field(default=f.default, repr=f.repr, hash=f.hash, compare=f.compare,
                                           kw_only=f.kw_only)
    if cls.__hash__ is ty.SessionType.__hash__:  # a connective's hash covers its class
        ns["__hash__"] = lambda self: hash(cls(*vars(self).values()))
    slots = "__slots__" in cls.__dict__
    return dataclasses.dataclass(frozen=True, slots=slots)(type(cls.__name__, cls.__bases__, ns))


def test_records_behave_as_plain_frozen_dataclasses():
    classes = record_classes()
    assert {ty.Tensor, process.Cut, process.Process, typecheck.DerivEdge, proofs.ProofNode,
            formulas.Occurrence, runtime.RedexInfo} <= set(classes)
    for cls in classes:
        plain = plain_twin(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == [f.name for f in dataclasses.fields(plain)], cls
        assert cls.__match_args__ == plain.__match_args__, cls
        if names:
            assert inspect.signature(cls.__init__) == inspect.signature(plain.__init__), cls
        else:  # no __init__ is generated for a class without fields
            assert cls.__init__ is object.__init__
        values = {name: f"v{i}" for i, name in enumerate(names)}
        r, p = cls(**values), plain(**values)
        assert repr(r) == repr(p) and hash(r) == hash(p), cls
        if "__slots__" in cls.__dict__:  # a slotted record still has no __dict__
            assert cls.__slots__ == plain.__slots__ and not hasattr(r, "__dict__"), cls
        for i, name in enumerate(names):
            assert getattr(r, name) == values[name]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, "w")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, name)
            other = {**values, name: f"w{i}"}
            r2, p2 = dataclasses.replace(r, **{name: f"w{i}"}), dataclasses.replace(p, **{name: f"w{i}"})
            assert type(r2) is cls and r2 == cls(**other) and repr(r2) == repr(p2)
            assert (r == r2) == (p == p2) and (hash(r) == hash(r2)) == (hash(p) == hash(p2)), (cls, name)


def test_a_record_keeps_the_docstring_and_defaults_dataclass_gives():
    def fields_of(ns: dict) -> type:
        return type("Pair", (), {"__annotations__": {"a": "int", "b": "str"}, "b": "x", **ns})

    r = ty.record(fields_of({}))
    p = dataclasses.dataclass(frozen=True)(fields_of({}))
    assert r.__doc__ == p.__doc__ == "Pair(a: 'int', b: 'str' = 'x')"
    assert ty.record(fields_of({"__doc__": "A pair."})).__doc__ == "A pair."
    unit = ty.record(type("Unit", (), {}))
    assert unit.__doc__ == dataclasses.dataclass(frozen=True)(type("Unit", (), {})).__doc__ == "Unit()"
    assert unit() == unit() and repr(unit()) == "Unit()"
    assert r(1) == r(1, "x") == r(a=1) and r(1) != r(1, "y") and repr(r(1)) == repr(p(1))
    with pytest.raises(TypeError):
        r()
    with pytest.raises(TypeError):
        r(1, "x", 2)
