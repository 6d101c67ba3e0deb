import random

from hypothesis import given
import hypothesis.strategies as st

from csll import formulas as mf
from csll import types as ty
from csll.formulas import Address, Occurrence, occ_step

from .oracles import is_nu, min_formula, random_any_type, subformula_leq
from .strategies import session_types


def test_encode_client_one():
    got = mf.encode_type(ty.Client(ty.ONE))
    want = mf.Mu("X", mf.Plus(mf.F_ONE, mf.Tensor(mf.F_ONE, mf.Var("X"))))
    assert got == want


def test_encode_server_bot():
    got = mf.encode_type(ty.Server(ty.BOT))
    want = mf.Nu("X", mf.With(mf.F_BOT, mf.Par(mf.F_BOT, mf.Var("X"))))
    assert got == want


def test_encode_constants_homomorphic():
    assert mf.encode_type(ty.ONE) == mf.F_ONE
    assert mf.encode_type(ty.Tensor(ty.ONE, ty.BOT)) == mf.Tensor(mf.F_ONE, mf.F_BOT)


def test_dual_of_encoded_client_is_encoded_server():
    got = mf.dual_formula(mf.encode_type(ty.Client(ty.ONE)))
    assert got == mf.encode_type(ty.Server(ty.BOT))


@given(session_types)
def test_encode_commutes_with_duality(t):
    assert mf.encode_type(ty.dual(t)) == mf.dual_formula(mf.encode_type(t))


def test_encode_dual_commutation_bulk():
    rng = random.Random(13)
    for _ in range(1000):
        t = random_any_type(rng, depth=4)
        assert mf.encode_type(ty.dual(t)) == mf.dual_formula(mf.encode_type(t))


@given(session_types)
def test_dual_formula_involution(t):
    phi = mf.encode_type(t)
    assert mf.dual_formula(mf.dual_formula(phi)) == phi


# --- subformula ordering -------------------------------------------------------


def _phi_psi():
    phi = mf.Mu("X", mf.Nu("Y", mf.Plus(mf.Var("X"), mf.Var("Y"))))
    psi = mf.Nu("Y", mf.Plus(phi, mf.Var("Y")))
    return phi, psi


def test_subformula_example_holds():
    phi, psi = _phi_psi()
    assert subformula_leq(phi, psi)


def test_subformula_example_converse_fails():
    phi, psi = _phi_psi()
    assert not subformula_leq(psi, phi)


def test_subformula_reflexive():
    phi, _ = _phi_psi()
    assert subformula_leq(phi, phi)


# --- addresses and descent ------------------------------------------------------


def test_address_dual_is_involution():
    a = Address(3, False, "ir")
    assert a.dual().dual() == a
    assert a.dual().word == "ir" and a.dual().bar


def test_address_disjointness():
    a = Address(0, False, "il")
    assert mf.disjoint(a, Address(0, False, "ir"))
    assert mf.disjoint(a, Address(0, True, "il"))
    assert not mf.disjoint(a, Address(0, False, "ilr"))


def test_occ_step_worked_example():
    # phi = mu X.(X + 1); its descent from address a goes to the unfolding at
    # a.i and then to the components at a.il / a.ir
    phi = mf.Mu("X", mf.Plus(mf.Var("X"), mf.F_ONE))
    a = Address(0, False)
    (unfolded,) = occ_step(Occurrence(phi, a))
    assert unfolded.formula == mf.Plus(phi, mf.F_ONE)
    assert unfolded.address == Address(0, False, "i")
    left, right = occ_step(unfolded)
    assert left == Occurrence(phi, Address(0, False, "il"))
    assert right == Occurrence(mf.F_ONE, Address(0, False, "ir"))


def test_mu_thread_is_not_nu_thread():
    phi = mf.Mu("X", mf.Plus(mf.Var("X"), mf.F_ONE))
    inf_often = {phi, mf.Plus(phi, mf.F_ONE)}
    m = min_formula(inf_often)
    assert m == phi
    assert not is_nu(m)


def test_t1_is_nu_thread():
    phi = mf.Nu("X", mf.Mu("Y", mf.Plus(mf.Var("X"), mf.Var("Y"))))
    psi = mf.Mu("Y", mf.Plus(phi, mf.Var("Y")))
    # thread looping back to phi: phi, psi, phi + psi, phi, ...
    inf_often = {phi, psi, mf.Plus(phi, psi)}
    m = min_formula(inf_often)
    assert m == phi
    assert is_nu(m)


def test_t2_is_not_nu_thread():
    phi = mf.Nu("X", mf.Mu("Y", mf.Plus(mf.Var("X"), mf.Var("Y"))))
    psi = mf.Mu("Y", mf.Plus(phi, mf.Var("Y")))
    # thread looping inside psi: psi, phi + psi, psi, ...
    inf_often = {psi, mf.Plus(phi, psi)}
    m = min_formula(inf_often)
    assert m == psi
    assert not is_nu(m)


def test_threads_follow_descent():
    # the two fixture threads really are descent chains
    phi = mf.Nu("X", mf.Mu("Y", mf.Plus(mf.Var("X"), mf.Var("Y"))))
    psi = mf.Mu("Y", mf.Plus(phi, mf.Var("Y")))
    a = Address(0, False)
    t0 = Occurrence(phi, a)
    (t1,) = occ_step(t0)
    assert t1.formula == psi
    (t2,) = occ_step(t1)
    assert t2.formula == mf.Plus(phi, psi)
    branches = occ_step(t2)
    assert branches[0].formula == phi and branches[1].formula == psi


def test_render_formula_ascii():
    phi = mf.encode_type(ty.Client(ty.ONE))
    assert mf.render_formula(phi) == "mu X. (1 (+) (1 (x) X))"
    assert mf.render_formula(mf.encode_type(ty.Server(ty.BOT))) == "nu X. (bot (&) (bot (par) X))"


@given(st.integers(min_value=0, max_value=10_000))
def test_min_formula_of_singleton(n):
    rng = random.Random(n)
    phi = mf.encode_type(random_any_type(rng, 3))
    assert min_formula([phi]) == phi
