"""Two-component systems: vector shadows, matrix operators, vector GFs."""

import pytest

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext
from jetcalc.cdiff import CartanShadow, CDiffOp, flow_linearization, linearization
from jetcalc.detsolve import Ansatz, generating_functions, shadows, span_contains
from jetcalc.variational import Density
from jetcalc.hamrec import apply_shadow, hamiltonian_flow, is_skew_adjoint, jacobi_check


@pytest.fixture
def wave():
    ctx = JetContext(("x", "t"), ("u", "v"), has_time=True)
    return ctx, EvolutionSystem(ctx, [ctx.parse("v_x"), ctx.parse("u_x")])


@pytest.fixture
def nls1():
    ctx = JetContext(("x", "t"), ("v", "w"), has_time=True)
    sys = EvolutionSystem(ctx, [ctx.parse("w_{xx} + (v^2 + w^2)*w"),
                                ctx.parse("-v_{xx} - (v^2 + w^2)*v")])
    return ctx, sys


@pytest.mark.parametrize("fixture", ["wave", "nls1"])
def test_linearization_is_dt_minus_flow_linearization(fixture, request):
    ctx, sys = request.getfixturevalue(fixture)
    one = DiffPoly.const(1)
    dt = CDiffOp(sys, 2, 2, [[{(1,): one}, {}], [{}, {(1,): one}]])
    expected = dt - flow_linearization(sys)
    assert linearization(sys) == expected and str(linearization(sys)) == str(expected)


def test_wave_shadows_identity_and_swap(wave):
    ctx, sys = wave
    basis = shadows(sys, Ansatz(0, 0, 0))
    assert len(basis) == 2
    swap = CartanShadow(ctx, ({("u", 1, ()): DiffPoly.const(1)},
                              {("u", 0, ()): DiffPoly.const(1)}))
    assert CartanShadow.identity(ctx) in basis.solutions
    assert swap in basis.solutions


def test_wave_swap_shadow_acts_on_symmetries(wave):
    ctx, sys = wave
    swap = CartanShadow(ctx, ({("u", 1, ()): DiffPoly.const(1)},
                              {("u", 0, ()): DiffPoly.const(1)}))
    out = apply_shadow(swap, [ctx.parse("u_x"), ctx.parse("v_x")], sys)
    assert out == [ctx.parse("v_x"), ctx.parse("u_x")]
    assert all(r.is_zero() for r in linearization(sys).apply(out))


def symplectic(ctx):
    one = DiffPoly.const(1)
    return CDiffOp(ctx, 2, 2, [[{}, {(): one}], [{(): -one}, {}]])


def test_constant_symplectic_operator_is_hamiltonian(wave):
    ctx, sys = wave
    J = symplectic(ctx)
    assert is_skew_adjoint(J)
    assert jacobi_check(J)


def test_wave_system_is_a_hamiltonian_flow(wave):
    ctx, sys = wave
    flow = hamiltonian_flow(symplectic(ctx), Density(ctx, ctx.parse("(v^2 + u_x^2)/2")))
    assert flow.f == (ctx.parse("v"), ctx.parse("u_{xx}"))


def test_nls_vector_generating_functions(nls1):
    ctx, sys = nls1
    basis = generating_functions(sys, Ansatz(1, 1, 0))
    assert len(basis) == 2
    assert span_contains(basis.solutions, (ctx.parse("v"), ctx.parse("w")))
    assert span_contains(basis.solutions, (ctx.parse("-w_x"), ctx.parse("v_x")))


def test_nls_mass_gf_matches_density(nls1):
    from jetcalc.variational import euler, is_generating_function

    ctx, sys = nls1
    psi = euler(Density(ctx, ctx.parse("v^2 + w^2")))[:2]
    assert psi == [ctx.parse("2*v"), ctx.parse("2*w")]
    assert is_generating_function(sys, psi)
