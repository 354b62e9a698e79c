import json
import os
from fractions import Fraction

import pytest

from jetcalc import hamrec
from jetcalc.cli import main
from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext
from jetcalc.cdiff import CartanShadow, CDiffOp, linearization
from jetcalc.variational import Density, dx_inverse, is_divergence
from jetcalc.hamrec import (
    NonlocalObstruction,
    NotFlat,
    PreconditionFailed,
    ScopeError,
    VerificationFailed,
    apply_shadow,
    dx_inverse_extended,
    extended_linearization_residual,
    gf_to_symmetry,
    hamiltonian_flow,
    is_skew_adjoint,
    jacobi_check,
    jacobi_criterion_density,
    make_covering,
    poisson_bracket,
)

from conftest import random_internal


@pytest.fixture
def pot(burgers, ctx):
    return make_covering(burgers, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_x")])])


@pytest.fixture
def kpot(kdv, ctx):
    return make_covering(kdv, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_{xx}")])])


def Dx(ctx):
    return CDiffOp.d(ctx, 0)


def kdv_second_structure(ctx):
    return (Dx(ctx).compose(Dx(ctx)).compose(Dx(ctx))
            + CDiffOp.mult(ctx, ctx.parse("2/3*u")).compose(Dx(ctx))
            + CDiffOp.mult(ctx, ctx.parse("1/3*u_x")))


def test_covering_flatness(pot, kpot, burgers, ctx):
    assert [l.name for l in pot.layers] == ["w"]
    with pytest.raises(NotFlat) as err:
        make_covering(burgers, [("w", [ctx.parse("u"), ctx.parse("u")])])
    assert err.value.residue in (ctx.parse("u*u_x + u_{xx} - u_x"), ctx.parse("u_x - u*u_x - u_{xx}"))


def test_covering_scope(burgers, ctx):
    with pytest.raises(ScopeError):
        make_covering(burgers, [("w", [ctx.with_nonlocals(("w",)).parse("w"), ctx.parse("u")])])


def test_extended_derivative_examples(pot):
    w = pot.parse("w")
    assert pot.derive(0, w) == pot.parse("u")
    assert pot.derive(1, w) == pot.parse("u^2/2 + u_x")
    assert pot.derive(0, w * w) == pot.parse("2*w*u")


def test_extended_commutator_on_random(pot, rng):
    ctx = pot.base.ctx
    for _ in range(30):
        p = random_internal(rng, ctx) * pot.parse("w") + random_internal(rng, ctx)
        assert pot.derive(0, pot.derive(1, p)) == pot.derive(1, pot.derive(0, p))


def burgers_recursion(ctx, pot):
    return CartanShadow(pot.ctx, ({("u", 0, (0,)): DiffPoly.const(1),
                                   ("u", 0, ()): ctx.parse("u/2"),
                                   ("w", 0): ctx.parse("u_x/2")},))


def test_apply_shadow_examples(burgers, ctx, pot):
    R = burgers_recursion(ctx, pot)
    out = apply_shadow(R, [ctx.parse("u_x")], pot)
    assert out[0] == ctx.parse("u_{xx} + u*u_x")
    out2 = apply_shadow(R, [ctx.parse("u*u_x + u_{xx}")], pot)
    assert out2[0] == ctx.parse("u_{xxx} + 3/2*u*u_{xx} + 3/2*u_x^2 + 3/4*u^2*u_x")
    ident = CartanShadow.identity(pot.ctx)
    phi = [ctx.parse("t*u_x + 1")]
    assert apply_shadow(ident, phi, pot) == phi


def test_a_covering_form_needs_a_space_with_its_layer(burgers, ctx, pot):
    from jetcalc.cdiff import RegimeMismatch

    with pytest.raises(RegimeMismatch):
        apply_shadow(burgers_recursion(ctx, pot), [ctx.parse("u_x")], burgers)


def test_iterated_recursion_gives_symmetries(burgers, ctx, pot):
    R = burgers_recursion(ctx, pot)
    ell = linearization(burgers)
    phi = [ctx.parse("u_x")]
    for _ in range(3):
        phi = apply_shadow(R, phi, pot)
        assert ell.apply(phi)[0].is_zero()


def test_kdv_recursion_reaches_fifth_order_flow(kdv, ctx, kpot):
    R = CartanShadow(kpot.ctx, ({("u", 0, (0, 0)): DiffPoly.const(1),
                                 ("u", 0, ()): ctx.parse("2*u/3"),
                                 ("w", 0): ctx.parse("u_x/3")},))
    r1 = apply_shadow(R, [ctx.parse("u_x")], kpot)
    assert r1[0] == ctx.parse("u*u_x + u_{xxx}")
    r2 = apply_shadow(R, r1, kpot)
    assert r2[0] == ctx.parse("u_{xxxxx} + 5/3*u*u_{xxx} + 10/3*u_x*u_{xx} + 5/6*u^2*u_x")


def test_apply_shadow_galilean(burgers, ctx, pot):
    R = burgers_recursion(ctx, pot)
    out = apply_shadow(R, [ctx.parse("t*u_x + 1")], pot)
    assert all(v.kind != 2 for v in out[0].variables())
    assert linearization(burgers).apply(out)[0].is_zero()


def test_dx_inverse_extended(pot, ctx):
    assert dx_inverse_extended(pot, pot.parse("u")) == pot.parse("w")
    assert dx_inverse_extended(pot, pot.parse("u_x*w + u^2")) == pot.parse("u*w - w^2/2") \
        or pot.derive(0, dx_inverse_extended(pot, pot.parse("u_x*w + u^2"))) == pot.parse("u_x*w + u^2")
    with pytest.raises(NonlocalObstruction):
        dx_inverse_extended(pot, pot.parse("w"))


def test_dx_inverse_extended_stops_when_the_top_order_does_not_fall():
    ctx = JetContext(("x", "t"), ("u", "v"), has_time=True)
    heat = EvolutionSystem(ctx, [ctx.parse("u_{xx}"), ctx.parse("v_{xx}")])
    cov = make_covering(heat, [("w", [ctx.parse("u"), ctx.parse("u_x")])])
    with pytest.raises(NonlocalObstruction) as err:
        dx_inverse_extended(cov, ctx.parse("v_x*u_{xx}"))
    assert err.value.remainder == ctx.parse("-u_x*v_{xx}")
    assert dx_inverse_extended(cov, ctx.parse("v_x*u_{xx} + u_x*v_{xx} + u")) == cov.parse("u_x*v_x + w")


def test_dx_inverse_extended_with_jet_dependent_covering():
    # w_x = u_x brings order-1 terms back: w*u_x takes two passes at order 1
    ctx = JetContext(("x", "t"), ("u", "v"), has_time=True)
    heat = EvolutionSystem(ctx, [ctx.parse("u_{xx}"), ctx.parse("v_{xx}")])
    cov = make_covering(heat, [("w", [ctx.parse("u_x"), ctx.parse("u_{xx}")])])
    assert dx_inverse_extended(cov, cov.parse("w*u_x")) == cov.parse("w*u - u^2/2")
    # v*u_x is not exact: the second pass (-u*v_x) does not shrink the profile
    with pytest.raises(NonlocalObstruction) as err:
        dx_inverse_extended(cov, cov.parse("v*u_x"))
    assert err.value.remainder == ctx.parse("-u*v_x")


def test_extended_linearization_residual(pot, ctx):
    assert extended_linearization_residual(pot, [pot.parse("u_x")])[0].is_zero()
    assert not extended_linearization_residual(pot, [pot.parse("u")])[0].is_zero()


def test_a_covering_is_an_equation_with_the_extended_derivatives(pot, ctx, rng):
    from jetcalc.jetspace import NotInternal

    ell = linearization(pot)
    assert ell.space is pot and ell.ctx == pot.ctx
    D = pot.derive
    for _ in range(10):
        psi = random_internal(rng, ctx) * pot.parse("w") + random_internal(rng, ctx)
        # D̃_t psi - (u_x psi + u D̃_x psi + D̃_x^2 psi), Burgers' f = u*u_x + u_xx
        expected = D(1, psi) - (ctx.parse("u_x") * psi + ctx.parse("u") * D(0, psi) + D(0, D(0, psi)))
        assert ell.apply([psi]) == extended_linearization_residual(pot, [psi]) == [expected]
    pot.check_internal(pot.parse("w^2*u_{xx}"))
    with pytest.raises(NotInternal):
        pot.check_internal(ctx.parse("u_{xt}"))
    with pytest.raises(ScopeError):
        pot.check_internal(DiffPoly.var(ctx.testcov("p")))
    with pytest.raises(ScopeError):
        pot.check_internal(ctx.with_nonlocals(("w", "v")).parse("v"))
    with pytest.raises(NotInternal):
        D(0, ctx.parse("u_t"))


def test_skew_adjoint_examples(ctx):
    assert is_skew_adjoint(Dx(ctx))
    assert is_skew_adjoint(kdv_second_structure(ctx))
    assert not is_skew_adjoint(CDiffOp.mult(ctx, ctx.parse("u")).compose(Dx(ctx)))


def test_jacobi_examples(ctx):
    assert jacobi_check(Dx(ctx))
    assert jacobi_check(kdv_second_structure(ctx))
    with pytest.raises(PreconditionFailed):
        jacobi_check(CDiffOp.mult(ctx, ctx.parse("u")).compose(Dx(ctx)))


def test_jacobi_parametric_family():
    ctx = JetContext(("x", "t"), ("u",), parameters=("alpha", "beta"), has_time=True)
    good = (Dx(ctx).compose(Dx(ctx)).compose(Dx(ctx))
            + CDiffOp.mult(ctx, ctx.parse("alpha + beta*u")).compose(Dx(ctx))
            + CDiffOp.mult(ctx, ctx.parse("beta/2*u_x")))
    assert is_skew_adjoint(good)
    assert jacobi_check(good)
    bad = (Dx(ctx).compose(Dx(ctx)).compose(Dx(ctx))
           + CDiffOp.mult(ctx, ctx.parse("alpha + beta*u")).compose(Dx(ctx))
           + CDiffOp.mult(ctx, ctx.parse("beta*u_x")))
    assert not is_skew_adjoint(bad)
    assert not is_divergence(jacobi_criterion_density(bad))


def test_jacobi_scale_invariance(ctx):
    A = kdv_second_structure(ctx)
    assert jacobi_check(A.scale(Fraction(5, 7)))
    assert jacobi_check(A.scale(-3))


def test_hamiltonian_flows(ctx):
    H1 = Density(ctx, ctx.parse("u^3/6 - u_x^2/2"))
    H2 = Density(ctx, ctx.parse("u^2/2"))
    kdv_rhs = ctx.parse("u*u_x + u_{xxx}")
    assert hamiltonian_flow(Dx(ctx), H1).f[0] == kdv_rhs
    assert hamiltonian_flow(kdv_second_structure(ctx), H2).f[0] == kdv_rhs
    assert hamiltonian_flow(Dx(ctx), H2).f[0] == ctx.parse("u_x")


def test_flow_by_dx_is_exact_x_derivative(ctx, rng):
    for _ in range(10):
        H = Density(ctx, random_internal(rng, ctx, max_order=2, max_deg=3))
        flow = hamiltonian_flow(Dx(ctx), H)
        dx_inverse(ctx, flow.f[0])


def test_poisson_bracket_examples(ctx):
    H2 = Density(ctx, ctx.parse("u^2/2"))
    H3 = Density(ctx, ctx.parse("u^3/6"))
    br = poisson_bracket(Dx(ctx), H2, H3)
    assert br.density.value == ctx.parse("u^2*u_x/2")
    assert br.is_trivial
    br2 = poisson_bracket(Dx(ctx), H2, Density(ctx, ctx.parse("u^3/6 - u_x^2/2")))
    assert br2.is_trivial


def test_owned_operator_acts_like_the_free_one(kdv, ctx):
    free, owned = Dx(ctx), CDiffOp.d(kdv, 0)
    H1, H2 = Density(ctx, ctx.parse("u^3/6 - u_x^2/2")), Density(ctx, ctx.parse("u^2/2"))
    assert hamiltonian_flow(owned, H1).f == hamiltonian_flow(free, H1).f
    owned_br, free_br = poisson_bracket(owned, H1, H2), poisson_bracket(free, H1, H2)
    assert owned_br.density == free_br.density and owned_br.euler_image == free_br.euler_image


def test_poisson_bracket_self_is_trivial(ctx, rng):
    for _ in range(10):
        H = Density(ctx, random_internal(rng, ctx, max_order=1, max_deg=3))
        br = poisson_bracket(Dx(ctx), H, H)
        assert br.is_trivial


def test_gf_to_symmetry(kdv, ctx):
    assert gf_to_symmetry(Dx(ctx), kdv, [ctx.parse("u^2/2 + u_{xx}")])[0] == ctx.parse("u*u_x + u_{xxx}")
    assert gf_to_symmetry(Dx(ctx), kdv, [ctx.parse("u")])[0] == ctx.parse("u_x")
    assert gf_to_symmetry(Dx(ctx), kdv, [DiffPoly.const(1)])[0].is_zero()
    with pytest.raises(VerificationFailed):
        gf_to_symmetry(Dx(ctx), kdv, [ctx.parse("u^2")])


def test_ham_candidate_square(ctx):
    """A non-square operator is no Hamiltonian candidate: the skew-adjoint
    test behind every Hamiltonian check adds operators of different shapes."""
    from jetcalc.cdiff import DimensionMismatch

    op = CDiffOp.zero(ctx, 1, 2)
    H = Density(ctx, ctx.parse("u^2/2"))
    for check in (lambda: is_skew_adjoint(op), lambda: jacobi_check(op), lambda: poisson_bracket(op, H, H)):
        with pytest.raises(DimensionMismatch):
            check()


KDV_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "eqn", "kdv.eqn")


def test_kdv_scaling_recursion_goes_through_the_remainder_solve(monkeypatch, capsys):
    """The KdV image of the scaling symmetry leaves a nonlocal remainder:
    its layer image is integrated by the exact ansatz of
    `_remainder_ansatz`, which builds a template, multiplies an unknown
    into the remainder and matches the rows."""
    calls = []
    solve = hamrec._remainder_ansatz

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(hamrec, "_remainder_ansatz", counted)
    code = main(["apply-recursion", KDV_FILE, "--covering", "pot", "--order", "2", "--deg", "1",
                 "--to", "x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u", "--format", "structured"])
    assert code == 0
    assert len(calls) >= 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "apply-recursion",
        "input-hash": "d7cde3624c4756afe2fba868964aacdf5150f9988716c2ba380c3c00b25764e2",
        "result": ["5/2*t*u^2*u_x + x*u*u_x + 10*t*u_x*u_{xx} + 5*t*u*u_{xxx} + 4/3*u^2 + x*u_{xxx}"
                   " + 3*t*u_{xxxxx} + 1/3*u_x*w + 4*u_{xx}"],
        "shadow": "2/3*u*om(u) + om(u_{xx}) + 1/3*u_x*th(w)",
        "verified": [True],
    }
