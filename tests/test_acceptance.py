"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is an exact equality over the rationals.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json

import pytest

from jetcalc.jetspace import JetContext, total_derivative
from jetcalc.cdiff import CartanShadow, CDiffOp, jacobi_bracket, linearization, \
    horizontal_differential, HorForm
from jetcalc.variational import (
    Density,
    current_from_gf,
    euler,
    homotopy_lagrangian,
    is_divergence,
    self_adjoint_test,
    verify_conserved_current,
)
from jetcalc.detsolve import Ansatz, generating_functions, shadows, span_contains, symmetries
from jetcalc.hamrec import (
    is_skew_adjoint,
    jacobi_check,
    jacobi_criterion_density,
    make_covering,
)
from jetcalc.cli import main

from conftest import random_internal, random_poly, random_scalar_op

BURGERS_EQN = """\
independent: x, t(time)
dependent: u
evolution: u_t = u*u_x + u_{xx}
covering pot: w_x = u ; w_t = u^2/2 + u_x
"""

KDV_EQN = """\
independent: x, t(time)
dependent: u
evolution: u_t = u*u_x + u_{xxx}
covering pot: w_x = u ; w_t = u^2/2 + u_{xx}
operator A1 = D_x
operator A2 = D_x^3 + (2/3)*u*D_x + (1/3)*u_x
density H1 = u^3/6 - u_x^2/2
density H2 = u^2/2
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("eqn")
    burgers = d / "burgers.eqn"
    burgers.write_text(BURGERS_EQN)
    kdv = d / "kdv.eqn"
    kdv.write_text(KDV_EQN)
    return {"burgers": str(burgers), "kdv": str(kdv)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_structured(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


def report(line: str):
    print(f"\n{line}: PASS")


def test_criterion_1_burgers_symmetries(files, ctx, burgers, capsys):
    code, doc = run_structured(capsys, "symmetries", files["burgers"],
                               "--order", "2", "--deg", "2", "--xt-deg", "2")
    assert code == 0
    basis = [(ctx.parse(s),) for s in doc["basis"]]
    assert len(basis) == 5
    assert all(doc["verified"])
    ell = linearization(burgers)
    for (phi,) in basis:
        assert ell.apply([phi])[0].is_zero()
    assert span_contains(basis, (ctx.parse("u_x"),))
    projective = ctx.parse("t^2*u_{xx} + (t^2*u + t*x)*u_x + t*u + x")
    assert span_contains(basis, (projective,))
    # The variant ending in a constant term is not a symmetry; the x-term
    # variant above is the one the determining equation admits.
    misprint = ctx.parse("t^2*u_{xx} + (t^2*u + t*x)*u_x + t*u + 1")
    assert not ell.apply([misprint])[0].is_zero()
    assert not span_contains(basis, (misprint,))
    report("ACCEPTANCE 1 (Burgers symmetry basis, dim 5, contains u_x and the projective flow)")


def test_criterion_2_local_recursion_rigidity(files, ctx, burgers, capsys):
    ident = CartanShadow.identity(ctx)
    for order in (1, 2, 3):
        code, doc = run_structured(capsys, "recursion", files["burgers"],
                                   "--order", str(order), "--deg", "2", "--xt-deg", "2")
        assert code == 0
        assert doc["basis"] == [str(ident)]
    report("ACCEPTANCE 2 (local recursion shadows = identity only, orders 1..3)")


def test_criterion_3_burgers_nonlocal_recursion(files, ctx, burgers, capsys):
    code, doc = run_structured(capsys, "recursion", files["burgers"], "--covering", "pot",
                               "--order", "1", "--deg", "1", "--xt-deg", "0")
    assert code == 0
    assert len(doc["basis"]) == 2

    code, doc = run_structured(capsys, "apply-recursion", files["burgers"], "--covering", "pot",
                               "--order", "1", "--deg", "1", "--xt-deg", "0",
                               "--to", "u_x", "--times", "3")
    assert code == 0
    iterates = [ctx.parse(s) for s in doc["result"]]
    assert iterates[0] == ctx.parse("u_{xx} + u*u_x")
    ell = linearization(burgers)
    for phi in iterates:
        assert ell.apply([phi])[0].is_zero()
    report("ACCEPTANCE 3 (nonlocal Burgers recursion: 2-dim space; R, R^2, R^3 act as symmetries)")


def test_criterion_4_kdv_recursion(files, ctx, kdv, capsys):
    code, doc = run_structured(capsys, "apply-recursion", files["kdv"], "--covering", "pot",
                               "--order", "2", "--deg", "1", "--xt-deg", "0",
                               "--to", "u_x", "--times", "1")
    assert code == 0
    assert ctx.parse(doc["result"][0]) == ctx.parse("u_{xxx} + u*u_x")
    report("ACCEPTANCE 4 (KdV recursion shadow maps u_x to the KdV flow)")


def test_criterion_5_kdv_bihamiltonian(files, ctx, capsys):
    kdv_rhs = ctx.parse("u*u_x + u_{xxx}")
    for op_name, h_name in (("A1", "H1"), ("A2", "H2")):
        code, out = run_cli(capsys, "check-hamiltonian", files["kdv"], "--op", op_name)
        assert code == 0 and "skew-adjoint: yes; Jacobi: yes" in out
        code, doc = run_structured(capsys, "flow", files["kdv"], "--op", op_name,
                                   "--density", h_name)
        assert code == 0
        assert ctx.parse(doc["result"]) == kdv_rhs
    report("ACCEPTANCE 5 (KdV bi-Hamiltonian pair: both structures pass, both flows equal the KdV flow)")


def test_criterion_6_parametric_family():
    ctx = JetContext(("x", "t"), ("u",), parameters=("alpha", "beta"), has_time=True)
    dx = CDiffOp.d(ctx, 0)
    dx3 = dx.compose(dx).compose(dx)
    family = (dx3 + CDiffOp.mult(ctx, ctx.parse("alpha + beta*u")).compose(dx)
              + CDiffOp.mult(ctx, ctx.parse("beta/2*u_x")))
    assert is_skew_adjoint(family)
    assert jacobi_check(family)
    perturbed = (dx3 + CDiffOp.mult(ctx, ctx.parse("alpha + beta*u")).compose(dx)
                 + CDiffOp.mult(ctx, ctx.parse("beta*u_x")))
    assert not is_skew_adjoint(perturbed)
    assert not is_divergence(jacobi_criterion_density(perturbed))
    report("ACCEPTANCE 6 (parametric family is Hamiltonian symbolically; perturbation fails)")


def test_criterion_7_nls_current(tmp_path, capsys):
    for spatial in (1, 2):
        names = ("x", "y")[:spatial]
        lap_v = " + ".join(f"v_{{{n}{n}}}" for n in names)
        lap_w = " + ".join(f"w_{{{n}{n}}}" for n in names)
        current = ", ".join(f"2*(w*v_{n} - v*w_{n})" for n in names)
        text = (f"independent: {', '.join(names)}, t(time)\n"
                "dependent: v, w\n"
                f"evolution: v_t = {lap_w} + (v^2 + w^2)*w\n"
                f"evolution: w_t = -({lap_v}) - (v^2 + w^2)*v\n"
                f"current J = (v^2 + w^2, {current})\n")
        path = tmp_path / f"nls{spatial}.eqn"
        path.write_text(text)
        code, out = run_cli(capsys, "verify-current", str(path), "--current", "J")
        assert code == 0 and "conserved: yes" in out
    report("ACCEPTANCE 7 (NLS current conserved exactly for 1 and 2 spatial variables)")


def test_criterion_8_generating_functions(files, ctx, kdv, capsys):
    # The stated flags: with poly-deg 1 the jet-degree-2 element u^2/2 + u_xx
    # is outside the ansatz space, and the honest answer is span{1, u}.
    code, doc = run_structured(capsys, "conslaws", files["kdv"],
                               "--order", "2", "--deg", "1", "--xt-deg", "0")
    assert code == 0
    small = [(ctx.parse(s),) for s in doc["basis"]]
    assert len(small) == 2
    assert span_contains(small, (ctx.parse("1"),)) and span_contains(small, (ctx.parse("u"),))

    # poly-deg 2 admits the full classical span {1, u, u^2/2 + u_xx}.
    code, doc = run_structured(capsys, "conslaws", files["kdv"],
                               "--order", "2", "--deg", "2", "--xt-deg", "0")
    assert code == 0
    basis = [(ctx.parse(s),) for s in doc["basis"]]
    assert len(basis) == 3
    for text in ("1", "u", "u^2/2 + u_{xx}"):
        assert span_contains(basis, (ctx.parse(text),))
    classical = [ctx.parse("u"), ctx.parse("u^2/2"), ctx.parse("u^3/6 - u_x^2/2")]
    for dens in classical:
        psi = euler(Density(ctx, dens))[:1]
        assert span_contains(basis, (psi[0],))
    for (psi,) in basis:
        J = current_from_gf(kdv, [psi])
        assert verify_conserved_current(kdv, J)
    report("ACCEPTANCE 8 (KdV generating functions: classical span at poly-deg 2; "
           "poly-deg 1 honestly yields {1, u}; currents reconstructed and verified)")


def test_criterion_9_inverse_problem(ctx, rng):
    assert self_adjoint_test(ctx, [ctx.parse("u_{xx}")])
    assert self_adjoint_test(ctx, [ctx.parse("u^2/2 + u_{xx}")])
    assert not self_adjoint_test(ctx, [ctx.parse("u*u_x")])
    for _ in range(50):
        density = random_poly(rng, ctx, with_time_jets=False, max_order=2, max_deg=3)
        psi = euler(Density(ctx, density))[:1]
        assert euler(homotopy_lagrangian(ctx, psi))[:1] == psi
    report("ACCEPTANCE 9 (inverse problem: self-adjointness filter; 50 homotopy round-trips)")


def test_criterion_10_property_suites(ctx, burgers, kdv, rng):
    # (a) commuting total derivatives, free and restricted
    for _ in range(100):
        p = random_poly(rng, ctx)
        assert total_derivative(ctx, 0, total_derivative(ctx, 1, p)) == \
            total_derivative(ctx, 1, total_derivative(ctx, 0, p))
    for _ in range(100):
        q = random_internal(rng, ctx)
        assert total_derivative(ctx, 0, burgers.restricted_time(q)) == \
            burgers.restricted_time(total_derivative(ctx, 0, q))
    # (b) adjoint involution and anti-homomorphism
    for _ in range(100):
        a = random_scalar_op(rng, ctx)
        b = random_scalar_op(rng, ctx)
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())
    # (c) Euler operator annihilates total x-derivatives
    for _ in range(100):
        p = random_internal(rng, ctx, max_deg=3)
        assert euler(Density(ctx, total_derivative(ctx, 0, p)))[0].is_zero()
    # (d) Jacobi identity for the bracket
    for _ in range(50):
        a = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        b = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        c = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        total = (jacobi_bracket(ctx, a, jacobi_bracket(ctx, b, c))[0]
                 + jacobi_bracket(ctx, b, jacobi_bracket(ctx, c, a))[0]
                 + jacobi_bracket(ctx, c, jacobi_bracket(ctx, a, b))[0])
        assert total.is_zero()
    # (e) the horizontal differential squares to zero
    for _ in range(50):
        omega = HorForm.make(ctx, 0, {(): random_poly(rng, ctx)})
        assert horizontal_differential(horizontal_differential(omega)).is_zero()
    # (f) every solver output passes its own re-substitution check
    ell = linearization(burgers)
    for sol in symmetries(burgers, Ansatz(2, 2, 2)).solutions:
        assert ell.apply(list(sol))[0].is_zero()
    from jetcalc.variational import gf_residual

    for sol in generating_functions(kdv, Ansatz(2, 2, 0)).solutions:
        assert all(r.is_zero() for r in gf_residual(kdv, list(sol)))
    pot = make_covering(burgers, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_x")])])
    from jetcalc.cdiff import shadow_residual

    for sol in shadows(pot, Ansatz(1, 1, 0)).solutions:
        assert shadow_residual(sol, pot).is_zero()
    report("ACCEPTANCE 10 (property suites a-f, all exact)")
