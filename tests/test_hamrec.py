import json
import os
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import cdiff, detsolve, hamrec
from jetcalc.cli import main, parse_equation_file, parse_operator
from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext, prefix_derivatives
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
from test_cli import TWO_LAYERS


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
    return CartanShadow(pot.ctx, ({ctx.jet(0, (0,)): DiffPoly.const(1),
                                   ctx.jet(0): ctx.parse("u/2"),
                                   pot.ctx.nonlocal_(0): ctx.parse("u_x/2")},))


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
    R = CartanShadow(kpot.ctx, ({ctx.jet(0, (0, 0)): DiffPoly.const(1),
                                 ctx.jet(0): ctx.parse("2*u/3"),
                                 kpot.ctx.nonlocal_(0): ctx.parse("u_x/3")},))
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


def test_a_layer_with_jets_integrates_its_own_x_expression(kdv, ctx):
    """z_x = u^3/6 - u_x^2/2 holds u_x, so q = 1.  Top-down integration
    stops at u_x^2, which enters nonlinearly; the remainder has jet order
    1 <= q, and the remainder solve finds z."""
    pot3 = make_covering(kdv, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_{xx}")]),
                               ("v", [ctx.parse("u^2/2"), ctx.parse("u^3/3 + u*u_{xx} - u_x^2/2")]),
                               ("z", [ctx.parse("u^3/6 - u_x^2/2"),
                                      ctx.parse("u^4/8 - u*u_x^2 + u^2*u_{xx}/2 + u_{xx}^2/2 - u_x*u_{xxx}")])])
    assert dx_inverse_extended(pot3, pot3.parse("u^3/6 - u_x^2/2")) == pot3.parse("z")


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
    assert extended_linearization_residual(pot, [prefix_derivatives(pot.derive, pot.parse("u_x"))])[0].is_zero()
    assert not extended_linearization_residual(pot, [prefix_derivatives(pot.derive, pot.parse("u"))])[0].is_zero()


def test_a_covering_is_an_equation_with_the_extended_derivatives(pot, ctx, rng):
    from jetcalc.jetspace import NotInternal

    ell = linearization(pot)
    assert ell.space is pot and ell.ctx == pot.ctx
    D = pot.derive
    for _ in range(10):
        psi = random_internal(rng, ctx) * pot.parse("w") + random_internal(rng, ctx)
        # D̃_t psi - (u_x psi + u D̃_x psi + D̃_x^2 psi), Burgers' f = u*u_x + u_xx
        expected = D(1, psi) - (ctx.parse("u_x") * psi + ctx.parse("u") * D(0, psi) + D(0, D(0, psi)))
        assert ell.apply([psi]) == extended_linearization_residual(pot, [prefix_derivatives(D, psi)]) == [expected]
    pot.check_internal(pot.parse("w^2*u_{xx}"))
    with pytest.raises(NotInternal):
        pot.check_internal(ctx.parse("u_{xt}"))
    with pytest.raises(ScopeError):
        pot.check_internal(ctx.with_nonlocals(("w", "v")).parse("v"))
    with pytest.raises(NotInternal):
        D(0, ctx.parse("u_t"))


def test_a_covering_refuses_a_layer_it_lacks(pot, ctx):
    """The image map refuses a nonlocal variable past the covering's layers
    as `check_internal` does, instead of indexing past them."""
    v = ctx.with_nonlocals(("w", "v")).parse("v")
    for i in range(ctx.n):
        with pytest.raises(ScopeError, match="layer 'v'"):
            pot.derive(i, v)
        with pytest.raises(ScopeError, match="layer 'v'"):
            pot.derive(i, pot.parse("w") * v)


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


def _matrix(ctx, rows):
    """The matrix operator whose entries are the operator texts `rows`."""
    return CDiffOp(ctx, len(rows), len(rows), [[parse_operator(t, ctx).entries[0][0] for t in row] for row in rows])


PAIR = JetContext(("x", "t"), ("v", "w"), has_time=True)


@pytest.mark.parametrize("rows, hamiltonian", [
    ([["D_x^3 + u^2*D_x + u*u_x"]], False),
    ([["2*u_x*D_x + u_{xx}"]], False),
    ([["u*D_x + D_x*u"]], True),
    ([["0", "v_x"], ["-v_x", "0"]], False),
    ([["D_x", "0"], ["0", "D_x^3 + v^2*D_x + v*v_x"]], False),
    ([["0", "1"], ["-1", "0"]], True),
])
def test_jacobi_on_skew_operators(ctx, rows, hamiltonian):
    """Skew-adjoint operators on both sides of the Jacobi identity; the
    one-covector verdict agrees with the divergence test over every
    component of the widened context."""
    op = _matrix(ctx if len(rows) == 1 else PAIR, rows)
    assert is_skew_adjoint(op)
    assert jacobi_check(op) is hamiltonian
    assert is_divergence(jacobi_criterion_density(op)) is hamiltonian


def _reference_criterion_density(op):
    """sum_cyc <ell_A(A(p))(q), r> built as the operator whose coefficients
    are differentiated along the evolutionary field of A(p), applied to q."""
    ctx, m = op.ctx, op.ctx.m
    wide = JetContext(ctx.independent, ctx.dependent + tuple(hamrec._test_covector_names(ctx, 3 * m)),
                      ctx.parameters, ctx.has_time)
    op = CDiffOp(wide, m, m, op.entries)
    covecs = [[DiffPoly.var(wide.jet(m + k * m + c)) for c in range(m)] for k in range(3)]
    parts = []
    for k in range(3):
        p, q, r = covecs[k], covecs[(k + 1) % 3], covecs[(k + 2) % 3]
        phi = op.apply(p) + [DiffPoly.zero()] * (3 * m)
        entries = [[{s: cdiff.evolutionary(wide, phi, a) for s, a in e.items()} for e in row] for row in op.entries]
        parts.extend(c * rr for c, rr in zip(CDiffOp(wide, m, m, entries).apply(q), r))
    return Density(wide, DiffPoly.sum(parts))


NLS1 = parse_equation_file(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                        "perfbench", "eqn", "nls1.eqn")).ctx


@pytest.mark.parametrize("rows", [
    [["D_x"]],
    [["D_x^3 + (2/3)*u*D_x + (1/3)*u_x"]],
    [["D_x^3 + u^2*D_x + u*u_x"]],
    [["0", "1"], ["-1", "0"]],
    [["D_x", "v*w"], ["-v*w", "w*D_x + D_x*w + v_x"]],
], ids=["A1", "A2", "skew-not-jacobi", "nls1-constant", "nls1-jet-coefficients"])
def test_the_criterion_density_is_the_coefficient_linearization(ctx, rows):
    """X_{A(p)}(A(q)) = ell_A(A(p))(q): A(p) has no covector components, so
    the evolutionary derivation differentiates the coefficients alone."""
    op = _matrix(ctx if len(rows) == 1 else NLS1, rows)
    assert jacobi_criterion_density(op) == _reference_criterion_density(op)


@settings(max_examples=15, deadline=None)
@given(st.fractions(-5, 5, max_denominator=7), st.fractions(-5, 5, max_denominator=7))
def test_the_criterion_density_of_the_kdv_family_is_the_coefficient_linearization(a, b):
    ctx = JetContext(("x", "t"), ("u",), has_time=True)
    op = parse_operator(f"D_x^3 + ({a} + {b}*u)*D_x + ({b}/2)*u_x", ctx)
    assert jacobi_criterion_density(op) == _reference_criterion_density(op)


def test_the_jacobi_criterion_needs_an_operator_on_every_dependent_variable():
    """A 1x1 operator on two dependent variables would take the second one
    for a covector."""
    from jetcalc.cdiff import DimensionMismatch

    op = _matrix(PAIR, [["D_x^3 + v^2*D_x + v*v_x"]])
    for check in (lambda: jacobi_criterion_density(op), lambda: jacobi_check(op)):
        with pytest.raises(DimensionMismatch, match="a 1x1 operator on 2 dependent variables"):
            check()


@st.composite
def skew_operators(draw):
    """B - B* for a random 1x1 or 2x2 operator B of order at most 3 in D_x."""
    space = draw(st.sampled_from([JetContext(("x", "t"), ("u",), has_time=True), PAIR]))
    jets = [space.jet(j, (0,) * k) for j in range(space.m) for k in range(2)]

    def coefficient():
        c = DiffPoly.const(draw(st.fractions(-3, 3, max_denominator=3).filter(bool)))
        for v in draw(st.lists(st.sampled_from(jets), max_size=2)):
            c = c * DiffPoly.var(v)
        return c

    entries = [[{(0,) * k: coefficient() for k in draw(st.sets(st.integers(0, 3), max_size=2))}
                for _ in range(space.m)] for _ in range(space.m)]
    B = CDiffOp(space, space.m, space.m, entries)
    return B - B.adjoint()


@settings(max_examples=40, deadline=None)
@given(skew_operators())
def test_jacobi_check_is_the_divergence_test_of_the_criterion(op):
    assert jacobi_check(op) == is_divergence(jacobi_criterion_density(op))


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


PERFBENCH = os.path.dirname(os.path.dirname(KDV_FILE))


def test_a_remainder_above_q_is_an_obstruction_without_the_remainder_solve(monkeypatch, capsys):
    """In `pot` (q = 0) a remainder with jets of positive order is no D̃_x
    image, so the obstruction is reported without building a pool over its
    many variables."""
    calls = []
    monkeypatch.setattr(hamrec, "_remainder_ansatz", lambda *args: calls.append(args))
    code = main(["apply-recursion", os.path.join(PERFBENCH, "eqn", "burgers.eqn"), "--covering", "pot",
                 "--order", "1", "--deg", "1", "--to", "u^3*u_x^2*u_{xx}*u_{xxx}*u_{xxxx}*u_{xxxxx}*x^3*t^3*w^3",
                 "--times", "1", "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and calls == []
    assert doc["obstruction"] == (
        "nonlocal obstruction; non-integrable remainder: -3/2*x^3*t^3*u^4*u_x^2*u_{xx}*u_{xxx}*u_{xxxx}^2*w^2"
        " - 3/2*x^3*t^3*u^2*u_x^3*u_{xx}*u_{xxx}*u_{xxxx}^2*w^3 - x^3*t^3*u^3*u_x*u_{xx}^2*u_{xxx}*u_{xxxx}^2*w^3"
        " - 1/2*x^3*t^3*u^3*u_x^2*u_{xxx}^2*u_{xxxx}^2*w^3 - 1/2*x^3*t^3*u^3*u_x^2*u_{xx}*u_{xxxx}^3*w^3"
        " - 3/2*x^2*t^3*u^3*u_x^2*u_{xx}*u_{xxx}*u_{xxxx}^2*w^3")
# The accessor of a derivative memo: a `Covering.derive` call made from it
# derives an iterate (or the input) for the certificate, the contraction or
# the layer images.
MEMO_ACCESSOR = prefix_derivatives(None, DiffPoly.zero()).__code__


def _golden_iterates(eqn: str, times: int) -> list[str]:
    """The first iterates of the recorded `apply-recursion ... --to u_x` run."""
    with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
        goldens = json.load(fh)
    (doc,) = [json.loads(golden["stdout"]) for key, golden in goldens.items()
              if json.loads(key)[:2] == ["apply-recursion", f"perfbench/eqn/{eqn}.eqn"] and '"--to", "u_x"' in key]
    return doc["result"][:times]


@pytest.mark.parametrize("eqn, covering, order, to, times", [
    ("burgers", "pot", "1", "u_x", 4),
    ("kdv", "pot", "2", "u_x", 3),
    ("kdv2", "pot2", "2", "x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u", 2),
])
def test_each_derivative_of_an_iterate_is_taken_once(tmp_path, monkeypatch, capsys, eqn, covering, order, to,
                                                     times):
    """One memo per iterate: the derivatives that certify iterate k also
    contract iterate k + 1 and give its layer images, so no (i, p) is
    derived twice by the memos of a run.  The iterates must equal the
    recorded goldens; `pot2` has none, so its two iterates are written out."""
    if eqn == "kdv2":
        path = tmp_path / "kdv2.eqn"
        with open(KDV_FILE) as fh:
            path.write_text(fh.read() + TWO_LAYERS)
        expected = [
            "5/2*t*u^2*u_x + x*u*u_x + 10*t*u_x*u_{xx} + 5*t*u*u_{xxx} + 4/3*u^2 + x*u_{xxx} + 3*t*u_{xxxxx}"
            " + 1/3*u_x*w + 4*u_{xx}",
            "35/18*t*u^3*u_x + 5/6*x*u^2*u_x + 35/6*t*u_x^3 + 70/3*t*u*u_x*u_{xx} + 35/6*t*u^2*u_{xxx}"
            " + 8/9*u^3 + 10/3*x*u_x*u_{xx} + 5/3*x*u*u_{xxx} + 35*t*u_{xx}*u_{xxx} + 21*t*u_x*u_{xxxx}"
            " + 7*t*u*u_{xxxxx} + 1/3*u*u_x*w + 6*u_x^2 + 8*u*u_{xx} + x*u_{xxxxx} + 3*t*u_{xxxxxxx}"
            " + 1/3*u_{xxx}*w + 1/3*u_x*v + 6*u_{xxxx}",
        ]
    else:
        path = os.path.join(PERFBENCH, "eqn", f"{eqn}.eqn")
        expected = _golden_iterates(eqn, times)
    pairs = Counter()
    derive = hamrec.Covering.derive

    def counted(self, i, p):
        if sys._getframe(1).f_code is MEMO_ACCESSOR:
            pairs[i, p] += 1
        return derive(self, i, p)

    monkeypatch.setattr(hamrec.Covering, "derive", counted)
    code = main(["apply-recursion", str(path), "--covering", covering, "--order", order, "--deg", "1",
                 "--to", to, "--times", str(times), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verified"] == [True] * times
    assert doc["result"] == expected
    assert pairs and [key for key, n in pairs.items() if n > 1] == []


@pytest.mark.parametrize("eqn, space, ansatz, basis", [
    ("kdv", hamrec.Covering, ["--covering", "pot", "--order", "2", "--deg", "1"],
     ["om(u)", "2/3*u*om(u) + om(u_{xx}) + 1/3*u_x*th(w)"]),
    ("burgers", EvolutionSystem, ["--order", "3", "--deg", "2", "--xt-deg", "2"], ["om(u)"]),
], ids=["kdv-pot", "burgers"])
def test_every_shadow_residual_call_derives_through_the_given_space(monkeypatch, capsys, eqn, space, ansatz, basis):
    """`shadow_residual` derives through the space it is given, once for
    the residual of the template and once in the check of each solution."""
    calls = []
    active = [None]
    residual, derive = detsolve.shadow_residual, space.derive

    def counted_residual(sh, sp):
        active[0] = Counter()
        try:
            return residual(sh, sp)
        finally:
            calls.append(active[0])
            active[0] = None

    def counted(self, i, p):
        if active[0] is not None and sys._getframe(1).f_code.co_filename == cdiff.__file__:
            active[0][i, p] += 1
        return derive(self, i, p)

    monkeypatch.setattr(detsolve, "shadow_residual", counted_residual)
    monkeypatch.setattr(space, "derive", counted)
    code = main(["recursion", os.path.join(PERFBENCH, "eqn", f"{eqn}.eqn")] + ansatz + ["--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["basis"] == basis
    assert len(calls) == 1 + len(basis)
    assert all(calls)
