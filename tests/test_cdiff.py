import pytest

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import GeneralSystem, JetContext
from jetcalc.cdiff import (
    CartanShadow,
    CDiffOp,
    DegreeOverflow,
    DimensionMismatch,
    HorForm,
    cartan_differential,
    contract,
    evolutionary,
    horizontal_differential,
    jacobi_bracket,
    linearization,
    shadow_residual,
    wedge,
)
from jetcalc.variational import Density, is_divergence

from conftest import random_internal, random_poly, random_scalar_op


def Dx(ctx):
    return CDiffOp.d(ctx, 0)


def mult(ctx, text):
    return CDiffOp.mult(ctx, ctx.parse(text))


def test_apply_examples(ctx):
    assert Dx(ctx).apply([ctx.parse("u")])[0] == ctx.parse("u_x")
    op = mult(ctx, "u").compose(Dx(ctx)) + mult(ctx, "u_x")
    assert op.apply([ctx.parse("u")])[0] == ctx.parse("2*u*u_x")
    kdv2 = Dx(ctx).compose(Dx(ctx)).compose(Dx(ctx)) + mult(ctx, "2/3*u").compose(Dx(ctx)) + mult(ctx, "1/3*u_x")
    assert kdv2.apply([ctx.parse("u")])[0] == ctx.parse("u_{xxx} + u*u_x")


def test_apply_dimension_mismatch(ctx):
    with pytest.raises(DimensionMismatch):
        Dx(ctx).apply([ctx.parse("u"), ctx.parse("u")])


def test_regime_mismatch(ctx, burgers):
    from jetcalc.cdiff import RegimeMismatch

    free = Dx(ctx)
    restricted = CDiffOp.d(burgers, 0)
    with pytest.raises(RegimeMismatch):
        free.compose(restricted)
    with pytest.raises(RegimeMismatch):
        free + restricted
    scope = ctx.with_nonlocals(("w",))
    with pytest.raises(RegimeMismatch):
        free.apply([scope.parse("w")])
    elsewhere = CDiffOp.d(JetContext(("x", "t"), ("v",), has_time=True), 0)
    assert free != elsewhere and free == Dx(JetContext(("x", "t"), ("u",), has_time=True))
    with pytest.raises(RegimeMismatch):
        free + elsewhere


def test_compose_examples(ctx):
    left = Dx(ctx).compose(mult(ctx, "u"))
    assert left == mult(ctx, "u").compose(Dx(ctx)) + mult(ctx, "u_x")
    assert Dx(ctx).compose(Dx(ctx)) == CDiffOp.scalar(ctx, {(0, 0): DiffPoly.const(1)})
    a = Dx(ctx).compose(mult(ctx, "u")).compose(Dx(ctx))
    b = Dx(ctx).compose(mult(ctx, "u").compose(Dx(ctx)))
    expected = mult(ctx, "u").compose(Dx(ctx)).compose(Dx(ctx)) + mult(ctx, "u_x").compose(Dx(ctx))
    assert a == b == expected


def test_compose_matches_application(ctx, rng):
    for _ in range(40):
        a = random_scalar_op(rng, ctx)
        b = random_scalar_op(rng, ctx)
        v = random_internal(rng, ctx)
        assert a.compose(b).apply([v])[0] == a.apply(b.apply([v]))[0]


def test_adjoint_examples(ctx):
    assert Dx(ctx).adjoint() == -Dx(ctx)
    got = mult(ctx, "u").compose(Dx(ctx)).adjoint()
    assert got == -(mult(ctx, "u").compose(Dx(ctx))) - mult(ctx, "u_x")


def test_operations_drop_cancelled_entries(ctx):
    op = mult(ctx, "u").compose(Dx(ctx)) + mult(ctx, "u_x")
    zero = CDiffOp.zero(ctx)
    assert op.scale(0) == zero and (op - op) == zero
    row = CDiffOp(ctx, 1, 2, [[{(0,): DiffPoly.const(1)}, {(): DiffPoly.const(1)}]])
    col = CDiffOp(ctx, 2, 1, [[{(): DiffPoly.const(1)}], [{(0,): DiffPoly.const(-1)}]])
    assert row.compose(col) == zero
    assert op.adjoint() == -(mult(ctx, "u").compose(Dx(ctx)))
    for got in (op.scale(0), op - op, row.compose(col), op.adjoint()):
        assert all(p for r in got.entries for e in r for p in e.values())
    w = ctx.parse("u_x/2")
    sh = CartanShadow(ctx, ({("u", 0, ()): DiffPoly.const(1), ("w", 0): w - w},
                            {("w", 0): w + w, ("u", 0, (0,)): -w}))
    local, residues = contract([ctx.parse("u")], sh)
    assert local == [ctx.parse("u"), ctx.parse("-u_x^2/2")]
    assert residues == [{}, {0: ctx.parse("u_x")}]


def test_adjoint_matrix_transposes(ctx, rng):
    entries = [[random_scalar_op(rng, ctx).entries[0][0] for _ in range(2)] for _ in range(2)]
    op = CDiffOp(ctx, 2, 2, entries)
    adj = op.adjoint()
    for i in range(2):
        for j in range(2):
            single = CDiffOp.scalar(ctx, op.entries[j][i])
            assert adj.entries[i][j] == single.adjoint().entries[0][0]


def test_adjoint_involution_and_antihomomorphism(ctx, rng):
    for _ in range(100):
        a = random_scalar_op(rng, ctx)
        b = random_scalar_op(rng, ctx)
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_green_formula_divergence(ctx, rng):
    p = DiffPoly.var(ctx.testcov("p"))
    for _ in range(25):
        op = random_scalar_op(rng, ctx)
        phi = random_internal(rng, ctx, max_order=1, max_deg=2, terms=2)
        density = op.apply([phi])[0] * p - phi * op.adjoint().apply([p])[0]
        assert is_divergence(Density(ctx, density))


def test_linearization_free_burgers(ctx):
    F = ctx.parse("u_t - u*u_x - u_{xx}")
    ell = linearization(GeneralSystem(ctx, (F,)))
    expected = CDiffOp.scalar(ctx, {
        (1,): DiffPoly.const(1),
        (0,): ctx.parse("-u"),
        (): ctx.parse("-u_x"),
        (0, 0): DiffPoly.const(-1),
    })
    assert ell == expected


def test_linearization_restricted_burgers(burgers, ctx):
    ell = linearization(burgers)
    assert ell.space is burgers
    assert ell.entries[0][0][(1,)] == DiffPoly.const(1)
    assert ell.entries[0][0][(0,)] == ctx.parse("-u")
    assert ell.apply([ctx.parse("u_x")])[0].is_zero()


def test_linearization_constant_is_zero(ctx):
    ell = linearization(GeneralSystem(ctx, (DiffPoly.const(5),)))
    assert ell.is_zero()


def test_product_rule_for_linearization(ctx, rng):
    for _ in range(30):
        phi = random_poly(rng, ctx)
        psi = random_poly(rng, ctx)
        lhs = linearization(GeneralSystem(ctx, (phi * psi,)))
        rhs = (CDiffOp.mult(ctx, phi).compose(linearization(GeneralSystem(ctx, (psi,))))
               + CDiffOp.mult(ctx, psi).compose(linearization(GeneralSystem(ctx, (phi,)))))
        assert lhs == rhs


def test_evolutionary_examples(ctx):
    assert evolutionary(ctx, [ctx.parse("u_x")], ctx.parse("u")) == ctx.parse("u_x")
    assert evolutionary(ctx, [ctx.parse("u^2")], ctx.parse("x")).is_zero()
    assert evolutionary(ctx, [ctx.parse("u^2")], ctx.parse("u_x")) == ctx.parse("2*u*u_x")


def test_evolutionary_commutes_with_total_derivatives(ctx, rng):
    from jetcalc.jetspace import total_derivative

    for _ in range(30):
        phi = random_poly(rng, ctx, terms=2)
        p = random_poly(rng, ctx, terms=2)
        for i in (0, 1):
            lhs = evolutionary(ctx, [phi], total_derivative(ctx, i, p))
            rhs = total_derivative(ctx, i, evolutionary(ctx, [phi], p))
            assert lhs == rhs


def test_jacobi_bracket_examples(ctx):
    phi = [ctx.parse("u*u_x + u_{xx}")]
    assert jacobi_bracket(ctx, phi, phi)[0].is_zero()
    assert jacobi_bracket(ctx, [ctx.parse("u_x")], phi)[0].is_zero()
    assert jacobi_bracket(ctx, [DiffPoly.const(1)], [ctx.parse("u^2")])[0] == ctx.parse("2*u")


def test_jacobi_identity(ctx, rng):
    for _ in range(50):
        a = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        b = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        c = [random_poly(rng, ctx, max_order=1, max_deg=1, terms=2)]
        total = (jacobi_bracket(ctx, a, jacobi_bracket(ctx, b, c))[0]
                 + jacobi_bracket(ctx, b, jacobi_bracket(ctx, c, a))[0]
                 + jacobi_bracket(ctx, c, jacobi_bracket(ctx, a, b))[0])
        assert total.is_zero()


def test_horizontal_differential_free(ctx):
    omega = HorForm.make(ctx, 1, {(0,): ctx.parse("u")})
    d = horizontal_differential(omega)
    assert d.coefficient((0, 1)) == ctx.parse("-u_t")


def test_horizontal_differential_burgers_closed(burgers, ctx):
    omega = HorForm.make(ctx, 1, {(0,): ctx.parse("u"), (1,): ctx.parse("u^2/2 + u_x")})
    assert horizontal_differential(omega, burgers).is_zero()


def test_dbar_squared_zero(ctx, rng):
    for _ in range(20):
        omega = HorForm.make(ctx, 0, {(): random_poly(rng, ctx)})
        assert horizontal_differential(horizontal_differential(omega)).is_zero()


def test_degree_overflow(ctx):
    top = HorForm.make(ctx, 2, {(0, 1): ctx.parse("u")})
    with pytest.raises(DegreeOverflow):
        horizontal_differential(top)


def test_dbar_leibniz_over_wedge(ctx, rng):
    for _ in range(20):
        a = HorForm.make(ctx, 0, {(): random_poly(rng, ctx, terms=2)})
        b = HorForm.make(ctx, 1, {(0,): random_poly(rng, ctx, terms=2),
                                  (1,): random_poly(rng, ctx, terms=2)})
        lhs = horizontal_differential(wedge(a, b))
        rhs_parts = wedge(horizontal_differential(a), b)
        rhs = HorForm.make(ctx, 2, {idx: rhs_parts.coefficient(idx)
                                    + wedge(a, horizontal_differential(b)).coefficient(idx)
                                    for idx in [(0, 1)]})
        assert lhs.coefficient((0, 1)) == rhs.coefficient((0, 1))


def test_cartan_differential_examples(ctx):
    d = cartan_differential(ctx.parse("u_{xx}"), ctx)
    assert d.comps[0] == {("u", 0, (0, 0)): DiffPoly.const(1)}
    assert cartan_differential(ctx.parse("x"), ctx).is_zero()
    assert cartan_differential(ctx.parse("u^2"), ctx).comps[0] == {("u", 0, ()): ctx.parse("2*u")}


def test_contract_examples(ctx):
    ident = CartanShadow.identity(ctx)
    phi = [ctx.parse("u*u_x + u_{xx}")]
    local, residues = contract(phi, ident)
    assert local == phi and residues == [{}]

    sh = CartanShadow(ctx, ({("u", 0, (0,)): DiffPoly.const(1), ("u", 0, ()): ctx.parse("u/2")},))
    local, _ = contract([ctx.parse("u_x")], sh)
    assert local[0] == ctx.parse("u_{xx} + u*u_x/2")

    sh2 = CartanShadow(ctx, ({("u", 0, ()): ctx.parse("u")},))
    local, _ = contract([ctx.parse("u_x^2")], sh2)
    assert local[0] == ctx.parse("u*u_x^2")


def test_shadow_residual_identity_is_zero(burgers):
    ident = CartanShadow.identity(burgers.ctx)
    assert shadow_residual(ident, burgers).is_zero()


def test_shadow_residual_detects_nonsolutions(burgers, ctx):
    bad = CartanShadow(ctx, ({("u", 0, (0,)): DiffPoly.const(1)},))
    assert not shadow_residual(bad, burgers).is_zero()


def test_a_covering_form_needs_a_space_with_layers(burgers, ctx):
    from jetcalc.cdiff import RegimeMismatch

    sh = CartanShadow(ctx, ({("u", 0, ()): DiffPoly.const(1), ("w", 0): ctx.parse("u_x")},))
    with pytest.raises(RegimeMismatch):
        shadow_residual(sh, burgers)
    assert str(sh) == "om(u) + u_x*th(w0)"
    assert str(CartanShadow(ctx.with_nonlocals(("w",)), sh.comps)) == "om(u) + u_x*th(w)"
