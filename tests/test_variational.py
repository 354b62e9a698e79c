import pytest

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext, total_derivative
from jetcalc.variational import (
    ConservedCurrent,
    Density,
    NotConserved,
    NotExactDerivative,
    NotGeneratingFunction,
    NotVariational,
    VerificationFailed,
    current_from_gf,
    dx_inverse,
    euler,
    generating_function,
    homotopy_lagrangian,
    is_divergence,
    is_generating_function,
    self_adjoint_test,
    verify_conserved_current,
)

from conftest import random_internal, random_poly


def test_euler_examples(ctx):
    assert euler(Density(ctx, ctx.parse("u^3/6 - u_x^2/2")))[0] == ctx.parse("u^2/2 + u_{xx}")
    assert euler(Density(ctx, ctx.parse("u_x^2/2")))[0] == ctx.parse("-u_{xx}")
    assert euler(Density(ctx, ctx.parse("u_x^2/2")), []) == []
    with pytest.raises(ValueError, match=r"Euler components must lie in range\(1\), not \[1\]"):
        euler(Density(ctx, ctx.parse("u")), [1])


def test_euler_kills_total_x_derivatives(ctx, rng):
    for _ in range(100):
        p = random_poly(rng, ctx, with_time_jets=False)
        assert euler(Density(ctx, total_derivative(ctx, 0, p)))[0].is_zero()


def test_is_divergence_examples(ctx):
    assert is_divergence(Density(ctx, ctx.parse("u*u_x")))
    assert not is_divergence(Density(ctx, ctx.parse("u^2")))
    assert is_divergence(Density(ctx, ctx.parse("u_x*u_{xx}")))


def test_dx_inverse_examples(ctx):
    assert dx_inverse(ctx, ctx.parse("u_x")) == ctx.parse("u")
    assert dx_inverse(ctx, ctx.parse("u*u_x")) == ctx.parse("u^2/2")
    with pytest.raises(NotExactDerivative) as err:
        dx_inverse(ctx, ctx.parse("u"))
    assert err.value.remainder == ctx.parse("u")


def test_dx_inverse_roundtrip(ctx, rng):
    for _ in range(50):
        h = random_poly(rng, ctx, with_time_jets=False)
        g = total_derivative(ctx, 0, h)
        rebuilt = dx_inverse(ctx, g)
        assert total_derivative(ctx, 0, rebuilt) == g


def test_dx_inverse_multicomponent():
    ctx2 = JetContext(("x", "t"), ("u", "v"), has_time=True)
    g = total_derivative(ctx2, 0, ctx2.parse("u_x*v + t*u*v_x"))
    assert total_derivative(ctx2, 0, dx_inverse(ctx2, g)) == g


def test_self_adjoint_examples(ctx):
    assert self_adjoint_test(ctx, [ctx.parse("u_{xx}")])
    assert not self_adjoint_test(ctx, [ctx.parse("u*u_x")])
    assert self_adjoint_test(ctx, [ctx.parse("u^2/2 + u_{xx}")])


def test_homotopy_examples(ctx):
    L = homotopy_lagrangian(ctx, [ctx.parse("u_{xx}")])
    assert L.value == ctx.parse("u*u_{xx}/2")
    assert euler(L)[0] == ctx.parse("u_{xx}")
    assert homotopy_lagrangian(ctx, [DiffPoly.const(1)]).value == ctx.parse("u")
    L3 = homotopy_lagrangian(ctx, [ctx.parse("u^2/2 + u_{xx}")])
    assert L3.value == ctx.parse("u^3/6 + u*u_{xx}/2")
    assert euler(L3)[0] == ctx.parse("u^2/2 + u_{xx}")
    with pytest.raises(NotVariational):
        homotopy_lagrangian(ctx, [ctx.parse("u*u_x")])


def test_homotopy_roundtrip_random(ctx, rng):
    for _ in range(50):
        density = random_poly(rng, ctx, with_time_jets=False, max_order=2, max_deg=3)
        psi = euler(Density(ctx, density))[:1]
        assert self_adjoint_test(ctx, psi)
        back = euler(homotopy_lagrangian(ctx, psi))[:1]
        assert back[0] == psi[0]


def test_verify_current_burgers(burgers, ctx):
    J = ConservedCurrent((ctx.parse("u"), ctx.parse("-(u^2/2 + u_x)")))
    assert verify_conserved_current(burgers, J)
    bad = ConservedCurrent((ctx.parse("u"), ctx.parse("u")))
    assert not verify_conserved_current(burgers, bad)


def nls_system(spatial):
    names = ("x", "y")[:spatial] + ("t",)
    ctx = JetContext(names, ("v", "w"), has_time=True)
    lap_v = " + ".join(f"v_{{{n}{n}}}" for n in names[:-1])
    lap_w = " + ".join(f"w_{{{n}{n}}}" for n in names[:-1])
    fv = ctx.parse(f"{lap_w} + (v^2 + w^2)*w")
    fw = ctx.parse(f"-({lap_v}) - (v^2 + w^2)*v")
    return ctx, EvolutionSystem(ctx, [fv, fw])


@pytest.mark.parametrize("spatial", [1, 2])
def test_verify_current_nls(spatial):
    ctx, sys = nls_system(spatial)
    comps = [ctx.parse("v^2 + w^2")]
    for n in ctx.independent[:-1]:
        comps.append(ctx.parse(f"2*(w*v_{n} - v*w_{n})"))
    assert verify_conserved_current(sys, ConservedCurrent(tuple(comps)))


def test_trivial_currents_from_skew_matrix(burgers, ctx, rng):
    for _ in range(10):
        s = random_internal(rng, ctx)
        J = ConservedCurrent((total_derivative(ctx, 0, s), -burgers.restricted_time(s)))
        assert verify_conserved_current(burgers, J)


def test_trivial_currents_skew_three_vars(rng):
    ctx, sys = nls_system(2)
    entries = {}
    for a in range(3):
        for b in range(a + 1, 3):
            entries[(a, b)] = random_internal(rng, ctx, max_order=1, max_deg=2)
    # J_i = sum_l D_l(L_il) for skew L; indices ordered (t, x, y) time-first
    def dbar(i, p):
        return sys.derive(i, p)

    order = (2, 0, 1)
    comps = []
    for i in order:
        acc = DiffPoly.zero()
        for l in order:
            if (i, l) in entries:
                acc = acc + dbar(l, entries[(i, l)])
            elif (l, i) in entries:
                acc = acc - dbar(l, entries[(l, i)])
        comps.append(acc)
    assert verify_conserved_current(sys, ConservedCurrent(tuple(comps)))


def test_generating_function_examples(burgers, kdv, ctx):
    J = ConservedCurrent((ctx.parse("u"), ctx.parse("-(u^2/2 + u_x)")))
    assert generating_function(burgers, J)[0] == DiffPoly.const(1)

    Jk = current_from_gf(kdv, [ctx.parse("u")])
    assert Jk.components[0] == ctx.parse("u^2/2")
    assert generating_function(kdv, Jk)[0] == ctx.parse("u")

    Jk3 = current_from_gf(kdv, [ctx.parse("u^2/2 + u_{xx}")])
    assert generating_function(kdv, Jk3)[0] == ctx.parse("u^2/2 + u_{xx}")

    with pytest.raises(NotConserved):
        generating_function(burgers, ConservedCurrent((ctx.parse("u"), ctx.parse("u"))))


def test_gf_postcondition(kdv, ctx):
    for text in ("1", "u", "u^2/2 + u_{xx}"):
        assert is_generating_function(kdv, [ctx.parse(text)])
    assert not is_generating_function(kdv, [ctx.parse("u^2")])


def test_current_from_gf_examples(burgers, kdv, ctx):
    J = current_from_gf(burgers, [DiffPoly.const(1)])
    assert J.components == (ctx.parse("u"), ctx.parse("-(u^2/2 + u_x)"))

    Jk = current_from_gf(kdv, [ctx.parse("u")])
    assert Jk.components == (ctx.parse("u^2/2"), ctx.parse("-(u^3/3 + u*u_{xx} - u_x^2/2)"))

    Jz = current_from_gf(kdv, [DiffPoly.zero()])
    assert Jz.components[0].is_zero() and Jz.components[1].is_zero()

    with pytest.raises(NotGeneratingFunction):
        current_from_gf(kdv, [ctx.parse("u^2")])


def test_postconditions_raise_instead_of_asserting(monkeypatch, burgers, kdv, ctx):
    import jetcalc
    from jetcalc import hamrec, variational

    assert jetcalc.VerificationFailed is hamrec.VerificationFailed is VerificationFailed
    J = ConservedCurrent((ctx.parse("u"), ctx.parse("-(u^2/2 + u_x)")))
    with monkeypatch.context() as m:
        m.setattr(variational, "is_generating_function", lambda sys, psi: False)
        with pytest.raises(VerificationFailed):
            generating_function(burgers, J)
    with monkeypatch.context() as m:
        m.setattr(variational, "divergence_residual", lambda sys, J: DiffPoly.const(1))
        with pytest.raises(VerificationFailed):
            current_from_gf(kdv, [ctx.parse("u")])


def test_dx_inverse_stops_when_the_top_order_does_not_fall():
    # One pass turns v_x*u_{xx} into -u_x*v_{xx}: the top order stays 2, which
    # proves the input is not exact (the next pass would turn it back).
    ctx = JetContext(("x",), ("u", "v"))
    with pytest.raises(NotExactDerivative) as err:
        dx_inverse(ctx, ctx.parse("v_x*u_{xx}"))
    assert err.value.remainder == ctx.parse("-u_x*v_{xx}")
    assert dx_inverse(ctx, ctx.parse("v_x*u_{xx} + u_x*v_{xx}")) == ctx.parse("u_x*v_x")


def test_euler_with_test_covectors(ctx):
    # A covector is a dependent variable of the widened context: Euler has
    # one component for it, after the equation's own.
    wide = JetContext(ctx.independent, ctx.dependent + ("p",), ctx.parameters, ctx.has_time)
    p = DiffPoly.var(wide.jet(1))
    density = Density(wide, wide.parse("u_x*p"))
    comps = euler(density)
    assert comps == [wide.parse("-p_x"), wide.parse("u_x")]
    assert is_divergence(Density(wide, total_derivative(wide, 0, wide.parse("u") * p)))
    assert euler(Density(ctx, ctx.parse("u_x^2"))) == [ctx.parse("-2*u_{xx}")]
