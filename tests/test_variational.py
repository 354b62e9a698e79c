import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import hamrec
from jetcalc.cli import main
from jetcalc.dalg import JET, NONLOCAL, DiffPoly, mi_remove_one
from jetcalc.hamrec import NonlocalObstruction, dx_inverse_extended, make_covering
from jetcalc.jetspace import EvolutionSystem, JetContext, multi_indices_up_to, total_derivative
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


# --------------------------------------------------------------------------
# Top-down integration against the loop it replaced


def _reference_integrate_top_down(space, g, i, q=0):
    """The top-down loop as it was before `DiffPoly.integration`: the parts
    h1 and the remainder, or NotExactDerivative with the remainder of the
    failing pass.  One polynomial per pass, rebuilt by `g - derive(i, h1)`."""
    ctx, derive = space.ctx, space.derive
    parts = []
    last = None
    while True:
        jets = [v for v in g.variables() if v.kind == JET and v.idx[1]]
        if not jets:
            return parts, g
        k = max(len(v.idx[1]) for v in jets)
        measure = (k,) if k > q else (q, _reference_profile(g))
        if last is not None and measure >= last:
            raise NotExactDerivative(g)
        last = measure
        top = sorted(v for v in jets if len(v.idx[1]) == k)
        coeffs = []
        for v in top:
            if i not in v.idx[1]:
                raise NotExactDerivative(g)
            a = g.partial(v)
            if any(w.kind == JET and len(w.idx[1]) >= k for w in a.variables()):
                raise NotExactDerivative(g)
            coeffs.append((ctx.jet(v.idx[0], mi_remove_one(v.idx[1], i)), a))
        h1 = DiffPoly.zero()
        for w, a in coeffs:
            h1 = h1 + (a - h1.partial(w)).antiderivative(w)
        for w, a in coeffs:
            if h1.partial(w) != a:
                raise NotExactDerivative(g)
        g = g - derive(i, h1)
        parts.append(h1)


def _reference_profile(g):
    return sorted(((sum(e for v, e in mono if v.kind == NONLOCAL),
                    max((len(v.idx[1]) for v, _ in mono if v.kind == JET), default=0))
                   for mono in g.terms), reverse=True)


def assert_integrates_like_the_reference(space, g, i=0, q=0):
    """h equal to the sum of the reference parts and an equal remainder, or
    the same NotExactDerivative remainder; returns whether g was integrated
    down to jets of order 0, which is whether the remainder holds no jet of
    positive order."""
    h, rest = g.integration(space.derive, space.ctx.jet, i, q)
    exact = not any(v.kind == JET and v.idx[1] for v in rest.variables())
    try:
        parts, want = _reference_integrate_top_down(space, g, i, q)
    except NotExactDerivative as exc:
        assert not exact and rest == exc.remainder
    else:
        assert exact and (h, rest) == (DiffPoly.sum(parts), want)
    return exact


PERFBENCH_EQN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "eqn")


def test_integration_matches_the_reference_on_the_recursion_iterates(monkeypatch):
    """The integrands of the 16 Burgers and 10 KdV iterates in the
    potential covering, as the `nonlocal_recursion` benchmark jobs make
    them."""
    seen = []

    def recording(cov, g):
        seen.append((cov, g))
        return dx_inverse_extended(cov, g)

    monkeypatch.setattr(hamrec, "dx_inverse_extended", recording)
    for name, order, times in (("burgers", 1, 16), ("kdv", 2, 10)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["apply-recursion", os.path.join(PERFBENCH_EQN, f"{name}.eqn"), "--covering", "pot",
                         "--order", str(order), "--deg", "1", "--xt-deg", "0", "--to", "u_x",
                         "--times", str(times), "--format", "structured"]) == 0
    assert len(seen) == 26
    for cov, g in seen:
        assert assert_integrates_like_the_reference(cov, g, 0)


INTEGRATION = settings(max_examples=60, deadline=None)
integration_coefficients = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=6))


@st.composite
def integration_polys(draw, variables, max_terms=4):
    out = []
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(draw(integration_coefficients))
        for v in draw(st.lists(st.sampled_from(variables), max_size=3)):
            term = term * DiffPoly.var(v)
        out.append(term)
    return DiffPoly.sum(out)


def _jets_and_x(ctx, order):
    return [ctx.jet(j, s) for j in range(ctx.m) for s in multi_indices_up_to((0,), order)] + [ctx.base(0)]


SCALAR = JetContext(("x", "t"), ("u",), has_time=True)
NLS1 = JetContext(("x", "t"), ("v", "w"), has_time=True)


@pytest.mark.parametrize("ctx", [SCALAR, NLS1], ids=["one-component", "nls1"])
@INTEGRATION
@given(data=st.data())
def test_integration_matches_the_reference_on_derivatives(ctx, data):
    """D_x h, and D_x h plus a term that need not be a derivative; in the
    nls1 context the top jets of two components share a pass."""
    variables = _jets_and_x(ctx, 3)
    h = data.draw(integration_polys(variables))
    extra = data.draw(integration_polys(variables, max_terms=1))
    for g in (total_derivative(ctx, 0, h), total_derivative(ctx, 0, h) + extra):
        assert_integrates_like_the_reference(ctx, g)
        try:
            expected = _reference_integrate_top_down(ctx, g, 0)
        except NotExactDerivative as exc:
            with pytest.raises(NotExactDerivative) as err:
                dx_inverse(ctx, g)
            assert err.value.remainder == exc.remainder
        else:
            if not expected[1].has_kind(JET):
                assert total_derivative(ctx, 0, dx_inverse(ctx, g)) == g


BURGERS = EvolutionSystem(SCALAR, [SCALAR.parse("u*u_x + u_{xx}")])
# pot and a layer whose x-expression has jet order 1, so q = 1 and the
# passes at order 1 run on the profile measure.
POT_AND_JET_LAYER = make_covering(BURGERS, [("w", [SCALAR.parse("u"), SCALAR.parse("u^2/2 + u_x")]),
                                            ("z", [SCALAR.parse("u_x"), SCALAR.parse("u*u_x + u_{xx}")])])


@INTEGRATION
@given(data=st.data())
def test_integration_matches_the_reference_in_a_covering_with_a_jet_layer(data):
    cov = POT_AND_JET_LAYER
    variables = _jets_and_x(cov.ctx, 2) + [cov.ctx.nonlocal_(0), cov.ctx.nonlocal_(1)]
    h = data.draw(integration_polys(variables))
    extra = data.draw(integration_polys(variables, max_terms=1))
    for g in (cov.derive(0, h), cov.derive(0, h) + extra):
        assert_integrates_like_the_reference(cov, g, 0, 1)


def test_integration_matches_the_reference_on_inputs_that_are_not_derivatives():
    ctx = JetContext(("x",), ("u", "v"))
    pot = make_covering(BURGERS, [("w", [SCALAR.parse("u"), SCALAR.parse("u^2/2 + u_x")])])
    two = JetContext(("x", "t"), ("u", "v"), has_time=True)
    heat = make_covering(EvolutionSystem(two, [two.parse("u_{xx}"), two.parse("v_{xx}")]),
                         [("w", [two.parse("u_x"), two.parse("u_{xx}")])])
    plane = JetContext(("x", "y"), ("u",))
    # The first three stop at a later pass: the top order, or at q = 1 the
    # profile, does not fall.  The fourth has no joint antiderivative, the
    # next three a top jet that enters nonlinearly, and the last a top jet
    # u_y with no derivative in x.
    cases = [(ctx, "v_x*u_{xx}", 0), (ctx, "u_x*v_x*v_{xx}", 0), (heat, "v*u_x", 1),
             (NLS1, "w_x*v_{xx} + 2*v_x*w_{xx}", 0),
             (pot, "u*u_{xx}", 0), (pot, "w*u_{xx}^2 + u_x", 0), (POT_AND_JET_LAYER, "z*u_x^2", 1),
             (plane, "u*u_y", 0)]
    for space, text, q in cases:
        assert not assert_integrates_like_the_reference(space, space.parse(text), 0, q)
    # w holds no jet: nothing to integrate top-down, and the remainder
    # solve finds no antiderivative.
    assert assert_integrates_like_the_reference(pot, pot.parse("w"))
    with pytest.raises(NotExactDerivative) as err:
        dx_inverse(ctx, ctx.parse("v_x*u_{xx}"))
    assert err.value.remainder == ctx.parse("-u_x*v_{xx}")
    with pytest.raises(NonlocalObstruction) as err:
        dx_inverse_extended(pot, pot.parse("w"))
    assert err.value.remainder == pot.parse("w")
