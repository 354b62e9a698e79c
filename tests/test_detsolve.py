from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.dalg import DiffPoly, param_var, unknown_var
from jetcalc.jetspace import EvolutionSystem, JetContext, total_derivative
from jetcalc.cdiff import CartanShadow, CDiffOp, linearization, jacobi_bracket
from jetcalc.detsolve import (
    Ansatz,
    LinearSystem,
    NonlinearInUnknowns,
    TemplateBuilder,
    ansatz_monomials,
    build_shadow_template,
    build_symmetry_template,
    generating_functions,
    match_coefficients,
    nullspace,
    shadows,
    span_contains,
    symmetries,
)
from jetcalc.hamrec import make_covering


@pytest.fixture
def pot(burgers, ctx):
    return make_covering(burgers, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_x")])])


def test_ansatz_monomials_symmetry_example(ctx):
    monos = ansatz_monomials(ctx, Ansatz(1, 1, 0))
    assert {str(m) for m in monos} == {"1", "u", "u_x"}
    assert [str(m) for m in ansatz_monomials(ctx, Ansatz(0, 0, 0))] == ["1"]


def test_ansatz_validation():
    with pytest.raises(ValueError):
        Ansatz(-1, 0, 0)


def test_symmetry_template_unknown_count(ctx):
    templates, tb = build_symmetry_template(ctx, Ansatz(1, 1, 0))
    assert len(templates) == 1
    assert len(tb.names) == 3


def test_shadow_template_shapes(burgers, ctx, pot):
    template, tb = build_shadow_template(pot.ctx, Ansatz(1, 1, 0))
    keys = set(template.comps[0])
    assert keys == {("w", 0), ("u", 0, ()), ("u", 0, (0,))}
    assert len(tb.names) == 9


def test_match_coefficients_examples(ctx):
    c0, c1, c2 = (DiffPoly.var(unknown_var(k)) for k in range(3))
    expr = c0 * ctx.parse("u") + (c1 - c2) * ctx.parse("u_x")
    system = LinearSystem(["c0", "c1", "c2"], [])
    match_coefficients(expr, system)
    assert system.rows == [{0: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}]

    empty = LinearSystem(["c0"], [])
    match_coefficients(DiffPoly.zero(), empty)
    assert empty.rows == []

    one_row = LinearSystem(["c0", "c1"], [])
    match_coefficients((c0 + c1.scale(2)) * ctx.parse("x*u_{xx}"), one_row)
    assert one_row.rows == [{0: Fraction(1), 1: Fraction(2)}]


def test_match_coefficients_nonlinear(ctx):
    c0 = DiffPoly.var(unknown_var(0))
    system = LinearSystem(["c0"], [])
    with pytest.raises(NonlinearInUnknowns):
        match_coefficients(c0 * c0, system)


def test_nullspace_trivials():
    assert nullspace(LinearSystem(["c0", "c1"], [{0: Fraction(1)}])) == [{"c1": Fraction(1)}]
    assert nullspace(LinearSystem(["c0"], [])) == [{"c0": Fraction(1)}]
    both = LinearSystem(["c0", "c1"], [{0: Fraction(1), 1: Fraction(1)},
                                       {0: Fraction(1), 1: Fraction(-1)}])
    assert nullspace(both) == []


def test_burgers_symmetries_acceptance_shape(burgers, ctx):
    basis = symmetries(burgers, Ansatz(2, 2, 2))
    assert len(basis) == 5
    assert span_contains(basis.solutions, (ctx.parse("u_x"),))
    assert span_contains(basis.solutions, (ctx.parse("u*u_x + u_{xx}"),))
    assert span_contains(basis.solutions, (ctx.parse("t*u_x + 1"),))
    assert span_contains(basis.solutions,
                         (ctx.parse("u + x*u_x + 2*t*(u*u_x + u_{xx})"),))
    assert span_contains(basis.solutions,
                         (ctx.parse("t^2*u_{xx} + (t^2*u + t*x)*u_x + t*u + x"),))


def test_burgers_projective_symmetry_requires_x_term(burgers, ctx):
    ell = linearization(burgers)
    good = ctx.parse("t^2*u_{xx} + (t^2*u + t*x)*u_x + t*u + x")
    off_by_constant = ctx.parse("t^2*u_{xx} + (t^2*u + t*x)*u_x + t*u + 1")
    assert ell.apply([good])[0].is_zero()
    assert not ell.apply([off_by_constant])[0].is_zero()


def test_constant_symmetry_ansatz(burgers):
    assert len(symmetries(burgers, Ansatz(0, 0, 0))) == 0


def test_symmetry_bracket_closure(burgers, ctx):
    basis = symmetries(burgers, Ansatz(2, 2, 2))
    ell = linearization(burgers)
    sols = basis.solutions[:3]
    for a in sols:
        for b in sols:
            br = jacobi_bracket(ctx, list(a), list(b))
            br = [burgers.to_internal(c) for c in br]
            assert ell.apply(br)[0].is_zero()


def test_kdv_generating_functions(kdv, ctx):
    basis = generating_functions(kdv, Ansatz(2, 2, 0))
    assert len(basis) == 3
    for text in ("1", "u", "u^2/2 + u_{xx}"):
        assert span_contains(basis.solutions, (ctx.parse(text),))
    smaller = generating_functions(kdv, Ansatz(2, 1, 0))
    assert {str(s[0]) for s in smaller.solutions} == {"1", "u"}


def test_burgers_generating_functions(burgers):
    basis = generating_functions(burgers, Ansatz(2, 2, 2))
    assert [str(s[0]) for s in basis.solutions] == ["1"]


def test_zero_ansatz_kdv_gfs(kdv):
    basis = generating_functions(kdv, Ansatz(0, 0, 0))
    assert [str(s[0]) for s in basis.solutions] == ["1"]


def test_monotonicity_of_ansatz(burgers, ctx):
    small = symmetries(burgers, Ansatz(1, 1, 0))
    large = symmetries(burgers, Ansatz(2, 2, 2))
    for sol in small.solutions:
        assert span_contains(large.solutions, sol)


def test_local_shadows_are_identity_only(burgers):
    for k in (1, 2, 3):
        basis = shadows(burgers, Ansatz(k, 2, 2))
        assert len(basis) == 1
        assert basis.solutions[0] == CartanShadow.identity(burgers.ctx)


def test_burgers_covering_shadows(burgers, ctx, pot):
    basis = shadows(pot, Ansatz(1, 1, 0))
    assert len(basis) == 2
    expected = CartanShadow(pot.ctx, ({("u", 0, (0,)): DiffPoly.const(1),
                                       ("u", 0, ()): ctx.parse("u/2"),
                                       ("w", 0): ctx.parse("u_x/2")},))
    assert expected in basis.solutions
    assert CartanShadow.identity(pot.ctx) in basis.solutions


def test_kdv_covering_shadow(kdv, ctx):
    kpot = make_covering(kdv, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_{xx}")])])
    basis = shadows(kpot, Ansatz(2, 1, 0))
    expected = CartanShadow(kpot.ctx, ({("u", 0, (0, 0)): DiffPoly.const(1),
                                        ("u", 0, ()): ctx.parse("2*u/3"),
                                        ("w", 0): ctx.parse("u_x/3")},))
    assert expected in basis.solutions


def test_determinism(burgers):
    a = symmetries(burgers, Ansatz(2, 2, 2))
    b = symmetries(burgers, Ansatz(2, 2, 2))
    assert [tuple(str(p) for p in s) for s in a.solutions] == \
        [tuple(str(p) for p in s) for s in b.solutions]


def test_multicomponent_symmetries():
    ctx2 = JetContext(("x", "t"), ("u", "v"), has_time=True)
    wave = EvolutionSystem(ctx2, [ctx2.parse("v_x"), ctx2.parse("u_x")])
    basis = symmetries(wave, Ansatz(1, 1, 0))
    assert span_contains(basis.solutions, (ctx2.parse("u_x"), ctx2.parse("v_x")))
    for sol in basis.solutions:
        assert all(r.is_zero() for r in linearization(wave).apply(list(sol)))


# --------------------------------------------------------------------------
# Solutions read off the template's unknown table

READ_OFF = settings(max_examples=40, deadline=None)

CTX1 = JetContext(("x", "t"), ("u",), has_time=True)
CTX2 = JetContext(("x", "t"), ("u", "v"), has_time=True)
# Declared parameters named like unknowns ('cx'); the unknowns sort after all of them.
CTXP = JetContext(("x", "t"), ("u",), ("b", "cx", "d"), has_time=True)
BURGERS = EvolutionSystem(CTX1, [CTX1.parse("u*u_x + u_{xx}")])
POT = make_covering(BURGERS, [("w", [CTX1.parse("u"), CTX1.parse("u^2/2 + u_x")])])

values = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _symmetry_slots(ctx, a):
    templates, tb = build_symmetry_template(ctx, a)
    return dict(enumerate(templates)), tb


def _shadow_slots(ctx, a):
    template, tb = build_shadow_template(ctx, a)
    return {(j, key): p for j, cmap in enumerate(template.comps) for key, p in cmap.items()}, tb


TEMPLATES = {
    "symmetry-m1": lambda: _symmetry_slots(CTX1, Ansatz(2, 2, 1)),
    "symmetry-m2": lambda: _symmetry_slots(CTX2, Ansatz(1, 2, 1)),
    "shadow-pot": lambda: _shadow_slots(POT.ctx, Ansatz(1, 1, 1)),
    "params": lambda: _symmetry_slots(CTXP, Ansatz(1, 1, 2, include_params=True)),
}


@pytest.mark.parametrize("kind", list(TEMPLATES))
@READ_OFF
@given(data=st.data())
def test_read_off_equals_the_bound_template(kind, data):
    slots, tb = TEMPLATES[kind]()
    vec = data.draw(st.dictionaries(st.sampled_from(tb.names), values, max_size=8))
    bound = {unknown_var(k): vec.get(name, 0) for k, name in enumerate(tb.names)}
    read = tb.read_off(vec)
    assert set(read) <= set(slots)
    for slot, template in slots.items():
        assert read.get(slot, DiffPoly.zero()) == template.evaluate(bound)


def test_direct_template_inserts_unknowns_among_declared_parameters():
    slots, tb = TEMPLATES["params"]()
    assert not set(tb.names) & set(CTXP.parameters)
    factors = list(slots[0].terms)
    assert all(list(f) == sorted(f) for f in factors)
    names = [[v.name for v, _ in f] for f in factors]
    assert any(n[:2] == ["b", "d"] and n[2] in tb.names for n in names)
    assert all(n[-1] in tb.names and not set(n[:-1]) & set(tb.names) for n in names)


coefficients = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))
pool = [CTXP.base(0), CTXP.jet(0), CTXP.jet(0, (0,)), param_var("b"), param_var("cx"), param_var("d")]


@st.composite
def polys(draw):
    return DiffPoly.sum(DiffPoly.const(draw(coefficients)) * DiffPoly.sum([DiffPoly.const(1)] + [
        DiffPoly.var(v) for v in draw(st.lists(st.sampled_from(pool), max_size=3))])
        for _ in range(draw(st.integers(0, 4))))


@READ_OFF
@given(monos=st.lists(polys(), max_size=5))
def test_direct_template_equals_the_sum_of_products(monos):
    tb = TemplateBuilder()
    template = tb.combination(monos)
    products = DiffPoly.sum(DiffPoly.var(unknown_var(k)) * m for k, m in enumerate(monos))
    assert template == products
    assert list(tb.table) == tb.names


@pytest.mark.parametrize("text", ["u*u_x + u_{xx}", "u*u_x + u_{xxx}", "u^2*u_x - 3/2*u_{xxx} + x"])
@READ_OFF
@given(c=st.lists(coefficients, min_size=4, max_size=4))
def test_apply_with_constant_coefficients_equals_the_product_form(text, c):
    sys = EvolutionSystem(CTX1, [CTX1.parse(text)])
    ell = linearization(sys)
    free = CDiffOp.scalar(CTX1, {(): DiffPoly.const(c[0]), (0,): DiffPoly.const(c[1]),
                                 (0, 0): CTX1.parse("u") + DiffPoly.const(c[2]), (0, 0, 0): DiffPoly.const(c[3])})
    v = CTX1.parse("u*u_x + x*u_{xx} + 1/2")
    for op, derive in ((ell, sys.derive), (free, lambda i, p: total_derivative(CTX1, i, p))):
        def d(sigma, p=v):
            for i in sigma:
                p = derive(i, p)
            return p

        assert op.apply([v]) == [DiffPoly.sum(a * d(sigma) for sigma, a in op.entries[0][0].items())]
