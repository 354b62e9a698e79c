import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations_with_replacement

from jetcalc import detsolve
from jetcalc.cli import main, parse_equation_file
from jetcalc.dalg import _UNKNOWN_FLAG, UNKNOWN, DiffPoly, ExponentOverflow, param_var, unknown_var
from jetcalc.jetspace import EvolutionSystem, JetContext, multi_indices_up_to, prefix_derivatives, total_derivative
from jetcalc.cdiff import CartanShadow, CDiffOp, flow_linearization, linearization, jacobi_bracket
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
    slot_derivatives,
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


def _reference_pool(ctx, a):
    """The pool as it was built before the packed constructor: one
    `DiffPoly.monomial` per product of parts, sorted by the decoded key."""
    jets = [ctx.jet(j, s) for j in range(ctx.m) for s in multi_indices_up_to(ctx.spatial_indices, a.jet_order)]
    bases = [ctx.base(i) for i in range(ctx.n)]
    if a.include_params:
        bases += [param_var(p) for p in ctx.parameters]
    jet_parts = [p for d in range(a.poly_deg + 1) for p in combinations_with_replacement(jets, d)]
    base_parts = [p for e in range(a.base_deg + 1) for p in combinations_with_replacement(bases, e)]
    return sorted({DiffPoly.monomial(jp + bp) for jp in jet_parts for bp in base_parts}, key=DiffPoly.order_key)


@settings(max_examples=40, deadline=None)
@given(spatial=st.integers(1, 2), m=st.integers(1, 2), jet_order=st.integers(0, 2), poly_deg=st.integers(0, 3),
       base_deg=st.integers(0, 2), include_params=st.booleans())
def test_packed_pool_equals_the_decoded_reference(spatial, m, jet_order, poly_deg, base_deg, include_params):
    ctx = JetContext(("x", "y")[:spatial] + ("t",), ("u", "v")[:m], ("a", "b"), has_time=True)
    a = Ansatz(jet_order, poly_deg, base_deg, include_params)
    assert ansatz_monomials(ctx, a) == _reference_pool(ctx, a)


@settings(max_examples=40, deadline=None)
@given(spatial=st.integers(1, 2), m=st.integers(1, 2), jet_order=st.integers(0, 2), poly_deg=st.integers(0, 3),
       base_deg=st.integers(0, 2), include_params=st.booleans())
def test_the_pool_is_counted_exactly_before_it_is_built(spatial, m, jet_order, poly_deg, base_deg, include_params):
    """`slots` templates over the pool are refused exactly when they need
    more unknowns than a template holds, so the count made before building
    is the pool's length."""
    ctx = JetContext(("x", "y")[:spatial] + ("t",), ("u", "v")[:m], ("a", "b"), has_time=True)
    a = Ansatz(jet_order, poly_deg, base_deg, include_params)
    n = len(ansatz_monomials(ctx, a))
    fits = _UNKNOWN_FLAG // n
    assert len(ansatz_monomials(ctx, a, fits)) == n
    with pytest.raises(ValueError, match=f"^the ansatz needs {(fits + 1) * n} unknowns, but a template holds at "
                                         f"most {_UNKNOWN_FLAG}$"):
        ansatz_monomials(ctx, a, fits + 1)


@pytest.mark.parametrize("a, message", [
    (Ansatz(0, 128, 0), "exponent 128 of u is outside 0..127"),
    (Ansatz(0, 3, 130), "exponent 128 of x is outside 0..127"),
])
def test_pool_refuses_an_exponent_past_the_field(ctx, a, message):
    with pytest.raises(ExponentOverflow, match=message):
        ansatz_monomials(ctx, a)


@pytest.fixture
def nls():
    ctx2 = JetContext(("x", "t"), ("v", "w"), has_time=True)
    return EvolutionSystem(ctx2, [ctx2.parse("w_{xx} + (v^2 + w^2)*w"), ctx2.parse("-(v_{xx}) - (v^2 + w^2)*v")])


def _operator_sigmas(op):
    return {s for row in op.entries for e in row for s in e}


def test_slot_derivatives_equal_the_derivatives_of_each_slot(nls):
    """Slot j reads slot 0's derivatives offset by j*N unknowns; at every
    multi-index of the linearization and of the cosymmetry operator (D̄_t
    included) that equals the slot's own `prefix_derivatives`."""
    templates, _ = build_symmetry_template(nls.ctx, Ansatz(2, 2, 1))
    sigmas = _operator_sigmas(linearization(nls)) | _operator_sigmas(flow_linearization(nls).adjoint())
    assert (nls.ctx.time_index,) in sigmas and (0, 0) in sigmas
    shared = slot_derivatives(nls, templates)
    for template, view in zip(templates, shared):
        direct = prefix_derivatives(nls.derive, template)
        for sigma in sigmas:
            assert view(sigma) == direct(sigma)


def test_slot_derivatives_refuse_templates_that_are_not_offsets(nls):
    templates, _ = build_symmetry_template(nls.ctx, Ansatz(1, 1, 0))
    with pytest.raises(ValueError, match="not offsets"):
        slot_derivatives(nls, [templates[0], templates[1].scale(2)])


@pytest.mark.parametrize("solve, operator, count", [
    (symmetries, lambda s: linearization(s), 3),
    (generating_functions, lambda s: flow_linearization(s).adjoint(), 2),
])
def test_nls_derives_each_multi_index_once(nls, monkeypatch, solve, operator, count):
    """The residual derives the template of slot 0 once per prefix of the
    operator's multi-indices (and D̄_t), not once per slot."""
    sigmas = _operator_sigmas(operator(nls)) | {(nls.ctx.time_index,)}
    prefixes = {s[:k] for s in sigmas for k in range(1, len(s) + 1)}
    derived = []
    derive = EvolutionSystem.derive

    def counted(self, i, p):
        if p.has_kind(UNKNOWN):
            derived.append((i, len(p)))
        return derive(self, i, p)

    monkeypatch.setattr(EvolutionSystem, "derive", counted)
    a = Ansatz(2, 2, 1 if solve is symmetries else 0)
    basis = solve(nls, a)
    assert len(basis) == count
    assert len(derived) == len(prefixes)


def test_ansatz_validation():
    with pytest.raises(ValueError):
        Ansatz(-1, 0, 0)


def test_symmetry_template_unknown_count(ctx):
    templates, tb = build_symmetry_template(ctx, Ansatz(1, 1, 0))
    assert len(templates) == 1
    assert len(tb.pool) * len(tb.slots) == 3


def test_shadow_template_shapes(burgers, ctx, pot):
    template, tb = build_shadow_template(pot.ctx, Ansatz(1, 1, 0))
    keys = set(template.comps[0])
    assert keys == {pot.ctx.nonlocal_(0), ctx.jet(0), ctx.jet(0, (0,))}
    assert len(tb.pool) * len(tb.slots) == 9


def test_match_coefficients_examples(ctx):
    c0, c1, c2 = (DiffPoly.var(unknown_var(k)) for k in range(3))
    expr = c0 * ctx.parse("u") + (c1 - c2) * ctx.parse("u_x")
    system = LinearSystem(3, [])
    match_coefficients(expr, system)
    assert system.rows == [{0: Fraction(1)}, {1: Fraction(1), 2: Fraction(-1)}]

    empty = LinearSystem(1, [])
    match_coefficients(DiffPoly.zero(), empty)
    assert empty.rows == []

    one_row = LinearSystem(2, [])
    match_coefficients((c0 + c1.scale(2)) * ctx.parse("x*u_{xx}"), one_row)
    assert one_row.rows == [{0: Fraction(1), 1: Fraction(2)}]


def test_match_coefficients_nonlinear(ctx):
    c0 = DiffPoly.var(unknown_var(0))
    system = LinearSystem(1, [])
    with pytest.raises(NonlinearInUnknowns):
        match_coefficients(c0 * c0, system)


def test_nullspace_trivials():
    assert nullspace(LinearSystem(2, [{0: 1}])) == [{1: Fraction(1)}]
    assert nullspace(LinearSystem(1, [])) == [{0: Fraction(1)}]
    both = LinearSystem(2, [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert nullspace(both) == []


def test_span_contains_with_fractional_coefficients(ctx):
    basis = [(ctx.parse("1/2*u_x + 2/3*u"),), (ctx.parse("u_x/3 - 5/4*u^2"),)]
    inside = ctx.parse("3/4*(1/2*u_x + 2/3*u) - 5/7*(u_x/3 - 5/4*u^2)")
    assert span_contains(basis, (inside,))
    assert span_contains(basis, (ctx.parse("7/3*u_x + 28/9*u"),))
    assert not span_contains(basis, (inside + ctx.parse("1/9*u"),))
    assert not span_contains(basis, (ctx.parse("u_x"),))


STOCK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "eqn")
# The two largest symmetry systems of the solve_ansatz benchmark workload.
BENCHMARK_SYSTEMS = [("nls1", ["--order", "3", "--deg", "3", "--xt-deg", "1"], 6),
                     ("kdv", ["--order", "7", "--deg", "3", "--xt-deg", "1"], 5)]


def _determining_system(monkeypatch, capsys, name, flags, command="symmetries"):
    """The linear system that `command` on a stock equation file solves,
    with the nullspace basis it got and the basis the report prints."""
    caught = []
    solve = detsolve.nullspace

    def spy(system):
        caught.append((system, solve(system)))
        return caught[-1][1]

    monkeypatch.setattr(detsolve, "nullspace", spy)
    assert main([command, os.path.join(STOCK, f"{name}.eqn"), *flags, "--format", "structured"]) == 0
    (system, vectors), = caught
    return system, vectors, json.loads(capsys.readouterr().out)["basis"]


MERSENNE_61 = 2 ** 61 - 1


def _rank_mod_p(rows, p=MERSENNE_61):
    """Rank over Z/p by plain forward elimination on the lowest column, rows
    in input order; it shares no code with `nullspace`."""
    pivots = {}
    for row in rows:
        r = {k: c.numerator * pow(c.denominator, -1, p) % p for k, c in row.items()}
        r = {k: v for k, v in r.items() if v}
        while r:
            col = min(r)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(r[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[col]
            for k, v in piv.items():
                nv = (r.get(k, 0) - f * v) % p
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
    return len(pivots)


@pytest.mark.parametrize("name, flags, nullity", BENCHMARK_SYSTEMS, ids=[n for n, _, _ in BENCHMARK_SYSTEMS])
def test_nullspace_is_complete_on_the_benchmark_systems(monkeypatch, capsys, name, flags, nullity):
    """Every basis vector solves every row exactly, each holds an unknown
    that no other does (so they are independent), and their number is
    n - rank mod p.  A rank mod p never exceeds the rank over Q, so the
    nullspace over Q has no room for another vector: the basis is complete."""
    system, vectors, printed = _determining_system(monkeypatch, capsys, name, flags)
    assert len(vectors) == len(printed) == nullity
    assert len(system.unknowns) - _rank_mod_p(system.rows) == nullity
    for vec in vectors:
        others = set().union(*(w for w in vectors if w is not vec))
        assert vec.keys() - others
        for row in system.rows:
            assert sum(c * vec.get(k, 0) for k, c in row.items()) == 0


@pytest.mark.parametrize("command, name, flags, build, count", [
    ("symmetries", "nls1", ["--order", "3", "--deg", "3", "--xt-deg", "1"], build_symmetry_template, 990),
    ("recursion", "burgers", ["--order", "3", "--deg", "2", "--xt-deg", "2"], build_shadow_template, 360),
], ids=["nls1-symmetries", "burgers-recursion"])
def test_system_unknowns_are_the_template_unknowns(monkeypatch, capsys, command, name, flags, build, count):
    """The benchmark's `unknowns` size is `len(system.unknowns)`: the
    columns 0..n-1 are exactly the unknowns of the solver's template."""
    system, _, _ = _determining_system(monkeypatch, capsys, name, flags, command)
    eq = parse_equation_file(os.path.join(STOCK, f"{name}.eqn"))
    template, tb = build(eq.ctx, Ansatz(*map(int, flags[1::2])))
    slots = template if isinstance(template, list) else [p for cmap in template.comps for p in cmap.values()]
    unknowns = {v for p in slots for f in p.terms for v, _ in f if v.kind == UNKNOWN}
    assert unknowns == {unknown_var(k) for k in system.unknowns}
    assert len(system.unknowns) == len(tb.pool) * len(tb.slots) == count


def test_nls_elimination_work_stays_bounded(monkeypatch, capsys):
    """Row rebuilds (`_combine` calls) on the largest benchmark system: the
    single shortest-rows-first loop makes 1367, the two-pass elimination it
    replaced 8108."""
    calls = []
    combine = detsolve._combine

    def counted(*args):
        calls.append(None)
        return combine(*args)

    monkeypatch.setattr(detsolve, "_combine", counted)
    name, flags, nullity = BENCHMARK_SYSTEMS[0]
    _, vectors, _ = _determining_system(monkeypatch, capsys, name, flags)
    assert len(vectors) == nullity
    assert len(calls) <= 2000


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
    expected = CartanShadow(pot.ctx, ({ctx.jet(0, (0,)): DiffPoly.const(1),
                                       ctx.jet(0): ctx.parse("u/2"),
                                       pot.ctx.nonlocal_(0): ctx.parse("u_x/2")},))
    assert expected in basis.solutions
    assert CartanShadow.identity(pot.ctx) in basis.solutions


def test_kdv_covering_shadow(kdv, ctx):
    kpot = make_covering(kdv, [("w", [ctx.parse("u"), ctx.parse("u^2/2 + u_{xx}")])])
    basis = shadows(kpot, Ansatz(2, 1, 0))
    expected = CartanShadow(kpot.ctx, ({ctx.jet(0, (0, 0)): DiffPoly.const(1),
                                        ctx.jet(0): ctx.parse("2*u/3"),
                                        kpot.ctx.nonlocal_(0): ctx.parse("u_x/3")},))
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
    n = len(tb.pool) * len(tb.slots)
    vec = data.draw(st.dictionaries(st.integers(0, n - 1), values, max_size=8))
    bound = {unknown_var(k): DiffPoly.const(vec.get(k, 0)) for k in range(n)}
    read = tb.read_off(vec)
    assert set(read) <= set(slots)
    for slot, template in slots.items():
        assert read.get(slot, DiffPoly.zero()) == template.substitute(bound)


@pytest.mark.parametrize("kind", list(TEMPLATES))
def test_every_slot_is_slot_zero_offset(kind):
    """Symmetry slot s and shadow slot s (covering forms first, then jets
    ascending, per component) are slot 0 with every unknown raised by s*N,
    N the pool size, and slot 0 is the `combination` of the pool."""
    slots, tb = TEMPLATES[kind]()
    assert list(slots) == tb.slots
    first = DiffPoly.combination(tb.pool, 0)
    assert [first.offset_unknowns(s * len(tb.pool)) for s in range(len(slots))] == list(slots.values())


def test_direct_template_inserts_unknowns_among_declared_parameters():
    slots, tb = TEMPLATES["params"]()
    unknowns = {unknown_var(k).name for k in range(len(tb.pool) * len(tb.slots))}
    assert not unknowns & set(CTXP.parameters)
    factors = list(slots[0].terms)
    assert all(list(f) == sorted(f) for f in factors)
    names = [[v.name for v, _ in f] for f in factors]
    assert any(n[:2] == ["b", "d"] and n[2] in unknowns for n in names)
    assert all(n[-1] in unknowns and not set(n[:-1]) & unknowns for n in names)


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
    tb = TemplateBuilder(monos, [None])
    template, = tb.templates()
    products = DiffPoly.sum(DiffPoly.var(unknown_var(k)) * m for k, m in enumerate(monos))
    assert template == products
    assert [tb.read_off({k: 1}).get(None, DiffPoly.zero()) for k in range(len(monos))] == monos


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
