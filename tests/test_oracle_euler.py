"""sympy recheck of the Euler operator on random densities.

hypothesis draws a density in x or in (x, y), with one or two dependent
variables and jets of order up to 4, mixed ones such as u_{xy} included;
`sympy.calculus.euler.euler_equations` is the oracle for every component.
A requested subset of the components must equal the same entries of the
full list.
"""

import pytest

sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.calculus.euler import euler_equations  # noqa: E402

from jetcalc.dalg import BASE, JET, DiffPoly  # noqa: E402
from jetcalc.jetspace import JetContext  # noqa: E402
from jetcalc.variational import Density, euler  # noqa: E402

CONTEXTS = [JetContext(xs, us) for xs in (("x",), ("x", "y")) for us in (("u",), ("u", "v"))]


@st.composite
def densities(draw):
    """(context, density): up to four terms, each a rational times up to
    three jets of order at most 4 and, now and then, an independent
    variable."""
    ctx = draw(st.sampled_from(CONTEXTS))
    sigmas = st.lists(st.integers(0, ctx.n - 1), max_size=4).map(lambda s: tuple(sorted(s)))
    jets = st.builds(ctx.jet, st.integers(0, ctx.m - 1), sigmas)
    factors = st.one_of(jets, st.builds(ctx.base, st.integers(0, ctx.n - 1)))
    L = DiffPoly.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = DiffPoly.const(draw(st.fractions(-3, 3, max_denominator=4)))
        for v in draw(st.lists(factors, max_size=3)):
            term = term * DiffPoly.var(v)
        L = L + term
    return ctx, L


def to_sympy(ctx, p, xs, funcs):
    """A polynomial of `ctx` as a sympy expression in the symbols xs and the
    functions funcs of them."""
    def factor(v):
        if v.kind == BASE:
            return xs[v.idx[0]]
        assert v.kind == JET
        j, sigma = v.idx
        return sympy.diff(funcs[j], *[xs[i] for i in sigma]) if sigma else funcs[j]

    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[factor(v) ** e for v, e in f])
                for f, c in p.terms.items()), sympy.Integer(0))


@settings(max_examples=60, deadline=None)
@given(densities(), st.data())
def test_euler_matches_sympy(drawn, data):
    ctx, L = drawn
    xs = [sympy.Symbol(n) for n in ctx.independent]
    funcs = [sympy.Function(n)(*xs) for n in ctx.dependent]
    # sympy drops an Euler-Lagrange equation that is identically zero; the
    # extra term z*f, whose Euler derivative is z, keeps it.
    z = sympy.Dummy("z")
    eqs = euler_equations(to_sympy(ctx, L, xs, funcs) + z * sum(funcs), funcs, xs)
    expected = [eq.lhs - eq.rhs - z for eq in eqs]
    got = euler(Density(ctx, L))
    assert len(got) == len(expected) == ctx.m
    for g, e in zip(got, expected):
        assert sympy.expand(to_sympy(ctx, g, xs, funcs) - e) == 0, (str(L), str(g))
    subset = data.draw(st.lists(st.integers(0, ctx.m - 1), unique=True))
    assert euler(Density(ctx, L), subset) == [got[j] for j in subset]
