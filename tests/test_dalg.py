from fractions import Fraction

import pytest

from jetcalc.dalg import DiffPoly, NonlinearInUnknowns, ParseError, UnknownIdentifier, param_var, unknown_var

from conftest import random_poly


def test_parse_two_monomials(ctx):
    p = ctx.parse("u_x^2 + 3/2*u*u_{xx}")
    assert len(p.terms) == 2
    assert str(p) == "u_x^2 + 3/2*u*u_{xx}"


def test_parse_zero(ctx):
    assert ctx.parse("0").is_zero()
    assert ctx.parse("u*u_x - u_x*u").is_zero()


def test_parse_print_roundtrip_examples(ctx):
    for text in ["u", "x*t", "1/3", "u_x^2 - u*u_{xx}", "u_{xxt} + 2*t", "-u + 5"]:
        p = ctx.parse(text)
        assert ctx.parse(str(p)) == p


def test_parse_errors(ctx):
    with pytest.raises(UnknownIdentifier):
        ctx.parse("v + 1")
    with pytest.raises(ParseError) as err:
        ctx.parse("u + ")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        ctx.parse("u / u_x")
    with pytest.raises(ParseError):
        ctx.parse("u ^ x")
    with pytest.raises(ParseError):
        ctx.parse("u_{xz}")


def test_ring_examples(ctx):
    u, ux = ctx.parse("u"), ctx.parse("u_x")
    assert (u + (-u)).is_zero()
    assert (u + ux) * (u - ux) == ctx.parse("u^2 - u_x^2")
    assert ux ** 3 == ctx.parse("u_x^3")
    assert u.scale(Fraction(2, 3)) == ctx.parse("2/3*u")
    with pytest.raises(ValueError):
        u ** -1


def test_ring_axioms_random(ctx, rng):
    for _ in range(60):
        a = random_poly(rng, ctx)
        b = random_poly(rng, ctx)
        c = random_poly(rng, ctx)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a


def test_canonical_idempotence(ctx, rng):
    for _ in range(40):
        p = random_poly(rng, ctx)
        assert DiffPoly(p.terms) == p
        assert ctx.parse(str(p)) == p


def test_partial_examples(ctx):
    u = ctx.u("u")
    x = ctx.base(0)
    assert ctx.parse("u^2*u_x").partial(u) == ctx.parse("2*u*u_x")
    assert ctx.parse("u_x").partial(u).is_zero()
    assert ctx.parse("x*u_{xx}").partial(x) == ctx.parse("u_{xx}")


def test_partial_commutes(ctx, rng):
    vars_ = [ctx.u("u"), ctx.u("u_x"), ctx.base(0), ctx.base(1)]
    for _ in range(40):
        p = random_poly(rng, ctx)
        for v in vars_:
            for w in vars_:
                assert p.partial(v).partial(w) == p.partial(w).partial(v)


def test_substitute_examples(ctx):
    assert ctx.parse("u*u_x").substitute({ctx.u("u_x"): DiffPoly.const(1)}) == ctx.parse("u")
    s = DiffPoly.var(param_var("s"))
    cube = ctx.parse("u^3")
    scaled = cube.substitute({ctx.u("u"): s * DiffPoly.var(ctx.u("u"))})
    assert scaled == s ** 3 * cube
    f = ctx.parse("u*u_x + u_{xx}")
    assert ctx.parse("u_t").substitute({ctx.u("u_t"): f}) == f


def test_substitute_is_simultaneous(ctx):
    u, ux = ctx.u("u"), ctx.u("u_x")
    swapped = ctx.parse("u*u_x^2").substitute({u: DiffPoly.var(ux), ux: DiffPoly.var(u)})
    assert swapped == ctx.parse("u_x*u^2")


def test_integrate_scalar(ctx):
    # The integral over s from 0 to 1: the antiderivative, then s -> 1.
    scalar = param_var("s")
    s = DiffPoly.var(scalar)
    u = ctx.parse("u")

    def integral(p):
        return p.antiderivative(scalar).substitute({scalar: DiffPoly.const(1)})

    assert integral(s * s * u) == u.scale(Fraction(1, 3))
    assert integral(u) == u
    assert integral(s * u * s * ctx.parse("u_{xx}")) == ctx.parse("u*u_{xx}/3")


def test_print_orders_by_degree_then_variables(ctx):
    assert str(ctx.parse("u_{xx} + u^2/2")) == "1/2*u^2 + u_{xx}"
    assert str(ctx.parse("1 + u + t*u")) == "t*u + u + 1"


def test_variables_and_kinds(ctx):
    p = ctx.parse("x*u_x + 2")
    names = sorted(v.name for v in p.variables())
    assert names == ["u_x", "x"]


def test_offset_unknowns_raises_every_index(ctx):
    c = [DiffPoly.var(unknown_var(k)) for k in range(6)]
    p = c[0] * ctx.parse("u_x") + c[1] * ctx.parse("1/2*x") + c[2]
    assert p.offset_unknowns(3) == c[3] * ctx.parse("u_x") + c[4] * ctx.parse("1/2*x") + c[5]
    assert p.offset_unknowns(0) == p
    assert c[3].offset_unknowns(-3) == c[0]
    assert DiffPoly.zero().offset_unknowns(5).is_zero()


def test_offset_unknowns_refuses_a_free_term_and_an_index_past_the_limit(ctx):
    c1 = DiffPoly.var(unknown_var(1))
    with pytest.raises(ValueError, match="without a template unknown"):
        (c1 * ctx.parse("u") + ctx.parse("u_x")).offset_unknowns(1)
    with pytest.raises(ValueError) as limit:
        unknown_var(1 << 30)
    top = int(str(limit.value).split()[-2])  # "a template holds at most N unknowns"
    assert c1.offset_unknowns(top - 2) == DiffPoly.var(unknown_var(top - 1))
    with pytest.raises(ValueError, match=f"at most {top} unknowns"):
        c1.offset_unknowns(top - 1)
    with pytest.raises(ValueError, match=f"at most {top} unknowns"):
        c1.offset_unknowns(-2)


def test_combination_refuses_an_index_past_the_limit_and_a_poly_with_an_unknown(ctx):
    u = ctx.parse("u")
    with pytest.raises(ValueError) as limit:
        unknown_var(1 << 30)
    top = int(str(limit.value).split()[-2])
    assert DiffPoly.combination([u, u], top - 2) == DiffPoly.var(unknown_var(top - 2)) * u + DiffPoly.var(
        unknown_var(top - 1)) * u
    for polys, start in (([u, u], top - 1), ([u], top), ([u], -1)):
        with pytest.raises(ValueError, match=f"^{limit.value}$"):
            DiffPoly.combination(polys, start)
    c0 = DiffPoly.var(unknown_var(0))
    for polys in ([c0 * u], [u, u + c0], [c0]):
        with pytest.raises(NonlinearInUnknowns):
            DiffPoly.combination(polys, 3)
