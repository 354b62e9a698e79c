import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import (
    EvolutionSystem,
    GeneralSystem,
    JetContext,
    NotInternal,
    RegimeMismatch,
    ambiguous_subscript,
    prolong,
    total_derivative,
    total_derivative_iterated,
)

from conftest import random_internal, random_poly


def D(ctx, i, p):
    return total_derivative(ctx, i, p)


def test_total_derivative_examples(ctx):
    assert D(ctx, 0, ctx.parse("x")) == DiffPoly.const(1)
    assert D(ctx, 0, ctx.parse("u")) == ctx.parse("u_x")
    assert D(ctx, 0, ctx.parse("u*u_x")) == ctx.parse("u_x^2 + u*u_{xx}")


def test_total_derivative_iterated(ctx):
    assert total_derivative_iterated(ctx, (0, 0), ctx.parse("u")) == ctx.parse("u_{xx}")
    mixed = total_derivative_iterated(ctx, (0, 1), ctx.parse("u"))
    assert mixed == total_derivative_iterated(ctx, (1, 0), ctx.parse("u"))
    assert mixed == ctx.parse("u_{xt}")
    assert total_derivative_iterated(ctx, (0, 0), ctx.parse("u^2")) == ctx.parse("2*u_x^2 + 2*u*u_{xx}")


def test_rejects_nonlocal(ctx):
    scope = ctx.with_nonlocals(("w",))
    with pytest.raises(RegimeMismatch):
        total_derivative(scope, 0, scope.parse("w"))


def test_commuting_total_derivatives(ctx, rng):
    for _ in range(100):
        p = random_poly(rng, ctx)
        dxdt = D(ctx, 0, D(ctx, 1, p))
        dtdx = D(ctx, 1, D(ctx, 0, p))
        assert dxdt == dtdx


def test_derivation_property(ctx, rng):
    for _ in range(30):
        p = random_poly(rng, ctx)
        q = random_poly(rng, ctx)
        assert D(ctx, 0, p * q) == D(ctx, 0, p) * q + p * D(ctx, 0, q)


def test_prolong_burgers(ctx):
    F = ctx.parse("u_t - u*u_x - u_{xx}")
    sys = GeneralSystem(ctx, (F,))
    assert prolong(sys, 0) == [F]
    level1 = prolong(sys, 1)
    assert len(level1) == 3
    assert level1[0] == F
    assert level1[1] == ctx.parse("u_{xt} - u_x^2 - u*u_{xx} - u_{xxx}")
    assert level1[2] == D(ctx, 1, F)


def test_restricted_time_examples(burgers, ctx):
    assert burgers.restricted_time(ctx.parse("u")) == ctx.parse("u*u_x + u_{xx}")
    assert burgers.restricted_time(ctx.parse("u_x")) == ctx.parse("u_x^2 + u*u_{xx} + u_{xxx}")
    assert burgers.restricted_time(ctx.parse("x")).is_zero()
    with pytest.raises(NotInternal):
        burgers.restricted_time(ctx.parse("u_t"))


def test_to_internal_examples(burgers, ctx):
    f = ctx.parse("u*u_x + u_{xx}")
    assert burgers.to_internal(ctx.parse("u_t")) == f
    assert burgers.to_internal(ctx.parse("u_{xt}")) == ctx.parse("u_x^2 + u*u_{xx} + u_{xxx}")
    assert burgers.to_internal(ctx.parse("u_{tt}")) == burgers.restricted_time(f)
    assert burgers.to_internal(f) == f


def test_to_internal_repeated_and_mixed_time_jets(burgers, ctx):
    # D̄_t f = f*u_x + u*D_x f + D_x^2 f for Burgers' f = u*u_x + u_{xx}, and
    # u_{xtt} is D_x of that.
    f_t = ctx.parse("2*u*u_x^2 + 4*u_x*u_{xx} + u^2*u_{xx} + 2*u*u_{xxx} + u_{xxxx}")
    assert burgers.to_internal(ctx.parse("u_{tt}")) == f_t
    assert burgers.to_internal(ctx.parse("u_{xtt}")) == ctx.parse(
        "2*u_x^3 + 6*u*u_x*u_{xx} + 4*u_{xx}^2 + 6*u_x*u_{xxx} + u^2*u_{xxx} + 2*u*u_{xxxx} + u_{xxxxx}")
    assert burgers.to_internal(ctx.parse("x*u_{tt}^2 + u_t")) == ctx.parse("x") * f_t * f_t + burgers.f[0]
    # u_t = u*v_x, v_t = u_x: u_{tt} = u_t*v_x + u*v_{xt} = u*v_x^2 + u*u_{xx}, v_{xt} = u_{xx}.
    ctx2 = JetContext(("x", "t"), ("u", "v"), has_time=True)
    sys = EvolutionSystem(ctx2, [ctx2.parse("u*v_x"), ctx2.parse("u_x")])
    assert sys.to_internal(ctx2.parse("u_{tt} + v_{xt}")) == ctx2.parse("u*v_x^2 + u*u_{xx} + u_{xx}")
    assert sys.to_internal(ctx2.parse("u_{tt}*v_{xt}")) == ctx2.parse("(u*v_x^2 + u*u_{xx})*u_{xx}")
    assert sys.dsigma_f(0, (1, 0)) == sys.to_internal(ctx2.parse("u_{xtt}"))


def test_to_internal_idempotent(burgers, ctx, rng):
    for _ in range(25):
        p = random_poly(rng, ctx, with_time_jets=True)
        q = burgers.to_internal(p)
        assert burgers.to_internal(q) == q


def test_restricted_commutator(ctx, rng):
    for _ in range(20):
        f = random_internal(rng, ctx)
        sys = EvolutionSystem(ctx, [f])
        for _ in range(5):
            p = random_internal(rng, ctx)
            a = total_derivative(ctx, 0, sys.restricted_time(p))
            b = sys.restricted_time(total_derivative(ctx, 0, p))
            assert a == b


def test_restriction_commutes_with_total_derivatives(burgers, ctx, rng):
    for _ in range(40):
        p = random_poly(rng, ctx, with_time_jets=True)
        assert burgers.to_internal(total_derivative(ctx, 0, p)) == \
            total_derivative(ctx, 0, burgers.to_internal(p))
        assert burgers.to_internal(total_derivative(ctx, 1, p)) == \
            burgers.restricted_time(burgers.to_internal(p))


def test_evolution_system_validation(ctx):
    with pytest.raises(NotInternal):
        EvolutionSystem(ctx, [ctx.parse("u_t + u")])
    with pytest.raises(ValueError):
        EvolutionSystem(ctx, [ctx.parse("u"), ctx.parse("u")])
    no_time = JetContext(("x", "y"), ("u",))
    with pytest.raises(ValueError):
        EvolutionSystem(no_time, [no_time.parse("u")])


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext(("x", "x"), ("u",))
    with pytest.raises(ValueError):
        JetContext((), ("u",))
    with pytest.raises(ValueError):
        JetContext(("x", "", "t"), ("u",), has_time=True)


def test_context_rejects_a_subscript_that_splits_two_ways():
    # u_{xy} was read as one derivative in the variable xy.
    with pytest.raises(ValueError, match="the subscript 'xy' splits into the independent variables in two ways"):
        JetContext(("x", "y", "xy"), ("u",))



def test_subscripts_split_past_a_name_that_is_a_prefix():
    # Longest match first read 'abb' as 'ab' + 'b' and gave up; the only
    # split is 'a' + 'bb'.
    ctx = JetContext(("a", "ab", "bb"), ("u",))
    assert ambiguous_subscript(ctx.independent) is None
    assert ctx.u("u_{abb}") == ctx.jet(0, (0, 2))
    assert ctx.u("u_{ababb}") == ctx.jet(0, (0, 1, 2))
    assert ctx.u("u_{ab}") == ctx.jet(0, (1,))


def _splits(text, names):
    ways = [1] + [0] * len(text)
    for k in range(len(text)):
        for nm in names:
            if ways[k] and text.startswith(nm, k):
                ways[k + len(nm)] += ways[k]
    return ways[-1]


@settings(max_examples=150, deadline=None)
@given(st.sets(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=4))
def test_ambiguous_subscript_matches_brute_force(names):
    names = sorted(names)
    witness = ambiguous_subscript(names)
    if witness is not None:
        assert _splits(witness, names) >= 2
    else:
        for n in range(1, 9):
            assert all(_splits("".join(w), names) <= 1 for w in itertools.product("ab", repeat=n))

def test_multicomponent_internal():
    ctx2 = JetContext(("x", "t"), ("u", "v"), has_time=True)
    sys = EvolutionSystem(ctx2, [ctx2.parse("v_x"), ctx2.parse("u_x")])
    assert sys.restricted_time(ctx2.parse("u")) == ctx2.parse("v_x")
    assert sys.to_internal(ctx2.parse("u_t + v_t")) == ctx2.parse("u_x + v_x")
    assert sys.order == 1


def test_dsigma_f_matches_iterated_total_derivatives():
    ctx3 = JetContext(("x", "y", "t"), ("u", "v"), has_time=True)
    sys = EvolutionSystem(ctx3, [ctx3.parse("u*v_x + u_{yy}"), ctx3.parse("x*u_{xy} - v^2")])
    copy = pickle.loads(pickle.dumps(sys))
    assert copy == sys
    for sigma in [(), (0,), (1,), (1, 0), (0, 1, 1), (1, 0, 1)]:
        for j in range(2):
            expected = total_derivative_iterated(ctx3, sigma, sys.f[j])
            assert sys.dsigma_f(j, sigma) == expected
            assert copy.dsigma_f(j, sigma) == expected


def test_an_evolution_system_is_freed_without_the_cycle_collector(burgers, ctx):
    import gc
    import weakref

    sys = EvolutionSystem(ctx, burgers.f)
    assert sys.to_internal(ctx.parse("u_{xtt}")) == burgers.to_internal(ctx.parse("u_{xtt}"))
    ref = weakref.ref(sys)
    gc.disable()
    try:
        del sys
        assert ref() is None
    finally:
        gc.enable()


def test_resolved_identifiers_are_memoized_per_context_and_stay_out_of_its_value():
    from jetcalc.dalg import UnknownIdentifier

    ctx = JetContext(("x", "t"), ("u",), ("a",), has_time=True)
    fresh = JetContext(("x", "t"), ("u",), ("a",), has_time=True)
    u_xx = ctx.resolve_identifier("u", "xx", 0)
    assert ctx.resolve_identifier("u", "xx", 7) is u_xx and u_xx == ctx.jet(0, (0, 0))
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)
    assert pickle.dumps(ctx) == pickle.dumps(fresh) and pickle.loads(pickle.dumps(ctx)) == ctx
    for pos in (3, 9):  # a failure is not kept: each one cites its own position
        with pytest.raises(UnknownIdentifier) as err:
            ctx.resolve_identifier("q", None, pos)
        assert err.value.pos == pos
