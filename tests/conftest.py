import random
from fractions import Fraction

import pytest

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext, multi_indices_up_to


@pytest.fixture
def ctx():
    return JetContext(("x", "t"), ("u",), has_time=True)


@pytest.fixture
def burgers(ctx):
    return EvolutionSystem(ctx, [ctx.parse("u*u_x + u_{xx}")])


@pytest.fixture
def kdv(ctx):
    return EvolutionSystem(ctx, [ctx.parse("u*u_x + u_{xxx}")])


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_poly(rng, ctx, max_order=2, max_deg=2, terms=3, with_time_jets=True,
                with_base=True, families=None):
    """Small random differential polynomial with rational coefficients."""
    sigmas = multi_indices_up_to(ctx, max_order, spatial_only=not with_time_jets)
    pool = []
    fams = families if families is not None else range(ctx.m)
    for j in fams:
        pool += [ctx.jet(j, s) for s in sigmas]
    if with_base:
        pool += [ctx.base(i) for i in range(ctx.n)]
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, terms)):
        deg = rng.randint(0, max_deg)
        mono = DiffPoly.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(deg):
            mono = mono * DiffPoly.var(rng.choice(pool))
        p = p + mono
    return p


def random_internal(rng, ctx, max_order=2, max_deg=2, terms=3):
    return random_poly(rng, ctx, max_order, max_deg, terms, with_time_jets=False)


def random_scalar_op(rng, ctx, max_order=2):
    """Random scalar operator in spatial total derivatives."""
    from jetcalc.cdiff import CDiffOp

    entry = {}
    for _ in range(rng.randint(1, 3)):
        order = rng.randint(0, max_order)
        sigma = tuple(sorted(rng.choice(ctx.spatial_indices) for _ in range(order)))
        coef = random_internal(rng, ctx, max_order=1, max_deg=1, terms=2)
        if coef.is_zero():
            coef = DiffPoly.const(1)
        entry[sigma] = entry.get(sigma, DiffPoly.zero()) + coef
    return CDiffOp.scalar(ctx, entry)
