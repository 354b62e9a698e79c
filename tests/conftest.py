import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import EvolutionSystem, JetContext, multi_indices_up_to

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(*args, env=None, **run):
    """`subprocess.run` of `python *args` in a fresh interpreter that imports
    jetcalc from SRC: `env` adds to the environment, `run` to the keywords
    (stdout and stderr are captured, and the run times out at 120 s)."""
    run = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 120, **run}
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC, **(env or {})), **run)


def perfbench_jobs():
    """The benchmark's `perfbench/jobs.py`, loaded as a module: its job
    lists and `poly`, a reader of printed polynomials that uses no jetcalc."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", os.path.join(os.path.dirname(SRC), "perfbench", "jobs.py"))
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    try:
        spec.loader.exec_module(jobs)
    finally:
        del sys.modules[spec.name]
    return jobs


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
    sigmas = multi_indices_up_to(range(ctx.n) if with_time_jets else ctx.spatial_indices, max_order)
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
