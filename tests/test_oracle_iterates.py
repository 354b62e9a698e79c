"""Every `apply-recursion` iterate in `perfbench/goldens.json` solves the
linearized equation, rechecked on plain dicts with no jetcalc code (sympy,
in `test_oracle_operators`, needs minutes for all of them):

    D_t phi - ell_f(phi) = 0,  D_t = d/dt + sum_k D_x^k(f) d/du_k,
                               ell_f(phi) = sum_k df/du_k D_x^k(phi),

for Burgers u_t = u*u_x + u_{xx} and KdV u_t = u*u_x + u_{xxx}.  An
iterate is read into Fractions with `poly` of `perfbench/jobs.py`, then
into {exponents: coefficient}, one exponent per variable x, t, u, u_x,
u_{xx}, ...
"""

import json
import os
import re
from math import lcm
from operator import add

from conftest import SRC, perfbench_jobs

PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")
EQUATIONS = {"burgers.eqn": "u*u_x + u_{xx}", "kdv.eqn": "u*u_x + u_{xxx}"}
X, T, U = 0, 1, 2  # the exponent of u_{x^k} sits at U + k
WIDTH = U + 40


def _read(poly, text, raise_first=0):
    """The polynomial of a printed text, its first coefficient raised by
    `raise_first`, scaled to integer coefficients (the residual is linear);
    fails on a name other than x, t and the jets of u, since every golden
    iterate is local."""
    read = poly(text)
    read[next(iter(read))] += raise_first
    den = lcm(*(c.denominator for c in read.values()))
    out = {}
    for factors, c in read.items():
        e = [0] * WIDTH
        for name, k in factors:
            jet = re.fullmatch(r"u(?:_(x)|_\{(x+)\})?", name)
            assert name in ("x", "t") or jet, f"{name} in {text}"
            e[(X, T)[name == "t"] if jet is None else U + len(jet.group(1) or jet.group(2) or "")] += k
        out[tuple(e)] = int(c * den)
    return out


def _order(p):
    return max((i - U for e in p for i in range(U, WIDTH) if e[i]), default=0)


def _collect(terms):
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _bump(e, i, by):
    return e[:i] + (e[i] + by,) + e[i + 1:]


def _mul(p, q):
    return _collect((tuple(map(add, a, b)), c * d) for a, c in p.items() for b, d in q.items())


def _partial(p, i):
    return _collect((_bump(e, i, -1), c * e[i]) for e, c in p.items() if e[i])


def _dx(p):
    """D_x = d/dx + sum_k u_{x^(k+1)} d/du_{x^k}."""
    assert _order(p) < WIDTH - U - 1
    return _collect([(_bump(e, X, -1), c * e[X]) for e, c in p.items() if e[X]]
                    + [(_bump(_bump(e, i, -1), i + 1, 1), c * e[i])
                       for e, c in p.items() for i in range(U, WIDTH - 1) if e[i]])


def _residual(phi, f, dx_f):
    """D_t phi - ell_f(phi) on the equation u_t = f, with dx_f[k] = D_x^k(f)."""
    terms = list(_partial(phi, T).items())
    for k in range(_order(phi) + 1):
        terms += _mul(_partial(phi, U + k), dx_f[k]).items()
    dx_phi = phi
    for k in range(_order(f) + 1):
        terms += [(e, -c) for e, c in _mul(_partial(f, U + k), dx_phi).items()]
        dx_phi = _dx(dx_phi)
    return _collect(terms)


def test_every_recursion_iterate_golden_solves_the_linearized_equation():
    poly = perfbench_jobs().poly
    with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
        goldens = json.load(fh)
    checked = 0
    for key, golden in goldens.items():
        argv = json.loads(key)
        if argv[0] != "apply-recursion":
            continue
        name = os.path.basename(argv[1])
        with open(os.path.join(PERFBENCH, "eqn", name)) as fh:
            assert f"evolution: u_t = {EQUATIONS[name]}\n" in fh.read()
        f = _read(poly, EQUATIONS[name])
        dx_f = [f]
        iterates = json.loads(golden["stdout"])["result"]
        for text in iterates:
            phi = _read(poly, text)
            while len(dx_f) <= _order(phi):
                dx_f.append(_dx(dx_f[-1]))
            assert _residual(phi, f, dx_f) == {}, (argv, text)
            checked += 1
        # One coefficient of the last iterate raised by 1 breaks it.
        phi = _read(poly, iterates[-1], raise_first=1)
        assert _residual(phi, f, dx_f) != {}, argv
    assert checked == 50
