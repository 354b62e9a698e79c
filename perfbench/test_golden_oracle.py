"""Cross-check the benchmark's goldens with sympy, without jetcalc.

The goldens are what jetcalc printed when they were recorded; these tests
make them rest on an independent computation as well:

* every recorded `euler` query against `sympy.calculus.euler.euler_equations`;
* every recorded Burgers and KdV symmetry basis against the linearized
  equation, with time derivatives eliminated through the evolution equation.
"""

import json
import os
import re

import pytest

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# independent variables (time last) and dependent variables of each file
FILES = {
    "burgers": ("xt", "u", "u*u_x + u_{xx}"),
    "kdv": ("xt", "u", "u*u_x + u_{xxx}"),
    "nls1": ("xt", "vw", None),
    "nls2": ("xyt", "vw", None),
}

_JET = re.compile(r"\b([a-z])_(?:\{([a-z]+)\}|([a-z]+))")


def _goldens(command):
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    for key, golden in goldens.items():
        argv = json.loads(key)
        if argv[0] == command:
            yield argv, json.loads(golden["stdout"])


def _stem(argv):
    return os.path.splitext(os.path.basename(argv[1]))[0]


def _space(stem):
    ind, dep, _ = FILES[stem]
    xs = sympy.symbols(" ".join(ind))
    funcs = {d: sympy.Function(d)(*xs) for d in dep}
    return xs, funcs


def to_sympy(text, xs, funcs):
    """jetcalc syntax (u_{xx}, u^2, 3/2*x) to a sympy expression."""
    names = {str(s): s for s in xs}

    def jet(m):
        sub = m.group(2) or m.group(3)
        return f"D({m.group(1)!r}, {sub!r})"

    def D(dep, sub):
        return sympy.diff(funcs[dep], *[names[c] for c in sub])

    local = {"D": D, **names, **funcs}
    return sympy.sympify(_JET.sub(jet, text).replace("^", "**"), locals=local)


def test_euler_goldens_match_sympy():
    checked = 0
    for argv, doc in _goldens("euler"):
        xs, funcs = _space(_stem(argv))
        density = to_sympy(argv[argv.index("--density") + 1], xs, funcs)
        result = doc["result"] if isinstance(doc["result"], list) else [doc["result"]]
        equations = euler_equations(density, list(funcs.values()), xs)
        assert len(equations) == len(result)
        for eq, printed in zip(equations, result):
            assert sympy.expand(eq.lhs - to_sympy(printed, xs, funcs)) == 0, (argv, printed)
        checked += 1
    assert checked >= 8


def _on_equation(expr, u, rhs, x, t):
    """Replace every u_{x..xt} by the matching x-derivative of the rhs."""
    subs = {}
    for d in expr.atoms(sympy.Derivative):
        if d.expr == u and t in d.variables:
            k = sum(1 for v in d.variables if v == x)
            subs[d] = sympy.diff(rhs, x, k)
    return expr.xreplace(subs)


def _jets(expr, u, x):
    """(jet, x-order) for u and each of its derivatives in expr."""
    out = [(u, 0)]
    for d in expr.atoms(sympy.Derivative):
        if d.expr == u:
            out.append((d, sum(1 for v in d.variables if v == x)))
    return out


@pytest.mark.parametrize("stem", ["burgers", "kdv"])
def test_symmetry_goldens_solve_linearized_equation(stem):
    checked = 0
    for argv, doc in _goldens("symmetries"):
        if _stem(argv) != stem:
            continue
        xs, funcs = _space(stem)
        x, t = xs
        u = funcs["u"]
        rhs = to_sympy(FILES[stem][2], xs, funcs)
        basis = [to_sympy(s, xs, funcs) for s in doc["basis"]]
        for phi in basis:
            lin = sum(sympy.diff(rhs, a) * sympy.diff(phi, x, k) for a, k in _jets(rhs, u, x))
            residual = _on_equation(sympy.diff(phi, t), u, rhs, x, t) - lin
            assert sympy.expand(residual) == 0, (argv, phi)
        # A basis: linearly independent over the rationals.
        jets = sorted({a for p in basis for a, _ in _jets(p, u, x)}, key=str)
        gens = [sympy.Symbol(f"j{k}") for k in range(len(jets))]
        polys = [sympy.Poly(sympy.expand(p).xreplace(dict(zip(jets, gens))), *gens, *xs).as_dict()
                 for p in basis]
        keys = sorted({k for m in polys for k in m})
        assert sympy.Matrix([[m.get(k, 0) for k in keys] for m in polys]).rank() == len(basis)
        checked += 1
    assert checked >= 1
