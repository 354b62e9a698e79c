"""sympy recheck of the `recursion` goldens in `perfbench/goldens.json`, on
the tangent covering and with no jetcalc code.

A shadow sum_k a_k om(u_k) + b th(w) is read as a function on the tangent
covering of the equation u_t = f (and of its potential covering w_x = X_x,
w_t = X_t): om(u_k) is the k-th x-jet q_k of a new variable q with
q_t = ell_f(q) = sum_k df/du_k q_k, and th(w) is a variable th with
th_i = d_C(X_i) = sum_k dX_i/du_k q_k + dX_i/dw th.  With the total
derivatives of that covering written out by hand,

    D_x = d/dx + sum_k u_{k+1} d/du_k + q_{k+1} d/dq_k + X_x d/dw + d_C(X_x) d/dth,
    D_t = d/dt + sum_k D_x^k(f) d/du_k + D_x^k(ell_f(q)) d/dq_k + X_t d/dw + d_C(X_t) d/dth,

a shadow S solves the shadow equation iff D_t S = sum_k df/du_k D_x^k S.
Each basis element must solve it and a perturbed one must not.  For the
three small ansaetze, sympy also builds the whole ansatz, matches every
coefficient and checks that the nullity of that system equals the length of
the recorded basis, so the basis misses no shadow of the ansatz.
"""

import json
import os
import re
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.monomials import itermonomials  # noqa: E402

GOLDENS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "goldens.json")

ORDER = 12
x, t, w, th = sympy.symbols("x t w th")
U = sympy.symbols(f"u0:{ORDER}")
Q = sympy.symbols(f"q0:{ORDER}")
# f and (X_x, X_t) of the potential covering, per equation file
EQUATIONS = {
    "burgers": (U[0] * U[1] + U[2], (U[0], U[0] ** 2 / 2 + U[1])),
    "kdv": (U[0] * U[1] + U[3], (U[0], U[0] ** 2 / 2 + U[2])),
}
SMALL = 100  # the nullity is checked on ansaetze with at most this many unknowns

_FORM = re.compile(r"om\(u(?:_\{(x+)\}|_(x+))?\)")
_JET = re.compile(r"u_\{(x+)\}|u_(x+)|\bu\b")


def parse(text):
    """A printed shadow (om(u_x), th(w), u_{xx}, 1/2*u) to a sympy expression."""
    text = _FORM.sub(lambda m: f"q{len(m.group(1) or m.group(2) or '')}", text).replace("th(w)", "th")
    text = _JET.sub(lambda m: f"u{len(m.group(1) or m.group(2) or '')}", text)
    names = {str(s): s for s in (x, t, w, th) + U + Q}
    return sympy.sympify(text.replace("^", "**"), locals=names)


def d_C(p):
    return sum(p.diff(U[k]) * Q[k] for k in range(ORDER)) + p.diff(w) * th


class Tangent:
    """The total derivatives of the tangent covering of one equation."""

    def __init__(self, stem):
        self.f, (self.Xx, self.Xt) = EQUATIONS[stem]

    def Dx(self, e):
        assert not e.has(U[-1]) and not e.has(Q[-1]), "raise ORDER"
        return sympy.expand(e.diff(x) + sum(U[k + 1] * e.diff(U[k]) + Q[k + 1] * e.diff(Q[k])
                                            for k in range(ORDER - 1))
                            + self.Xx * e.diff(w) + d_C(self.Xx) * e.diff(th))

    def Dt(self, e):
        out = e.diff(t) + self.Xt * e.diff(w) + d_C(self.Xt) * e.diff(th)
        flow = self.f
        for k in range(_top(e) + 1):
            out += flow * e.diff(U[k]) + d_C(flow) * e.diff(Q[k])
            flow = self.Dx(flow)
        return sympy.expand(out)

    def shadow_residual(self, s):
        """D_t s - sum_k df/du_k D_x^k s."""
        out, dk = self.Dt(s), s
        for k in range(_top(self.f) + 1):
            out -= self.f.diff(U[k]) * dk
            dk = self.Dx(dk)
        return sympy.expand(out)


def _top(e):
    """The highest k with u_k or q_k in e, -1 if none."""
    return max((k for k in range(ORDER) if e.has(U[k]) or e.has(Q[k])), default=-1)


def _goldens():
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    return [(json.loads(key), json.loads(g["stdout"]), g["sizes"]) for key, g in goldens.items()
            if json.loads(key)[0] == "recursion"]


GOLDEN = _goldens()


def _stem(argv):
    return os.path.splitext(os.path.basename(argv[1]))[0]


def _option(argv, name):
    return int(argv[argv.index(name) + 1])


def _id(golden):
    argv = golden[0]
    return "-".join([_stem(argv)] + argv[2:]).replace("--", "")


def test_there_are_four_recursion_goldens():
    assert len(GOLDEN) == 4


@pytest.mark.parametrize("stem", sorted(EQUATIONS))
def test_the_hand_written_tangent_covering_is_flat(stem):
    tan = Tangent(stem)
    for gen in (w, th, Q[0], U[0]):
        assert sympy.expand(tan.Dx(tan.Dt(gen)) - tan.Dt(tan.Dx(gen))) == 0, gen


@pytest.mark.parametrize("golden", GOLDEN, ids=_id)
def test_every_basis_element_solves_the_shadow_equation(golden):
    argv, doc, _ = golden
    tan = Tangent(_stem(argv))
    assert doc["basis"] and all(doc["verified"])
    for text in doc["basis"]:
        s = parse(text)
        assert tan.shadow_residual(s) == 0, text
        assert tan.shadow_residual(s + U[0] * Q[0]) != 0, text


@pytest.mark.parametrize("golden", [g for g in GOLDEN if g[2]["solver"][0][1] <= SMALL], ids=_id)
def test_the_sympy_nullity_of_the_ansatz_equals_the_basis_length(golden):
    argv, doc, sizes = golden
    tan = Tangent(_stem(argv))
    order, deg, xt = _option(argv, "--order"), _option(argv, "--deg"), _option(argv, "--xt-deg")
    forms = ([th] if "--covering" in argv else []) + list(Q[:order + 1])
    monos = [a * b for a, b in product(itermonomials(U[:order + 1], deg), itermonomials((x, t), xt))]
    unknowns = sympy.symbols(f"c0:{len(forms) * len(monos)}")
    assert len(unknowns) == sizes["solver"][0][1]
    cs = iter(unknowns)
    template = sum(next(cs) * m * form for form in forms for m in monos)
    residual = tan.shadow_residual(template)
    rows = sympy.Poly(residual, *((x, t, w, th) + U + Q)).coeffs()
    matrix, _ = sympy.linear_eq_to_matrix(rows, unknowns)
    assert len(unknowns) - matrix.rank() == len(doc["basis"])
