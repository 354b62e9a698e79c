"""sympy recheck of KdV recursion iterates that carry nonlocal variables,
using no jetcalc code for the check.

The potential KdV covering with two layers has w_x = u, w_t = u^2/2 + u_xx
and v_x = u^2/2, v_t = u^3/3 + u*u_xx - u_x^2/2; the third layer adds
z_x = u^3/6 - u_x^2/2, z_t = u^4/8 - u u_x^2 + u^2 u_xx/2 + u_xx^2/2 -
u_x u_xxx.  Here w, v and z are plain symbols, u_0, u_1, ... stand for u,
u_x, ..., and the extended total derivatives are written out by hand:

    D̃_x = d/dx + sum_k u_{k+1} d/du_k + u d/dw + u^2/2 d/dv + z_x d/dz,
    D̃_t = d/dt + sum_k D_x^k(f) d/du_k + w_t d/dw + v_t d/dv + z_t d/dz,

with f = u*u_x + u_xxx.  A symmetry phi of the covered equation solves the
extended linearization D̃_t phi = u_x*phi + u*D̃_x phi + D̃_x^3 phi.  The
iterates come from `apply-recursion ... --times 2` on the two-layer
covering and `--times 3` on the three-layer one.
"""

import json
import re

import pytest

sympy = pytest.importorskip("sympy")

from jetcalc.cli import main  # noqa: E402

KDV2 = """\
independent: x, t(time)
dependent: u
evolution: u_t = u*u_x + u_{xxx}
covering pot2: w_x = u ; w_t = u^2/2 + u_{xx} ; v_x = u^2/2 ; v_t = u^3/3 + u*u_{xx} - u_x^2/2
"""
KDV3 = KDV2 + """\
covering pot3: w_x = u ; w_t = u^2/2 + u_{xx} ; v_x = u^2/2 ; v_t = u^3/3 + u*u_{xx} - u_x^2/2 ; z_x = u^3/6 - u_x^2/2 ; \
z_t = u^4/8 - u*u_x^2 + u^2*u_{xx}/2 + u_{xx}^2/2 - u_x*u_{xxx}
"""

ORDER = 16
x, t, w, v, z = sympy.symbols("x t w v z")
U = sympy.symbols(f"u0:{ORDER}")
LAYERS = {w: (U[0], U[0] ** 2 / 2 + U[2]),
          v: (U[0] ** 2 / 2, U[0] ** 3 / 3 + U[0] * U[2] - U[1] ** 2 / 2),
          z: (U[0] ** 3 / 6 - U[1] ** 2 / 2,
              U[0] ** 4 / 8 - U[0] * U[1] ** 2 + U[0] ** 2 * U[2] / 2 + U[2] ** 2 / 2 - U[1] * U[3])}
F = U[0] * U[1] + U[3]

_JET = re.compile(r"u_\{(x+)\}|u_(x+)|\bu\b")


def parse(text):
    """jetcalc text in u, its x-jets, x, t, w, v and z to a sympy expression."""
    def jet(m):
        return f"u{len(m.group(1) or m.group(2) or '')}"

    names = {str(s): s for s in (x, t, w, v, z) + U}
    return sympy.sympify(_JET.sub(jet, text).replace("^", "**"), locals=names)


def Dx(e):
    assert not e.has(U[-1]), "raise ORDER"
    return sympy.expand(e.diff(x) + sum(U[k + 1] * e.diff(U[k]) for k in range(ORDER - 1))
                        + sum(ex * e.diff(s) for s, (ex, _) in LAYERS.items()))


def Dt(e):
    out, flow = e.diff(t), F
    for k in range(max((k for k in range(ORDER) if e.has(U[k])), default=-1) + 1):
        out += flow * e.diff(U[k])
        flow = Dx(flow)
    return sympy.expand(out + sum(et * e.diff(s) for s, (_, et) in LAYERS.items()))


def linearization_residual(phi):
    return sympy.expand(Dt(phi) - U[1] * phi - U[0] * Dx(phi) - Dx(Dx(Dx(phi))))


def test_the_hand_written_covering_is_flat():
    for s, (ex, et) in LAYERS.items():
        assert sympy.expand(Dx(et) - Dt(ex)) == 0, s


@pytest.fixture
def iterates(tmp_path, capsys):
    """Iterates 1 and 2 of the KdV scaling symmetry in the two-layer covering."""
    path = tmp_path / "kdv2.eqn"
    path.write_text(KDV2)
    assert main(["apply-recursion", str(path), "--covering", "pot2", "--order", "2", "--deg", "1",
                 "--to", "x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u", "--times", "2", "--format", "structured"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_nonlocal_kdv_iterates_solve_the_extended_linearization(iterates):
    first, second = iterates
    assert parse(first).has(w) and parse(second).has(w) and parse(second).has(v)
    for text in (first, second):
        assert linearization_residual(parse(text)) == 0, text


def test_a_perturbed_nonlocal_iterate_fails_the_oracle(iterates):
    first, second = iterates
    for text, term in ((first, "1/3*u_x*w"), (second, "1/3*u_x*v")):
        assert term in text
        assert linearization_residual(parse(text.replace(term, "1/2" + term[3:]))) != 0


def test_the_third_iterate_in_three_layers_solves_the_extended_linearization(tmp_path, capsys):
    """The third iterate of the scaling symmetry, which `pot2` obstructs,
    integrates through z; changing its z term breaks it."""
    path = tmp_path / "kdv3.eqn"
    path.write_text(KDV3)
    assert main(["apply-recursion", str(path), "--covering", "pot3", "--order", "2", "--deg", "1",
                 "--to", "x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u", "--times", "3", "--format", "structured"]) == 0
    third = json.loads(capsys.readouterr().out)["result"][2]
    assert len(sympy.Add.make_args(parse(third))) == 36 and "5/9*u_x*z" in third
    assert linearization_residual(parse(third)) == 0
    assert linearization_residual(parse(third.replace("5/9*u_x*z", "1/2*u_x*z"))) != 0
