"""sympy rechecks of the operator goldens in `perfbench/goldens.json`, using
no jetcalc code, one per derivative regime:

* free D_x: every `adjoint` answer A* is the formal adjoint of the given
  operator A.  With test functions P and Q, P*A(Q) - Q*A*(P) is a total
  divergence, so its Euler derivative with respect to P vanishes.  Every
  `check-hamiltonian` answer reports A skew-adjoint exactly when the Euler
  derivative in P of P*A(Q) + Q*A(P), which is A(Q) + A*(Q), vanishes, and
  reports the Jacobi identity exactly when the Euler derivatives in P, Q
  and R of the criterion density sum_cyc ell_A(A(P))(Q)*R all vanish;
* restricted D_t: every `linearize` answer, applied to free functions phi,
  gives phi_t - ell_f(phi), where ell_f is the Frechet derivative of the
  evolution right-hand side f;
* extended D̃ (the potential coverings): every `apply-recursion` iterate
  solves the linearized equation on the equation, D_t phi = ell_f(phi) once
  time derivatives are replaced through u_t = f;
* restricted D_t on a system: every element phi of the NLS `symmetries`
  golden solves D_t phi^j = ell_{f^j}(phi) for each component j once time
  derivatives are replaced through the equation, and the first one with
  v_x*w added to its v-component does not;
* Hamiltonian operators (the declared A1 and A2 of kdv.eqn): every `flow`
  answer is A(E(H)), and every `bracket` answer is the density
  E(H2)*A(E(H1)) up to a total divergence, with its Euler image as the
  `euler-image` and `trivial` exactly when that image is zero.

Operators are read in normal form (coefficients left of the derivatives) as
polynomials in commuting symbols, one per total derivative.

No golden holds a skew-adjoint operator that fails the Jacobi identity, so
two such `check-hamiltonian` verdicts are computed here by the CLI and
rechecked in the same way.
"""

import json
import os
import re

import pytest

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

from test_oracle_currents import ROOT, Space, _euler, _goldens  # noqa: E402

_D = re.compile(r"\bD_([A-Za-z])\b")


def _operator(space, text):
    """A normal-form operator as {(k_1, ..., k_n): coefficient}, one
    exponent per independent variable, in the order of `space.xs`."""
    names = list(space.xs)
    symbols = [sympy.Symbol(f"D{n}") for n in names]
    expr = space.parse(_D.sub(lambda m: f"D{m.group(1)}", text))
    return dict(sympy.Poly(expr, *symbols).terms())


def _d(expr, *sigma):
    """The derivative of expr along sigma, expr itself for an empty sigma."""
    return sympy.diff(expr, *sigma) if sigma else expr


def _apply(space, op, q):
    """sum_k a_k D^k q for an operator read by `_operator`."""
    xs = list(space.xs.values())
    return sum(a * _d(q, *[(x, k) for x, k in zip(xs, ks) if k]) for ks, a in op.items())


def _frechet(space, f, phi):
    """ell_f(phi) = sum over the jets u_sigma of f of df/du_sigma D_sigma phi^u."""
    out = 0
    for dep, func in space.funcs.items():
        for jet in [func] + [d for d in f.atoms(sympy.Derivative) if d.expr == func]:
            sigma = jet.variables if isinstance(jet, sympy.Derivative) else ()
            out += sympy.diff(f, jet) * _d(phi[dep], *sigma)
    return out


def _pairing_euler(space, pairing):
    """The Euler derivative in P of pairing(P, Q), for free functions P and
    Q of every independent variable."""
    xs = list(space.xs.values())
    P, Q = (sympy.Function(n)(*xs) for n in ("P", "Q"))
    # sympy drops an Euler-Lagrange equation that is identically zero;
    # the extra term z*P, whose Euler derivative is z, keeps it.
    z = sympy.Dummy("z")
    (eq,) = euler_equations(pairing(P, Q) + z * P, [P], xs)
    return sympy.expand(eq.lhs - eq.rhs - z)


def test_adjoint_goldens_are_formal_adjoints():
    checked = 0
    for argv, doc in _goldens("adjoint"):
        space = Space(argv[1])
        A = _operator(space, argv[argv.index("--op") + 1])
        A_star = _operator(space, doc["result"])
        off = _pairing_euler(space, lambda P, Q: P * _apply(space, A, Q) - Q * _apply(space, A_star, P))
        assert off == 0, (argv, doc["result"])
        checked += 1
    assert checked == 32


def test_check_hamiltonian_goldens_report_skew_adjointness():
    checked = 0
    for argv, doc in _goldens("check-hamiltonian"):
        space = Space(argv[1])
        (A,) = _hamiltonian(space, argv)
        off = _pairing_euler(space, lambda P, Q: P * _apply(space, A, Q) + Q * _apply(space, A, P))
        assert doc["skew-adjoint"] is (off == 0), (argv, doc)
        checked += 1
    assert checked == 22


def _jacobi_criterion_euler(space, A):
    """The Euler derivatives in P, Q and R of sum_cyc ell_A(A(P))(Q)*R,
    where ell_A(phi) is the operator whose coefficients are the Frechet
    derivatives ell_a(phi) of those of A.  The density is built with sympy's
    derivatives, then read as a polynomial in the x-jets F0, F1, ... of u,
    P, Q and R, on which the total derivative and the Euler operator
    (Horner's form c_0 - D(c_1 - D(c_2 - ...)), c_k = dL/dF_k) are exact
    ring operations."""
    xs = list(space.xs.values())
    x = xs[0]
    ((dep, u),) = space.funcs.items()
    P, Q, R = (sympy.Function(n)(*xs) for n in "PQR")

    def ell(phi, q):
        return sum(_frechet(space, a, {dep: phi}) * _d(q, *[(y, k) for y, k in zip(xs, ks) if k])
                   for ks, a in A.items())

    density = sum(ell(_apply(space, A, p), q) * r for p, q, r in ((P, Q, R), (Q, R, P), (R, P, Q)))
    top = max((d.derivative_count for d in density.atoms(sympy.Derivative)), default=0)
    n = 2 * top + 2  # the Euler operator derives a top-order coefficient top more times
    funcs = [u, P, Q, R]
    ring, *gens = sympy.ring([f"{f.func}{k}" for f in funcs for k in range(n)], sympy.QQ)
    jets = [gens[i * n:(i + 1) * n] for i in range(len(funcs))]
    names = {f.diff(x, k) if k else f: ring.symbols[i * n + k] for i, f in enumerate(funcs) for k in range(top + 1)}
    L = ring.from_expr(sympy.expand(density.xreplace(names)))

    def D(p):
        return sum((p.diff(js[k]) * js[k + 1] for js in jets for k in range(n - 1)), ring.zero)

    out = []
    for js in jets[1:]:
        e = ring.zero
        for k in range(top, -1, -1):
            e = L.diff(js[k]) - D(e)
        out.append(e)
    return out


def test_check_hamiltonian_goldens_report_the_jacobi_identity():
    checked = 0
    for argv, doc in _goldens("check-hamiltonian"):
        space = Space(argv[1])
        (A,) = _hamiltonian(space, argv)
        assert doc["jacobi"] is not any(_jacobi_criterion_euler(space, A)), (argv, doc)
        checked += 1
    assert checked == 22


@pytest.mark.parametrize("eqn, op", [("kdv", "D_x^3 + u^2*D_x + u*u_x"), ("burgers", "2*u_x*D_x + u_{xx}")])
def test_check_hamiltonian_refuses_skew_operators_that_fail_the_jacobi_identity(capsys, eqn, op):
    from jetcalc.cli import main

    path = f"perfbench/eqn/{eqn}.eqn"
    code = main(["check-hamiltonian", os.path.join(ROOT, path), "--op", op, "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["skew-adjoint"], doc["jacobi"], doc["result"]) == (1, True, False, False)
    space = Space(path)
    A = _operator(space, op)
    assert _pairing_euler(space, lambda P, Q: P * _apply(space, A, Q) + Q * _apply(space, A, P)) == 0
    assert any(_jacobi_criterion_euler(space, A))


def test_linearize_goldens_are_the_linearized_equation():
    checked = 0
    for argv, doc in _goldens("linearize"):
        space = Space(argv[1])
        t = list(space.xs.values())[-1]
        text = doc["result"]
        rows = text.splitlines() if text.startswith("[") else [f"[{text}]"]
        phi = {d: sympy.Function(f"phi_{d}")(*space.xs.values()) for d in space.funcs}
        assert len(rows) == len(phi)
        for dep, row in zip(space.funcs, rows):
            entries = [_operator(space, e) for e in re.split(r",(?![^(]*\))", row.strip()[1:-1])]
            got = sum(_apply(space, op, q) for op, q in zip(entries, phi.values()))
            f = space.parse(space.evolution[dep])
            expected = sympy.diff(phi[dep], t) - _frechet(space, f, phi)
            assert sympy.expand(got - expected) == 0, (argv, row)
        checked += 1
    assert checked == 4


def _symmetry_residual(space, phi):
    """D_t phi^j - ell_{f^j}(phi) on the equation, one per component j."""
    t = list(space.xs.values())[-1]
    return [sympy.expand(space.on_equation(sympy.diff(phi[dep], t), t)
                         - _frechet(space, space.parse(space.evolution[dep]), phi))
            for dep in space.funcs]


def test_recursion_iterates_solve_the_linearized_equation():
    """Every iterate of the `--times 3` goldens and the first three of the
    long ones; all 26 long iterates would take minutes (`test_oracle_iterates`
    checks all 50 without sympy)."""
    checked = 0
    for argv, doc in _goldens("apply-recursion"):
        space = Space(argv[1])
        (dep,) = space.funcs
        for text in doc["result"][:3]:
            assert _symmetry_residual(space, {dep: space.parse(text)}) == [0], (argv, text)
            checked += 1
    assert checked == 30


def test_nls_symmetries_solve_the_linearized_system():
    checked = 0
    for argv, doc in _goldens("symmetries"):
        if "nls1.eqn" not in argv[1]:
            continue
        space = Space(argv[1])
        for element in doc["basis"]:
            phi = dict(zip(space.funcs, map(space.parse, element)))
            assert _symmetry_residual(space, phi) == [0, 0], (argv, element)
            checked += 1
        first = dict(zip(space.funcs, map(space.parse, doc["basis"][0])))
        first["v"] += space.parse("v_x*w")
        assert _symmetry_residual(space, first) != [0, 0], argv
    assert checked == 6


def _hamiltonian(space, argv, *options):
    """The operator and the densities an argv names, as declared or written."""
    op = argv[argv.index("--op") + 1]
    texts = [argv[argv.index(o) + 1] for o in options]
    return (_operator(space, space.operators.get(op, op)),
            *(space.parse(space.densities.get(t, t)) for t in texts))


def test_flow_goldens_are_the_hamiltonian_vector_field():
    checked = 0
    for argv, doc in _goldens("flow"):
        space = Space(argv[1])
        A, H = _hamiltonian(space, argv, "--density")
        (E,) = _euler(space, H)
        assert sympy.expand(_apply(space, A, E) - space.parse(doc["result"])) == 0, (argv, doc["result"])
        checked += 1
    assert checked == 16


def test_bracket_goldens_are_the_poisson_bracket_density():
    checked = 0
    for argv, doc in _goldens("bracket"):
        space = Space(argv[1])
        A, H1, H2 = _hamiltonian(space, argv, "--density", "--density2")
        (E1,), (E2,) = _euler(space, H1), _euler(space, H2)
        density = space.parse(doc["result"])
        if argv[4:] == ["--density", "(-3/2)*(u^3/6 - u_x^2/2)", "--density2", "(1)*u^2/2"]:
            # The order of the factors: this one is E(H2)*A(E(H1)) as it stands.
            assert doc["result"] == "-3/2*u^2*u_x - 3/2*u*u_{xxx}"
            assert sympy.expand(density - E2 * _apply(space, A, E1)) == 0
        (off,) = _euler(space, density - E2 * _apply(space, A, E1))
        assert sympy.expand(off) == 0, (argv, doc["result"])
        (image,) = _euler(space, density)
        (recorded,) = doc["euler-image"]
        assert sympy.expand(image - space.parse(recorded)) == 0, (argv, recorded)
        assert doc["trivial"] is (sympy.expand(image) == 0), argv
        checked += 1
    assert checked == 16
