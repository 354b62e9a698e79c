"""sympy rechecks of the operator goldens in `perfbench/goldens.json`, using
no jetcalc code, one per derivative regime:

* free D_x: every `adjoint` answer A* is the formal adjoint of the given
  operator A.  With test functions P and Q, P*A(Q) - Q*A*(P) is a total
  divergence, so its Euler derivative with respect to P vanishes.  Every
  `check-hamiltonian` answer reports A skew-adjoint exactly when the Euler
  derivative in P of P*A(Q) + Q*A(P), which is A(Q) + A*(Q), vanishes (the
  Jacobi verdict is not rechecked);
* restricted D_t: every `linearize` answer, applied to free functions phi,
  gives phi_t - ell_f(phi), where ell_f is the Frechet derivative of the
  evolution right-hand side f;
* extended D̃ (the potential coverings): every `apply-recursion` iterate
  solves the linearized equation on the equation, D_t phi = ell_f(phi) once
  time derivatives are replaced through u_t = f;
* Hamiltonian operators (the declared A1 and A2 of kdv.eqn): every `flow`
  answer is A(E(H)), and every `bracket` answer is the density
  E(H2)*A(E(H1)) up to a total divergence, with its Euler image as the
  `euler-image` and `trivial` exactly when that image is zero.

Operators are read in normal form (coefficients left of the derivatives) as
polynomials in commuting symbols, one per total derivative.
"""

import re

import pytest

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

from test_oracle_currents import Space, _euler, _goldens  # noqa: E402

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


def test_recursion_iterates_solve_the_linearized_equation():
    """Every iterate of the `--times 3` goldens and the first three of the
    long ones; all 26 long iterates would take minutes."""
    checked = 0
    for argv, doc in _goldens("apply-recursion"):
        space = Space(argv[1])
        _, t = space.xs.values()
        (dep,) = space.funcs
        f = space.parse(space.evolution[dep])
        for text in doc["result"][:3]:
            phi = space.parse(text)
            residual = space.on_equation(sympy.diff(phi, t), t) - _frechet(space, f, {dep: phi})
            assert sympy.expand(residual) == 0, (argv, text)
            checked += 1
    assert checked == 30


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
