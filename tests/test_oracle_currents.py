"""sympy rechecks of the conservation-law currents and inverse-problem
Lagrangians recorded in `perfbench/goldens.json`, using no jetcalc code.

These goldens come out of the antiderivative, the homotopy integral and the
inverse of D_x, so they certify those routines independently of the kernel
that computed them:

* every `conslaws ... --currents` current (J0, J1) is conserved, D_t J0 +
  D_x J1 = 0 once u_t and its x-derivatives are replaced through the
  evolution equation, and the Euler derivative of J0 is the generating
  function listed with it;
* every self-adjoint `inverse-problem` answer is a Lagrangian of the given
  section: its Euler-Lagrange expressions are the `--psi` components;
* every section an `inverse-problem` answer calls not self-adjoint has
  ell_psi - ell_psi^* != 0;
* every generating function of a `conslaws` golden without `--currents`
  solves the cosymmetry equation D_t psi + ell_f^*(psi) = 0, and the same
  function plus u_x does not;
* every `verify-current` answer is the sympy divergence D_t J0 + sum_k
  D_k Jk on the equation: the recorded residual equals it, and the current
  is reported conserved exactly when it is zero.
"""

import json
import os
import re

import pytest

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")

_JET = re.compile(r"\b([A-Za-z][A-Za-z0-9]*)_(?:\{([A-Za-z]+)\}|([A-Za-z]+))")


class Space:
    """The jet space of an equation file: independent symbols (time
    included, last), dependent functions of all of them, and the evolution
    right-hand sides and named operators, densities and currents as
    jetcalc text."""

    def __init__(self, path):
        decl = {}
        self.evolution = {}
        self.operators, self.densities, self.currents = {}, {}, {}
        named = {"operator": self.operators, "density": self.densities, "current": self.currents}
        with open(os.path.join(ROOT, path)) as fh:
            for line in fh:
                kind = line.split(" ", 1)[0]
                if kind in named:
                    name, payload = line[len(kind):].split("=", 1)
                    named[kind][name.strip()] = payload.strip()
                    continue
                head, _, body = line.partition(":")
                if head == "evolution":
                    lhs, rhs = body.split("=", 1)
                    self.evolution[lhs.strip().split("_")[0]] = rhs.strip()
                elif head in ("independent", "dependent"):
                    decl[head] = [n.strip() for n in body.split(",")]
        assert decl["independent"][-1].endswith("(time)")
        decl["independent"] = [n.removesuffix("(time)") for n in decl["independent"]]
        assert all(len(n) == 1 for n in decl["independent"])
        self.xs = {n: sympy.Symbol(n) for n in decl["independent"]}
        args = tuple(self.xs.values())
        self.funcs = {d: sympy.Function(d)(*args) for d in decl["dependent"]}

    def parse(self, text):
        """jetcalc syntax (u_{xx}, u^2, 3/2*x) to a sympy expression."""
        def jet(m):
            return f"D({m.group(1)!r}, {m.group(2) or m.group(3)!r})"

        def D(dep, sub):
            return sympy.diff(self.funcs[dep], *[self.xs[c] for c in sub])

        return sympy.sympify(_JET.sub(jet, text).replace("^", "**"),
                             locals={"D": D, **self.xs, **self.funcs})

    def on_equation(self, expr, t):
        """Replace every time derivative u_{sigma t} by the spatial
        derivatives D_sigma of the evolution right-hand side."""
        rhs = {f: self.parse(self.evolution[d]) for d, f in self.funcs.items()}
        subs = {}
        for d in expr.atoms(sympy.Derivative):
            if d.expr in rhs and t in d.variables:
                assert list(d.variables).count(t) == 1
                sigma = [v for v in d.variables if v != t]
                subs[d] = sympy.diff(rhs[d.expr], *sigma) if sigma else rhs[d.expr]
        return expr.xreplace(subs)


def _goldens(command):
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    for key, golden in goldens.items():
        argv = json.loads(key)
        if argv[0] == command:
            yield argv, json.loads(golden["stdout"])


def _euler(space, density):
    """The Euler-Lagrange expressions of a density, one per dependent
    variable.  sympy drops an equation that evaluates to a constant, so each
    f gets the extra term f*z, whose Euler derivative z is taken off again."""
    z = sympy.Dummy("z")
    funcs = list(space.funcs.values())
    eqs = euler_equations(density + z * sum(funcs), funcs, list(space.xs.values()))
    assert len(eqs) == len(funcs)
    return [eq.lhs - eq.rhs - z for eq in eqs]


def test_conslaws_currents_are_conserved_with_their_generating_functions():
    checked = 0
    for argv, doc in _goldens("conslaws"):
        if "--currents" not in argv:
            continue
        space = Space(argv[1])
        x, t = space.xs.values()
        assert len(doc["currents"]) == len(doc["basis"])
        for psi, (j0, j1) in zip(doc["basis"], doc["currents"]):
            J0, J1 = space.parse(j0), space.parse(j1)
            divergence = space.on_equation(sympy.diff(J0, t), t) + sympy.diff(J1, x)
            assert sympy.expand(divergence) == 0, (argv, j0, j1)
            (e,) = _euler(space, J0)
            assert sympy.expand(e - space.parse(psi)) == 0, (argv, psi, j0)
            checked += 1
    assert checked >= 7


def _cosymmetry_residual(space, psi):
    """D_t psi_a + ell_f^*(psi)_a on the equation, one per dependent
    variable.  ell_f^*(psi)_a is the Euler derivative in u^a of sum_b p_b f^b
    with new functions p_b, which are then replaced by psi_b."""
    t = list(space.xs.values())[-1]
    args = tuple(space.xs.values())
    aux = [sympy.Function(f"p{b}")(*args) for b in range(len(psi))]
    pairing = sum(p * space.parse(space.evolution[d]) for p, d in zip(aux, space.funcs))
    adjoint = [e.subs(dict(zip(aux, psi))).doit() for e in _euler(space, pairing)]
    return [sympy.expand(space.on_equation(sympy.diff(p, t), t) + a) for p, a in zip(psi, adjoint)]


def test_conslaws_generating_functions_solve_the_cosymmetry_equation():
    checked = 0
    for argv, doc in _goldens("conslaws"):
        if "--currents" in argv:
            continue
        space = Space(argv[1])
        x = list(space.xs.values())[0]
        for text in doc["basis"]:
            psi = [space.parse(c) for c in (text if isinstance(text, list) else [text])]
            assert _cosymmetry_residual(space, psi) == [0] * len(psi), (argv, text)
            perturbed = [psi[0] + sympy.diff(next(iter(space.funcs.values())), x)] + psi[1:]
            assert _cosymmetry_residual(space, perturbed) != [0] * len(psi), (argv, text)
            checked += 1
    assert checked == 5


def test_self_adjoint_inverse_problem_lagrangians_give_back_psi():
    checked = 0
    for argv, doc in _goldens("inverse-problem"):
        if not doc["self-adjoint"]:
            continue
        space = Space(argv[1])
        psi = [space.parse(argv[k + 1]) for k, a in enumerate(argv) if a == "--psi"]
        got = _euler(space, space.parse(doc["result"]))
        assert len(got) == len(psi)
        for e, p in zip(got, psi):
            assert sympy.expand(e - p) == 0, (argv, doc["result"])
        checked += 1
    assert checked >= 10


def _linearization_minus_adjoint(space, psi):
    """ell_psi(p) - ell_psi^*(p) at new functions p_b, one per component,
    from the definitions: ell_psi(p)_b = sum_{a,sigma} dpsi_b/du^a_sigma
    D_sigma p_a and ell_psi^*(p)_a = sum_{b,sigma} (-D)_sigma (p_b
    dpsi_b/du^a_sigma), over the jets u^a_sigma in psi."""
    def D(expr, sigma):
        return sympy.diff(expr, *sigma) if sigma else expr

    funcs = list(space.funcs.values())
    aux = [sympy.Function(f"p{b}")(*space.xs.values()) for b in range(len(psi))]
    jets = [(f, a, ()) for a, f in enumerate(funcs)]
    jets += [(d, funcs.index(d.expr), d.variables) for d in set().union(*(c.atoms(sympy.Derivative) for c in psi))]
    return [sympy.expand(sum(sympy.diff(c, d) * D(aux[a], sigma) for d, a, sigma in jets)
                         - sum((-1) ** len(sigma) * D(p * sympy.diff(q, d), sigma)
                               for d, a, sigma in jets if a == b for p, q in zip(aux, psi)))
            for b, c in enumerate(psi)]


def test_non_self_adjoint_inverse_problem_sections_differ_from_their_adjoint():
    checked = 0
    for argv, doc in _goldens("inverse-problem"):
        if doc["self-adjoint"]:
            continue
        space = Space(argv[1])
        psi = [space.parse(argv[k + 1]) for k, a in enumerate(argv) if a == "--psi"]
        assert _linearization_minus_adjoint(space, psi) != [0] * len(psi), argv
        checked += 1
    assert checked == 12


def test_verify_current_goldens_are_the_sympy_divergence_on_the_equation():
    checked = conserved = 0
    for argv, doc in _goldens("verify-current"):
        space = Space(argv[1])
        *spatial, t = space.xs.values()
        text = argv[argv.index("--current") + 1]
        J = space.parse(space.currents.get(text, text))
        assert len(J) == len(space.xs)
        divergence = sympy.expand(space.on_equation(sympy.diff(J[0], t), t)
                                  + sum(sympy.diff(Jk, x) for Jk, x in zip(J[1:], spatial)))
        assert sympy.expand(divergence - space.parse(doc["residual"])) == 0, (argv, doc["residual"])
        assert doc["result"] is (divergence == 0), argv
        checked += 1
        conserved += doc["result"]
    assert checked == 26 and 0 < conserved < checked
