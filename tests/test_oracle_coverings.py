"""sympy recheck that the coverings jetcalc accepts are flat, using no
jetcalc code for the check.

A covering of u_t = f(u, u_x, ...) by layers w with w_x = X_x, w_t = X_t is
flat when the extended total derivatives commute on w:
D̃_x X_t = D̃_t X_x.  Here the layers are read from the equation files as
text, u_0, u_1, ... stand for u, u_x, ..., the nonlocal variables are plain
symbols, and

    D̃_x = d/dx + sum_k u_{k+1} d/du_k + sum_w X_x^w d/dw,
    D̃_t = d/dt + sum_k D̃_x^k(f) d/du_k + sum_w X_t^w d/dw.

Every covering that `parse_equation_file` builds passes, and jetcalc holds
the layers as written.  A perturbed layer fails in sympy, and jetcalc
refuses it with `NotFlat`, which the CLI reports as exit 2 with its line.
"""

import os
import re

import pytest

sympy = pytest.importorskip("sympy")

from jetcalc.cli import main, parse_equation_file  # noqa: E402
from jetcalc.hamrec import NotFlat, make_covering  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STOCK = os.path.join(ROOT, "perfbench", "eqn")


def _read(name):
    with open(os.path.join(STOCK, f"{name}.eqn")) as fh:
        return fh.read()


KDV_TEXT = _read("kdv")
POT2 = "covering pot2: w_x = u ; w_t = u^2/2 + u_{xx} ; v_x = u^2/2 ; v_t = u^3/3 + u*u_{xx} - u_x^2/2\n"
PERTURBED = KDV_TEXT.replace("w_t = u^2/2 + u_{xx}", "w_t = u^2/2 + u_{xx} + u")

ORDER = 12
x, t = sympy.symbols("x t")
U = sympy.symbols(f"u0:{ORDER}")
_JET = re.compile(r"u_\{(x+)\}|u_(x+)|\bu\b")


def parse(text, nonlocals=()):
    """jetcalc text in u, its x-jets, x, t and the nonlocal names to sympy."""
    def jet(m):
        return f"u{len(m.group(1) or m.group(2) or '')}"

    names = {str(s): s for s in (x, t) + U} | {w: sympy.Symbol(w) for w in nonlocals}
    return sympy.sympify(_JET.sub(jet, text).replace("^", "**"), locals=names)


def coverings(text):
    """The evolution right-hand side and, per covering name, the layers
    {w: (X_x, X_t)} of an equation file with one dependent variable u."""
    f, found = None, {}
    for line in text.splitlines():
        head, _, body = line.partition(":")
        if head == "evolution":
            f = body.split("=", 1)[1].strip()
        elif head.startswith("covering "):
            raw = {}
            for chunk in body.split(";"):
                lhs, rhs = chunk.split("=", 1)
                w, sub = lhs.strip().split("_")
                raw.setdefault(w, {})[sub] = rhs.strip()
            found[head.split()[1]] = raw
    layers = {name: {sympy.Symbol(w): (parse(e["x"], raw), parse(e["t"], raw)) for w, e in raw.items()}
              for name, raw in found.items()}
    return parse(f), layers


def flatness_residues(f, layers):
    def Dx(e):
        assert not e.has(U[-1]), "raise ORDER"
        return sympy.expand(e.diff(x) + sum(U[k + 1] * e.diff(U[k]) for k in range(ORDER - 1))
                            + sum(ex * e.diff(w) for w, (ex, _) in layers.items()))

    def Dt(e):
        out, flow = e.diff(t), f
        for k in range(max((k for k in range(ORDER) if e.has(U[k])), default=-1) + 1):
            out += flow * e.diff(U[k])
            flow = Dx(flow)
        return sympy.expand(out + sum(et * e.diff(w) for w, (_, et) in layers.items()))

    return {w: sympy.expand(Dx(et) - Dt(ex)) for w, (ex, et) in layers.items()}


FILES = {
    "burgers": _read("burgers"),
    "kdv": KDV_TEXT,
    "kdv2": KDV_TEXT + POT2,
}


@pytest.mark.parametrize("name", list(FILES))
def test_accepted_coverings_are_flat(tmp_path, name):
    path = tmp_path / f"{name}.eqn"
    path.write_text(FILES[name])
    eq = parse_equation_file(str(path))
    f, layers = coverings(FILES[name])
    assert set(eq.coverings) == set(layers) and layers
    for cname, cov in eq.coverings.items():
        by_name = {sympy.Symbol(layer.name): layer for layer in cov.layers}
        assert set(by_name) == set(layers[cname])
        nonlocals = [str(w) for w in by_name]
        for w, (ex, et) in layers[cname].items():
            held = [parse(str(p), nonlocals) for p in by_name[w].exprs]
            assert [sympy.expand(h) for h in held] == [sympy.expand(ex), sympy.expand(et)]
        assert flatness_residues(f, layers[cname]) == dict.fromkeys(layers[cname], 0), (name, cname)


def test_a_perturbed_layer_is_not_flat(tmp_path, capsys):
    f, layers = coverings(PERTURBED)
    (residue,) = flatness_residues(f, layers["pot"]).values()
    assert residue == U[1]
    eq = parse_equation_file(os.path.join(STOCK, "kdv.eqn"))
    with pytest.raises(NotFlat) as err:
        make_covering(eq.system, [("w", [eq.ctx.parse("u"), eq.ctx.parse("u^2/2 + u_{xx} + u")])])
    assert parse(str(err.value.residue)) in (residue, -residue)
    path = tmp_path / "perturbed.eqn"
    path.write_text(PERTURBED)
    assert main(["euler", str(path), "--density", "u"]) == 2
    line = next(k for k, text in enumerate(PERTURBED.splitlines(), 1) if text.startswith("covering"))
    assert capsys.readouterr().err.startswith(f"error: line {line}: covering 'pot': [D_")
