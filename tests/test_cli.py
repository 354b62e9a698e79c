import ast
import errno
import importlib
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from jetcalc.cli import InputError, _lookup_operator, main, parse_equation_file, parse_operator
from jetcalc.cdiff import CartanShadow, CDiffOp
from jetcalc.dalg import DiffPoly, _Parser
from jetcalc.jetspace import JetContext

from conftest import SRC, fresh_python, perfbench_jobs

BURGERS = """\
# Burgers equation and its potential covering
independent: x, t(time)
dependent: u
evolution: u_t = u*u_x + u_{xx}
covering pot: w_x = u ; w_t = u^2/2 + u_x
current J = (u, -(u^2/2 + u_x))
current bad = (u, u)
"""

KDV = """\
independent: x, t(time)
dependent: u
param: alpha, beta
evolution: u_t = u*u_x + u_{xxx}
covering pot: w_x = u ; w_t = u^2/2 + u_{xx}
operator A1 = D_x
operator A2 = D_x^3 + (2/3)*u*D_x + (1/3)*u_x
density H1 = u^3/6 - u_x^2/2
density H2 = u^2/2
"""


@pytest.fixture
def burgers_file(tmp_path):
    p = tmp_path / "burgers.eqn"
    p.write_text(BURGERS)
    return str(p)


@pytest.fixture
def kdv_file(tmp_path):
    p = tmp_path / "kdv.eqn"
    p.write_text(KDV)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_equation_file(burgers_file):
    eq = parse_equation_file(burgers_file)
    assert eq.ctx.independent == ("x", "t") and eq.ctx.has_time
    assert eq.system is not None
    assert "pot" in eq.coverings
    assert "J" in eq.currents


def test_file_errors(tmp_path):
    bad = tmp_path / "bad.eqn"
    bad.write_text("independent: x, t(time)\ndependent: u\nevolution: u_t = u_t + 1\n")
    with pytest.raises(InputError):
        parse_equation_file(str(bad))
    bad.write_text("independent: x, t(time)\ndependent: u\nfrobnicate: yes\n")
    with pytest.raises(InputError) as err:
        parse_equation_file(str(bad))
    assert "line 3" in str(err.value)
    bad.write_text("independent: x, t(time)\ndependent: u\n"
                   "evolution: u_t = u*u_x + u_{xx}\ncovering c: w_x = u ; w_t = u\n")
    with pytest.raises(InputError):
        parse_equation_file(str(bad))


def test_operator_parsing(kdv_file):
    eq = parse_equation_file(kdv_file)
    ctx = eq.ctx
    dx = CDiffOp.d(ctx, 0)
    expected = (dx.compose(dx).compose(dx)
                + CDiffOp.mult(ctx, ctx.parse("2/3*u")).compose(dx)
                + CDiffOp.mult(ctx, ctx.parse("1/3*u_x")))
    assert eq.operators["A2"] == "D_x^3 + (2/3)*u*D_x + (1/3)*u_x"
    assert _lookup_operator(eq, "A2") == expected
    reparsed = parse_operator(str(expected), ctx)
    assert reparsed == expected


def test_operator_powers_are_composition_chains(ctx):
    dx = CDiffOp.d(ctx, 0)
    udx = CDiffOp.mult(ctx, ctx.parse("u")).compose(dx)
    assert parse_operator("D_x^0", ctx) == CDiffOp.identity(ctx)
    assert parse_operator("D_x^1", ctx) == dx
    assert parse_operator("D_x^3", ctx) == dx.compose(dx).compose(dx)
    assert parse_operator("(u*D_x)^2", ctx) == udx.compose(udx)


class _Composing(_Parser):
    """The operator grammar with every product a `CDiffOp.compose` and every
    power a chain of them: the reference each operator text must equal."""

    def number(self, value):
        return CDiffOp.mult(self.ctx, DiffPoly.const(value))

    def identifier(self, base, sub, pos):
        if base == "D" and sub in self.ctx.independent:
            return CDiffOp.d(self.ctx, self.ctx.independent.index(sub))
        return CDiffOp.mult(self.ctx, DiffPoly.var(self.ctx.resolve_identifier(base, sub, pos)))

    def product(self, a, b):
        return a.compose(b)

    def power(self, a, n):
        out = CDiffOp.identity(self.ctx)
        for _ in range(n):
            out = out.compose(a)
        return out

    def constant(self, a):
        return None if a.order else a.entries[0][0].get((), DiffPoly.zero()).as_constant()


def _calculus_query_operators():
    """(equation file, text) of every operator text of the benchmark's
    calculus_queries jobs, at its default and its held-out seed: the
    `--op` texts, and the declarations that an `--op` name refers to."""
    jobs = perfbench_jobs()
    texts = set()
    for seed in (jobs.DEFAULT_SEED, jobs.HELD_OUT_SEED):
        for job in jobs.WORKLOADS["calculus_queries"](seed).jobs:
            if "--op" in job.argv:
                path = os.path.join(os.path.dirname(SRC), job.argv[1])
                with open(path) as fh:
                    declared = dict(line[len("operator"):].split("=", 1) for line in fh
                                    if line.startswith("operator "))
                declared = {name.strip(): text.strip() for name, text in declared.items()}
                op = job.argv[job.argv.index("--op") + 1]
                texts.add((path, declared.get(op, op)))
    return sorted(texts)


@pytest.mark.parametrize("ctx_name, text", [
    ("ctx", "(2/3)*u*D_x"), ("ctx", "(3/2 + (-7/4)*u)*D_x"),  # an order-0 left factor scales
    ("ctx", "u*D_x*u"), ("ctx", "D_x*u*D_x"), ("ctx", "u^3*D_x^2*u_x"),  # a derivative composes
    ("ctx", "D_x^0"), ("ctx", "D_x^127"), ("two", "D_x^2*D_y"), ("two", "(2*D_x*D_y)^3"),  # one term
    ("ctx", "(u*D_x + 1)^3"), ("ctx", "0*D_x*u + (u - u)^2*D_x^2"),
])
def test_operator_texts_equal_their_composed_products(ctx, ctx_name, text):
    if ctx_name == "two":
        ctx = JetContext(("x", "y"), ("u",))
    assert parse_operator(text, ctx) == _Composing(text, ctx).parse()


def test_benchmark_operator_texts_equal_their_composed_products():
    texts = _calculus_query_operators()
    assert len(texts) > 40 and ("kdv.eqn", "D_x^3 + (2/3)*u*D_x + (1/3)*u_x") in [
        (os.path.basename(path), text) for path, text in texts]
    for path, text in texts:
        ctx = parse_equation_file(path).ctx
        assert parse_operator(text, ctx) == _Composing(text, ctx).parse(), (path, text)


def test_symmetries_command(burgers_file, capsys):
    code, out, _ = run(capsys, "symmetries", burgers_file, "--order", "2", "--deg", "2", "--xt-deg", "2")
    assert code == 0
    assert "5 elements" in out
    assert "u_x" in out


def test_symmetries_empty(burgers_file, capsys):
    code, out, _ = run(capsys, "symmetries", burgers_file, "--order", "0", "--deg", "0", "--xt-deg", "0")
    assert code == 0
    assert "no solutions in ansatz" in out


def test_structured_output_roundtrip(burgers_file, capsys):
    code, out, _ = run(capsys, "symmetries", burgers_file, "--order", "2", "--deg", "2",
                       "--xt-deg", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "symmetries"
    assert len(doc["basis"]) == 5
    assert all(doc["verified"])
    eq = parse_equation_file(burgers_file)
    for s in doc["basis"]:
        assert str(eq.ctx.parse(s)) == s


def test_structured_determinism(burgers_file, capsys):
    _, out1, _ = run(capsys, "conslaws", burgers_file, "--order", "2", "--deg", "2",
                     "--xt-deg", "2", "--format", "structured")
    _, out2, _ = run(capsys, "conslaws", burgers_file, "--order", "2", "--deg", "2",
                     "--xt-deg", "2", "--format", "structured")
    assert out1 == out2


def test_euler_command(kdv_file, capsys):
    code, out, _ = run(capsys, "euler", kdv_file, "--density", "u^3/6 - u_x^2/2")
    assert code == 0
    assert out.strip() == "1/2*u^2 + u_{xx}"
    code, out, _ = run(capsys, "euler", kdv_file, "--density", "H1")
    assert out.strip() == "1/2*u^2 + u_{xx}"


def test_adjoint_command(kdv_file, capsys):
    code, out, _ = run(capsys, "adjoint", kdv_file, "--op", "u*D_x")
    assert code == 0
    assert out.strip() == "-u_x - u*D_x"


def test_linearize_command(burgers_file, capsys):
    code, out, _ = run(capsys, "linearize", burgers_file)
    assert code == 0
    assert "D_t" in out and "D_x^2" in out


def test_inverse_problem_command(kdv_file, capsys):
    code, out, _ = run(capsys, "inverse-problem", kdv_file, "--psi", "u^2/2 + u_{xx}")
    assert code == 0
    assert "self-adjoint: yes" in out
    code, out, _ = run(capsys, "inverse-problem", kdv_file, "--psi", "u*u_x")
    assert code == 1
    assert "self-adjoint: no" in out


def test_verify_current_command(burgers_file, capsys):
    code, out, _ = run(capsys, "verify-current", burgers_file, "--current", "J")
    assert code == 0 and "conserved: yes" in out
    code, out, _ = run(capsys, "verify-current", burgers_file, "--current", "bad")
    assert code == 1 and "residual" in out
    code, out, _ = run(capsys, "verify-current", burgers_file, "--current", "(u, -(u^2/2 + u_x))")
    assert code == 0


def test_check_hamiltonian_command(kdv_file, capsys):
    code, out, _ = run(capsys, "check-hamiltonian", kdv_file, "--op", "A2")
    assert code == 0
    assert out.strip() == "skew-adjoint: yes; Jacobi: yes"
    code, out, _ = run(capsys, "check-hamiltonian", kdv_file, "--op", "u*D_x")
    assert code == 1
    assert "skew-adjoint: no" in out


def test_flow_command(kdv_file, capsys):
    code, out, _ = run(capsys, "flow", kdv_file, "--op", "A2", "--density", "H2")
    assert code == 0
    assert "u_t = u*u_x + u_{xxx}" in out


def test_bracket_command(kdv_file, capsys):
    code, out, _ = run(capsys, "bracket", kdv_file, "--op", "A1", "--density", "H2",
                       "--density2", "u^3/6")
    assert code == 0
    assert "zero in cohomology: yes" in out


NLS = """\
independent: x, t(time)
dependent: v, w
evolution: v_t = w_{xx} + (v^2 + w^2)*w
evolution: w_t = -(v_{xx}) - (v^2 + w^2)*v
"""


@pytest.mark.parametrize("argv", [
    ("check-hamiltonian", "--op", "D_x"),
    ("flow", "--op", "D_x", "--density", "v^2"),
    ("bracket", "--op", "D_x", "--density", "v^2", "--density2", "w^2"),
])
def test_hamiltonian_commands_reject_an_operator_of_the_wrong_shape(tmp_path, capsys, argv):
    path = tmp_path / "nls.eqn"
    path.write_text(NLS)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == ("error: operator 'D_x' is 1x1, but the file declares 2 dependent variables, "
                   "so a Hamiltonian operator must be 2x2\n")


def test_recursion_commands(burgers_file, capsys):
    code, out, _ = run(capsys, "recursion", burgers_file, "--order", "1", "--deg", "1")
    assert code == 0
    assert "om(u)" in out and "th(w)" not in out
    code, out, _ = run(capsys, "recursion", burgers_file, "--covering", "pot", "--order", "1", "--deg", "1")
    assert code == 0
    assert "th(w)" in out
    code, out, _ = run(capsys, "apply-recursion", burgers_file, "--covering", "pot",
                       "--order", "1", "--deg", "1", "--to", "u_x", "--times", "2")
    assert code == 0
    assert "iterate 1: u*u_x + u_{xx}" in out


def test_apply_recursion_rejects_negative_times(burgers_file, capsys):
    argv = ("apply-recursion", burgers_file, "--covering", "pot", "--order", "1", "--deg", "1", "--to", "u_x")
    code, out, err = run(capsys, *argv, "--times", "-2")
    assert code == 2 and out == ""
    assert "--times" in err
    code, out, _ = run(capsys, *argv, "--times", "0")
    assert code == 0
    assert "iterate" not in out


KDV_SCALING = "x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u"
TWO_LAYERS = "covering pot2: w_x = u ; w_t = u^2/2 + u_{xx} ; v_x = u^2/2 ; v_t = u^3/3 + u*u_{xx} - u_x^2/2\n"
# pot2 and z, the potential of the density H1 = u^3/6 - u_x^2/2, whose
# x-expression holds u_x.
THREE_LAYERS = ("covering pot3: w_x = u ; w_t = u^2/2 + u_{xx} ; v_x = u^2/2 ; v_t = u^3/3 + u*u_{xx} - u_x^2/2"
                " ; z_x = u^3/6 - u_x^2/2 ; z_t = u^4/8 - u*u_x^2 + u^2*u_{xx}/2 + u_{xx}^2/2 - u_x*u_{xxx}\n")


def _kdv_recursion(capsys, path, covering, *argv):
    code, out, err = run(capsys, "apply-recursion", path, "--covering", covering, "--order", "2", "--deg", "1",
                         *argv, "--format", "structured")
    return code, json.loads(out) if out else None, err


def test_recursion_iterates_through_a_nonlocal_symmetry_until_a_layer_is_missing(kdv_file, capsys):
    code, doc, _ = _kdv_recursion(capsys, kdv_file, "pot", "--to", KDV_SCALING, "--times", "2")
    assert code == 1
    assert len(doc["result"]) == 1 and doc["result"][0].endswith("1/3*u_x*w + 4*u_{xx}")
    assert doc["obstruction"] == "nonlocal obstruction; non-integrable remainder: 1/2*u^2"


def test_a_second_layer_certifies_the_second_nonlocal_iterate(tmp_path, capsys):
    path = tmp_path / "kdv2.eqn"
    path.write_text(KDV + TWO_LAYERS)
    code, doc, _ = _kdv_recursion(capsys, str(path), "pot2", "--to", KDV_SCALING, "--times", "2")
    assert code == 0 and doc["verified"] == [True, True]
    assert "*w" in doc["result"][1] and "*v" in doc["result"][1]
    code, doc, _ = _kdv_recursion(capsys, str(path), "pot2", "--to", KDV_SCALING, "--times", "3")
    assert code == 1 and len(doc["result"]) == 2
    assert doc["obstruction"].startswith("nonlocal obstruction; non-integrable remainder: ")


def test_to_may_use_the_covering_variables(tmp_path, kdv_file, capsys):
    path = tmp_path / "kdv2.eqn"
    path.write_text(KDV + TWO_LAYERS)
    _, doc, _ = _kdv_recursion(capsys, str(path), "pot2", "--to", KDV_SCALING, "--times", "2")
    first, second = doc["result"]
    code, doc, _ = _kdv_recursion(capsys, str(path), "pot2", "--to", first)
    assert code == 0 and doc["result"] == [second]
    code, out, err = run(capsys, "apply-recursion", kdv_file, "--order", "2", "--deg", "1", "--to", first)
    assert code == 2 and out == "" and "unknown identifier 'w'" in err


def test_conslaws_with_currents(kdv_file, capsys):
    code, out, _ = run(capsys, "conslaws", kdv_file, "--order", "2", "--deg", "2", "--currents")
    assert code == 0
    assert "1/2*u^2 + u_{xx}" in out
    assert "current for" in out


def test_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.eqn")
    code, _, err = run(capsys, "euler", missing, "--density", "u")
    assert code == 2
    assert "error:" in err


REFUTATIONS = {"VerificationFailed", "NotExactDerivative", "NotVariational", "NotConserved",
               "NotGeneratingFunction", "NonlocalObstruction", "PreconditionFailed"}


def _exception_classes():
    """Every public exception class the package defines."""
    import jetcalc

    modules = [importlib.import_module(f"jetcalc.{name}")
               for name in ("dalg", "jetspace", "cdiff", "variational", "detsolve", "hamrec", "cli")]
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, Exception)
             and obj.__module__.startswith(jetcalc.__name__ + ".") and not obj.__name__.startswith("_")}
    return sorted(found, key=lambda c: c.__name__)


def test_the_exception_classes_are_found():
    names = {c.__name__ for c in _exception_classes()}
    assert REFUTATIONS <= names
    assert {"InputError", "ParseError", "NotFlat", "NotInternal", "ScopeError"} <= names


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__name__)
def test_the_exception_class_decides_the_exit_code(kdv_file, capsys, monkeypatch, cls):
    """A refutation, a check that ran and said no, exits 1; every other
    error exits 2."""
    from jetcalc import cli

    def refuse(eq, args):
        exc = cls.__new__(cls)
        Exception.__init__(exc, "probe")
        raise exc

    monkeypatch.setattr(cli, "cmd_euler", refuse)
    code, out, err = run(capsys, "euler", kdv_file, "--density", "H1")
    if cls.__name__ in REFUTATIONS:
        assert (code, out, err) == (1, "", "verification failed: probe\n")
    else:
        assert (code, out, err) == (2, "", "error: probe\n")


@pytest.mark.parametrize("argv", [
    ("euler", "--density", "(" * 3000 + "u" + ")" * 3000),
    ("flow", "--op", "(" * 3000 + "D_x" + ")" * 3000, "--density", "u^2"),
])
def test_deeply_nested_expression_exits_2(burgers_file, capsys, argv):
    code, out, err = run(capsys, argv[0], burgers_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("op", ["D_x)", "D_x^u", "D_x/u", "D_x/0", "(D_x"])
def test_malformed_operator_exits_2(kdv_file, capsys, op):
    code, out, err = run(capsys, "adjoint", kdv_file, "--op", op)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "(at position " in err
    assert err.count("\n") == 1


def test_covector_names_skip_declared_names(tmp_path, capsys):
    path = tmp_path / "names.eqn"
    path.write_text("independent: x, t(time)\ndependent: u\nparam: p, q, r, p1, q1, r1, p2, q2\n"
                    "evolution: u_t = u*u_x + u_{xxx}\noperator A = D_x\n")
    code, out, _ = run(capsys, "check-hamiltonian", str(path), "--op", "A", "--format", "structured")
    assert code == 0
    assert json.loads(out)["jacobi"] is True


def test_unknown_covering(burgers_file, capsys):
    code, _, err = run(capsys, "recursion", burgers_file, "--covering", "zzz", "--order", "1")
    assert code == 2


@pytest.mark.parametrize("repeat, first_line", [
    ("evolution: u_t = u_{xx}", 4),
    ("covering pot: w_x = u ; w_t = u_x", 5),
    ("current J = (u, u)", 6),
    ("operator A = D_x", 8),
    ("density H = u", 9),
])
def test_repeated_declarations_are_rejected(tmp_path, capsys, repeat, first_line):
    text = BURGERS + "operator A = D_x^2\ndensity H = u^2\n" + repeat + "\n"
    path = tmp_path / "repeat.eqn"
    path.write_text(text)
    with pytest.raises(InputError) as err:
        parse_equation_file(str(path))
    assert err.value.line == len(text.splitlines())
    assert f"already declared on line {first_line}" in str(err.value)
    code, out, err_text = run(capsys, "linearize", str(path))
    assert code == 2 and out == ""
    assert f"line {len(text.splitlines())}:" in err_text


def test_same_name_of_different_kinds_is_allowed(tmp_path):
    path = tmp_path / "kinds.eqn"
    path.write_text(BURGERS + "density J = u^2\n")
    eq = parse_equation_file(str(path))
    assert "J" in eq.currents and "J" in eq.densities


HEAT = "evolution: u_t = u_{xx}\n"


@pytest.mark.parametrize("text, argv, message", [
    # An empty name made subscript parsing loop forever.
    ("independent: x, , t(time)\ndependent: u\n", ["euler", "--density", "u_y*u"],
     "line 1: '' is not a variable name"),
    # A second (time) variable turned the first into a spatial one.
    ("independent: x, t(time), s(time)\ndependent: u\nevolution: u_s = u_{xx}\n", ["linearize"],
     "line 1: 't' is already the (time) variable"),
    # A repeated covering equation was last-wins.
    ("independent: x, t(time)\ndependent: u\n" + HEAT + "covering pot: w_x = u ; w_x = 2*u ; w_t = 2*u_x\n",
     ["linearize"], "line 4: covering 'pot' gives w_x twice"),
    # A name declared twice across kinds exited 2 without a line number.
    ("independent: x, t(time)\ndependent: u\nparam: x\n" + HEAT, ["linearize"],
     "line 3: variable 'x' is already declared on line 1"),
    # A covering variable named like a dependent one exited 2 without a line number.
    ("independent: x, t(time)\ndependent: u\n" + HEAT + "covering pot: u_x = u ; u_t = u_x\n", ["linearize"],
     "line 4: in covering 'pot': variable names must be unique"),
    # A subscript that splits two ways was read by longest match, as D_xy.
    ("independent: x, y\nindependent: xy, t(time)\ndependent: u\nevolution: u_t = u_{xy}\n", ["linearize"],
     "line 2: the subscript 'xy' splits into the independent variables in two ways"),
    # The line that made the names ambiguous is cited, not the latest declaration.
    ("independent: x, y, xy\ndependent: u\nindependent: t(time)\nevolution: u_t = u_{xy}\n", ["linearize"],
     "line 1: the subscript 'xy' splits into the independent variables in two ways"),
    ("independent: x\ndependent: u\nindependent: y, xy, t(time)\nevolution: u_t = u_{xy}\n", ["linearize"],
     "line 3: the subscript 'xy' splits into the independent variables in two ways"),
    # D_x in an operator was always the total derivative, never the jet D_x.
    ("independent: x, t(time)\ndependent: u, D\noperator A = D_x\n", ["adjoint", "--op", "A"],
     "line 2: 'D' cannot be a dependent variable"),
], ids=["empty-name", "two-time-variables", "repeated-covering-equation", "param-clash", "covering-name-clash",
        "ambiguous-subscript", "ambiguous-first-line", "ambiguous-last-line", "dependent-named-D"])
def test_ambiguous_headers_exit_2_with_a_line(tmp_path, capsys, text, argv, message):
    path = tmp_path / "header.eqn"
    path.write_text(text)
    # parse_equation_file first: it fails fast where the CLI call would hang.
    with pytest.raises(InputError) as err:
        parse_equation_file(str(path))
    assert str(err.value).startswith(message)
    code, out, err_text = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err_text == f"error: {err.value}\n"



@pytest.mark.parametrize("text, message", [
    # '(time)' outside `independent:` declared a parameter named 'a(time)'.
    ("independent: x, t(time)\ndependent: u\nparam: a(time)\n" + HEAT,
     "line 3: 'a(time)' is not a variable name (a letter, then letters or digits)"),
    # ... and a dependent 'u(time)' failed later, on a missing 'u(time)_t'.
    ("independent: x, t(time)\ndependent: u(time)\n" + HEAT,
     "line 2: 'u(time)' is not a variable name (a letter, then letters or digits)"),
    ("independent: x, t(time)\ndependent: u\n\ncovering pot: w_x = u ; w_t = u_x\n",
     "line 4: the equation file declares no evolution system"),
    ("independent: x, t(time)\ndependent: u\n" + HEAT + "evolution: v_t = u\n",
     "line 4: evolution declared for unknown variables: ['v_t']"),
    ("independent: x, t\ndependent: u\n\n" + HEAT,
     "line 4: evolution declarations need a '(time)' independent variable"),
    ("independent: x, t(time)\ndependent: u\n# u_t = u_t is no equation\nevolution: u_t = u_t\n",
     "line 4: invalid evolution system: right-hand side 0 contains time derivative u_t"),
], ids=["param-time", "dependent-time", "covering-without-system", "unknown-evolution",
        "evolution-without-time", "time-derivative-on-the-right"])
def test_contradictory_equation_files_exit_2_with_a_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.eqn"
    path.write_text(text)
    with pytest.raises(InputError) as err:
        parse_equation_file(str(path))
    assert str(err.value) == message
    code, out, err_text = run(capsys, "linearize", str(path))
    assert code == 2 and out == "" and err_text == f"error: {message}\n"


@pytest.mark.parametrize("text, line", [
    ("independent: x, t(time)\ndependent: u, v\nevolution: u_t = v_x\n", 2),
    ("independent: x, t(time)\ndependent: u\nevolution: u_t = v_x\ndependent: v\n", 4),
])
def test_a_missing_evolution_equation_cites_the_line_that_declared_its_variable(tmp_path, capsys, text, line):
    path = tmp_path / "bad.eqn"
    path.write_text(text)
    message = f"line {line}: missing evolution equation for 'v_t'"
    with pytest.raises(InputError) as err:
        parse_equation_file(str(path))
    assert str(err.value) == message and err.value.line == line
    code, out, err_text = run(capsys, "linearize", str(path))
    assert code == 2 and out == "" and err_text == f"error: {message}\n"


def test_parse_operator_rejects_a_dependent_named_D():
    # D_x was read as the total derivative although the context has a jet D_x.
    ctx = JetContext(("x", "t"), ("u", "D"), has_time=True)
    with pytest.raises(InputError, match="'D' cannot be a dependent variable"):
        parse_operator("D_x", ctx)


STOCK = os.path.join(os.path.dirname(SRC), "perfbench", "eqn")


@pytest.mark.parametrize("name", ["burgers", "kdv", "nls1", "nls2"])
def test_stock_files_read_D_x_as_the_total_derivative(capsys, name):
    code, out, _ = run(capsys, "adjoint", os.path.join(STOCK, f"{name}.eqn"), "--op", "D_x")
    assert (code, out) == (0, "-D_x\n")


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    """A file saved with a UTF-8 byte-order mark reads like the same file
    without it; its input hash stays that of the bytes on disk."""
    import hashlib

    raw = open(os.path.join(STOCK, "burgers.eqn"), "rb").read()
    marked = tmp_path / "burgers.eqn"
    marked.write_bytes(b"\xef\xbb\xbf" + raw)
    docs = []
    for path in (os.path.join(STOCK, "burgers.eqn"), str(marked)):
        code, out, err = run(capsys, "linearize", path, "--format", "structured")
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert docs[1].pop("input-hash") == hashlib.sha256(marked.read_bytes()).hexdigest()
    assert docs[0].pop("input-hash") == hashlib.sha256(raw).hexdigest()
    assert docs[0] == docs[1]


def test_currents_need_one_spatial_variable_before_the_solve(capsys, monkeypatch):
    """`conslaws --currents` on a file with two spatial variables exits 2
    without solving the ansatz."""
    from jetcalc import cli

    def unreachable(*args):
        raise AssertionError("the ansatz was solved")

    monkeypatch.setattr(cli, "generating_functions", unreachable)
    code, out, err = run(capsys, "conslaws", os.path.join(STOCK, "nls2.eqn"), "--order", "2", "--deg", "2",
                         "--currents")
    assert (code, out) == (2, "")
    assert err == "error: current reconstruction needs exactly one spatial variable\n"

def test_jobs_flag_is_gone(burgers_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["symmetries", burgers_file, "--jobs", "2"])
    assert exc.value.code == 2


def test_verified_reports_the_shadow_check(burgers_file, capsys, monkeypatch):
    from jetcalc import hamrec

    argv = ("apply-recursion", burgers_file, "--covering", "pot", "--order", "1", "--deg", "1",
            "--to", "u_x", "--times", "2", "--format", "structured")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["verified"] == [True, True]
    monkeypatch.setattr(hamrec, "extended_linearization_residual", lambda cov, psi: [DiffPoly.const(1)])
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 1
    assert doc["verified"] == [False] and doc["result"] == []
    assert "not a symmetry" in doc["failure"]


SABOTAGE = """\
import sys
if __debug__:
    sys.exit("expected python -O")
from jetcalc import detsolve, variational
from jetcalc.cli import main
from jetcalc.dalg import DiffPoly
if sys.argv[1] == "solver":
    solve = detsolve._solve
    detsolve._solve = lambda residuals, tb, render, verify: solve(
        residuals, tb, render, lambda obj: [DiffPoly.const(1)])
else:
    variational.divergence_residual = lambda sys, J: DiffPoly.const(1)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("target, argv", [
    ("solver", ["symmetries", "--order", "1", "--deg", "1"]),
    ("current", ["conslaws", "--order", "1", "--deg", "1", "--currents"]),
])
def test_certificates_survive_python_O(burgers_file, target, argv):
    proc = fresh_python("-O", "-c", SABOTAGE, target, argv[0], burgers_file, *argv[1:], text=True)
    assert proc.returncode == 1, proc.stderr
    assert "verification failed" in proc.stderr


def test_no_code_rests_on_assert_or_debug():
    """`python -O` drops `assert` statements, makes `__debug__` false and
    sets `sys.flags.optimize`.  jetcalc uses none of them, so every path,
    the certificates' included, runs alike with and without -O; the two
    sabotaged runs above witness it end to end."""
    found = []
    for path in sorted(Path(SRC, "jetcalc").rglob("*.py")):
        found += [f"{path}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), path))
                  if isinstance(node, ast.Assert) or getattr(node, "id", None) == "__debug__"
                  or getattr(node, "attr", None) in ("__debug__", "optimize")]
    assert found == []


# --------------------------------------------------------------------------
# One table of CLI runs: (id, command line, exit code, check).  The check is
# None, a condition on the JSON document on stdout, or (stream, pattern): the
# regex matches a line of stdout ("out") or stderr ("err"), as `grep -q`
# would.  An .eqn file is a stock file, or one of WRITTEN, written to tmp_path.

WRITTEN = {
    "unused.eqn": lambda: Path(STOCK, "burgers.eqn").read_bytes() + b"operator B = u^100*u^100*D_x\n",
    "half.eqn": lambda: b"independent: x, t(time)\ndependent: u\nevolution: u_t = u_{xxx} + 3/2*u*u_x\n",
    "bom.eqn": lambda: b"\xef\xbb\xbf" + Path(STOCK, "burgers.eqn").read_bytes(),
    "airy.eqn": lambda: b"independent: x, t(time)\ndependent: u\nevolution: u_t = u_{xxx}\n",
    "kdv3.eqn": lambda: Path(STOCK, "kdv.eqn").read_bytes() + (TWO_LAYERS + THREE_LAYERS).encode(),
}
TABLE = [
    ("help", "--help", 0, None),
    ("unused", "euler unused.eqn --density u", 2, None),
    ("flow", "flow kdv.eqn --op A2 --density u^2/2 --format structured", 0, None),
    ("burgers-symmetries", "symmetries burgers.eqn --order 2 --deg 2 --xt-deg 2 --format structured", 0, None),
    ("burgers-currents", "conslaws burgers.eqn --order 4 --deg 1 --xt-deg 0 --currents --format structured", 0, None),
    ("burgers-recursion", "recursion burgers.eqn --order 1 --deg 2 --xt-deg 2 --format structured", 0, None),
    ("homotopy", "inverse-problem kdv.eqn --psi 'u^2/2 + u_{xx}' --format structured", 0, None),
    ("local-shadow", "apply-recursion burgers.eqn --order 1 --deg 1 --to u_x --format structured", 0, None),
    ("burgers_shadows", "recursion burgers.eqn --covering pot --order 1 --deg 1 --format structured", 0,
     lambda doc: doc["basis"] == ["om(u)", "1/2*u*om(u) + om(u_x) + 1/2*u_x*th(w)"]),
    ("layer", "apply-recursion kdv.eqn --covering pot --order 2 --deg 1 --to 'x*u_x + 3*t*(u*u_x + u_{xxx}) + 2*u' "
     "--times 2", 1, ("out", r"non-integrable remainder: 1/2\*u\^2$")),
    ("nls_sym", "symmetries nls1.eqn --order 2 --deg 2 --xt-deg 1 --format structured", 0,
     lambda doc: len(doc["basis"]) == 3 and ["t*v_x - 1/2*x*w", "1/2*x*v + t*w_x"] in doc["basis"]),
    ("nls_cl", "conslaws nls1.eqn --order 2 --deg 2 --xt-deg 0 --format structured", 0,
     lambda doc: len(doc["basis"]) == 2),
    ("current", "verify-current burgers.eqn --current '(u, u)' --format structured", 1, None),
    ("kdv_sym7", "symmetries kdv.eqn --order 7 --deg 3 --xt-deg 1 --format structured", 0,
     lambda doc: len(doc["basis"]) == 5 and "u_x" in doc["basis"]),
    ("kdv_cl6", "conslaws kdv.eqn --order 6 --deg 3 --xt-deg 1 --format structured", 0,
     lambda doc: len(doc["basis"]) == 5),
    ("jacobi", "check-hamiltonian kdv.eqn --op A2 --format structured", 0, lambda doc: doc["jacobi"] is True),
    ("skew_not_jacobi", "check-hamiltonian kdv.eqn --op 'D_x^3 + u^2*D_x + u*u_x' --format structured", 1,
     lambda doc: doc["skew-adjoint"] is True and doc["jacobi"] is False),
    ("inverse", "inverse-problem kdv.eqn --psi u_x --format structured", 1, lambda doc: doc["self-adjoint"] is False),
    ("kdv-currents", "conslaws kdv.eqn --order 2 --deg 2 --currents --format structured", 0, None),
    ("half_sym", "symmetries half.eqn --order 3 --deg 2 --xt-deg 1 --format structured", 0,
     lambda doc: doc["basis"] == ["9/4*t*u*u_x + 1/2*x*u_x + 3/2*t*u_{xxx} + u", "u_x", "3/2*u*u_x + u_{xxx}",
                                  "3/2*t*u_x + 1"]),
    ("half_cl", "conslaws half.eqn --order 4 --deg 3 --currents --format structured", 0,
     lambda doc: len(doc["basis"]) == 4 and len(doc["currents"]) == 4
     and all(set(J) != {"0"} for J in doc["currents"])),
    ("bom", "linearize bom.eqn", 0, None),
    ("neg", "euler burgers.eqn --density=-u^2 --format structured", 0, lambda doc: doc["result"] == "-2*u"),
    ("family", "check-hamiltonian kdv.eqn --op 'D_x^3 + (2/3 + 5/7*u)*D_x + 5/14*u_x' --format structured", 0,
     lambda doc: doc["jacobi"] is True),
    ("nested-200", "euler burgers.eqn --density " + "(" * 200 + "u^2" + ")" * 200, 0, None),
    ("deep", "euler burgers.eqn --density " + "(" * 201 + "u^2" + ")" * 201, 2, ("err", r"\(at position 200\)$")),
    ("nls_currents", "conslaws nls1.eqn --order 2 --deg 2 --currents --format structured", 0,
     lambda doc: len(doc["currents"]) == 2 and all(set(c) != {"0"} for c in doc["currents"])),
    # u_x is a cosymmetry of Airy's equation but no variational derivative:
    # its current is obstructed, and the rest of the report still prints.
    ("airy-currents", "conslaws airy.eqn --order 1 --deg 1 --currents", 1,
     ("out", r"^  current for u_x: obstructed \(section is not a variational derivative\)$")),
    ("airy-currents-structured", "conslaws airy.eqn --order 1 --deg 1 --currents --format structured", 1,
     lambda doc: doc["basis"] == ["u", "u_x", "1"]
     and doc["currents"] == [["1/2*u^2", "1/2*u_x^2 - u*u_{xx}"], None, ["u", "-u_{xx}"]]),
    # Parameters join the base variables, under the --xt-deg bound.
    ("params", "symmetries kdv.eqn --order 1 --deg 1 --xt-deg 1 --params --format structured", 0,
     lambda doc: doc["basis"] == ["u_x*a", "u_x*b", "u_x", "t*u_x + 1"]),
    ("no-params", "symmetries kdv.eqn --order 1 --deg 1 --xt-deg 1 --format structured", 0,
     lambda doc: doc["basis"] == ["u_x", "t*u_x + 1"]),
    ("params-xt-deg-0", "symmetries kdv.eqn --order 1 --deg 1 --params --format structured", 0,
     lambda doc: doc["basis"] == ["u_x"]),
    # A(E(H)) with a time derivative is no evolution equation; the error
    # names the flow, not a right-hand side the user never wrote.
    ("flow-d_t", "flow kdv.eqn --op D_t --density u^2/2", 2,
     ("err", r"^(?!.*right-hand side).*\bflow\b.*time derivative u_t$")),
    ("flow-u_t-density", "flow kdv.eqn --op A1 --density u_t^2", 2,
     ("err", r"^(?!.*right-hand side).*\bflow\b.*time derivative u_\{xtt\}$")),
    # The third iterate of the KdV scaling symmetry needs z; pot2 lacks it,
    # and the fourth needs a further layer.
    ("pot2-third", f"apply-recursion kdv3.eqn --covering pot2 --order 2 --deg 1 --to '{KDV_SCALING}' --times 3", 1,
     ("out", r"^obstruction: nonlocal obstruction; non-integrable remainder: 35/18\*t\*u\^3\*u_x \+ 5/6\*x\*u\^2\*u_x"
             r" \+ 8/9\*u\^3 \+ 1/3\*u\*u_x\*w - 5/6\*u_x\^2 \+ 1/3\*u_x\*v$")),
    ("pot3-third", f"apply-recursion kdv3.eqn --covering pot3 --order 2 --deg 1 --to '{KDV_SCALING}' --times 3 "
     "--format structured", 0, lambda doc: doc["verified"] == [True, True, True]),
    ("pot3-fourth", f"apply-recursion kdv3.eqn --covering pot3 --order 2 --deg 1 --to '{KDV_SCALING}' --times 4", 1,
     ("out", r"^obstruction: nonlocal obstruction; non-integrable remainder: (?!.*xxx).*u_\{xx\}")),
]


@pytest.mark.parametrize("line, code, check", [row[1:] for row in TABLE], ids=[row[0] for row in TABLE])
def test_run_exits_and_reports_as_tabled(tmp_path, capsys, line, code, check):
    argv = shlex.split(line)
    for i, arg in enumerate(argv):
        if arg in WRITTEN:
            (tmp_path / arg).write_bytes(WRITTEN[arg]())
            argv[i] = str(tmp_path / arg)
        elif arg.endswith(".eqn"):
            argv[i] = os.path.join(STOCK, arg)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse ends a --help run
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, err
    if callable(check):
        assert check(json.loads(out)), out
    elif check:
        stream, pattern = check
        assert re.search(pattern, {"out": out, "err": err}[stream], re.M), (out, err)


# One row of each command that shows a value both in the document and on a
# text line: (command line, exit code).
RENDERED = [
    ("euler kdv.eqn --density H1", 0),
    ("bracket kdv.eqn --op A2 --density H1 --density2 H2", 0),
    ("conslaws kdv.eqn --order 2 --deg 2 --currents", 0),
    ("verify-current burgers.eqn --current '(u, u)'", 1),
    ("inverse-problem kdv.eqn --psi 'u^2/2 + u_{xx}'", 0),
    ("flow kdv.eqn --op A2 --density u^2/2", 0),
    ("apply-recursion burgers.eqn --covering pot --order 1 --deg 1 --to u_x --times 2", 0),
]


@pytest.mark.parametrize("line, code", RENDERED, ids=[line.split()[0] for line, _ in RENDERED])
def test_each_reported_value_is_rendered_once(capsys, monkeypatch, line, code):
    """The document and the text lines share one rendering of each value:
    no polynomial or shadow is printed twice by one command."""
    seen = {}  # id -> [object, count]; holding the object keeps its id unique

    def counting(cls):
        render = cls.__str__

        def counted(self):
            seen.setdefault(id(self), [self, 0])[1] += 1
            return render(self)
        monkeypatch.setattr(cls, "__str__", counted)

    counting(DiffPoly)
    counting(CartanShadow)
    argv = shlex.split(line)
    argv[1] = os.path.join(STOCK, argv[1])
    assert main(argv) == code
    capsys.readouterr()
    assert seen
    assert [(type(obj).__name__, n) for obj, n in seen.values() if n > 1] == []


# --------------------------------------------------------------------------
# The exit-code contract at the process boundary


def _cli(*argv, **run):
    return fresh_python("-m", "jetcalc.cli", *argv, text=True, **run)


def test_a_report_no_reader_takes_exits_2_with_one_error_line():
    read, write = os.pipe()
    os.close(read)  # the reader closes before the report is written
    try:
        proc = _cli("apply-recursion", os.path.join(STOCK, "burgers.eqn"), "--covering", "pot", "--order", "1",
                    "--deg", "1", "--to", "u_x", "--times", "16", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write the report: [Errno {errno.EPIPE}] "
                                                 f"{os.strerror(errno.EPIPE)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_a_report_to_a_full_device_exits_2_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = _cli("symmetries", os.path.join(STOCK, "burgers.eqn"), "--order", "1", "--deg", "1",
                    "--format", "structured", stdout=full)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write the report: [Errno {errno.ENOSPC}] "
                                                 f"{os.strerror(errno.ENOSPC)}\n")


def test_an_ansatz_past_the_template_capacity_is_refused_before_it_is_built():
    """C(21 + 8, 8) = 4292145 monomials of degree at most 8 in u, ..., u_{x^20},
    past the 2^22 unknowns of a template: exit 2 at once, not after building
    the pool (the run times out after 10 s)."""
    proc = _cli("symmetries", os.path.join(STOCK, "kdv.eqn"), "--order", "20", "--deg", "8", timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: the ansatz needs 4292145 unknowns, but a template holds at most 4194304\n")


# --------------------------------------------------------------------------
# One parser per process: repeated `main` calls share it


def test_parser_is_built_once():
    from jetcalc.cli import build_parser

    assert build_parser() is build_parser()


@pytest.mark.parametrize("first, second", [
    (("inverse-problem", "kdv", "--psi", "u", "--psi", "u_x"),
     ("inverse-problem", "kdv", "--psi", "u^2/2 + u_{xx}")),
    (("apply-recursion", "burgers", "--covering", "pot", "--to", "u_x"),
     ("apply-recursion", "burgers", "--covering", "pot", "--to", "u_{xx}")),
    (("recursion", "burgers", "--order", "3", "--covering", "pot"),
     ("recursion", "burgers")),
])
def test_consecutive_calls_do_not_leak_arguments(burgers_file, kdv_file, capsys, first, second):
    files = {"burgers": burgers_file, "kdv": kdv_file}
    first = [files.get(a, a) for a in first]
    second = [files.get(a, a) for a in second] + ["--format", "structured"]
    run(capsys, *first)
    proc = _cli(*second)
    assert run(capsys, *second) == (proc.returncode, proc.stdout, proc.stderr)


def test_argparse_rejection_leaves_the_parser_usable(kdv_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", kdv_file])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "euler", kdv_file, "--density", "H2")
    assert code == 0 and out == "u\n"


def test_commands_are_resolved_at_call_time(kdv_file, capsys, monkeypatch):
    from jetcalc import cli

    run(capsys, "euler", kdv_file, "--density", "H1")
    seen = []
    original = cli.cmd_euler

    def counting(eq, args):
        seen.append(args.density)
        return original(eq, args)

    monkeypatch.setattr(cli, "cmd_euler", counting)
    code, out, _ = run(capsys, "euler", kdv_file, "--density", "H2")
    assert code == 0 and out == "u\n"
    assert seen == ["H2"]


# --------------------------------------------------------------------------
# Expression input that used to be read silently or to escape as a bare
# Python error is a ParseError with a position, and exit 2 with the line.


@pytest.mark.parametrize("text, pos", [
    ("u_{}", 2),  # was read as u
    ("x + u_{}*u_x", 6),
    ("u*3²", 3),  # '²' is a digit but not a decimal one: int() raised
    ("u*u_x + ²", 8),
    ("2^128", 2),  # a constant power was built exactly, however large
    ("u^" + "9" * 5000, 2),  # past the digits int() converts
], ids=["empty-subscript", "empty-subscript-inside", "superscript-two", "lone-superscript", "constant-power",
        "long-exponent"])
def test_expression_errors_carry_a_position(ctx, text, pos):
    from jetcalc.dalg import ParseError

    with pytest.raises(ParseError) as err:
        ctx.parse(text)
    assert err.value.pos == pos


def test_context_lookup_rejects_an_empty_subscript(ctx):
    from jetcalc.dalg import ParseError

    for text in ("u_{}", "u_"):
        with pytest.raises(ParseError, match="empty subscript") as err:
            ctx.u(text)
        assert err.value.pos == 2
    assert ctx.u("u_{xx}") == ctx.jet(0, (0, 0))


def test_exponent_literals_are_bounded_for_every_base(ctx):
    from jetcalc.dalg import MAX_EXPONENT, ParseError

    assert MAX_EXPONENT == 127
    assert ctx.parse("2^127") == DiffPoly.const(2 ** 127)
    assert parse_operator("D_x^127", ctx).order == 127
    for text in ("2^128", "u^128", "D_x^128", "(u*D_x)^128"):
        with pytest.raises(ParseError, match="127") as err:
            parse_operator(text, ctx)
        assert err.value.pos == text.index("^") + 1


@pytest.mark.parametrize("lines, line", [
    ("evolution: u_t = u_{}*u_x", 3),
    ("evolution: u_t = u*u_x + ²", 3),
    ("evolution: u_t = 2^128*u_x", 3),
    ("evolution: u_t = u_{xx}\noperator A = D_x^128", 4),
], ids=["empty-subscript", "superscript-two", "constant-power", "operator-power"])
def test_expression_errors_in_an_equation_file_exit_2_with_the_line(tmp_path, capsys, lines, line):
    path = tmp_path / "bad.eqn"
    path.write_text("independent: x, t(time)\ndependent: u\n" + lines + "\n")
    code, out, err = run(capsys, "linearize", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line}:") and "(at position " in err


@pytest.mark.parametrize("argv", [
    ("euler", "--density", "u*3²"),
    ("euler", "--density", "u_{}^2"),
    ("euler", "--density", "2^128*u"),
    ("adjoint", "--op", "D_x^128"),
], ids=["superscript-two", "empty-subscript", "constant-power", "operator-power"])
def test_expression_errors_in_options_exit_2_with_a_position(burgers_file, capsys, argv):
    code, out, err = run(capsys, argv[0], burgers_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "(at position " in err


def _past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() converts any number of digits here")
    return limit, "9" * (limit + 1)


def test_a_number_past_the_digit_limit_is_an_error_at_its_position(burgers_file, capsys):
    limit, literal = _past_the_digit_limit()
    code, out, err = run(capsys, "euler", burgers_file, "--density", f"u + {literal}*u")
    assert code == 2 and out == ""
    assert err == f"error: number longer than {limit} digits, the longest one allowed (at position 4)\n"


def test_a_number_past_the_digit_limit_in_an_equation_file_cites_the_line(tmp_path, capsys):
    limit, literal = _past_the_digit_limit()
    path = tmp_path / "long.eqn"
    path.write_text(f"independent: x, t(time)\ndependent: u\nevolution: u_t = {literal}*u_x\n")
    code, out, err = run(capsys, "linearize", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: line 3: in evolution for u: number longer than {limit} digits, "
                   "the longest one allowed (at position 0)\n")


def test_a_result_coefficient_past_the_digit_limit_exits_2_naming_the_limit(burgers_file, capsys):
    limit, _ = _past_the_digit_limit()
    if limit >= 4856:  # 2^(127*127) has 4856 digits
        pytest.skip("the result's coefficient prints here")
    code, out, err = run(capsys, "euler", burgers_file, "--density", "((2^127)^127)*u^2")
    assert code == 2 and out == ""
    assert err == f"error: a coefficient longer than {limit} digits, the most a report prints\n"
