import json
import os
import subprocess
import sys

import pytest

from jetcalc.cli import InputError, main, parse_equation_file, parse_operator
from jetcalc.cdiff import CDiffOp
from jetcalc.dalg import DiffPoly
from jetcalc.jetspace import JetContext

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    assert eq.operators["A2"] == expected
    reparsed = parse_operator(str(expected), ctx)
    assert reparsed == expected


def test_operator_powers_are_composition_chains(ctx):
    dx = CDiffOp.d(ctx, 0)
    udx = CDiffOp.mult(ctx, ctx.parse("u")).compose(dx)
    assert parse_operator("D_x^0", ctx) == CDiffOp.identity(ctx)
    assert parse_operator("D_x^1", ctx) == dx
    assert parse_operator("D_x^3", ctx) == dx.compose(dx).compose(dx)
    assert parse_operator("(u*D_x)^2", ctx) == udx.compose(udx)


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
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-O", "-c", SABOTAGE, target, argv[0], burgers_file] + argv[1:]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "verification failed" in proc.stderr


# --------------------------------------------------------------------------
# One parser per process: repeated `main` calls share it


def test_parser_is_built_once():
    from jetcalc.cli import build_parser

    assert build_parser() is build_parser()


def fresh_process(*argv):
    proc = subprocess.run([sys.executable, "-m", "jetcalc.cli", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


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
    assert run(capsys, *second) == fresh_process(*second)


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
