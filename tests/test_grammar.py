"""The shared expression grammar (`dalg._Parser`): its errors, pinned by
message and position on every path that reads an expression, and an
independent oracle for what it builds: sympy, a test-only dependency,
reading the same text.  The ring operations the grammar leans on for
powers and division are checked against the plain products and `scale`.

The same malformed text raises the same ParseError whether it is a
polynomial (`JetContext.parse`), an operator (`cli.parse_operator`) or a
`density` line of an equation file, where the read-time checker reads it
and the error cites the line.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from jetcalc.cli import InputError, _lookup_density, main, parse_equation_file, parse_operator
from jetcalc.dalg import DiffPoly, ExponentOverflow, NonlinearInUnknowns, ParseError
from jetcalc.jetspace import JetContext

CTX = JetContext(("x", "t"), ("u",), has_time=True)

HEADER = "independent: x, t(time)\ndependent: u\nevolution: u_t = u_{xx}\n"
DENSITY_LINE = 4

# (text, message, position); a `density` line strips its text, so `u + `
# ends one character earlier there.
ERRORS = [
    ("u + ", "expected a number, identifier or '('", 4),
    ("u ^ x", "exponent must be a nonnegative integer", 4),
    ("u^-1", "exponent must be a nonnegative integer", 2),
    ("u^", "exponent must be a nonnegative integer", 2),
    ("u^128", "exponent above 127, the largest one allowed", 2),
    ("u^000000000000000000001280", "exponent above 127, the largest one allowed", 2),
    ("(u^100)^2", "exponent of u above 127, the largest a monomial holds", 8),
    ("u^100*u^100", "exponent of u above 127, the largest a monomial holds", 8),
    ("u / u_x", "division is only defined by rational constants", 2),
    ("u/(1-1)", "division by zero", 1),
    ("1/0", "division by zero", 1),
    ("(u", "expected ')'", 2),
    ("u)", "trailing input", 1),
    ("3 u", "trailing input", 2),
    ("2^127^1", "trailing input", 5),
    ("u_{}", "empty subscript", 2),
    ("u_", "empty subscript after '_'", 2),
    ("u_{x", "unterminated '{' in subscript", 2),
    ("u @ 1", "unexpected character '@'", 2),
    ("-", "expected a number, identifier or '('", 1),
    ("u*", "expected a number, identifier or '('", 2),
    ("()", "expected a number, identifier or '('", 1),
    ("q + u", "unknown identifier 'q'", 0),
]


def _density_file(tmp_path, text):
    path = tmp_path / "bad.eqn"
    path.write_text(f"{HEADER}density H = {text}\n")
    return str(path)


@pytest.mark.parametrize("text, message, pos", ERRORS, ids=[t for t, _, _ in ERRORS])
def test_a_malformed_text_raises_one_error_on_every_path(tmp_path, text, message, pos):
    expected = f"{message} (at position {pos})"
    for build in (CTX.parse, lambda t: parse_operator(t, CTX)):
        with pytest.raises(ParseError) as err:
            build(text)
        assert (str(err.value), err.value.pos) == (expected, pos)
    with pytest.raises(InputError) as err:
        parse_equation_file(_density_file(tmp_path, text))
    at = min(pos, len(text.strip()))
    assert str(err.value) == f"line {DENSITY_LINE}: in density 'H': {message} (at position {at})"


def _refused_at_200(tmp_path, capsys, text):
    """The grammar counts its own levels, so the position is the text's,
    whoever calls the parser."""
    expected = "expression nested too deeply (at position 200)"
    for build in (CTX.parse, lambda t: parse_operator(t, CTX)):
        with pytest.raises(ParseError) as err:
            build(text)
        assert (str(err.value), err.value.pos) == (expected, 200)
    path = _density_file(tmp_path, text)
    with pytest.raises(InputError) as err:
        parse_equation_file(path)
    assert str(err.value) == f"line {DENSITY_LINE}: in density 'H': {expected}"
    assert main(["linearize", path]) == 2
    assert capsys.readouterr().err == f"error: line {DENSITY_LINE}: in density 'H': {expected}\n"


def test_a_3000_deep_nesting_is_refused_on_every_path(tmp_path, capsys):
    _refused_at_200(tmp_path, capsys, "(" * 3000 + "u" + ")" * 3000)


@pytest.mark.parametrize("text", ["(" * 201 + "u" + ")" * 201, "-" * 201 + "u", "(-" * 101 + "u" + ")" * 101],
                         ids=["parentheses", "signs", "both"])
def test_the_201st_level_is_refused_at_its_token(tmp_path, capsys, text):
    _refused_at_200(tmp_path, capsys, text)


@pytest.mark.parametrize("text", ["(" * 200 + "u" + ")" * 200, "-" * 200 + "u", "(-" * 100 + "u" + ")" * 100])
def test_200_levels_are_read_on_every_path(tmp_path, text):
    assert CTX.parse(text) == CTX.parse("u")
    assert parse_operator(text, CTX) == parse_operator("u", CTX)
    assert _lookup_density(parse_equation_file(_density_file(tmp_path, text)), "H").value == CTX.parse("u")


# --------------------------------------------------------------------------
# sympy reads the same text: `^` is `**` and each jet is a symbol, under
# either order of its subscript letters.

JETS = ["u", "u_x", "u_t", "u_{xx}", "u_{xt}", "u_{tx}", "x"]
SYMBOLS = {name.replace("{", "").replace("}", ""): sympy.Symbol(name) for name in JETS}
SYMBOLS["u_tx"] = SYMBOLS["u_xt"]

divisors = st.one_of(st.integers(1, 9).map(str), st.integers(-9, -1).map(str),
                     st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 5)).map(lambda r: f"({r[0]}/{r[1]})"))
atoms = st.one_of(
    st.sampled_from(JETS),
    st.integers(0, 12).map(str),
    st.tuples(st.sampled_from(JETS), st.integers(0, 4)).map(lambda a: f"{a[0]}^{a[1]}"),
)


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(" ".join),
        st.tuples(inner, divisors).map(lambda a: f"{a[0]} / {a[1]}"),
        st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda a: f"({a[0]})^{a[1]}"),
    )


texts = st.recursive(atoms, _grow, max_leaves=8)


def _sympy(p: DiffPoly):
    return sum((sympy.Rational(c.numerator, c.denominator) * reduce(mul, (sympy.Symbol(v.name) ** e for v, e in f), 1)
                for f, c in p.terms.items()), sympy.Integer(0))


@settings(max_examples=150, deadline=None)
@given(text=texts)
def test_a_text_parses_to_the_polynomial_sympy_reads(text):
    try:
        ours = CTX.parse(text)
    except ParseError as exc:
        assume("the largest a monomial holds" not in str(exc))
        raise
    theirs = sympy.parse_expr(text.replace("^", "**").replace("{", "").replace("}", ""), local_dict=SYMBOLS)
    assert sympy.expand(_sympy(ours) - theirs) == 0


# --------------------------------------------------------------------------
# The fast paths: a one-term power and division by a constant.

U, UX, UXX = CTX.parse("u"), CTX.parse("u_x"), CTX.parse("u_{xx}")
OP = parse_operator("D_x*u + u_x", CTX)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=60, deadline=None)
@given(c=coefficients, e=st.integers(0, 40), rest=st.lists(st.sampled_from([UX, UXX]), unique=True),
       n=st.integers(0, 127))
def test_a_one_term_power_is_the_product_of_its_copies(c, e, rest, n):
    # Only u can pass 127: the other factors have exponent at most n.
    p = reduce(mul, rest, DiffPoly.const(c) * U ** e)
    assert len(p) == 1
    try:
        expected = reduce(mul, [p] * n, DiffPoly.const(1))
    except ExponentOverflow as exc:
        with pytest.raises(ExponentOverflow) as err:
            p ** n
        assert str(err.value) == str(exc) == "exponent of u above 127, the largest a monomial holds"
    else:
        assert p ** n == expected


def test_a_power_of_a_one_term_template_is_refused_past_the_first():
    p = DiffPoly.combination([DiffPoly.const(Fraction(-2, 3)) * U], 0)
    assert len(p) == 1 and p ** 0 == DiffPoly.const(1) and p ** 1 == p
    for n in (2, 3, 127):
        with pytest.raises(NonlinearInUnknowns, match="a product of two template unknowns"):
            p ** n


polys = st.lists(st.tuples(coefficients, st.sampled_from([DiffPoly.const(1), U, UX, U * UXX])), max_size=4).map(
    lambda terms: DiffPoly.sum([DiffPoly.const(c) * m for c, m in terms]))


@settings(max_examples=60, deadline=None)
@given(p=polys, c=st.one_of(st.integers(-12, 12), coefficients).filter(bool))
def test_division_by_a_constant_is_scaling_by_its_inverse(p, c):
    assert p / c == p.scale(Fraction(1, c))
    assert OP / c == OP.scale(Fraction(1, c))
