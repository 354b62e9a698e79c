"""Named declarations of an equation file (`operator`, `density`, `current`).

Every declaration is checked when the file is read, used or not, and gets
the verdict and the message of building it there.  It is kept as its text,
and each lookup builds that text into a CDiffOp, Density or
ConservedCurrent through the same call as a literal.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from jetcalc import cli
from jetcalc.cli import (InputError, _lookup_current, _lookup_density, _lookup_operator, main,
                         parse_equation_file, parse_operator)
from jetcalc.dalg import ParseError
from jetcalc.jetspace import JetContext

HEADER = "independent: x, t(time)\ndependent: u\nevolution: u_t = u*u_x + u_{xx}\n"

KDV = HEADER + """\
operator A1 = D_x
operator A2 = D_x^3 + (2/3)*u*D_x + (1/3)*u_x
density H2 = u^2/2
current J = (u, -(u^2/2 + u_x))
"""


@pytest.fixture
def count_builds(monkeypatch):
    """The arguments of each `parse_operator` call, counted from here on."""
    calls = []
    real = cli.parse_operator
    monkeypatch.setattr(cli, "parse_operator", lambda *a: calls.append(a) or real(*a))
    return calls


def test_declarations_are_built_on_first_lookup(tmp_path, count_builds):
    path = tmp_path / "kdv.eqn"
    path.write_text(KDV)
    eq = parse_equation_file(str(path))
    assert count_builds == [] and set(eq.operators) == {"A1", "A2"} and len(eq.operators) == 2
    assert "A2" in eq.operators and "A3" not in eq.operators and count_builds == []
    a2 = _lookup_operator(eq, "A2")
    # The name reaches the call a literal does, with its text.
    assert count_builds == [("D_x^3 + (2/3)*u*D_x + (1/3)*u_x", eq.ctx)]
    assert a2 == parse_operator("D_x^3 + (2/3)*u*D_x + (1/3)*u_x", eq.ctx)
    assert _lookup_operator(eq, "A2") == a2 and len(count_builds) == 2
    assert _lookup_density(eq, "H2").value == eq.ctx.parse("u^2/2")
    assert _lookup_current(eq, "J").components == (eq.ctx.parse("u"), eq.ctx.parse("-(u^2/2 + u_x)"))


def test_an_equation_file_pickles_before_and_after_its_lookups(tmp_path):
    path = tmp_path / "kdv.eqn"
    path.write_text(KDV)
    eq = parse_equation_file(str(path))
    _lookup_operator(eq, "A1")
    copy = pickle.loads(pickle.dumps(eq))
    for name in ("A1", "A2"):
        assert _lookup_operator(copy, name) == _lookup_operator(eq, name)
    assert _lookup_density(copy, "H2") == _lookup_density(eq, "H2")
    assert _lookup_current(copy, "J") == _lookup_current(eq, "J")


# The parent's messages: an unused declaration fails as if it were built.
UNUSED = [
    ("operator B = q*D_x", "in operator 'B': unknown identifier 'q' (at position 0)"),
    ("operator B = D_x D_x", "in operator 'B': trailing input (at position 4)"),
    ("operator B = u^100*u^100",
     "in operator 'B': exponent of u above 127, the largest a monomial holds (at position 8)"),
    ("operator B = u^100*u^100*D_x",
     "in operator 'B': exponent of u above 127, the largest a monomial holds (at position 8)"),
    ("operator B = u/u_x", "in operator 'B': division is only defined by rational constants (at position 1)"),
    ("operator B = 1/0", "in operator 'B': division by zero (at position 1)"),
    ("operator B = 1/(u - u)", "in operator 'B': division by zero (at position 1)"),
    ("density H = u/u_x", "in density 'H': division is only defined by rational constants (at position 1)"),
    ("density H = D_x", "in density 'H': unknown identifier 'D_x' (at position 0)"),
    ("current J = u, u", "current needs a parenthesized component tuple"),
    ("current J = (u, q)", "in current 'J': unknown identifier 'q' (at position 0)"),
    ("current J = (u^100*u^100, q)",
     "in current 'J': exponent of u above 127, the largest a monomial holds (at position 8)"),
]


@pytest.mark.parametrize("line, message", UNUSED)
def test_an_unused_declaration_fails_with_its_line(tmp_path, capsys, line, message):
    path = tmp_path / "bad.eqn"
    path.write_text(HEADER + line + "\n")
    assert main(["euler", str(path), "--density", "u"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: line 4: {message}\n"


@pytest.mark.parametrize("line", ["operator B = (u^64 - u^64)*u^64", "density B = (u^64 - u^64)*u^64",
                                  "operator B = u/D_x^0", "operator B = u/(D_x - D_x + 2)",
                                  "current B = (0*u^100*u^100, u)"])
def test_a_declaration_the_checker_cannot_vouch_for_is_built(tmp_path, capsys, line):
    """Past the degree bound, or divided by something the checker does not
    know as a constant: built when read, and accepted because it builds."""
    path = tmp_path / "ok.eqn"
    path.write_text(HEADER + line + "\n")
    assert main(["euler", str(path), "--density", "u^2"]) == 0
    assert capsys.readouterr().out == "2*u\n"


def test_a_deeply_nested_declaration_is_checked_when_read(tmp_path, count_builds):
    """Up to the grammar's 200 levels, the checker reads what the build would."""
    for depth in (60, 200):
        path = tmp_path / f"deep{depth}.eqn"
        path.write_text(HEADER + "operator B = " + "(" * depth + "D_x" + ")" * depth + "\n")
        eq = parse_equation_file(str(path))
        assert count_builds == []
        b = _lookup_operator(eq, "B")
        assert len(count_builds) == 1
        assert b == parse_operator("D_x", eq.ctx)
        count_builds.clear()


def test_a_declaration_nested_201_deep_fails_when_read(tmp_path, count_builds):
    path = tmp_path / "deep.eqn"
    path.write_text(HEADER + "operator B = " + "(" * 201 + "D_x" + ")" * 201 + "\n")
    with pytest.raises(InputError) as err:
        parse_equation_file(str(path))
    assert str(err.value) == "line 4: in operator 'B': expression nested too deeply (at position 200)"
    assert count_builds == []


# --------------------------------------------------------------------------
# The checker agrees with building on drawn expressions

CTX = JetContext(("x", "t"), ("u",), has_time=True)

atoms = st.one_of(
    st.sampled_from(["u", "u_x", "x", "D_x", "0", "1", "2", "3/4", "q"]),
    st.tuples(st.sampled_from(["u", "u_x", "x"]), st.sampled_from([2, 64, 100, 127]))
    .map(lambda a: f"{a[0]}^{a[1]}"),
)


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map(lambda a: f"({a})"),
        st.tuples(inner, st.sampled_from([0, 1, 2])).map(lambda a: f"({a[0]})^{a[1]}"),
        inner.map(lambda a: f"-{a}"),
    )


expressions = st.recursive(atoms, _grow, max_leaves=6)


def _eager(kind, text):
    """("ok", value) or ("error", message) of building `text` right away."""
    try:
        if kind == "operator":
            return "ok", parse_operator(text, CTX)
        if kind == "density":
            return "ok", CTX.parse(text)
        return "ok", (CTX.parse(text), CTX.parse("u"))
    except ParseError as exc:
        return "error", str(exc)


def _looked_up(eq, kind):
    if kind == "operator":
        return _lookup_operator(eq, "Z")
    if kind == "density":
        return _lookup_density(eq, "Z").value
    return _lookup_current(eq, "Z").components


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.eqn"


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["operator", "density", "current"]), text=expressions)
def test_reading_a_declaration_agrees_with_building_it(scratch_file, kind, text):
    payload = f"({text}, u)" if kind == "current" else text
    scratch_file.write_text(HEADER + f"{kind} Z = {payload}\n")
    verdict, value = _eager(kind, text)
    if verdict == "error":
        with pytest.raises(InputError) as err:
            parse_equation_file(str(scratch_file))
        assert str(err.value) == f"line 4: in {kind} 'Z': {value}"
    else:
        assert _looked_up(parse_equation_file(str(scratch_file)), kind) == value
