"""Hazards of the packed monomial layout of `jetcalc.dalg`.

A monomial is one int: an exponent field per variable, with a guard bit at
the top of each field, and the template unknown in the low bits.  Fields
are assigned in the order a process first sees its variables, by a table
keyed by (VarId, name).  These tests pin what must not leak from that
layout: carries between fields, names shared between contexts, field
offsets carried across processes, results kept in the table, and products
of unknowns.
"""

import os
import pickle

import pytest

from jetcalc import dalg
from jetcalc.cli import _lookup_operator, main, parse_equation_file
from jetcalc.dalg import (
    MAX_EXPONENT,
    DiffPoly,
    ExponentOverflow,
    NonlinearInUnknowns,
    ParseError,
    VarId,
    unknown_var,
)
from jetcalc.detsolve import Ansatz, symmetries
from jetcalc.jetspace import EvolutionSystem, JetContext

from conftest import SRC, fresh_python

KDV = os.path.join(os.path.dirname(SRC), "perfbench", "eqn", "kdv.eqn")


# --------------------------------------------------------------------------
# Exponents at the field maximum


def test_exponents_at_the_maximum_do_not_carry(ctx):
    u, x = DiffPoly.var(ctx.u("u")), DiffPoly.var(ctx.base(0))
    top = u ** MAX_EXPONENT
    assert MAX_EXPONENT == 127
    assert top.terms == {((ctx.u("u"), 127),): 1}
    assert (top * x).terms == {((ctx.base(0), 1), (ctx.u("u"), 127)): 1}
    assert str(top * x) == "x*u^127"
    assert u ** 64 * u ** 63 == top
    assert ctx.parse("u^127*x") == top * x
    assert (top * x).partial(ctx.u("u")) == (u ** 126 * x).scale(127)


def test_one_exponent_past_the_maximum_raises(ctx):
    u = DiffPoly.var(ctx.u("u"))
    with pytest.raises(ExponentOverflow, match="127"):
        u ** 64 * u ** 64
    with pytest.raises(ExponentOverflow, match="127"):
        (u ** MAX_EXPONENT * ctx.parse("u_x")).derivation(lambda v: u if v == ctx.u("u_x") else None)
    with pytest.raises(ExponentOverflow, match="127"):
        (u ** MAX_EXPONENT).antiderivative(ctx.u("u"))
    with pytest.raises(ExponentOverflow, match="127"):
        DiffPoly.monomial([ctx.u("u")] * 128)
    for e in (128, 300):  # 300 would carry into the next field
        with pytest.raises(ExponentOverflow, match="127"):
            DiffPoly({((ctx.u("u"), e),): 1})
    assert issubclass(ExponentOverflow, ValueError)


def test_parsed_overflow_is_a_parse_error_with_a_position(ctx):
    with pytest.raises(ParseError, match="127") as err:
        ctx.parse("x + u^200")
    assert err.value.pos == 6


def test_cli_exits_2_on_an_exponent_past_the_maximum(tmp_path, capsys):
    path = tmp_path / "big.eqn"
    path.write_text("independent: x, t(time)\ndependent: u\nevolution: u_t = u^128*u_x\n")
    code = main(["symmetries", str(path), "--order", "1", "--deg", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err and "127" in err and "Traceback" not in err


# --------------------------------------------------------------------------
# The field table


def test_contexts_that_share_a_variable_identity_print_their_own_names():
    a = JetContext(("x", "y"), ("u",))
    b = JetContext(("x", "y"), ("v",))
    assert a.jet(0, (1, 1)) == b.jet(0, (1, 1))
    pa, pb = a.parse("u_{yy}^2 + x*u"), b.parse("v_{yy}^2 + x*v")
    assert str(pa) == "x*u + u_{yy}^2"
    assert str(pb) == "x*v + v_{yy}^2"
    assert str(pa * pa) == "x^2*u^2 + 2*x*u*u_{yy}^2 + u_{yy}^4"
    assert str(pb.partial(b.jet(0, (1, 1)))) == "2*v_{yy}"
    assert sorted(v.name for v in pa.variables()) == ["u", "u_{yy}", "x"]
    assert sorted(v.name for v in pb.variables()) == ["v", "v_{yy}", "x"]


def test_a_product_of_two_contexts_that_share_a_variable_does_not_decode():
    """Four monomials would decode to three terms: `terms`, and with it
    printing and pickling, refuse rather than drop one."""
    a = JetContext(("x", "y"), ("u",))
    b = JetContext(("x", "y"), ("v",))
    p = a.parse("u_{yy}^2 + x*u") * b.parse("v_{yy}^2 + x*v")
    assert len(p) == 4
    for view in (lambda: p.terms, lambda: str(p), lambda: pickle.dumps(p)):
        with pytest.raises(ValueError, match="one variable under two names") as err:
            view()
        # The least shared variable: u and v, which sort before u_{yy} and v_{yy}.
        assert set(str(err.value).split()[:3:2]) == {"'u'", "'v'"}


SEED_OTHER_ORDER = """
import pickle, sys
from jetcalc.cli import _lookup_operator, parse_equation_file
from jetcalc.jetspace import JetContext
# Fill the table in an order of its own before anything is loaded.
other = JetContext(("x", "t"), ("u",), ("b", "a"), has_time=True, nonlocals=("w",))
other.parse("u_{xxxxx}*u_{xxxx}*u_{xxx}*w*b*a*t*x*u_{xx}*u_x*u")
p, eq = pickle.loads(sys.stdin.buffer.read())
again = parse_equation_file(sys.argv[1])
q = again.ctx.with_nonlocals(["w"]).parse(sys.argv[2])
print(p == q, eq.ctx == again.ctx, eq.system.f == again.system.f)
print(str(p))
print(str(eq.system.f[0]))
print(str(_lookup_operator(eq, "A2")))
print(str(eq.coverings["pot"].layers[0].exprs[1]))
"""


def test_pickles_load_in_a_process_whose_table_has_another_order():
    text = "a*u_{xx}*w + 3/2*x*t*u^2 - b*u_x^3"
    eq = parse_equation_file(KDV)
    p = eq.ctx.with_nonlocals(["w"]).parse(text)
    out = fresh_python("-c", SEED_OTHER_ORDER, KDV, text, input=pickle.dumps((p, eq)), check=True).stdout.decode()
    lines = out.splitlines()
    assert lines[0] == "True True True"
    assert lines[1:] == [str(p), str(eq.system.f[0]), str(_lookup_operator(eq, "A2")),
                         str(eq.coverings["pot"].layers[0].exprs[1])]


def test_a_pickled_varid_carries_no_field():
    v = VarId(dalg.JET, (0, (0, 0)), "u_{xx}")
    DiffPoly.var(v)
    assert v._unit is not None
    assert v.__reduce__() == (VarId, (dalg.JET, (0, (0, 0)), "u_{xx}"))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        w = pickle.loads(pickle.dumps(v, protocol))
        assert w == v and w.name == v.name and w._unit is None


def test_solving_again_adds_no_entry_to_the_table():
    ctx = JetContext(("x", "t"), ("q",), has_time=True)
    burgers = EvolutionSystem(ctx, [ctx.parse("q*q_x + q_{xx}")])
    first = symmetries(burgers, Ansatz(2, 2, 1))
    size = (len(dalg._VARS), len(dalg._FIELDS))
    again = symmetries(burgers, Ansatz(2, 2, 1))
    assert (len(dalg._VARS), len(dalg._FIELDS)) == size
    assert [str(p) for s in again.solutions for p in s] == [str(p) for s in first.solutions for p in s]


# --------------------------------------------------------------------------
# Template unknowns


def test_products_of_unknowns_raise(ctx):
    c0, c1 = DiffPoly.var(unknown_var(0)), DiffPoly.var(unknown_var(1))
    u, ux = ctx.parse("u"), ctx.parse("u_x")
    with pytest.raises(NonlinearInUnknowns):
        (c0 * u + ux) * (c1 * ux)
    with pytest.raises(NonlinearInUnknowns):
        c0 * c0
    for e in (2, 4):  # 4 copies of the flag bit would carry out of the low bits
        with pytest.raises(NonlinearInUnknowns):
            DiffPoly({((unknown_var(5), e),): 1})
    with pytest.raises(NonlinearInUnknowns):
        DiffPoly.monomial([unknown_var(0), unknown_var(1)])
    with pytest.raises(NonlinearInUnknowns):
        (c0 * u).derivation(lambda v: c1 if v == ctx.u("u") else None)
    with pytest.raises(NonlinearInUnknowns):
        DiffPoly.combination([c0 * u], 2)
    # c0*c3 - c1*c2: both products put 3 in the unknown index, and cancel there.
    c2, c3 = DiffPoly.var(unknown_var(2)), DiffPoly.var(unknown_var(3))
    with pytest.raises(NonlinearInUnknowns):
        (c0 * u + c1 * ux).derivation({ctx.u("u"): c3, ctx.u("u_x"): -c2}.get)
    # Linear expressions in unknowns are fine, and unknowns are not variables.
    p = (c0 * u + ux) * ux + c1
    assert p.variables() == {ctx.u("u"), ctx.u("u_x")}
    assert p.has_kind(dalg.UNKNOWN) and not (u * ux).has_kind(dalg.UNKNOWN)
    assert p.as_constant() is None and c0.as_constant() is None
    assert p.linear_rows() == ([{0: 1}, {1: 1}], True)


def test_unknowns_never_clash_with_declared_parameters():
    ctx = JetContext(("x", "t"), ("u",), ("c0", "c1"), has_time=True)
    c0 = ctx.parse("c0")
    unknown = DiffPoly.var(unknown_var(0))
    assert c0 != unknown
    assert (c0 * unknown).linear_rows() == ([{0: 1}], False)
