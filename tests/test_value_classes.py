"""The hand-written value classes: equality, immutability, pickling and
validation, and an import of the CLI that loads no `dataclasses`."""

import pickle

import pytest

from jetcalc import (
    Ansatz,
    BracketResult,
    CartanShadow,
    ConservedCurrent,
    Density,
    GeneralSystem,
    HorForm,
    JetContext,
)
from jetcalc.cli import EquationFile
from jetcalc.dalg import DiffPoly, jet_var
from jetcalc.hamrec import Layer

from conftest import fresh_python


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = ("import sys; before = set(sys.modules); import jetcalc.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = fresh_python("-c", code, text=True, check=True).stdout
    added = set(out.split())
    assert "jetcalc.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_equal_contexts_hash_alike_and_their_memos_stay_out_of_the_value():
    ctx = JetContext(("x", "t"), ("u",), ("a",), has_time=True)
    fresh = JetContext(("x", "t"), ("u",), ("a",), has_time=True)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    ctx.parse("a*u_{xx}")  # fills `_resolved`
    ctx.derive(0, ctx.parse("u_{xx}"))  # fills `_shifted`
    assert ctx._resolved and ctx._shifted and not fresh._shifted
    assert ctx == fresh and hash(ctx) == hash(fresh)
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy == ctx and hash(copy) == hash(ctx) and pickle.dumps(ctx) == pickle.dumps(fresh)
    assert not copy._resolved and not copy._shifted
    assert ctx != JetContext(("x", "t"), ("u",), ("a",)) and ctx != ctx.with_nonlocals(("w",))


def test_a_density_never_equals_a_current():
    ctx = JetContext(("x",), ("u",))
    u = ctx.parse("u")
    assert Density(ctx, u) == Density(ctx, ctx.parse("u"))
    assert ConservedCurrent((u,)) == ConservedCurrent((ctx.parse("u"),))
    assert Density(ctx, u) != ConservedCurrent((u,)) and ConservedCurrent((u,)) != Density(ctx, u)
    assert Density(ctx, u) != Density(ctx, u * u) and Density(ctx, u) != (ctx, u)


def test_assigning_a_field_of_a_frozen_class_raises():
    ctx = JetContext(("x",), ("u",))
    u = ctx.parse("u")
    density = Density(ctx, u)
    frozen = [
        (ctx, "dependent"),
        (GeneralSystem(ctx, (u,)), "F"),
        (HorForm.make(ctx, 0, {(): u}), "degree"),
        (CartanShadow.identity(ctx), "comps"),
        (density, "value"),
        (ConservedCurrent((u,)), "components"),
        (Ansatz(), "jet_order"),
        (Layer("w", (u,)), "exprs"),
        (BracketResult(density, (u,)), "density"),
        (ctx.jet(0), "name"),
    ]
    for obj, attr in frozen:
        before = getattr(obj, attr)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(obj, attr, before)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, attr) is before


def test_frozen_values_survive_a_pickle_round_trip():
    ctx = JetContext(("x", "t"), ("u",), has_time=True)
    u = ctx.parse("u")
    layer = pickle.loads(pickle.dumps(Layer("w", (u, u * u))))
    assert (layer.name, layer.exprs) == ("w", (u, u * u))
    a = pickle.loads(pickle.dumps(Ansatz(2, 3, 1, True)))
    assert (a.jet_order, a.poly_deg, a.base_deg, a.include_params) == (2, 3, 1, True)
    shadow = CartanShadow(ctx, ({ctx.jet(0): u},))
    assert pickle.loads(pickle.dumps(shadow)) == shadow
    assert pickle.loads(pickle.dumps(Density(ctx, u))) == Density(ctx, u)


def test_equation_files_do_not_share_their_tables():
    ctx = JetContext(("x",), ("u",))
    first, second = EquationFile("a.eqn", ctx), EquationFile("b.eqn", ctx)
    for table in ("coverings", "operators", "densities", "currents"):
        assert getattr(first, table) is not getattr(second, table) and len(getattr(first, table)) == 0
    first.coverings["pot"] = None
    first.densities["H"] = "u"
    assert not second.coverings and "H" not in second.densities
    assert (first.system, first.raw) == (None, b"") and first.input_hash() == second.input_hash()


def test_ansatz_defaults_and_dict_are_unchanged():
    a = Ansatz()
    assert (a.jet_order, a.poly_deg, a.base_deg, a.include_params) == (1, 1, 0, False)
    assert a.as_dict() == {"jet-order": 1, "poly-deg": 1, "base-deg": 0}
    assert Ansatz(3, poly_deg=2, base_deg=1).as_dict() == {"jet-order": 3, "poly-deg": 2, "base-deg": 1}
    for bad in ((-1, 1, 0), (1, -1, 0), (1, 1, -1)):
        with pytest.raises(ValueError, match="ansatz bounds must be nonnegative"):
            Ansatz(*bad)


@pytest.mark.parametrize("args, message", [
    ((("x", "x"), ("u",)), "variable names must be unique"),
    ((("x",), ("u",), ("x",)), "variable names must be unique"),
    ((("x",), ("",)), "variable names must not be empty"),
    (((), ("u",)), "need at least one independent and one dependent variable"),
    ((("x",), ()), "need at least one independent and one dependent variable"),
])
def test_a_context_rejects_invalid_names(args, message):
    with pytest.raises(ValueError, match=message):
        JetContext(*args)


def test_shadows_drop_zero_coefficients_and_systems_reject_covering_variables():
    ctx = JetContext(("x",), ("u",))
    u, u_x = ctx.jet(0), ctx.jet(0, (0,))
    shadow = CartanShadow(ctx, ({u: DiffPoly.zero(), u_x: ctx.parse("u")},))
    assert shadow.comps == ({u_x: ctx.parse("u")},) and str(shadow) == "u*om(u_x)"
    assert CartanShadow(ctx, ({u: DiffPoly.zero()},)).is_zero()
    assert shadow == CartanShadow(ctx, ({u_x: ctx.parse("u")},)) and shadow != CartanShadow.identity(ctx)
    with pytest.raises(TypeError):
        CartanShadow(ctx)
    with pytest.raises(TypeError):
        CartanShadow(ctx, (), ())
    with pytest.raises(ValueError, match="non-jet variable"):
        GeneralSystem(ctx.with_nonlocals(("w",)), (ctx.with_nonlocals(("w",)).parse("w"),))


def test_shadows_refuse_what_they_cannot_print():
    """A key that is no jet or covering variable of the context, or a
    component that the printed form cannot name, is refused when the
    shadow is built, not when it is printed."""
    ctx = JetContext(("x", "t"), ("u",), has_time=True)
    u, one = ctx.parse("u"), DiffPoly.const(1)
    for comps, message in [
        (({ctx.base(0): u}, {ctx.jet(0): one}), "2 components, but the context names 1 dependent variables"),
        (({ctx.base(0): u},), "'x' is not a jet or covering variable of the context"),
        (({jet_var(1, (), "v", ctx.independent): one},), "'v' is not a jet or covering variable"),
        (({jet_var(0, (2,), "u", ("x", "t", "y")): one},), "'u_y' is not a jet or covering variable"),
        (({ctx.with_nonlocals(("w",)).nonlocal_(0): one},), "'w' is not a jet or covering variable"),
    ]:
        with pytest.raises(ValueError, match=message):
            CartanShadow(ctx, comps)
    cov = ctx.with_nonlocals(("w",))
    assert str(CartanShadow(cov, ({ctx.jet(0, (1,)): u, cov.nonlocal_(0): one},))) == "u*om(u_t) + th(w)"


def test_horizontal_forms_check_their_indices_however_built():
    ctx = JetContext(("x", "t"), ("u",), has_time=True)
    u = ctx.parse("u")
    for degree, comps in [(1, (((1, 0), u),)), (2, (((1, 0), u),)), (1, (((2,), u),)), (1, (((0,), u), ((0,), u)))]:
        with pytest.raises(ValueError, match="component index"):
            HorForm(ctx, degree, comps)
    with pytest.raises(ValueError, match="strictly increasing"):
        HorForm.make(ctx, 2, {(1, 0): u})
    form = HorForm(ctx, 1, (((1,), u), ((0,), u * u)))
    assert HorForm(ctx, 1, (((1,), DiffPoly.zero()),)).is_zero()
    assert form.comps == HorForm.make(ctx, 1, {(0,): u * u, (1,): u}).comps and str(form) == "u^2*dx + u*dt"
