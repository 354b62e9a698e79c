"""The monomial layout of `DiffPoly` is private to `jetcalc.dalg`.

Every other module of the package builds and reads polynomials through the
`DiffPoly` API and its decoded `terms` view; none reads the stored
numerators and denominator, calls the trusted constructor, or names the
helpers of the layout: the factor tuples, the packed encoding and decoding,
and the field table.  The check walks the syntax tree of each module.
"""

import ast
from pathlib import Path

import jetcalc
import pytest

PACKAGE = Path(jetcalc.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "dalg.py")
PRIVATE_ATTRS = {"num", "den"}
PRIVATE_NAMES = {"_merge_factors", "_monomial_key", "Factors",
                 "_encode", "_decode", "_unit", "_intern", "_VARS", "_FIELDS", "_KIND_MASKS"}


def layout_uses(source: str) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute):
            if node.attr in PRIVATE_ATTRS or node.attr in PRIVATE_NAMES:
                uses.append(f"{where}: .{node.attr}")
            elif node.attr == "_make" and isinstance(node.value, ast.Name) and node.value.id == "DiffPoly":
                uses.append(f"{where}: DiffPoly._make")
        elif isinstance(node, ast.Name) and node.id in PRIVATE_NAMES:
            uses.append(f"{where}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in PRIVATE_NAMES:
            uses.append(f"{where}: import {node.name}")
    return uses


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"cdiff.py", "cli.py", "detsolve.py", "hamrec.py", "jetspace.py", "variational.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_touch_the_monomial_layout(path):
    assert layout_uses(path.read_text()) == []


def test_the_check_sees_each_kind_of_use():
    source = """
from .dalg import _merge_factors, Factors
p.num; p.den; DiffPoly._make({}, 1); _monomial_key(f)
CDiffOp._make(ctx, 1, 1, [], None)
from .dalg import _encode, _decode, _VARS
v._unit; _intern(v); dalg._FIELDS; dalg._KIND_MASKS
"""
    assert len(layout_uses(source)) == 13
