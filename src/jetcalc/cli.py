"""Command-line workbench.

Reads an equation-definition file, dispatches the requested computation, and
renders a human-readable or machine-readable (JSON) report.  Exit codes:
0 success, 1 verification failure, 2 input error or a report that cannot be
written.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from .dalg import MAX_EXPONENT, DiffPoly, ParseError, _Parser, split_identifier
from .jetspace import EvolutionSystem, JetContext, NotInternal, ambiguous_subscript
from .cdiff import CDiffOp, linearization
from .variational import (
    ConservedCurrent,
    Density,
    NotExactDerivative,
    NotGeneratingFunction,
    NotVariational,
    VerificationFailed,
    current_from_gf,
    divergence_residual,
    euler,
    homotopy_lagrangian,
)
from .detsolve import Ansatz, generating_functions, shadows, symmetries
from .hamrec import (
    NonlocalObstruction,
    NotFlat,
    PreconditionFailed,
    hamiltonian_flow,
    jacobi_check,
    make_covering,
    poisson_bracket,
    shadow_iterates,
)


class InputError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")
        self.line = line


class EquationFile:
    __slots__ = ("path", "ctx", "system", "coverings", "operators", "densities", "currents", "raw")

    def __init__(self, path: str, ctx: JetContext, raw: bytes = b""):
        self.path = path
        self.ctx = ctx
        self.system: EvolutionSystem | None = None
        self.coverings = {}
        self.operators: dict[str, str] = {}  # name -> text, built like a literal on each lookup
        self.densities: dict[str, str] = {}
        self.currents: dict[str, str] = {}
        self.raw = raw

    def need_system(self, line: int | None = None) -> EvolutionSystem:
        if self.system is None:
            raise InputError("the equation file declares no evolution system", line)
        return self.system

    def input_hash(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()


def _split_top_level(text: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [s.strip() for s in out]


def _components(text: str, error: str, line: int | None = None) -> list[str]:
    """The component texts of a current written as a parenthesized tuple;
    InputError `error` when `text` is not one."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(error, line)
    return _split_top_level(text[1:-1], ",")


def _current(ctx: JetContext, texts: list[str]) -> ConservedCurrent:
    return ConservedCurrent(tuple(ctx.parse(c) for c in texts))


def _density(ctx: JetContext, text: str) -> Density:
    return Density(ctx, ctx.parse(text))


# --------------------------------------------------------------------------
# Operator expressions (D_x, powers, compositions)


class _OpParser(_Parser):
    """Parses `D_x^3 + (2/3)*u*D_x + (1/3)*u_x` into a scalar CDiffOp with the
    expression grammar: `D_<var>` atoms, functions as multiplication
    operators, `*` as composition and `^n` as n-fold composition.

    A product whose left factor has order 0 (a function c) scales the
    entries of the right one, c o sum_s b_s D_s = sum_s (c b_s) D_s; every
    other product composes.  A power of a single term c D_s with a constant
    c (`D_x^n`) is the single term c^n D_s^n; any other power is the
    product of n factors, taken from the left."""

    def number(self, value: int) -> CDiffOp:
        return CDiffOp.mult(self.ctx, super().number(value))

    def identifier(self, base: str, sub: str | None, pos: int) -> CDiffOp:
        if base == "D" and sub is not None and sub in self.ctx.independent:
            return CDiffOp.d(self.ctx, self.ctx.independent.index(sub))
        return CDiffOp.mult(self.ctx, super().identifier(base, sub, pos))

    def product(self, a: CDiffOp, b: CDiffOp) -> CDiffOp:
        (left,), = a.entries
        if any(left):  # a derivative D_s with s != ()
            return a.compose(b)
        c = left.get(())
        if c is None:  # the zero operator
            return a
        (right,), = b.entries
        return CDiffOp.scalar(self.ctx, {s: c * p for s, p in right.items()})

    def power(self, a: CDiffOp, n: int) -> CDiffOp:
        (entry,), = a.entries
        if len(entry) == 1:
            (s, c), = entry.items()
            if c.as_constant() is not None:
                return CDiffOp.scalar(self.ctx, {tuple(sorted(s * n)): c ** n})
        if n == 0:
            return CDiffOp.identity(self.ctx)
        out = a
        for _ in range(n - 1):
            out = self.product(out, a)
        return out

    def constant(self, a: CDiffOp):
        return None if a.order else super().constant(a.entries[0][0].get((), DiffPoly.zero()))


_DEPENDENT_D = "'D' cannot be a dependent variable: D_x is the total derivative in operators"


def parse_operator(text: str, ctx: JetContext) -> CDiffOp:
    if "D" in ctx.dependent:
        raise InputError(_DEPENDENT_D)
    return _OpParser(text, ctx).parse()


# --------------------------------------------------------------------------
# Checking a declaration without building it


class _Unsure(Exception):
    """The checker cannot tell whether a declaration builds."""


class _Shape:
    """What the checker knows of a value: its rational value when it is a
    constant, else None, and an upper bound on its total degree.  Past
    MAX_EXPONENT, an exponent might overflow or cancel first: unsure."""

    __slots__ = ("const", "deg")

    def __init__(self, const, deg: int):
        if deg > MAX_EXPONENT:
            raise _Unsure
        self.const = const
        self.deg = deg

    def __add__(self, other: "_Shape") -> "_Shape":
        known = self.const is not None and other.const is not None
        return _Shape(self.const + other.const if known else None, max(self.deg, other.deg))

    def __neg__(self) -> "_Shape":
        return _Shape(None if self.const is None else -self.const, self.deg)

    def __sub__(self, other: "_Shape") -> "_Shape":
        return self + (-other)

    def __truediv__(self, c) -> "_Shape":
        return _Shape(None if self.const is None else Fraction(self.const, c), self.deg)


class _Checker(_Parser):
    """Build-nothing hooks on the expression grammar, for polynomials or,
    with `operator`, for operators (`D_<var>` has degree 0).  Identifiers
    resolve as in a build and the grammar is the same, so an error it
    raises is the build's.  An exponent that can pass MAX_EXPONENT or a
    divisor that is not a known constant makes it unsure (`_Unsure`);
    otherwise the build cannot fail."""

    def __init__(self, text: str, ctx: JetContext, operator: bool):
        super().__init__(text, ctx)
        self.operator = operator

    def number(self, value: int) -> _Shape:
        return _Shape(value, 0)

    def identifier(self, base: str, sub: str | None, pos: int) -> _Shape:
        if self.operator and base == "D" and sub is not None and sub in self.ctx.independent:
            return _Shape(None, 0)
        self.ctx.resolve_identifier(base, sub, pos)
        return _Shape(None, 1)

    def product(self, a: _Shape, b: _Shape) -> _Shape:
        known = a.const is not None and b.const is not None
        return _Shape(a.const * b.const if known else None, a.deg + b.deg)

    def power(self, a: _Shape, n: int) -> _Shape:
        if n == 0:
            return _Shape(1, 0)
        return _Shape(None if a.const is None else a.const ** n, a.deg * n)

    def constant(self, a: _Shape):
        if a.const is None:
            raise _Unsure
        return a.const


def _checks(text: str, ctx: JetContext, operator: bool = False) -> bool:
    """True when `text` is sure to build, False when the checker is unsure;
    a ParseError it raises is the one the build raises."""
    try:
        _Checker(text, ctx, operator).parse()
    except _Unsure:
        return False
    return True


# --------------------------------------------------------------------------
# Equation files


def parse_equation_file(path: str) -> EquationFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read '{path}': {exc}")
    lines = raw.decode("utf-8-sig").splitlines()

    independent: list[str] = []
    time_name: str | None = None
    dependent: list[str] = []
    params: list[str] = []
    evolution: dict[str, tuple[str, int]] = {}
    covering_lines: list[tuple[str, str, int]] = []
    named: list[tuple[str, str, str, int]] = []  # kind, name, payload, line
    declared: dict[tuple[str, str], int] = {}  # (kind, name) -> line

    def declare(kind: str, name: str, no: int):
        """Names are declared once: a repeat is rejected, never last-wins."""
        if (kind, name) in declared:
            raise InputError(f"{kind} '{name}' is already declared on line {declared[kind, name]}", no)
        declared[kind, name] = no

    def names(body: str, no: int, timed: bool = False) -> list[str]:
        """Variable names of a declaration list, each one the expression
        grammar can write: a letter, then letters or digits, and with
        `timed` (an independent list) perhaps marked '(time)'."""
        out = _split_top_level(body, ",") if body else []
        for item in out:
            bare = item[: -len("(time)")].strip() if timed and item.endswith("(time)") else item
            if not (bare[:1].isalpha() and bare.isalnum()):
                raise InputError(f"'{item}' is not a variable name (a letter, then letters or digits)", no)
            declare("variable", bare, no)
        return out

    for no, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        first = line.split(None, 1)[0]
        if first in ("operator", "density", "current"):
            rest = line[len(first):].strip()
            name, eqsign, payload = rest.partition("=")
            if not eqsign or not name.strip():
                raise InputError(f"expected '{first} NAME = ...'", no)
            declare(first, name.strip(), no)
            named.append((first, name.strip(), payload.strip(), no))
            continue
        if ":" not in line:
            raise InputError(f"expected 'keyword: ...', got '{line}'", no)
        head, _, body = line.partition(":")
        head = head.strip()
        body = body.strip()
        if head == "independent":
            for item in names(body, no, timed=True):
                if item.endswith("(time)"):
                    if time_name is not None:
                        raise InputError(f"'{time_name}' is already the (time) variable", no)
                    item = time_name = item[: -len("(time)")].strip()
                independent.append(item)
        elif head == "dependent":
            dependent += names(body, no)
            if "D" in dependent:
                raise InputError(_DEPENDENT_D, no)
        elif head == "param":
            params += names(body, no)
        elif head == "evolution":
            lhs, _, rhs = body.partition("=")
            declare("evolution", lhs.strip(), no)
            evolution[lhs.strip()] = (rhs.strip(), no)
        elif head.startswith("covering"):
            name = head[len("covering"):].strip()
            if not name:
                raise InputError("covering needs a name", no)
            declare("covering", name, no)
            covering_lines.append((name, body, no))
        else:
            raise InputError(f"unknown declaration '{head}'", no)

    if not independent or not dependent:
        raise InputError("file must declare independent and dependent variables")
    if time_name is not None:
        if independent[-1] != time_name:
            independent.remove(time_name)
            independent.append(time_name)
    try:
        ctx = JetContext(tuple(independent), tuple(dependent), tuple(params), has_time=time_name is not None)
    except ValueError as exc:  # an ambiguous subscript: cite the line that made the names so
        lines = sorted({declared["variable", nm] for nm in independent})
        raise InputError(str(exc), next((no for no in lines if ambiguous_subscript(
            [nm for nm in independent if declared["variable", nm] <= no])), None))

    eq = EquationFile(path, ctx, raw=raw)

    if evolution:
        if time_name is None:
            raise InputError("evolution declarations need a '(time)' independent variable",
                             min(no for _, no in evolution.values()))
        rhss = []
        for j, dep in enumerate(dependent):
            key = f"{dep}_{time_name}"
            if key not in evolution:
                raise InputError(f"missing evolution equation for '{key}'", declared["variable", dep])
            text, no = evolution[key]
            try:
                rhss.append(ctx.parse(text))
            except ParseError as exc:
                raise InputError(f"in evolution for {dep}: {exc}", no)
        extra = sorted(set(evolution) - {f"{d}_{time_name}" for d in dependent})
        if extra:
            raise InputError(f"evolution declared for unknown variables: {extra}", evolution[extra[0]][1])
        try:
            eq.system = EvolutionSystem(ctx, rhss)
        except NotInternal as exc:  # a time derivative on the right: cite its line
            key = f"{dependent[exc.component]}_{time_name}"
            raise InputError(f"invalid evolution system: {exc}", evolution[key][1])

    for name, body, no in covering_lines:
        sysm = eq.need_system(no)
        entries: dict[str, dict[int, DiffPoly]] = {}  # in declaration order
        for chunk in _split_top_level(body, ";"):
            if not chunk:
                continue
            lhs, _, rhs = chunk.partition("=")
            base, sub = split_identifier(lhs.strip())
            if sub is None or sub not in ctx.independent:
                raise InputError(f"covering equation must look like w_x = ..., got '{chunk}'", no)
            given = entries.setdefault(base, {})
            i = ctx.independent.index(sub)
            if i in given:
                raise InputError(f"covering '{name}' gives {base}_{sub} twice", no)
            try:
                given[i] = ctx.with_nonlocals(list(entries)).parse(rhs.strip())
            except ValueError as exc:  # a ParseError, or a covering variable named like another
                raise InputError(f"in covering '{name}': {exc}", no)
        layers = []
        for w in entries:
            exprs = []
            for i in range(ctx.n):
                if i not in entries[w]:
                    raise InputError(f"covering '{name}' misses {w}_{ctx.independent[i]}", no)
                exprs.append(entries[w][i])
            layers.append((w, exprs))
        try:
            eq.coverings[name] = make_covering(sysm, layers)
        except (NotFlat, ValueError) as exc:
            raise InputError(f"covering '{name}': {exc}", no)

    # Each named declaration is checked now and kept as its text; one the
    # checker is unsure of is built now, so it fails as it would, and the
    # value is dropped.
    tables = {"operator": eq.operators, "density": eq.densities, "current": eq.currents}
    for kind, name, payload, no in named:
        try:
            if kind == "operator" and not _checks(payload, ctx, operator=True):
                parse_operator(payload, ctx)
            elif kind == "density" and not _checks(payload, ctx):
                _density(ctx, payload)
            elif kind == "current":
                texts = _components(payload, "current needs a parenthesized component tuple", no)
                if not all(_checks(t, ctx) for t in texts):
                    _current(ctx, texts)
        except ParseError as exc:
            raise InputError(f"in {kind} '{name}': {exc}", no)
        tables[kind][name] = payload
    return eq


# --------------------------------------------------------------------------
# Report rendering


def _vec_str(vec) -> str | list[str]:
    strs = [str(p) for p in vec]
    return strs[0] if len(strs) == 1 else strs


class Report:
    def __init__(self, command: str, eq: EquationFile):
        self.doc = {"command": command, "input-hash": eq.input_hash()}
        self.lines: list[str] = []

    def set(self, key: str, value):
        self.doc[key] = value

    def text(self, line: str):
        self.lines.append(line)

    def emit(self, fmt: str) -> str:
        if fmt == "structured":
            return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"
        return "\n".join(self.lines) + "\n"


def _ansatz_of(args) -> Ansatz:
    return Ansatz(jet_order=args.order, poly_deg=args.deg, base_deg=args.xt_deg,
                  include_params=getattr(args, "params", False))


def _lookup_density(eq: EquationFile, ref: str) -> Density:
    return _density(eq.ctx, eq.densities.get(ref, ref))


def _lookup_operator(eq: EquationFile, ref: str) -> CDiffOp:
    return parse_operator(eq.operators.get(ref, ref), eq.ctx)


def _hamiltonian_operator(eq: EquationFile, ref: str) -> CDiffOp:
    """The operator `ref`, which must map the file's m-component sections to
    m-component sections: InputError unless it is m x m."""
    op = _lookup_operator(eq, ref)
    m = eq.ctx.m
    if (op.rows, op.cols) != (m, m):
        raise InputError(f"operator '{ref}' is {op.rows}x{op.cols}, but the file declares {m} dependent "
                         f"variables, so a Hamiltonian operator must be {m}x{m}")
    return op


def _lookup_current(eq: EquationFile, ref: str) -> ConservedCurrent:
    return _current(eq.ctx, _components(eq.currents.get(ref, ref), f"unknown current '{ref.strip()}'"))


def _basis_report(command: str, eq: EquationFile, a: Ansatz, basis, heading: str, render) -> Report:
    """The report of a solver command: its ansatz, the basis rendered
    element by element, and the certificate of each element."""
    shown = [render(s) for s in basis.solutions]
    rep = Report(command, eq)
    rep.set("ansatz", a.as_dict())
    rep.set("basis", shown)
    rep.set("verified", [True] * len(shown))  # _solve raises VerificationFailed on any failed check
    if not shown:
        rep.text("no solutions in ansatz")
    else:
        rep.text(f"{heading} ({len(shown)} elements):")
        for s in shown:
            rep.text(f"  {s}")
    return rep


# --------------------------------------------------------------------------
# Subcommands


def cmd_symmetries(eq: EquationFile, args) -> tuple[Report, int]:
    sysm = eq.need_system()
    a = _ansatz_of(args)
    basis = symmetries(sysm, a)
    return _basis_report("symmetries", eq, a, basis, "symmetry basis", _vec_str), 0


def cmd_conslaws(eq: EquationFile, args) -> tuple[Report, int]:
    sysm = eq.need_system()
    if args.currents and eq.ctx.n != 2:
        raise InputError("current reconstruction needs exactly one spatial variable")
    a = _ansatz_of(args)
    basis = generating_functions(sysm, a)
    rep = _basis_report("conslaws", eq, a, basis, "generating functions", _vec_str)
    exit_code = 0
    if args.currents:
        recon = []
        for s in basis.solutions:
            try:
                J = current_from_gf(sysm, list(s))
                recon.append([str(c) for c in J.components])
                rep.text(f"  current for {_vec_str(s)}: ({', '.join(str(c) for c in J.components)})")
            except (NotExactDerivative, NotGeneratingFunction) as exc:
                recon.append(None)
                rep.text(f"  current for {_vec_str(s)}: obstructed ({exc})")
                exit_code = 1
        rep.set("currents", recon)
    return rep, exit_code


def cmd_euler(eq: EquationFile, args) -> tuple[Report, int]:
    d = _lookup_density(eq, args.density)
    comps = euler(d)
    rep = Report("euler", eq)
    rep.set("result", _vec_str(comps))
    rep.text("; ".join(str(c) for c in comps))
    return rep, 0


def cmd_adjoint(eq: EquationFile, args) -> tuple[Report, int]:
    result = str(_lookup_operator(eq, args.op).adjoint())
    rep = Report("adjoint", eq)
    rep.set("result", result)
    rep.text(result)
    return rep, 0


def cmd_linearize(eq: EquationFile, args) -> tuple[Report, int]:
    result = str(linearization(eq.need_system()))
    rep = Report("linearize", eq)
    rep.set("result", result)
    rep.text(result)
    return rep, 0


def cmd_inverse_problem(eq: EquationFile, args) -> tuple[Report, int]:
    ctx = eq.ctx
    psi = [ctx.parse(p) for p in args.psi]
    if len(psi) != ctx.m:
        raise InputError(f"--psi needs {ctx.m} components")
    rep = Report("inverse-problem", eq)
    try:
        L = homotopy_lagrangian(ctx, psi)
    except NotVariational:
        rep.set("self-adjoint", False)
        rep.set("result", None)
        rep.set("verified", [False])
        rep.text("self-adjoint: no (not an Euler-Lagrange section)")
        return rep, 1
    rep.set("self-adjoint", True)
    check = euler(L)
    verified = all((a - b).is_zero() for a, b in zip(check, psi))
    rep.set("result", str(L.value))
    rep.set("verified", [verified])
    rep.text(f"self-adjoint: yes; Lagrangian density: {L.value}")
    return rep, 0 if verified else 1


def cmd_verify_current(eq: EquationFile, args) -> tuple[Report, int]:
    sysm = eq.need_system()
    J = _lookup_current(eq, args.current)
    residual = divergence_residual(sysm, J)
    ok = residual.is_zero()
    rep = Report("verify-current", eq)
    rep.set("result", ok)
    rep.set("residual", str(residual))
    rep.text("conserved: yes" if ok else f"conserved: no; residual: {residual}")
    return rep, 0 if ok else 1


def cmd_check_hamiltonian(eq: EquationFile, args) -> tuple[Report, int]:
    op = _hamiltonian_operator(eq, args.op)
    try:
        jac = jacobi_check(op)  # tests skew-adjointness first
        skew = True
    except PreconditionFailed:
        skew = jac = False
    rep = Report("check-hamiltonian", eq)
    rep.set("skew-adjoint", skew)
    rep.set("jacobi", jac)
    rep.set("result", skew and jac)
    rep.text(f"skew-adjoint: {'yes' if skew else 'no'}; Jacobi: {'yes' if jac else 'no'}")
    return rep, 0 if (skew and jac) else 1


def cmd_flow(eq: EquationFile, args) -> tuple[Report, int]:
    op = _hamiltonian_operator(eq, args.op)
    H = _lookup_density(eq, args.density)
    flow = hamiltonian_flow(op, H)
    rep = Report("flow", eq)
    rep.set("result", _vec_str(flow.f))
    for j, name in enumerate(eq.ctx.dependent):
        rep.text(f"{name}_{eq.ctx.independent[-1]} = {flow.f[j]}")
    return rep, 0


def cmd_bracket(eq: EquationFile, args) -> tuple[Report, int]:
    op = _hamiltonian_operator(eq, args.op)
    H1 = _lookup_density(eq, args.density)
    H2 = _lookup_density(eq, args.density2)
    br = poisson_bracket(op, H1, H2)
    rep = Report("bracket", eq)
    rep.set("result", str(br.density.value))
    rep.set("euler-image", [str(c) for c in br.euler_image])
    rep.set("trivial", br.is_trivial)
    rep.text(f"bracket density: {br.density.value}")
    rep.text(f"euler image: {'; '.join(str(c) for c in br.euler_image)}")
    rep.text(f"zero in cohomology: {'yes' if br.is_trivial else 'no'}")
    return rep, 0


def _solve_shadows(eq: EquationFile, args):
    """The shadow basis and the space it was solved on, covering or system."""
    space = eq.need_system()
    if args.covering:
        if args.covering not in eq.coverings:
            raise InputError(f"unknown covering '{args.covering}'")
        space = eq.coverings[args.covering]
    return shadows(space, _ansatz_of(args)), space


def cmd_recursion(eq: EquationFile, args) -> tuple[Report, int]:
    basis, _ = _solve_shadows(eq, args)
    return _basis_report("recursion", eq, _ansatz_of(args), basis, "shadow basis", str), 0


def cmd_apply_recursion(eq: EquationFile, args) -> tuple[Report, int]:
    if args.times < 0:
        raise InputError(f"--times must be nonnegative, got {args.times}")
    basis, space = _solve_shadows(eq, args)
    if not len(basis):
        raise InputError("no shadows in the given ansatz")
    if args.index is not None:
        if not 0 <= args.index < len(basis):
            raise InputError(f"--index out of range 0..{len(basis) - 1}")
        sh = basis.solutions[args.index]
    else:
        nontrivial = [s for s in basis.solutions if s.max_order() > 0]
        sh = nontrivial[0] if nontrivial else basis.solutions[0]
    phi = [space.ctx.parse(p) for p in args.to]
    if len(phi) != space.ctx.m:
        raise InputError(f"--to needs {space.ctx.m} components")
    rep = Report("apply-recursion", eq)
    rep.set("shadow", str(sh))
    results, verified = [], []
    iterates = shadow_iterates(sh, phi, space)
    for _ in range(args.times):
        try:
            phi = next(iterates)
        except NonlocalObstruction as exc:
            rep.set("result", results)
            rep.set("obstruction", str(exc))
            rep.text(f"obstruction: {exc}")
            return rep, 1
        except VerificationFailed as exc:
            rep.set("result", results)
            rep.set("verified", verified + [False])
            rep.set("failure", str(exc))
            rep.text(f"verification failed: {exc}")
            return rep, 1
        results.append(_vec_str(phi))
        verified.append(True)
    rep.set("result", results)
    rep.set("verified", verified)
    rep.text(f"shadow: {sh}")
    for k, r in enumerate(results, start=1):
        rep.text(f"  iterate {k}: {r}")
    return rep, 0


# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: parsing leaves no state in it.  It names no
    handler; `main` finds `cmd_<command>` in the module at call time."""
    top = argparse.ArgumentParser(prog="jetcalc",
                                  description="exact jet-space calculus for polynomial evolution PDEs")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ansatz=False):
        p.add_argument("eqnfile", help="equation definition file")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        if ansatz:
            p.add_argument("--order", type=int, default=1, help="max jet order of the ansatz")
            p.add_argument("--deg", type=int, default=1, help="max total degree in jet variables")
            p.add_argument("--xt-deg", type=int, default=0, help="max total degree in base variables")
            p.add_argument("--params", action="store_true", help="include declared parameters in the ansatz")

    p = sub.add_parser("symmetries", help="solve the linearization equation")
    common(p, ansatz=True)

    p = sub.add_parser("conslaws", help="solve the cosymmetry equation; optionally rebuild currents")
    common(p, ansatz=True)
    p.add_argument("--currents", action="store_true", help="reconstruct conserved currents (n = 2)")

    p = sub.add_parser("euler", help="variational derivative of a density")
    common(p)
    p.add_argument("--density", required=True, help="density name or expression")

    p = sub.add_parser("adjoint", help="formal adjoint of an operator")
    common(p)
    p.add_argument("--op", required=True, help="operator name or expression")

    p = sub.add_parser("linearize", help="universal linearization of the evolution system")
    common(p)

    p = sub.add_parser("inverse-problem", help="self-adjointness test and homotopy Lagrangian")
    common(p)
    p.add_argument("--psi", action="append", required=True, help="section component (repeat per component)")

    p = sub.add_parser("verify-current", help="check a conserved current")
    common(p)
    p.add_argument("--current", required=True, help="current name or (expr, ...) tuple")

    p = sub.add_parser("check-hamiltonian", help="skew-adjointness and Jacobi criterion")
    common(p)
    p.add_argument("--op", required=True)

    p = sub.add_parser("flow", help="Hamiltonian evolution u_t = A(E(H))")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--density", required=True)

    p = sub.add_parser("bracket", help="Poisson bracket density and its Euler image")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--density2", required=True)

    p = sub.add_parser("recursion", help="solve the shadow equation")
    common(p, ansatz=True)
    p.add_argument("--covering", default=None, help="named covering to work in")

    p = sub.add_parser("apply-recursion", help="apply a recursion shadow to a symmetry")
    common(p, ansatz=True)
    p.add_argument("--covering", default=None)
    p.add_argument("--index", type=int, default=None, help="basis element to apply (default: first non-identity)")
    p.add_argument("--to", action="append", required=True, help="symmetry component (repeat per component)")
    p.add_argument("--times", type=int, default=1, help="number of applications")

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        eq = parse_equation_file(args.eqnfile)
        rep, code = globals()["cmd_" + args.command.replace("-", "_")](eq, args)
    except VerificationFailed as exc:  # a refutation: a check ran and said no
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        sys.stdout.write(rep.emit(args.format))
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk: no report, so no verdict
        sys.stderr.write(f"error: cannot write the report: {exc}\n")
        # The unwritten bytes stay buffered, and the interpreter's flush at
        # exit would fail on them again: send them to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
