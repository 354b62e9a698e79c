"""Command-line workbench.

Reads an equation-definition file, dispatches the requested computation, and
renders a human-readable or machine-readable (JSON) report.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

from .dalg import MAX_EXPONENT, DiffPoly, ParseError, _Parser, split_identifier
from .jetspace import EvolutionSystem, JetContext, NotInternal, ambiguous_subscript
from .cdiff import CDiffOp, linearization
from .variational import (
    ConservedCurrent,
    Density,
    NotExactDerivative,
    NotVariational,
    VerificationFailed,
    current_from_gf,
    divergence_residual,
    euler,
    homotopy_lagrangian,
    self_adjoint_test,
)
from .detsolve import Ansatz, generating_functions, shadows, symmetries
from .hamrec import (
    Covering,
    NonlocalObstruction,
    NotFlat,
    apply_shadow,
    hamiltonian_flow,
    is_skew_adjoint,
    jacobi_check,
    make_covering,
    poisson_bracket,
)


class InputError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line else ""
        super().__init__(f"{where}{message}")
        self.line = line


class _Later(functools.partial):
    """A declaration that was checked but is not built yet."""


class _Declared(Mapping):
    """The named declarations of one kind.  A value held as a `_Later` is
    built on its first lookup and kept."""

    def __init__(self):
        self._values: dict[str, object] = {}

    def add(self, name: str, value):
        self._values[name] = value

    def __getitem__(self, name: str):
        value = self._values[name]
        if type(value) is _Later:
            value = self._values[name] = value()
        return value

    def __contains__(self, name) -> bool:
        return name in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass
class EquationFile:
    path: str
    ctx: JetContext
    system: EvolutionSystem | None = None
    coverings: dict[str, Covering] = field(default_factory=dict)
    operators: Mapping[str, CDiffOp] = field(default_factory=_Declared)
    densities: Mapping[str, Density] = field(default_factory=_Declared)
    currents: Mapping[str, ConservedCurrent] = field(default_factory=_Declared)
    raw: bytes = b""

    def need_system(self) -> EvolutionSystem:
        if self.system is None:
            raise InputError("the equation file declares no evolution system")
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
    operators, `*` as composition and `^n` as n-fold composition."""

    def number(self, value: int) -> CDiffOp:
        return CDiffOp.mult(self.ctx, super().number(value))

    def identifier(self, base: str, sub: str | None, pos: int) -> CDiffOp:
        if base == "D" and sub is not None and sub in self.ctx.independent:
            return CDiffOp.d(self.ctx, self.ctx.independent.index(sub))
        return CDiffOp.mult(self.ctx, super().identifier(base, sub, pos))

    def product(self, a: CDiffOp, b: CDiffOp) -> CDiffOp:
        return a.compose(b)

    def power(self, a: CDiffOp, n: int) -> CDiffOp:
        if n == 0:
            return CDiffOp.identity(self.ctx)
        out = a
        for _ in range(n - 1):
            out = out.compose(a)
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

    def scale(self, c) -> "_Shape":
        return _Shape(None if self.const is None else self.const * c, self.deg)


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


# Parentheses and signs nest the recursive descent.  Where Python's
# recursion limit strikes depends on the hooks' own frames, so a text that
# could nest this deep is built rather than checked.
_NESTING_BUDGET = 200


def _checks(text: str, ctx: JetContext, operator: bool = False) -> bool:
    """True when `text` is sure to build, False when the checker is unsure;
    a ParseError it raises is the one the build raises."""
    if 5 * text.count("(") + text.count("-") + text.count("+") > _NESTING_BUDGET:
        return False
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
    lines = raw.decode("utf-8").splitlines()

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

    def names(body: str, no: int) -> list[str]:
        """Variable names of a declaration list, each one the expression
        grammar can write: a letter, then letters or digits."""
        out = _split_top_level(body, ",") if body else []
        for item in out:
            bare = item[: -len("(time)")].strip() if item.endswith("(time)") else item
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
            for item in names(body, no):
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
            raise InputError("evolution declarations need a '(time)' independent variable")
        rhss = []
        for j, dep in enumerate(dependent):
            key = f"{dep}_{time_name}"
            if key not in evolution:
                raise InputError(f"missing evolution equation for '{key}'")
            text, no = evolution[key]
            try:
                rhss.append(ctx.parse(text))
            except ParseError as exc:
                raise InputError(f"in evolution for {dep}: {exc}", no)
        extra = set(evolution) - {f"{d}_{time_name}" for d in dependent}
        if extra:
            raise InputError(f"evolution declared for unknown variables: {sorted(extra)}")
        try:
            eq.system = EvolutionSystem(ctx, rhss)
        except (NotInternal, ValueError) as exc:
            raise InputError(f"invalid evolution system: {exc}")

    for name, body, no in covering_lines:
        sysm = eq.need_system()
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

    # Each named declaration is checked now and built on its first lookup;
    # one the checker is unsure of is built now, so it fails as it would.
    tables = {"operator": eq.operators, "density": eq.densities, "current": eq.currents}
    for kind, name, payload, no in named:
        try:
            if kind == "operator":
                build = _Later(parse_operator, payload, ctx)
                sure = _checks(payload, ctx, operator=True)
            elif kind == "density":
                build = _Later(_density, ctx, payload)
                sure = _checks(payload, ctx)
            else:
                texts = _components(payload, "current needs a parenthesized component tuple", no)
                build = _Later(_current, ctx, texts)
                sure = all(_checks(t, ctx) for t in texts)
            tables[kind].add(name, build if sure else build())
        except ParseError as exc:
            raise InputError(f"in {kind} '{name}': {exc}", no)
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
    if ref in eq.densities:
        return eq.densities[ref]
    return _density(eq.ctx, ref)


def _lookup_operator(eq: EquationFile, ref: str) -> CDiffOp:
    if ref in eq.operators:
        return eq.operators[ref]
    return parse_operator(ref, eq.ctx)


def _lookup_current(eq: EquationFile, ref: str) -> ConservedCurrent:
    if ref in eq.currents:
        return eq.currents[ref]
    return _current(eq.ctx, _components(ref, f"unknown current '{ref.strip()}'"))


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
    a = _ansatz_of(args)
    basis = generating_functions(sysm, a)
    rep = _basis_report("conslaws", eq, a, basis, "generating functions", _vec_str)
    exit_code = 0
    if args.currents:
        if eq.ctx.n != 2:
            raise InputError("current reconstruction needs exactly one spatial variable")
        recon = []
        for s in basis.solutions:
            try:
                J = current_from_gf(sysm, list(s))
                recon.append([str(c) for c in J.components])
                rep.text(f"  current for {_vec_str(s)}: ({', '.join(str(c) for c in J.components)})")
            except (NotExactDerivative, NotVariational) as exc:
                recon.append(None)
                rep.text(f"  current for {_vec_str(s)}: obstructed ({exc})")
                exit_code = 1
        rep.set("currents", recon)
    return rep, exit_code


def cmd_euler(eq: EquationFile, args) -> tuple[Report, int]:
    d = _lookup_density(eq, args.density)
    comps = euler(d)[: eq.ctx.m]
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
    ok = self_adjoint_test(ctx, psi)
    rep = Report("inverse-problem", eq)
    rep.set("self-adjoint", ok)
    if not ok:
        rep.set("result", None)
        rep.set("verified", [False])
        rep.text("self-adjoint: no (not an Euler-Lagrange section)")
        return rep, 1
    L = homotopy_lagrangian(ctx, psi)
    check = euler(L)[: ctx.m]
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
    op = _lookup_operator(eq, args.op)
    skew = is_skew_adjoint(op)
    jac = jacobi_check(op) if skew else False
    rep = Report("check-hamiltonian", eq)
    rep.set("skew-adjoint", skew)
    rep.set("jacobi", jac)
    rep.set("result", skew and jac)
    rep.text(f"skew-adjoint: {'yes' if skew else 'no'}; Jacobi: {'yes' if jac else 'no'}")
    return rep, 0 if (skew and jac) else 1


def cmd_flow(eq: EquationFile, args) -> tuple[Report, int]:
    op = _lookup_operator(eq, args.op)
    H = _lookup_density(eq, args.density)
    flow = hamiltonian_flow(op, H)
    rep = Report("flow", eq)
    rep.set("result", _vec_str(flow.f))
    for j, name in enumerate(eq.ctx.dependent):
        rep.text(f"{name}_{eq.ctx.independent[-1]} = {flow.f[j]}")
    return rep, 0


def cmd_bracket(eq: EquationFile, args) -> tuple[Report, int]:
    op = _lookup_operator(eq, args.op)
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
    phi = [eq.ctx.parse(p) for p in args.to]
    if len(phi) != eq.ctx.m:
        raise InputError(f"--to needs {eq.ctx.m} components")
    rep = Report("apply-recursion", eq)
    rep.set("shadow", str(sh))
    results, verified = [], []
    for _ in range(args.times):
        try:
            phi = apply_shadow(sh, phi, space)
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
    from .variational import NotConserved, NotGeneratingFunction
    from .hamrec import PreconditionFailed

    args = build_parser().parse_args(argv)
    try:
        eq = parse_equation_file(args.eqnfile)
        rep, code = globals()["cmd_" + args.command.replace("-", "_")](eq, args)
    except (VerificationFailed, NonlocalObstruction, NotExactDerivative, NotVariational,
            NotConserved, NotGeneratingFunction, PreconditionFailed) as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (InputError, ParseError, NotFlat, NotInternal, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(rep.emit(args.format))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
