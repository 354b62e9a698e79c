"""Determining equations: ansatz templates, coefficient matching, nullspaces.

The solvers share one pipeline: build a polynomial template with fresh
unknown coefficients, push it through the relevant linear operator
(linearization, cosymmetry equation, or shadow equation), match the
coefficient of every known monomial to zero, and extract an exact rational
nullspace.  The template builder keeps a table of the monomial (and the
slot: component or Cartan key) each unknown multiplies, so a solution is
read off that table over the nonzero entries of its nullspace vector, not
substituted into the whole template.  Every emitted solution is still
re-substituted into its determining equation before being returned; the
solver never trusts its own elimination.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Hashable, Mapping

from .dalg import Coef, DiffPoly, NonlinearInUnknowns, VarId, param_var, unknown_var
from .jetspace import EvolutionSystem, JetContext, multi_indices_up_to
from .cdiff import (
    CartanShadow,
    _collect,
    linearization,
    shadow_residual,
)
from .variational import VerificationFailed, gf_residual


@dataclass(frozen=True)
class Ansatz:
    """Bounds of the search space.

    jet_order: max |sigma| of jet variables used (and of Cartan form indices
    for shadows); poly_deg: max total degree in jet variables; base_deg: max
    total degree in the explicit base variables; include_params adds declared
    parameters to the base-variable pool.
    """

    jet_order: int = 1
    poly_deg: int = 1
    base_deg: int = 0
    include_params: bool = False

    def __post_init__(self):
        if min(self.jet_order, self.poly_deg, self.base_deg) < 0:
            raise ValueError("ansatz bounds must be nonnegative")

    def as_dict(self) -> dict:
        return {"jet-order": self.jet_order, "poly-deg": self.poly_deg, "base-deg": self.base_deg}


def ansatz_monomials(ctx: JetContext, a: Ansatz, spatial_only: bool = True) -> list[DiffPoly]:
    """The monomial pool, deterministically ordered by the canonical monomial
    order (degree descending, then the fixed variable order)."""
    jets = [ctx.jet(j, s)
            for j in range(ctx.m)
            for s in multi_indices_up_to(ctx, a.jet_order, spatial_only=spatial_only)]
    bases = [ctx.base(i) for i in range(ctx.n)]
    if a.include_params:
        bases += [param_var(p) for p in ctx.parameters]
    jet_parts = [p for d in range(a.poly_deg + 1) for p in combinations_with_replacement(jets, d)]
    base_parts = [p for e in range(a.base_deg + 1) for p in combinations_with_replacement(bases, e)]
    pool = {DiffPoly.monomial(jp + bp) for jp in jet_parts for bp in base_parts}
    return sorted(pool, key=DiffPoly.order_key)


class TemplateBuilder:
    """Hands out unknown coefficients (`unknown_var(k)` for k = 0, 1, ...),
    remembers their names in declaration order, and keeps the table of the
    slot and monomial each unknown of a `combination` multiplies."""

    def __init__(self):
        self.names: list[str] = []
        self.table: dict[str, tuple[Hashable, DiffPoly]] = {}

    def fresh(self) -> VarId:
        c = unknown_var(len(self.names))
        self.names.append(c.name)
        return c

    def combination(self, monomials: list[DiffPoly], slot: Hashable = None) -> DiffPoly:
        """sum_k c_k * m_k over fresh unknowns c_k (`DiffPoly.combination`)."""
        pairs = [(self.fresh(), m) for m in monomials]
        self.table.update((c.name, (slot, m)) for c, m in pairs)
        return DiffPoly.combination(pairs)

    def read_off(self, vec: Mapping[str, Coef]) -> dict[Hashable, DiffPoly]:
        """The combinations at the unknown values of `vec` (absent ones are
        zero), keyed by slot: sum_k vec[c_k] * m_k over the entries of `vec`
        only.  Unknowns of no combination are skipped; zero slots are left
        out."""
        entries = ((self.table[name], c) for name, c in vec.items() if name in self.table)
        return _collect((slot, m.scale(c)) for (slot, m), c in entries)


def build_symmetry_template(ctx: JetContext, a: Ansatz) -> tuple[list[DiffPoly], TemplateBuilder]:
    """One template per dependent component, disjoint unknowns."""
    tb = TemplateBuilder()
    monos = ansatz_monomials(ctx, a)
    return [tb.combination(monos, j) for j in range(ctx.m)], tb


def build_shadow_template(ctx: JetContext, a: Ansatz) -> tuple[CartanShadow, TemplateBuilder]:
    """One coefficient template per Cartan form om^alpha_sigma (|sigma| <=
    jet_order) and per name in `ctx.nonlocals`, for every output component.

    Unknowns are declared covering forms first and jet forms in ascending
    order, so that the echelon-normalized basis comes out monic in the
    highest Cartan coefficient (the customary recursion-operator shape).
    """
    tb = TemplateBuilder()
    monos = ansatz_monomials(ctx, a)
    sigmas = multi_indices_up_to(ctx, a.jet_order, spatial_only=True)
    comps = []
    for j in range(ctx.m):
        cmap = {}
        for layer in range(len(ctx.nonlocals)):
            cmap[("w", layer)] = tb.combination(monos, (j, ("w", layer)))
        for alpha in range(ctx.m):
            for s in sigmas:
                cmap[("u", alpha, s)] = tb.combination(monos, (j, ("u", alpha, s)))
        comps.append(cmap)
    return CartanShadow(ctx, tuple(comps)), tb


@dataclass
class LinearSystem:
    """Sparse homogeneous rows over an ordered unknown list."""

    unknowns: list[str]
    rows: list[dict[int, Coef]]
    inconsistent: bool = False


def match_coefficients(expr: DiffPoly, system: LinearSystem):
    """Append one row per distinct known monomial of an unknown-linear expr
    (`DiffPoly.linear_rows`); column k of the system is `unknown_var(k)`.

    Rows come in the order their monomials are first seen, which is
    deterministic; `nullspace` does not depend on row order, so no
    canonical sort is needed.  An unknown-free term with a nonzero
    coefficient can never cancel, so it marks the whole system as
    unsolvable.
    """
    rows, free = expr.linear_rows()
    if free:
        system.inconsistent = True
    system.rows.extend(rows)


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """The integer row a*x - b*y divided by the gcd of its entries."""
    out = {k: a * v for k, v in x.items()}
    get = out.get
    for k, v in y.items():
        nv = get(k, 0) - b * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    g = gcd(*out.values())
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def _integer_row(row: dict[int, Coef]) -> dict[int, int]:
    """A rational row scaled to coprime integers."""
    den = 1
    for c in row.values():
        if c.__class__ is not int:
            den = lcm(den, c.denominator)
    ints = {k: int(c * den) for k, c in row.items()}
    g = gcd(*ints.values())
    return {k: v // g for k, v in ints.items()} if g > 1 else ints


def _strip_pinned(rows: list[dict[int, Coef]]) -> tuple[set[int], list[dict[int, Coef]]]:
    """The unknowns that one-entry rows force to zero, and the other rows
    with those unknowns struck.

    Striking a pinned unknown can leave another one-entry row, which pins
    in turn; only live-entry counts change on the way.  A row ends with no
    live entry, and is dropped, or with two or more; one that held no
    pinned unknown comes back as it is.
    """
    holders: defaultdict[int, list[int]] = defaultdict(list)
    for i, r in enumerate(rows):
        for c in r:
            holders[c].append(i)
    live = [len(r) for r in rows]
    stack = [c for r in rows if len(r) == 1 for c in r]
    pinned: set[int] = set()
    while stack:
        c = stack.pop()
        if c in pinned:
            continue
        pinned.add(c)
        for i in holders[c]:
            live[i] -= 1
            if live[i] == 1:
                stack.extend(k for k in rows[i] if k not in pinned)
    left = [r if n == len(r) else {k: v for k, v in r.items() if k not in pinned}
            for r, n in zip(rows, live) if n]
    return pinned, left


def nullspace(system: LinearSystem) -> list[dict[str, Fraction]]:
    """Exact reduced nullspace basis; pivots follow unknown declaration order.

    Unknowns forced to zero are pinned first (`_strip_pinned`): a one-entry
    row sets its unknown to zero, and striking it from the other rows can
    force more.  Each pinned unknown becomes the pivot row {c: 1}.  Striking
    an entry is the row operation that subtracts a multiple of that unit
    row, so the row space is unchanged and the unit rows are rows of its
    reduced row echelon form.

    The rest of the form is built one row at a time: an incoming row is
    reduced by the pivot rows so far, its lowest remaining column becomes a
    new pivot, and that column is eliminated from the earlier pivot rows
    that hold it.  An index from each column to the pivot rows holding it
    finds those rows without a scan of every pivot, and gives each basis
    vector directly.  The reduced row echelon form of a row space is
    unique, so the basis depends neither on the row order nor on the order
    of the eliminations.  Rows are kept fraction-free, as coprime integers
    positive at the pivot; the quotients are taken once, for the basis.
    Each basis vector sets one free unknown to 1; that unknown is absent
    from every other vector, which fixes the echelon-normalized
    representatives.  The rows of `system` are not modified.
    """
    if system.inconsistent:
        return []
    pinned, rows = _strip_pinned(system.rows)
    pivots: dict[int, dict[int, int]] = {c: {c: 1} for c in pinned}
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for row in rows:
        r = _integer_row(row)
        for pc in [c for c in r if c in pivots]:
            p = pivots[pc]
            r = _combine(p[pc], r, r[pc], p)
        if not r:
            continue
        col = min(r)
        a = r[col]
        if a < 0:
            r = {k: -v for k, v in r.items()}
            a = -a
        for pc in holders.pop(col, ()):
            p = pivots[pc]
            q = pivots[pc] = _combine(a, p, p[col], r)
            for k in p.keys() - q.keys():
                holders[k].discard(pc)
            for k in q.keys() - p.keys():
                holders[k].add(pc)
        for k in r:
            if k != col:
                holders[k].add(col)
        pivots[col] = r
    basis = []
    for f, name in enumerate(system.unknowns):
        if f in pivots:
            continue
        vec = {name: Fraction(1)}
        for pc in sorted(holders[f]):
            p = pivots[pc]
            vec[system.unknowns[pc]] = Fraction(-p[f], p[pc])
        basis.append(vec)
    return basis


@dataclass
class SolutionBasis:
    """Echelon-normalized solutions, rendered back into target objects."""

    solutions: list

    def __len__(self) -> int:
        return len(self.solutions)


def _solve(residuals, tb: TemplateBuilder, render, verify) -> SolutionBasis:
    system = LinearSystem(list(tb.names), [])
    for residual in residuals:
        if residual:
            match_coefficients(residual, system)
    vectors = nullspace(system)
    solutions = []
    for vec in vectors:
        obj = render(vec)
        check = verify(obj)
        if any(check):
            raise VerificationFailed(f"solver produced a non-solution; residuals {[str(r) for r in check]}")
        solutions.append(obj)
    return SolutionBasis(solutions)


def _components(tb: TemplateBuilder, m: int):
    """Render a nullspace vector as the m components of a symmetry template."""
    def render(vec):
        values = tb.read_off(vec)
        return tuple(values.get(j, DiffPoly.zero()) for j in range(m))

    return render


def symmetries(sys: EvolutionSystem, a: Ansatz) -> SolutionBasis:
    """Solutions of the linearization equation within the ansatz space."""
    ctx = sys.ctx
    templates, tb = build_symmetry_template(ctx, a)
    ell = linearization(sys)
    residuals = ell.apply(templates)

    def verify(phi):
        return ell.apply(list(phi))

    return _solve(residuals, tb, _components(tb, ctx.m), verify)


def generating_functions(sys: EvolutionSystem, a: Ansatz) -> SolutionBasis:
    """Solutions of the cosymmetry equation D̄_t psi + ell_f^*(psi) = 0."""
    ctx = sys.ctx
    templates, tb = build_symmetry_template(ctx, a)
    residuals = gf_residual(sys, templates)

    def verify(psi):
        return gf_residual(sys, list(psi))

    return _solve(residuals, tb, _components(tb, ctx.m), verify)


def shadows(space, a: Ansatz) -> SolutionBasis:
    """Cartan-1-form-valued solutions of the shadow equation of `space`, an
    evolution system or a covering (the extended equation)."""
    ctx = space.ctx
    template, tb = build_shadow_template(ctx, a)
    residual = shadow_residual(template, space)
    rows = [p for cmap in residual.comps for _, p in sorted(cmap.items(), key=lambda kv: str(kv[0]))]

    def render(vec):
        values = tb.read_off(vec)
        comps = tuple({key: values[j, key] for key in cmap if (j, key) in values}
                      for j, cmap in enumerate(template.comps))
        return CartanShadow(ctx, comps)

    def verify(sh):
        res = shadow_residual(sh, space)
        return [p for cmap in res.comps for p in cmap.values()]

    return _solve(rows, tb, render, verify)


# --------------------------------------------------------------------------
# Exact span utilities (used by reports and tests)


def span_contains(basis: list[tuple[DiffPoly, ...]], target: tuple[DiffPoly, ...]) -> bool:
    """Exact membership of target in the rational span of the basis vectors.

    With the vectors as the columns of a linear system, target last, the
    target column is free in the reduced echelon form, and so enters a
    nullspace vector, exactly when it is a combination of the others.
    """
    if all(p.is_zero() for p in target):
        return True
    vecs = list(basis) + [target]
    rows: dict[tuple, dict[int, Coef]] = {}
    for k, vec in enumerate(vecs):
        for i, p in enumerate(vec):
            for f, c in p.terms.items():
                rows.setdefault((i, f), {})[k] = c
    names = [str(k) for k in range(len(vecs))]
    return any(names[-1] in v for v in nullspace(LinearSystem(names, list(rows.values()))))
