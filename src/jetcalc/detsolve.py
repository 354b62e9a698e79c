"""Determining equations: ansatz templates, coefficient matching, nullspaces.

The solvers share one pipeline: build a polynomial template with fresh
unknown coefficients, push it through the relevant linear operator
(linearization, cosymmetry equation, or shadow equation), match the
coefficient of every known monomial to zero, and extract an exact rational
nullspace.  Each piece of work is done once.  The monomial pool is built
packed (`DiffPoly.pool`).  The slots of a symmetry template are one pool
over consecutive unknowns, so slot j is slot 0 with every unknown index
raised by j*N; the derivations treat unknowns as constants, so slot 0 is
derived once and slot j reads those derivatives offset
(`slot_derivatives`).  The nullspace is one elimination loop that takes
the shortest rows first, so an unknown that a one-entry row forces to
zero becomes a unit pivot and is struck from the other pivot rows as
soon as it is found; there is no separate pinning pass.  A template
unknown is its column index: in a template over a pool of N monomials,
unknown k multiplies monomial k % N of slot k // N, so a solution is read
off the pool and the slot keys over the nonzero entries of its nullspace
vector, not substituted into the whole template.  Every emitted solution
is still re-substituted into its determining equation before being
returned; the solver never trusts its own elimination.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, gcd, prod
from typing import Callable, Hashable, Mapping

from .dalg import MAX_UNKNOWNS, Coef, DiffPoly, Immutable, MultiIndex, NonlinearInUnknowns, param_var
from .jetspace import EvolutionSystem, JetContext, multi_indices_up_to, prefix_derivatives
from .cdiff import (
    CartanShadow,
    _collect,
    linearization,
    shadow_residual,
)
from .variational import VerificationFailed, gf_residual


class Ansatz(Immutable):
    """Bounds of the search space.

    jet_order: max |sigma| of jet variables used (and of Cartan form indices
    for shadows); poly_deg: max total degree in jet variables; base_deg: max
    total degree in the explicit base variables; include_params adds declared
    parameters to the base-variable pool.
    """

    __slots__ = ("jet_order", "poly_deg", "base_deg", "include_params")

    def __init__(self, jet_order: int = 1, poly_deg: int = 1, base_deg: int = 0, include_params: bool = False):
        if min(jet_order, poly_deg, base_deg) < 0:
            raise ValueError("ansatz bounds must be nonnegative")
        object.__setattr__(self, "jet_order", jet_order)
        object.__setattr__(self, "poly_deg", poly_deg)
        object.__setattr__(self, "base_deg", base_deg)
        object.__setattr__(self, "include_params", include_params)

    def as_dict(self) -> dict:
        return {"jet-order": self.jet_order, "poly-deg": self.poly_deg, "base-deg": self.base_deg}


def ansatz_monomials(ctx: JetContext, a: Ansatz, slots: int = 1) -> list[DiffPoly]:
    """The monomial pool over internal jets (spatial multi-indices only),
    deterministically ordered by the canonical monomial order (degree
    descending, then the fixed variable order): `DiffPoly.pool`.

    ValueError, before any monomial is built, if `slots` templates over the
    pool need more unknowns than a template holds.  The jets and the base
    variables share no variable, so the pool has exactly
    prod C(|group| + deg, deg) monomials."""
    jets = [ctx.jet(j, s) for j in range(ctx.m) for s in multi_indices_up_to(ctx.spatial_indices, a.jet_order)]
    bases = [ctx.base(i) for i in range(ctx.n)]
    if a.include_params:
        bases += [param_var(p) for p in ctx.parameters]
    groups = [(jets, a.poly_deg), (bases, a.base_deg)]
    unknowns = slots * prod(comb(len(vs) + deg, deg) for vs, deg in groups)
    if unknowns > MAX_UNKNOWNS:
        raise ValueError(f"the ansatz needs {unknowns} unknowns, but a template holds at most {MAX_UNKNOWNS}")
    return DiffPoly.pool(groups)


class TemplateBuilder:
    """A template over a pool of N monomials and an ordered list of slot
    keys (a component, or a component and a Cartan key): unknown k
    multiplies monomial k % N of slot k // N.  Slot 0 is one `combination`
    of the pool and slot s is slot 0 with its unknowns offset by s*N."""

    __slots__ = ("pool", "slots")

    def __init__(self, pool: list[DiffPoly], slots: list[Hashable]):
        self.pool = pool
        self.slots = slots

    def templates(self) -> list[DiffPoly]:
        first = DiffPoly.combination(self.pool, 0)
        n = len(self.pool)
        return [first] + [first.offset_unknowns(s * n) for s in range(1, len(self.slots))]

    def read_off(self, vec: Mapping[int, Coef]) -> dict[Hashable, DiffPoly]:
        """The template at the unknown values of `vec` (absent ones are
        zero), keyed by slot: sum_k vec[k] * pool[k % N] over the entries of
        `vec` only; zero slots are left out."""
        n = len(self.pool)
        return _collect((self.slots[k // n], self.pool[k % n].scale(c)) for k, c in vec.items())


def build_symmetry_template(ctx: JetContext, a: Ansatz) -> tuple[list[DiffPoly], TemplateBuilder]:
    """One template per dependent component over consecutive unknowns: slot
    j is slot 0 with every unknown index raised by j*N, N the pool size."""
    tb = TemplateBuilder(ansatz_monomials(ctx, a, ctx.m), list(range(ctx.m)))
    return tb.templates(), tb


def slot_derivatives(space, templates: list[DiffPoly]) -> list[Callable[[MultiIndex], DiffPoly]]:
    """Derivatives of the slots of `build_symmetry_template`, in the
    derivatives of `space`: one `prefix_derivatives(space.derive, .)` for
    slot 0, and for slot j the view that offsets its values by j*N
    unknowns (`DiffPoly.offset_unknowns`).  D_sigma(slot j) is that
    offset, for D̄_t too, since no derivation acts on an unknown."""
    first = prefix_derivatives(space.derive, templates[0])
    stride = len(templates[0])  # one term per monomial of the pool
    views = [first] + [lambda sigma, k=j * stride: first(sigma).offset_unknowns(k)
                       for j in range(1, len(templates))]
    if any(view(()) != t for view, t in zip(views, templates)):
        raise ValueError("the slots are not offsets of slot 0")
    return views


def build_shadow_template(ctx: JetContext, a: Ansatz) -> tuple[CartanShadow, TemplateBuilder]:
    """One coefficient template per Cartan form om^alpha_sigma (|sigma| <=
    jet_order) and per name in `ctx.nonlocals`, for every output component.

    Unknowns are declared covering forms first and jet forms in ascending
    order, so that the echelon-normalized basis comes out monic in the
    highest Cartan coefficient (the customary recursion-operator shape).
    """
    sigmas = multi_indices_up_to(ctx.spatial_indices, a.jet_order)
    keys = ([ctx.nonlocal_(layer) for layer in range(len(ctx.nonlocals))]
            + [ctx.jet(alpha, s) for alpha in range(ctx.m) for s in sigmas])
    slots = [(j, v) for j in range(ctx.m) for v in keys]
    tb = TemplateBuilder(ansatz_monomials(ctx, a, len(slots)), slots)
    templates = tb.templates()
    return CartanShadow(ctx, tuple(dict(zip(keys, templates[j * len(keys):])) for j in range(ctx.m))), tb


class LinearSystem:
    """Sparse homogeneous integer rows over the unknowns range(n), by column index."""

    __slots__ = ("unknowns", "rows", "inconsistent")

    def __init__(self, n: int, rows: list[dict[int, int]], inconsistent: bool = False):
        self.unknowns = range(n)
        self.rows = rows
        self.inconsistent = inconsistent


def match_coefficients(expr: DiffPoly, system: LinearSystem):
    """Append one integer row per distinct known monomial of an
    unknown-linear expr (`DiffPoly.linear_rows`); column k of the system is
    template unknown k.

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


def nullspace(system: LinearSystem) -> list[dict[int, Fraction]]:
    """Exact reduced nullspace basis of integer rows, keyed by column; pivots
    follow column order.

    One loop builds the reduced row echelon form a row at a time.  The rows
    go in shortest first, so the one-entry rows, which force their unknown
    to zero, come first.  A forced unknown c gets the unit pivot row {c: 1}
    and is struck from every pivot row that holds it: that is the row
    operation subtracting a multiple of the unit row.  A pivot row left
    with one entry is a unit row in turn.  An incoming row drops its unit
    columns (it is skipped if nothing is left), is reduced by the other
    pivot rows, and its lowest remaining column becomes a new pivot, which
    is eliminated from the earlier pivot rows that hold it.  An index from
    each column to the pivot rows holding it finds those rows without a
    scan of every pivot, and gives each basis vector directly.  The reduced
    row echelon form of a row space is unique, so the basis depends neither
    on the row order nor on the order of the eliminations.  Rows stay
    fraction-free, as integers positive at the pivot, made coprime when a
    pivot is stored.  The quotients are taken once, for the basis.  Each basis
    vector sets one free unknown to 1; that unknown is absent from every
    other vector, which fixes the echelon-normalized representatives.  The
    rows of `system` are not modified.
    """
    if system.inconsistent:
        return []
    pivots: dict[int, dict[int, int]] = {}
    holders: defaultdict[int, set[int]] = defaultdict(set)
    units: set[int] = set()

    def pin(c: int):
        units.add(c)
        pivots[c] = {c: 1}
        for pc in holders.pop(c, ()):
            p = pivots[pc]
            del p[c]
            if len(p) == 1:
                pin(pc)

    for row in sorted(system.rows, key=len):
        if units.issuperset(row):
            continue
        r = {k: v for k, v in row.items() if k not in units}
        for pc in [c for c in r if c in pivots]:
            p = pivots[pc]
            r = _combine(p[pc], r, r[pc], p)
        if not r:
            continue
        col = min(r)
        if len(r) == 1:
            pin(col)
            continue
        g = gcd(*r.values())
        a = r[col]
        if a < 0:
            g = -g
        if g != 1:
            r = {k: v // g for k, v in r.items()}
            a //= g
        for pc in holders.pop(col, ()):
            p = pivots[pc]
            q = pivots[pc] = _combine(a, p, p[col], r)
            for k in p.keys() - q.keys():
                holders[k].discard(pc)
            for k in q.keys() - p.keys():
                holders[k].add(pc)
            if len(q) == 1:
                pin(pc)
        for k in r:
            if k != col:
                holders[k].add(col)
        pivots[col] = r
    basis = []
    for f in system.unknowns:
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for pc in sorted(holders[f]):
            p = pivots[pc]
            vec[pc] = Fraction(-p[f], p[pc])
        basis.append(vec)
    return basis


class SolutionBasis:
    """Echelon-normalized solutions, rendered back into target objects."""

    __slots__ = ("solutions",)

    def __init__(self, solutions: list):
        self.solutions = solutions

    def __len__(self) -> int:
        return len(self.solutions)


def _solve(residuals, tb: TemplateBuilder, render, verify) -> SolutionBasis:
    system = LinearSystem(len(tb.pool) * len(tb.slots), [])
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
    residuals = ell.apply_derivatives(slot_derivatives(sys, templates))

    def verify(phi):
        return ell.apply(list(phi))

    return _solve(residuals, tb, _components(tb, ctx.m), verify)


def generating_functions(sys: EvolutionSystem, a: Ansatz) -> SolutionBasis:
    """Solutions of the cosymmetry equation D̄_t psi + ell_f^*(psi) = 0."""
    ctx = sys.ctx
    templates, tb = build_symmetry_template(ctx, a)
    residuals = gf_residual(sys, slot_derivatives(sys, templates))

    def verify(psi):
        return gf_residual(sys, [prefix_derivatives(sys.derive, p) for p in psi])

    return _solve(residuals, tb, _components(tb, ctx.m), verify)


def shadows(space, a: Ansatz) -> SolutionBasis:
    """Cartan-1-form-valued solutions of the shadow equation of `space`, an
    evolution system or a covering (the extended equation)."""
    ctx = space.ctx
    template, tb = build_shadow_template(ctx, a)
    residual = shadow_residual(template, space)
    rows = [p for cmap in residual.comps for p in cmap.values()]

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
    nullspace vector, exactly when it is a combination of the others.  The
    rows are built as the solvers build theirs: the i-th components of the
    vectors are one `DiffPoly.combination`, matched to zero.
    """
    vecs = list(basis) + [target]
    system = LinearSystem(len(vecs), [])
    for comps in zip(*vecs):
        match_coefficients(DiffPoly.combination(comps, 0), system)
    return any(len(basis) in v for v in nullspace(system))
