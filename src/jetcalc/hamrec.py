"""Coverings, recursion-shadow application, and Hamiltonian structures.

A covering extends an evolution system by nonlocal variables w^a whose
derivatives are prescribed: D̃_i = D̄_i + sum_a X_i^a d/dw^a.  Flatness
([D̃_i, D̃_j] = 0) is verified eagerly at construction.  A covering is again
an equation (`ctx`, `f`, `dsigma_f`, `check_internal`, `derive`), and its
`ctx` names its layers.  Applying a recursion shadow to a symmetry
contracts the Cartan coefficients and resolves each covering form by
integrating the corresponding relation equation in the spatial direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, count, islice
from typing import Sequence

from .dalg import JET, NONLOCAL, TESTCOV, DiffPoly, VarId
from .jetspace import EvolutionSystem, JetContext, NotInternal, RegimeMismatch, prefix_derivatives
from .cdiff import CartanShadow, CDiffOp, DimensionMismatch, contract, evolutionary, linearization
from .variational import (
    Density,
    NotExactDerivative,
    VerificationFailed,
    dx_inverse,
    euler,
    integrate_top_down,
    is_divergence,
    is_generating_function,
)
from .detsolve import LinearSystem, TemplateBuilder, match_coefficients, nullspace


class NotFlat(ValueError):
    """Extended derivatives fail to commute; carries the residue."""

    def __init__(self, layer: str, i: int, j: int, residue: DiffPoly):
        super().__init__(f"[D_{i}, D_{j}] on layer '{layer}' leaves residue {residue}")
        self.residue = residue


class ScopeError(ValueError):
    pass


class NonlocalObstruction(ValueError):
    """The contraction integrand is not an exact extended derivative in the
    current covering; a further nonlocal layer would be needed."""

    def __init__(self, remainder: DiffPoly):
        super().__init__(f"nonlocal obstruction; non-integrable remainder: {remainder}")
        self.remainder = remainder


class PreconditionFailed(ValueError):
    pass


@dataclass(frozen=True)
class Layer:
    name: str
    exprs: tuple[DiffPoly, ...]  # one per independent variable, ctx order


class Covering:
    """Nonlocal extension of an evolution system by ordered layers.

    Layer expressions may use internal coordinates and earlier layers only;
    the commutativity of all extended derivatives is checked on every layer
    generator at construction time.
    """

    def __init__(self, base: EvolutionSystem, layers: Sequence[Layer]):
        self.base = base
        self.f, self.dsigma_f = base.f, base.dsigma_f
        self.layers = tuple(layers)
        self.ctx = base.ctx.with_nonlocals([l.name for l in self.layers])
        for a, layer in enumerate(self.layers):
            if len(layer.exprs) != base.ctx.n:
                raise ScopeError(f"layer '{layer.name}' needs one expression per independent variable")
            for p in layer.exprs:
                self._check_scope(p, a, f"layer '{layer.name}'")
        for a, layer in enumerate(self.layers):
            for i in range(base.ctx.n):
                for j in range(i + 1, base.ctx.n):
                    lhs = self.derive(i, layer.exprs[j])
                    rhs = self.derive(j, layer.exprs[i])
                    if lhs != rhs:
                        raise NotFlat(layer.name, i, j, lhs - rhs)

    def _check_scope(self, p: DiffPoly, layer_index: int, where: str):
        t = self.ctx.time_index
        for v in p.variables():
            if v.kind == NONLOCAL and v.idx[0] >= layer_index:
                raise ScopeError(f"{where} refers to layer '{v.name}' not introduced before it")
            if v.kind == JET and t in v.idx[1]:
                raise NotInternal(f"{where} uses non-internal coordinate {v.name}")
            if v.kind == TESTCOV:
                raise ScopeError(f"{where} cannot contain test covectors")

    # The equation's interface, and the layers for the Cartan-form machinery.

    def check_internal(self, p: DiffPoly):
        """Internal coordinates of the equation and the covering's own
        nonlocal variables only."""
        self._check_scope(p, len(self.layers), "a covering expression")

    def expr(self, i: int, layer: int) -> DiffPoly:
        return self.layers[layer].exprs[i]

    def derive(self, i: int, p: DiffPoly) -> DiffPoly:
        """D̃_i p = D̄_i p + sum_a X_i^a dp/dw^a."""
        jets = self.base.image(i)
        t = self.ctx.time_index

        def image(v: VarId) -> DiffPoly | None:
            if v.kind == NONLOCAL:
                return self.layers[v.idx[0]].exprs[i]
            if v.kind == TESTCOV or v.kind == JET and t in v.idx[1]:
                self.check_internal(p)  # raises, naming the coordinate
            return jets(v)

        return p.derivation(image)

    def parse(self, text: str) -> DiffPoly:
        return self.ctx.parse(text)


def make_covering(base: EvolutionSystem, layers: Sequence[tuple[str, Sequence[DiffPoly]]]) -> Covering:
    return Covering(base, [Layer(name, tuple(exprs)) for name, exprs in layers])


# --------------------------------------------------------------------------
# Extended integration and shadow application


def dx_inverse_extended(cov: Covering, g: DiffPoly) -> DiffPoly:
    """Solve D̃_x h = g inside the covering ring (one spatial variable).

    Positive-order jets are integrated top-down as in the local case
    (`integrate_top_down` with the extended derivative and q the highest jet
    order in the layers' x-expressions, which also argues termination); the
    jet-free remainder (which may involve nonlocal variables) is matched
    against an exact linear ansatz over the remainder's variables, the
    nonlocal variables, and x.
    """
    ctx = cov.ctx
    if ctx.n != 2:
        raise ValueError("extended integration requires exactly one spatial variable")
    x = ctx.spatial_indices[0]
    q = max((len(v.idx[1]) for layer in cov.layers for v in layer.exprs[x].variables() if v.kind == JET),
            default=0)
    try:
        parts, g = integrate_top_down(cov, g, x, q)
    except NotExactDerivative as exc:
        raise NonlocalObstruction(exc.remainder) from None
    if not any(v.kind == NONLOCAL for v in g.variables()):
        try:
            return DiffPoly.sum(parts + [dx_inverse(ctx, g, x)])
        except NotExactDerivative:
            pass  # the preimage may still exist once nonlocal variables are allowed
    h2 = _remainder_ansatz(cov, g, x)
    if h2 is None:
        raise NonlocalObstruction(g)
    return DiffPoly.sum(parts + [h2])


def _remainder_ansatz(cov: Covering, r: DiffPoly, x: int) -> DiffPoly | None:
    """Exact linear solve of D̃_x h = r over a finite monomial pool."""
    ctx = cov.ctx
    pool_vars = sorted(r.variables() | {ctx.nonlocal_(a) for a in range(len(cov.layers))}
                       | {ctx.base(x)})
    degree = r.total_degree() + 1
    monos = [DiffPoly.monomial(combo)
             for d in range(1, degree + 1) for combo in combinations_with_replacement(pool_vars, d)]
    tb = TemplateBuilder()
    candidate = tb.combination(monos)
    rhs = tb.fresh()
    residual = cov.derive(x, candidate) - DiffPoly.var(rhs) * r
    system = LinearSystem(list(tb.names), [])
    match_coefficients(residual, system)
    for vec in nullspace(system):
        lam = vec.get(rhs.name)
        if lam:
            return tb.read_off({n: c / lam for n, c in vec.items()}).get(None, DiffPoly.zero())
    return None


def extended_linearization_residual(space, psi: Sequence[DiffPoly]) -> list[DiffPoly]:
    """Components of the linearization equation in the derivatives of
    `space`, extended on a covering: D̃_t psi^beta - sum df^beta/du^alpha_sigma
    D̃_sigma psi^alpha."""
    return linearization(space).apply(psi)


def apply_shadow(sh: CartanShadow, phi: Sequence[DiffPoly], space) -> list[DiffPoly]:
    """Act by a recursion shadow on a symmetry of `space`, an evolution
    system or a covering.

    Jet Cartan coefficients contract to D_sigma(phi); each covering form
    contributes a nonlocal factor a with D̃_x a = (evolutionary field of the
    lifted symmetry applied to X_x), resolved layer by layer through the
    extended integration.  The output (which may involve nonlocal variables)
    is post-verified against the linearization equation of `space`.
    """
    local, residues = contract(list(phi), sh)
    used_layers = {a for res in residues for a in res}
    resolved: dict[int, DiffPoly] = {}
    if used_layers:
        top = max(used_layers)
        if top >= len(space.ctx.nonlocals):
            raise RegimeMismatch(f"the space has no covering layer {top}")
        x = space.ctx.spatial_indices[0]
        derivs = [prefix_derivatives(space.derive, q) for q in phi]

        def image(v: VarId) -> DiffPoly | None:
            if v.kind == JET:
                return derivs[v.idx[0]](v.idx[1])
            return resolved[v.idx[0]] if v.kind == NONLOCAL else None

        for a in range(top + 1):
            resolved[a] = dx_inverse_extended(space, space.expr(x, a).derivation(image))
    result = [DiffPoly.sum([comp] + [coef * resolved[a] for a, coef in res.items()])
              for comp, res in zip(local, residues)]
    residual = extended_linearization_residual(space, result)
    if any(r for r in residual):
        raise VerificationFailed(f"shadow image is not a symmetry; residual {[str(r) for r in residual]}")
    return result


# --------------------------------------------------------------------------
# Hamiltonian structures


def is_skew_adjoint(op: CDiffOp) -> bool:
    return op.is_skew_adjoint()


def _test_covector_names(ctx: JetContext, n: int) -> list[str]:
    """The first n of p, q, r, p1, q1, r1, p2, ... not declared in ctx."""
    taken = set(ctx.independent) | set(ctx.dependent) | set(ctx.parameters) | set(ctx.nonlocals)
    names = (base + (str(k) if k else "") for k in count() for base in "pqr")
    return list(islice((name for name in names if name not in taken), n))


def _coefficient_linearization_applied(op: CDiffOp, phi: list[DiffPoly], psi: list[DiffPoly]) -> list[DiffPoly]:
    """(ell_A(phi))(psi): the operator whose coefficients are differentiated
    along the evolutionary field of phi, applied to psi."""
    ctx = op.ctx
    entries = [[{sigma: evolutionary(ctx, phi, a) for sigma, a in e.items()} for e in row] for row in op.entries]
    return CDiffOp(op.space, op.rows, op.cols, entries).apply(psi)


def jacobi_criterion_density(op: CDiffOp) -> Density:
    """The cyclic criterion density sum_cyc <ell_A(A(p))(q), r> built from
    three fresh covector arguments (full jet variables)."""
    ctx = op.ctx
    m = op.rows
    names = _test_covector_names(ctx, 3)
    covecs = [[DiffPoly.var(ctx.testcov(nm, c)) for c in range(m)] for nm in names]
    parts = []
    for k in range(3):
        p, q, r = covecs[k], covecs[(k + 1) % 3], covecs[(k + 2) % 3]
        ap = op.apply(p)
        lq = _coefficient_linearization_applied(op, ap, q)
        parts.extend(comp * rr for comp, rr in zip(lq, r))
    return Density(ctx, DiffPoly.sum(parts))


def jacobi_check(op: CDiffOp) -> bool:
    """Divergence test of the cyclic criterion density; the Euler test runs
    over the dependent variables and the covectors alike."""
    if not op.is_skew_adjoint():
        raise PreconditionFailed("operator is not skew-adjoint")
    return is_divergence(jacobi_criterion_density(op))


def hamiltonian_flow(op: CDiffOp, H: Density) -> EvolutionSystem:
    """The evolution system u_t = A(E(H))."""
    ctx = H.ctx
    grad = euler(H)
    if len(grad) != op.cols:
        raise DimensionMismatch("Euler image does not match the operator shape")
    f = op.apply(grad)
    return EvolutionSystem(ctx, f)


@dataclass(frozen=True)
class BracketResult:
    """A Poisson bracket representative and its Euler image; the bracket is
    zero in cohomology iff the representative is a total divergence."""

    density: Density
    euler_image: tuple[DiffPoly, ...]

    @property
    def is_trivial(self) -> bool:
        return all(c.is_zero() for c in self.euler_image)


def poisson_bracket(op: CDiffOp, H1: Density, H2: Density) -> BracketResult:
    """{H1, H2}_A = <A(E(H1)), E(H2)> as a density modulo divergences."""
    if not op.is_skew_adjoint():
        raise PreconditionFailed("operator is not skew-adjoint")
    ctx = H1.ctx
    g1 = euler(H1)
    g2 = euler(H2)
    flow = op.apply(g1)
    d = Density(ctx, DiffPoly.sum(a * b for a, b in zip(flow, g2)))
    return BracketResult(d, tuple(euler(d)))


def gf_to_symmetry(op: CDiffOp, sys: EvolutionSystem, psi: list[DiffPoly]) -> list[DiffPoly]:
    """Map a generating function of the flow to the symmetry A(psi)."""
    if not is_generating_function(sys, psi):
        raise VerificationFailed("input is not a generating function of the flow")
    s = op.apply(psi)
    s = [sys.to_internal(c) for c in s]
    residual = linearization(sys).apply(s)
    if any(r for r in residual):
        raise VerificationFailed(f"image is not a symmetry; residual {[str(r) for r in residual]}")
    return s
