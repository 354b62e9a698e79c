"""Coverings, recursion-shadow application, and Hamiltonian structures.

A covering extends an evolution system by nonlocal variables w^a whose
derivatives are prescribed: D̃_i = D̄_i + sum_a X_i^a d/dw^a.  Flatness
([D̃_i, D̃_j] = 0) is verified eagerly at construction.  A covering is again
an equation (`ctx`, `f`, `dsigma_f`, `check_internal`, `image`, `derive`),
and its `ctx` names its layers; `derive(i, p)` is the derivation of the
image map `image(i)`, which the Cartan-form calculus reads too.  Applying
a recursion shadow to a symmetry contracts the Cartan coefficients and
resolves each covering form by integrating the corresponding relation
equation in the spatial direction.
The Jacobi criterion takes its three covector arguments as dependent
variables of a widened context, on which the operator is re-hosted.  Its
density is linear in each covector, so the Euler components of the first
covector alone decide whether it is a total divergence.
The iterates of a shadow (`shadow_iterates`) hold one derivative memo
each, which lives for one iterate: the derivatives that certify iterate k
also contract iterate k + 1 and give its layer images.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, count, islice
from typing import Callable, Iterator, Sequence

from .dalg import JET, NONLOCAL, DiffPoly, Immutable, MultiIndex, VarId
from .jetspace import EvolutionSystem, JetContext, NotInternal, RegimeMismatch, prefix_derivatives
from .cdiff import CartanShadow, CDiffOp, DimensionMismatch, contract, evolutionary, linearization
from .variational import (
    Density,
    NotExactDerivative,
    VerificationFailed,
    euler,
    integrate_top_down,
    is_generating_function,
)
from .detsolve import LinearSystem, match_coefficients, nullspace


class NotFlat(ValueError):
    """Extended derivatives fail to commute; carries the residue."""

    def __init__(self, layer: str, i: int, j: int, residue: DiffPoly):
        super().__init__(f"[D_{i}, D_{j}] on layer '{layer}' leaves residue {residue}")
        self.residue = residue


class ScopeError(ValueError):
    pass


class NonlocalObstruction(VerificationFailed):
    """The contraction integrand is not an exact extended derivative in the
    current covering; a further nonlocal layer would be needed."""

    def __init__(self, remainder: DiffPoly):
        super().__init__(f"nonlocal obstruction; non-integrable remainder: {remainder}")
        self.remainder = remainder


class PreconditionFailed(VerificationFailed):
    pass


class Layer(Immutable):
    """A covering variable and its derivatives, one per independent
    variable in ctx order."""

    __slots__ = ("name", "exprs")

    def __init__(self, name: str, exprs: tuple[DiffPoly, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "exprs", exprs)


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

    # The equation's interface, and the layers for the Cartan-form machinery.

    def check_internal(self, p: DiffPoly):
        """Internal coordinates of the equation and the covering's own
        nonlocal variables only."""
        self._check_scope(p, len(self.layers), "a covering expression")

    def expr(self, i: int, layer: int) -> DiffPoly:
        return self.layers[layer].exprs[i]

    def image(self, i: int) -> Callable[[VarId], DiffPoly | None]:
        """The image map of D̃_i: the equation's D̄_i, and w^a -> X_i^a."""
        jets = self.base.image(i)
        t = self.ctx.time_index

        def image(v: VarId) -> DiffPoly | None:
            if v.kind == NONLOCAL:
                if v.idx[0] >= len(self.layers):
                    self.check_internal(DiffPoly.var(v))  # raises ScopeError, naming the layer
                return self.layers[v.idx[0]].exprs[i]
            if v.kind == JET and t in v.idx[1]:
                self.check_internal(DiffPoly.var(v))  # raises, naming the coordinate
            return jets(v)

        return image

    def derive(self, i: int, p: DiffPoly) -> DiffPoly:
        """D̃_i p = D̄_i p + sum_a X_i^a dp/dw^a."""
        return p.derivation(self.image(i))

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
    if not g.has_kind(JET) and not g.has_kind(NONLOCAL):
        return DiffPoly.sum(parts + [g.antiderivative(ctx.base(x))])
    h2 = _remainder_ansatz(cov, g, x)
    if h2 is None:
        raise NonlocalObstruction(g)
    return DiffPoly.sum(parts + [h2])


def _remainder_ansatz(cov: Covering, r: DiffPoly, x: int) -> DiffPoly | None:
    """Exact linear solve of D̃_x h = lambda*r over a pool of N monomials:
    h is over unknowns 0..N-1, and lambda is unknown N."""
    ctx = cov.ctx
    pool_vars = sorted(r.variables() | {ctx.nonlocal_(a) for a in range(len(cov.layers))}
                       | {ctx.base(x)})
    degree = r.total_degree() + 1
    monos = [DiffPoly.monomial(combo)
             for d in range(1, degree + 1) for combo in combinations_with_replacement(pool_vars, d)]
    n = len(monos)
    residual = cov.derive(x, DiffPoly.combination(monos, 0)) - DiffPoly.combination([r], n)
    system = LinearSystem(n + 1, [])
    match_coefficients(residual, system)
    for vec in nullspace(system):
        lam = vec.get(n)
        if lam:
            return DiffPoly.sum(monos[k].scale(c / lam) for k, c in vec.items() if k < n)
    return None


def extended_linearization_residual(space, derivs: Sequence[Callable[[MultiIndex], DiffPoly]]) -> list[DiffPoly]:
    """Components of the linearization equation in the derivatives of
    `space`, extended on a covering: D̃_t psi^beta - sum df^beta/du^alpha_sigma
    D̃_sigma psi^alpha, with psi given by its memo of derivatives
    derivs[alpha](sigma) = D̃_sigma psi^alpha (`prefix_derivatives`)."""
    return linearization(space).apply_derivatives(derivs)


def apply_shadow(sh: CartanShadow, phi: Sequence[DiffPoly], space) -> list[DiffPoly]:
    """Act once by a recursion shadow on a symmetry of `space`, an
    evolution system or a covering: the first of `shadow_iterates`."""
    return next(shadow_iterates(sh, phi, space))


def shadow_iterates(sh: CartanShadow, phi: Sequence[DiffPoly], space) -> Iterator[list[DiffPoly]]:
    """R(phi), R(R(phi)), ... for the recursion shadow R, each certified.

    Jet Cartan coefficients contract to D_sigma(phi); each covering form
    contributes a nonlocal factor a with D̃_x a = (evolutionary field of the
    lifted symmetry applied to X_x), resolved layer by layer through the
    extended integration.  Each output (which may involve nonlocal
    variables) is post-verified against the linearization equation of
    `space`.

    One derivative memo per iterate: the memo that certifies iterate k also
    gives the contraction and the layer images of iterate k + 1, and is
    dropped when iterate k + 1 has its own, so at most one lives at a time
    and none outlives the generator.
    """
    derivs = [prefix_derivatives(space.derive, q) for q in phi]
    while True:
        local, residues = contract(derivs, sh)
        used_layers = {a for res in residues for a in res}
        resolved: dict[int, DiffPoly] = {}
        if used_layers:
            top = max(used_layers)
            if top >= len(space.ctx.nonlocals):
                raise RegimeMismatch(f"the space has no covering layer {top}")
            x = space.ctx.spatial_indices[0]

            def image(v: VarId) -> DiffPoly | None:
                if v.kind == JET:
                    return derivs[v.idx[0]](v.idx[1])
                return resolved[v.idx[0]] if v.kind == NONLOCAL else None

            for a in range(top + 1):
                resolved[a] = dx_inverse_extended(space, space.expr(x, a).derivation(image))
        result = [DiffPoly.sum([comp] + [coef * resolved[a] for a, coef in res.items()])
                  for comp, res in zip(local, residues)]
        derivs = [prefix_derivatives(space.derive, q) for q in result]
        residual = extended_linearization_residual(space, derivs)
        if any(r for r in residual):
            raise VerificationFailed(f"shadow image is not a symmetry; residual {[str(r) for r in residual]}")
        yield result


# --------------------------------------------------------------------------
# Hamiltonian structures


def is_skew_adjoint(op: CDiffOp) -> bool:
    return op.is_skew_adjoint()


def _test_covector_names(ctx: JetContext, n: int) -> list[str]:
    """The first n of p, q, r, p1, q1, r1, p2, ... not declared in ctx."""
    taken = set(ctx.independent) | set(ctx.dependent) | set(ctx.parameters) | set(ctx.nonlocals)
    names = (base + (str(k) if k else "") for k in count() for base in "pqr")
    return list(islice((name for name in names if name not in taken), n))


def jacobi_criterion_density(op: CDiffOp) -> Density:
    """The cyclic criterion density sum_cyc <X_{A(p)}(A(q)), r> in three
    covector arguments p, q, r of m components each, X_phi the evolutionary
    derivation of phi.  They are the dependent variables m + k*m + c of a
    widened context, which adds 3m fresh names to the operator's dependent
    variables; the operator is re-hosted on that free context, and the
    density lives on it.  A(p) has no covector components, so X_{A(p)}
    differentiates the coefficients of A alone: X_{A(p)}(A(q)) is
    ell_A(A(p))(q).  A is m x m, with m the number of dependent variables:
    DimensionMismatch otherwise."""
    ctx = op.ctx
    m = ctx.m
    if (op.rows, op.cols) != (m, m):
        raise DimensionMismatch(f"a {op.rows}x{op.cols} operator on {m} dependent variables has no Jacobi criterion")
    wide = JetContext(ctx.independent, ctx.dependent + tuple(_test_covector_names(ctx, 3 * m)),
                      ctx.parameters, ctx.has_time)
    op = CDiffOp(wide, op.rows, op.cols, op.entries)
    covecs = [[DiffPoly.var(wide.jet(m + k * m + c)) for c in range(m)] for k in range(3)]
    images = [op.apply(c) for c in covecs]
    parts = []
    for k in range(3):
        field = images[k] + [DiffPoly.zero()] * (3 * m)
        parts.extend(evolutionary(wide, field, aq) * r for aq, r in zip(images[(k + 1) % 3], covecs[(k + 2) % 3]))
    return Density(wide, DiffPoly.sum(parts))


def jacobi_check(op: CDiffOp) -> bool:
    """Divergence test of the cyclic criterion density, decided by the Euler
    components of the first covector p alone (dependent variables m..2m-1
    of the widened context); PreconditionFailed unless op is skew-adjoint.

    The coefficients of A hold no covector, so the density is linear in p:
    L = sum_sigma a_sigma D_sigma p^c with p-free a_sigma.  Integrating by
    parts, L = sum_c E_{p^c}(L) p^c plus a total divergence, so L is a
    divergence if and only if E_p(L) = 0 (Olver, Applications of Lie Groups
    to Differential Equations, Thm 4.7).  That is the verdict of
    `is_divergence` over every component, which stays the reference."""
    if not op.is_skew_adjoint():
        raise PreconditionFailed("operator is not skew-adjoint")
    m = op.rows
    return all(c.is_zero() for c in euler(jacobi_criterion_density(op), range(m, 2 * m)))


def hamiltonian_flow(op: CDiffOp, H: Density) -> EvolutionSystem:
    """The evolution system u_t = A(E(H))."""
    ctx = H.ctx
    grad = euler(H)
    if len(grad) != op.cols:
        raise DimensionMismatch("Euler image does not match the operator shape")
    f = op.apply(grad)
    return EvolutionSystem(ctx, f)


class BracketResult(Immutable):
    """A Poisson bracket representative and its Euler image; the bracket is
    zero in cohomology iff the representative is a total divergence."""

    __slots__ = ("density", "euler_image")

    def __init__(self, density: Density, euler_image: tuple[DiffPoly, ...]):
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "euler_image", euler_image)

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
