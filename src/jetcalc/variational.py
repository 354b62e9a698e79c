"""Euler operator, divergence tests, homotopy reconstruction, and currents.

Densities are plain coefficient polynomials (the top-degree horizontal form
they multiply is implicit).  The Euler operator has one component per
dependent variable of the density's context.  A covector argument of an
operator identity (Green's formula, the Jacobi criterion) is a dependent
variable of a widened context, so the divergence test covers it unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .dalg import JET, NONLOCAL, DiffPoly, Immutable, MultiIndex
from .jetspace import EvolutionSystem, GeneralSystem, JetContext, prefix_derivatives, total_derivative
from .cdiff import flow_linearization, linearization


class VerificationFailed(ValueError):
    """A check ran and said no: a computed result failed the exact check of
    its defining equation, or an input failed the property asked of it.
    The base class of every refutation, which the CLI reports with exit 1.

    Raised, never asserted, so that no certificate disappears under
    `python -O`."""


class NotExactDerivative(VerificationFailed):
    """Carries the non-integrable remainder."""

    def __init__(self, remainder: DiffPoly):
        super().__init__(f"not an exact derivative; remainder: {remainder}")
        self.remainder = remainder


class NotVariational(VerificationFailed):
    pass


class NotConserved(VerificationFailed):
    pass


class NotGeneratingFunction(VerificationFailed):
    pass


class Density(Immutable):
    """Lagrangian density: the coefficient of the volume form."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: JetContext, value: DiffPoly):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "value", value)

    def __eq__(self, other) -> bool:
        return type(other) is Density and self.ctx == other.ctx and self.value == other.value


class ConservedCurrent(Immutable):
    """Current components with the time component first (J_t, J_x1, ...)."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[DiffPoly, ...]):
        object.__setattr__(self, "components", components)

    def __eq__(self, other) -> bool:
        return type(other) is ConservedCurrent and self.components == other.components


def euler(density: Density, components: Sequence[int] | None = None) -> list[DiffPoly]:
    """Variational derivative: component j is sum_sigma (-D)_sigma dL/du^j_sigma,
    for each dependent variable j of the density's context, or for the
    `components` requested, in their order.

    A component is built by nested differencing over the prefixes tau of
    the (sorted) multi-indices sigma of the jets u^j_sigma in L:
    S(tau) = dL/du^j_tau - sum_i D_i S(tau + i) over the prefixes tau + i
    that extend tau, and E_j(L) = S(()).  That takes one total derivative
    per prefix, where differentiating each dL/du^j_sigma on its own takes
    |sigma|.  The signs ride on the partials: T(tau) = (-1)^|tau| S(tau)
    is (-1)^|tau| dL/du^j_tau + sum_i D_i T(tau + i).
    """
    ctx, L = density.ctx, density.value
    if L.has_kind(NONLOCAL):
        raise ValueError("Euler operator is defined for covering-free densities")
    wanted = range(ctx.m) if components is None else components
    if not all(0 <= j < ctx.m for j in wanted):
        raise ValueError(f"Euler components must lie in range({ctx.m}), not {list(wanted)}")
    partials: dict[int, dict[MultiIndex, DiffPoly]] = {j: {} for j in wanted}
    for v in L.variables():
        if v.kind == JET and v.idx[0] in partials:
            sigma = v.idx[1]
            partials[v.idx[0]][sigma] = L.partial(v).scale(-1 if len(sigma) % 2 else 1)
    return [_nested_differences(ctx, partials[j]) for j in wanted]


def _nested_differences(ctx: JetContext, partials: dict[MultiIndex, DiffPoly]) -> DiffPoly:
    """T(()) from the signed partials (-1)^|sigma| dL/du_sigma, keyed by
    sigma: the longest prefixes first, each summed and derived once into
    the prefix one shorter."""
    pending: dict[MultiIndex, list[DiffPoly]] = {}
    for sigma, p in partials.items():
        pending.setdefault(sigma, []).append(p)
        for k in range(len(sigma)):
            pending.setdefault(sigma[:k], [])
    for tau in sorted(pending, key=len, reverse=True):
        if tau:
            t = DiffPoly.sum(pending.pop(tau))
            if t:
                pending[tau[:-1]].append(total_derivative(ctx, tau[-1], t))
    return DiffPoly.sum(pending.get((), ()))


def is_divergence(density: Density) -> bool:
    """True iff every Euler component vanishes."""
    return all(comp.is_zero() for comp in euler(density))


def dx_inverse(ctx: JetContext, g: DiffPoly, i: int = 0) -> DiffPoly:
    """Find h with D_i h = g: `DiffPoly.integration` with the total
    derivative, then the antiderivative in x_i of the jet-free remainder."""
    if g.has_kind(NONLOCAL):
        raise ValueError("use the covering-aware inverse for nonlocal expressions")
    parts, g, _ = g.integration(ctx.derive, ctx.jet, i)
    if g.has_kind(JET):
        raise NotExactDerivative(g)
    parts.append(g.antiderivative(ctx.base(i)))
    return DiffPoly.sum(parts)


def self_adjoint_test(ctx: JetContext, psi: list[DiffPoly]) -> bool:
    """True iff the linearization of psi equals its adjoint in normal form."""
    for p in psi:
        if p.has_kind(NONLOCAL):
            raise ValueError("self-adjointness is defined for covering-free sections")
    ell = linearization(GeneralSystem(ctx, tuple(psi)))
    return ell == ell.adjoint()


def homotopy_lagrangian(ctx: JetContext, psi: list[DiffPoly]) -> Density:
    """Reconstruct L with euler(L) = psi along the fiber-scaling path.

    L = integral_0^1 sum_j u^j psi^j[u_sigma <- s u_sigma] ds.  The scaling
    multiplies a term of jet degree d by s^d, whose integral is 1/(d+1), so
    L = sum_j u^j sum_d psi^j_d / (d+1) over the parts psi^j_d of jet degree
    d (Olver, Applications of Lie Groups to Differential Equations, 5.4).
    Requires psi to pass the self-adjointness test (inverse problem
    solvability); NotVariational otherwise.
    """
    if not self_adjoint_test(ctx, psi):
        raise NotVariational("linearization of the section is not self-adjoint")
    parts = []
    for j, p in enumerate(psi):
        weighted = DiffPoly.sum(part.scale(Fraction(1, d + 1)) for d, part in p.homogeneous_parts(JET).items())
        parts.append(DiffPoly.var(ctx.jet(j)) * weighted)
    return Density(ctx, DiffPoly.sum(parts))


def divergence_residual(sys: EvolutionSystem, J: ConservedCurrent) -> DiffPoly:
    """D̄_t J_t + sum_k D_k J_k for a time-first current."""
    ctx = sys.ctx
    if len(J.components) != ctx.n:
        raise ValueError(f"current needs {ctx.n} components")
    directions = (ctx.time_index,) + ctx.spatial_indices
    return DiffPoly.sum(sys.derive(i, J_i) for i, J_i in zip(directions, J.components))


def verify_conserved_current(sys: EvolutionSystem, J: ConservedCurrent) -> bool:
    return divergence_residual(sys, J).is_zero()


def gf_residual(sys: EvolutionSystem, derivs: Sequence[Callable[[MultiIndex], DiffPoly]]) -> list[DiffPoly]:
    """Components of D̄_t psi + ell_f^*(psi); zero iff psi generates a
    conservation law candidate (cosymmetry equation).  psi comes as its
    memo of derivatives derivs[j](sigma) = D̄_sigma psi^j
    (`prefix_derivatives(sys.derive, psi^j)`), which a caller may share."""
    t = (sys.ctx.time_index,)
    applied = flow_linearization(sys).adjoint().apply_derivatives(derivs)
    return [d(t) + a for d, a in zip(derivs, applied)]


def _gf_residual_of(sys: EvolutionSystem, psi: list[DiffPoly]) -> list[DiffPoly]:
    return gf_residual(sys, [prefix_derivatives(sys.derive, p) for p in psi])


def is_generating_function(sys: EvolutionSystem, psi: list[DiffPoly]) -> bool:
    return all(r.is_zero() for r in _gf_residual_of(sys, psi))


def generating_function(sys: EvolutionSystem, J: ConservedCurrent) -> list[DiffPoly]:
    """psi = euler of the time component; post-verified against the
    cosymmetry equation."""
    if not verify_conserved_current(sys, J):
        raise NotConserved(f"current residual: {divergence_residual(sys, J)}")
    ctx = sys.ctx
    psi = euler(Density(ctx, J.components[0]))
    if not is_generating_function(sys, psi):
        raise VerificationFailed(
            f"generating function failed its defining equation; residual {[str(r) for r in _gf_residual_of(sys, psi)]}")
    return psi


def current_from_gf(sys: EvolutionSystem, psi: list[DiffPoly]) -> ConservedCurrent:
    """Reassemble a conserved current from its generating function (n = 2).

    The time component is reconstructed by the homotopy formula; the spatial
    one by integrating -D̄_t of it in x.  The result is the canonical
    representative produced by dx_inverse; currents are only defined modulo
    trivial ones.
    """
    ctx = sys.ctx
    if ctx.n != 2:
        raise ValueError("current reconstruction requires exactly one spatial variable")
    if not is_generating_function(sys, psi):
        raise NotGeneratingFunction(
            f"cosymmetry residual: {[str(r) for r in _gf_residual_of(sys, psi)]}")
    if all(p.is_zero() for p in psi):
        return ConservedCurrent((DiffPoly.zero(), DiffPoly.zero()))
    try:
        j0 = homotopy_lagrangian(ctx, psi).value
    except NotVariational:
        raise NotGeneratingFunction("section is not a variational derivative") from None
    jx = dx_inverse(ctx, -sys.restricted_time(j0), ctx.spatial_indices[0])
    J = ConservedCurrent((j0, jx))
    residual = divergence_residual(sys, J)
    if residual:
        raise VerificationFailed(f"reconstructed current failed verification; residual {residual}")
    return J
