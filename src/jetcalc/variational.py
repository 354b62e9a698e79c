"""Euler operator, divergence tests, homotopy reconstruction, and currents.

Densities are plain coefficient polynomials (the top-degree horizontal form
they multiply is implicit).  The Euler operator treats test covectors as
additional dependent variables, which makes the divergence test usable for
operator identities with free covector arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .dalg import (
    HOMOTOPY_SCALAR,
    JET,
    NONLOCAL,
    TESTCOV,
    DiffPoly,
    MultiIndex,
    VarId,
)
from .jetspace import EvolutionSystem, GeneralSystem, JetContext, prefix_derivatives, total_derivative_iterated
from .cdiff import flow_linearization, linearization


class NotExactDerivative(ValueError):
    """Carries the non-integrable remainder."""

    def __init__(self, remainder: DiffPoly):
        super().__init__(f"not an exact derivative; remainder: {remainder}")
        self.remainder = remainder


class NotVariational(ValueError):
    pass


class NotConserved(ValueError):
    pass


class NotGeneratingFunction(ValueError):
    pass


class VerificationFailed(ValueError):
    """A computed result failed the exact check of its defining equation.

    Raised, never asserted, so that no certificate disappears under
    `python -O`."""


@dataclass(frozen=True)
class Density:
    """Lagrangian density: the coefficient of the volume form."""

    ctx: JetContext
    value: DiffPoly


@dataclass(frozen=True)
class ConservedCurrent:
    """Current components with the time component first (J_t, J_x1, ...)."""

    components: tuple[DiffPoly, ...]


def _jet_families(ctx: JetContext, p: DiffPoly) -> list[tuple]:
    """Slots the Euler operator differentiates in: every dependent variable,
    then every test-covector component present in p, in sorted order."""
    fams: list[tuple] = [("u", j) for j in range(ctx.m)]
    seen = set()
    for v in p.variables():
        if v.kind == TESTCOV:
            seen.add((v.idx[0], v.idx[1]))
    fams.extend(("tc",) + key for key in sorted(seen))
    return fams


def _family_var(ctx: JetContext, fam: tuple, sigma) -> VarId:
    if fam[0] == "u":
        return ctx.jet(fam[1], sigma)
    return ctx.testcov(fam[1], fam[2], sigma)


def _euler_component(ctx: JetContext, L: DiffPoly, fam: tuple) -> DiffPoly:
    parts = []
    for v in L.variables():
        if fam[0] == "u" and not (v.kind == JET and v.idx[0] == fam[1]):
            continue
        if fam[0] == "tc" and not (v.kind == TESTCOV and (v.idx[0], v.idx[1]) == (fam[1], fam[2])):
            continue
        sigma = v.idx[-1]
        term = total_derivative_iterated(ctx, sigma, L.partial(v))
        parts.append(term.scale((-1) ** len(sigma)))
    return DiffPoly.sum(parts)


def euler(density: Density) -> list[DiffPoly]:
    """Variational derivative: component j is sum_sigma (-D)_sigma dL/du^j_sigma.

    Components for the m dependent variables come first; when the density
    contains test covectors, one component per covector family is appended.
    """
    ctx, L = density.ctx, density.value
    if L.has_kind(NONLOCAL):
        raise ValueError("Euler operator is defined for covering-free densities")
    return [_euler_component(ctx, L, fam) for fam in _jet_families(ctx, L)]


def is_divergence(density: Density) -> bool:
    """True iff every Euler component (dependents and covectors) vanishes."""
    return all(comp.is_zero() for comp in euler(density))


def integrate_top_down(space, g: DiffPoly, i: int, q: int = 0) -> tuple[list[DiffPoly], DiffPoly]:
    """Integrate the positive-order jets of g against `space.derive(i, .)`
    from the top order downwards: returns the parts h1 found and the
    remainder g - sum derive(i, h1), which has jets of order 0 only.

    At each pass the coefficients of the highest-order jet variables are
    demanded (a) to contain derivatives in the direction i, (b) to enter
    linearly with coefficients of lower order, and (c) to admit a joint
    antiderivative; any failure proves g is not in the image, and
    NotExactDerivative reports the offending remainder.

    Termination.  `q` is the highest jet order that `derive(i, .)` can bring
    in besides the shifted jets: 0 for the total derivative, the highest jet
    order of the x-expressions of a covering.  While the top order k of g
    exceeds q, derive(i, h1) and D_i h1 agree at order k; if g = D_i H, the
    top jets of g come from the jets of H one order lower, whose coefficients
    are derivatives of H that depend on no other jets of that order, so
    removing derive(i, h1) strictly lowers k.  Once k <= q it stays there,
    and the x-expressions may bring order-k terms back (w_x = u_x takes
    g = w*u_x through two passes at order 1).  From then on a pass must
    instead shrink the multiset of (nonlocal degree, jet order) pairs of g's
    monomials (`_profile`): it removes every order-k monomial and, when the
    x-expressions are free of nonlocal variables, adds only monomials of
    lower order or of lower nonlocal degree.  Both measures are
    well-founded, so the loop ends; a pass that lowers neither is reported
    as not exact.
    """
    ctx, derive = space.ctx, space.derive
    parts = []
    last = None
    while True:
        jets = [v for v in g.variables() if v.kind in (JET, TESTCOV) and v.idx[-1]]
        if not jets:
            return parts, g
        k = max(len(v.idx[-1]) for v in jets)
        measure = (k,) if k > q else (q, _profile(g))
        if last is not None and measure >= last:
            raise NotExactDerivative(g)
        last = measure
        top = sorted(v for v in jets if len(v.idx[-1]) == k)
        coeffs = []
        for v in top:
            if i not in v.idx[-1]:
                raise NotExactDerivative(g)
            a = g.partial(v)
            if any(w.kind in (JET, TESTCOV) and len(w.idx[-1]) >= k for w in a.variables()):
                raise NotExactDerivative(g)
            sigma = list(v.idx[-1])
            sigma.remove(i)
            coeffs.append((_family_var(ctx, ("u", v.idx[0]) if v.kind == JET else ("tc",) + v.idx[:2],
                                       tuple(sigma)), a))
        h1 = DiffPoly.zero()
        for w, a in coeffs:
            h1 = h1 + (a - h1.partial(w)).antiderivative(w)
        for w, a in coeffs:
            if h1.partial(w) != a:
                raise NotExactDerivative(g)
        g = g - derive(i, h1)
        parts.append(h1)


def _profile(g: DiffPoly) -> list[tuple[int, int]]:
    """(nonlocal degree, highest jet order) of each monomial, largest first;
    as lists these compare like the multisets they list."""
    return sorted(((sum(e for v, e in mono if v.kind == NONLOCAL),
                    max((len(v.idx[1]) for v, _ in mono if v.kind == JET), default=0))
                   for mono in g.terms), reverse=True)


def dx_inverse(ctx: JetContext, g: DiffPoly, i: int = 0) -> DiffPoly:
    """Find h with D_i h = g: `integrate_top_down` with the total derivative,
    then the antiderivative in x_i of the jet-free remainder."""
    if g.has_kind(NONLOCAL):
        raise ValueError("use the covering-aware inverse for nonlocal expressions")
    parts, g = integrate_top_down(ctx, g, i)
    if any(v.kind in (JET, TESTCOV) for v in g.variables()):
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

    L = integral_0^1 sum_j u^j psi^j[u_sigma <- s u_sigma] ds; requires psi
    to pass the self-adjointness test (inverse problem solvability).
    """
    if not self_adjoint_test(ctx, psi):
        raise NotVariational("linearization of the section is not self-adjoint")
    s = HOMOTOPY_SCALAR
    parts = []
    for j, p in enumerate(psi):
        scaling = {v: DiffPoly.monomial((s, v)) for v in p.variables() if v.kind == JET}
        parts.append(DiffPoly.var(ctx.jet(j)) * p.substitute(scaling))
    # The integral over s from 0 to 1.
    return Density(ctx, DiffPoly.sum(parts).antiderivative(s).evaluate({s: 1}))


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
    psi = euler(Density(ctx, J.components[0]))[: ctx.m]
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
    if not self_adjoint_test(ctx, psi):
        raise NotGeneratingFunction("section is not a variational derivative")
    j0 = homotopy_lagrangian(ctx, psi).value
    jx = dx_inverse(ctx, -sys.restricted_time(j0), ctx.spatial_indices[0])
    J = ConservedCurrent((j0, jx))
    residual = divergence_residual(sys, J)
    if residual:
        raise VerificationFailed(f"reconstructed current failed verification; residual {residual}")
    return J
