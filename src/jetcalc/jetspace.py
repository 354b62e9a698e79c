"""Jet-coordinate bookkeeping, equations, and total derivatives.

A JetContext fixes the independent/dependent variable names (the time
variable, when present, is always the last independent one).  Every space
offers `ctx`, `derive(i, p)` and `check_internal(p)`, and every derivative
of the package is taken by the space its object lives on: a JetContext is
the free space with the free D_i, an EvolutionSystem u^j_t = f^j has the
restricted D̄_i on internal coordinates (spatial jets only), and a covering
(`hamrec`) the extended D̃_i.  An evolution system also rewrites any jet
expression into internal coordinates, in one substitution
u^j_sigma -> D̄_{sigma - t} f^j read from its memo of the D̄_sigma f^j.
The shifted variable that D_i makes of a jet is memoized on the context,
which names it, and lives as long as the context.  A covector argument
(Green's formula, the Jacobi criterion) is a dependent variable of a
widened context, so it is a jet like any other.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable, Sequence

from .dalg import (
    BASE,
    JET,
    NONLOCAL,
    PARAM,
    DiffPoly,
    Immutable,
    MultiIndex,
    ParseError,
    UnknownIdentifier,
    VarId,
    base_var,
    jet_var,
    mi_add,
    mi_key,
    mi_remove_one,
    nonlocal_var,
    param_var,
)


ONE = DiffPoly.const(1)


class NotInternal(ValueError):
    """Expression contains time-derivative jets (or other non-internal vars)."""


class RegimeMismatch(ValueError):
    """Objects on different spaces cannot be combined."""


class JetContext(Immutable):
    """Declaration context: variable names and the time designation.

    `nonlocals` names the covering variables currently in scope."""

    __slots__ = ("independent", "dependent", "parameters", "has_time", "nonlocals", "_resolved", "_shifted")

    def __init__(self, independent: tuple[str, ...], dependent: tuple[str, ...], parameters: tuple[str, ...] = (),
                 has_time: bool = False, nonlocals: tuple[str, ...] = ()):
        names = list(independent) + list(dependent) + list(parameters) + list(nonlocals)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not all(names):
            raise ValueError("variable names must not be empty")
        if not independent or not dependent:
            raise ValueError("need at least one independent and one dependent variable")
        twice = ambiguous_subscript(independent)
        if twice is not None:
            raise ValueError(f"the subscript '{twice}' splits into the independent variables in two ways")
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "dependent", dependent)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "has_time", has_time)
        object.__setattr__(self, "nonlocals", nonlocals)
        # (base, subscript) -> VarId of every identifier resolved so far, and
        # (VarId, i) -> the D_i image of a jet (`_shift`); not part of the
        # value, so equality, hashing, repr and the pickle ignore them.
        object.__setattr__(self, "_resolved", {})
        object.__setattr__(self, "_shifted", {})

    def _value(self) -> tuple:
        return (self.independent, self.dependent, self.parameters, self.has_time, self.nonlocals)

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is JetContext and self._value() == other._value())

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return ("JetContext(independent={!r}, dependent={!r}, parameters={!r}, has_time={!r}, nonlocals={!r})"
                .format(*self._value()))

    def __reduce__(self):
        return JetContext, self._value()

    # -- shape -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.independent)

    @property
    def m(self) -> int:
        return len(self.dependent)

    @property
    def time_index(self) -> int:
        if not self.has_time:
            raise ValueError("context has no time variable")
        return self.n - 1

    @property
    def spatial_indices(self) -> tuple[int, ...]:
        return tuple(range(self.n - 1)) if self.has_time else tuple(range(self.n))

    def with_nonlocals(self, names: Sequence[str]) -> "JetContext":
        return JetContext(self.independent, self.dependent, self.parameters, self.has_time, tuple(names))

    # -- variable factories --------------------------------------------------

    def base(self, i: int) -> VarId:
        return base_var(i, self.independent[i])

    def jet(self, j: int, sigma: MultiIndex = ()) -> VarId:
        return jet_var(j, sigma, self.dependent[j], self.independent)

    def param(self, name: str) -> VarId:
        if name not in self.parameters:
            raise KeyError(name)
        return param_var(name)

    def nonlocal_(self, layer: int) -> VarId:
        return nonlocal_var(layer, self.nonlocals[layer])

    def u(self, name_with_subscript: str) -> VarId:
        """Convenience lookup by printed form, e.g. ctx.u('u_{xx}')."""
        from .dalg import split_identifier

        base, sub = split_identifier(name_with_subscript)
        return self.resolve_identifier(base, sub, 0)

    # -- parser hook ---------------------------------------------------------

    def parse_subscript(self, sub: str, pos: int) -> MultiIndex:
        """The decomposition of a subscript, written at `pos`, into base names.

        Every split of a prefix is followed, so a name that is a prefix of
        another does not block the split.  A context admits only name sets
        without an `ambiguous_subscript`, where the split that reaches the
        end is the only one.  An empty subscript (`u_{}`) is no jet.
        """
        if not sub:
            raise ParseError("empty subscript", pos)
        reach: dict[int, tuple[int, ...]] = {0: ()}
        for k in range(len(sub)):
            head = reach.get(k)
            if head is not None:
                for i, nm in enumerate(self.independent):
                    if sub.startswith(nm, k):
                        reach.setdefault(k + len(nm), head + (i,))
        sigma = reach.get(len(sub))
        if sigma is None:
            raise UnknownIdentifier(f"subscript '{sub}'", pos)
        return tuple(sorted(sigma))

    def resolve_identifier(self, base: str, sub: str | None, pos: int) -> VarId:
        """The variable an identifier names, memoized per context.  Only
        successes are kept, so an unknown name raises at each position."""
        v = self._resolved.get((base, sub))
        if v is None:
            v = self._resolved[base, sub] = self._resolve(base, sub, pos)
        return v

    def _resolve(self, base: str, sub: str | None, pos: int) -> VarId:
        if sub is None:
            if base in self.independent:
                return self.base(self.independent.index(base))
            if base in self.dependent:
                return self.jet(self.dependent.index(base), ())
            if base in self.parameters:
                return param_var(base)
            if base in self.nonlocals:
                return self.nonlocal_(self.nonlocals.index(base))
            raise UnknownIdentifier(base, pos)
        if base in self.dependent:
            return self.jet(self.dependent.index(base), self.parse_subscript(sub, pos + len(base) + 1))
        raise UnknownIdentifier(f"{base}_{sub}", pos)

    def parse(self, text: str) -> DiffPoly:
        from .dalg import parse as _parse

        return _parse(text, self)

    @property
    def ctx(self) -> "JetContext":
        """A context is the free space on its own coordinates."""
        return self

    def check_internal(self, p: DiffPoly):
        """The free space has no covering variables."""
        if p.has_kind(NONLOCAL):
            raise RegimeMismatch("free-jet operator applied to a covering expression")

    def derive(self, i: int, p: DiffPoly) -> DiffPoly:
        """The free total derivative D_i."""
        return total_derivative(self, i, p)


def ambiguous_subscript(names: Sequence[str]) -> str | None:
    """A subscript that splits into the names in two ways, or None.

    The Sardinas-Patterson test: two splits that start with different names
    leave a dangling suffix, which the lagging split must then consume;
    they meet again when a name equals the suffix.
    """
    queue = deque((b[len(a):], b) for a in names for b in names if a != b and b.startswith(a))
    seen = set()
    while queue:
        tail, text = queue.popleft()
        if tail in seen:
            continue
        seen.add(tail)
        for nm in names:
            if nm == tail:
                return text
            if tail.startswith(nm):
                queue.append((tail[len(nm):], text))
            elif nm.startswith(tail):
                queue.append((nm[len(tail):], text + nm[len(tail):]))
    return None


# --------------------------------------------------------------------------
# Total derivatives on the free jet space


def _shift(ctx: JetContext, i: int) -> Callable[[VarId], DiffPoly | None]:
    """The image map of D_i: x_i -> 1, and jets shift.  The shifted
    variables are memoized on the context, which names them."""
    shifted = ctx._shifted

    def image(v: VarId) -> DiffPoly | None:
        if v.kind == JET:
            got = shifted.get((v, i))
            if got is None:
                got = shifted[v, i] = DiffPoly.var(ctx.jet(v.idx[0], mi_add(v.idx[1], i)))
            return got
        return ONE if v.kind == BASE and v.idx[0] == i else None

    return image


def total_derivative(ctx: JetContext, i: int, p: DiffPoly) -> DiffPoly:
    """D_i p = dp/dx_i + sum u^j_{sigma+i} dp/du^j_sigma."""
    if p.has_kind(NONLOCAL):
        raise RegimeMismatch("expression contains covering variables; use the covering's extended derivative")
    return p.derivation(_shift(ctx, i))


def total_derivative_iterated(ctx: JetContext, sigma: MultiIndex, p: DiffPoly) -> DiffPoly:
    for i in sigma:
        p = total_derivative(ctx, i, p)
    return p


def prefix_derivatives(derive: Callable[[int, DiffPoly], DiffPoly],
                       p: DiffPoly) -> Callable[[MultiIndex], DiffPoly]:
    """sigma -> derive(sigma[-1], ... derive(sigma[0], p)), memoized so that
    multi-indices sharing a prefix derive it once.  `at` does not call
    itself: a closure that refers to itself is a reference cycle, which
    would keep the memo alive until the cycle collector runs."""
    memo = {(): p}

    def at(sigma: MultiIndex) -> DiffPoly:
        got = memo.get(sigma)
        if got is None:
            k = len(sigma) - 1
            while sigma[:k] not in memo:
                k -= 1
            got = memo[sigma[:k]]
            for k in range(k, len(sigma)):
                got = memo[sigma[:k + 1]] = derive(sigma[k], got)
        return got

    return at


def multi_indices_up_to(indices: Sequence[int], order: int) -> list[MultiIndex]:
    """All multi-indices over `indices` of order <= `order`, in graded-lex order."""
    out: list[MultiIndex] = [()]
    layer: list[MultiIndex] = [()]
    for _ in range(order):
        nxt = {mi_add(s, i) for s in layer for i in indices}
        layer = sorted(nxt, key=mi_key)
        out.extend(layer)
    return sorted(set(out), key=mi_key)


# --------------------------------------------------------------------------
# Systems


class GeneralSystem(Immutable):
    """A system {F^k = 0} on the free jet space."""

    __slots__ = ("ctx", "F")

    def __init__(self, ctx: JetContext, F: tuple[DiffPoly, ...]):
        for k, comp in enumerate(F):
            for v in comp.variables():
                if v.kind not in (BASE, JET, PARAM):
                    raise ValueError(f"component {k} contains a non-jet variable {v.name}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "F", F)


def prolong(sys: GeneralSystem, order: int) -> list[DiffPoly]:
    """All D_sigma F^k with |sigma| <= order (k major, sigma graded-lex minor)."""
    sigmas = multi_indices_up_to(range(sys.ctx.n), order)
    return [total_derivative_iterated(sys.ctx, s, comp) for comp in sys.F for s in sigmas]


class EvolutionSystem:
    """An evolution system u^j_t = f^j in internal coordinates.

    The right-hand sides may involve base variables, parameters, and spatial
    jets only.  The instance memoizes D̄_sigma(f^j), built on its own
    `derive`, since restriction formulas reuse them heavily.
    """

    def __init__(self, ctx: JetContext, f: Sequence[DiffPoly]):
        if not ctx.has_time:
            raise ValueError("evolution system needs a time variable")
        if len(f) != ctx.m:
            raise ValueError(f"expected {ctx.m} right-hand sides, got {len(f)}")
        t = ctx.time_index
        for j, comp in enumerate(f):
            for v in comp.variables():
                if v.kind == NONLOCAL:
                    raise ValueError("right-hand sides must be covering-free")
                if v.kind == JET and t in v.idx[1]:
                    err = NotInternal(f"right-hand side {j} contains time derivative {v.name}")
                    err.component = j  # so that a reader of equation files can cite its line
                    raise err
        self.ctx = ctx
        self.f = tuple(f)
        # The memo derives through a weak reference: holding `self.derive`
        # would make a reference cycle, freed only by the cycle collector.
        me = weakref.ref(self)
        self._dsigma_f = [prefix_derivatives(lambda i, p: me().derive(i, p), comp) for comp in self.f]

    @property
    def order(self) -> int:
        k = 0
        for comp in self.f:
            for v in comp.variables():
                if v.kind == JET:
                    k = max(k, len(v.idx[1]))
        return k

    def __reduce__(self):
        # The memo holds closures; a copy starts with a fresh one.
        return EvolutionSystem, (self.ctx, self.f)

    def __eq__(self, other) -> bool:
        return isinstance(other, EvolutionSystem) and self.ctx == other.ctx and self.f == other.f

    def __hash__(self) -> int:
        return hash((self.ctx, self.f))

    def dsigma_f(self, j: int, sigma: MultiIndex) -> DiffPoly:
        """D̄_sigma(f^j), memoized; sigma may contain the time index."""
        return self._dsigma_f[j](tuple(sorted(sigma)))

    def check_internal(self, p: DiffPoly):
        t = self.ctx.time_index
        for v in p.variables():
            if v.kind == JET and t in v.idx[1]:
                raise NotInternal(f"{v.name} is not an internal coordinate")
            if v.kind == NONLOCAL:
                raise RegimeMismatch(f"{v.name} is a covering variable; use the covering's extended derivative")

    def image(self, i: int) -> Callable[[VarId], DiffPoly | None]:
        """The image map of D̄_i on internal coordinates: the shift of D_i
        in space; along t, u^j_sigma -> D_sigma(f^j) and t -> 1."""
        t = self.ctx.time_index
        if i != t:
            return _shift(self.ctx, i)

        def image(v: VarId) -> DiffPoly | None:
            if v.kind == JET:
                return self.dsigma_f(*v.idx)
            return ONE if v.kind == BASE and v.idx[0] == t else None

        return image

    def restricted_time(self, p: DiffPoly) -> DiffPoly:
        """D̄_t p = dp/dt + sum_sigma D_sigma(f^j) dp/du^j_sigma on internal p."""
        return self.derive(self.ctx.time_index, p)

    def derive(self, i: int, p: DiffPoly) -> DiffPoly:
        """D̄_i on internal expressions: spatial D_i, or D̄_t for the time
        index."""
        self.check_internal(p)
        if i != self.ctx.time_index:
            return self.ctx.derive(i, p)
        return p.derivation(self.image(i))

    def to_internal(self, p: DiffPoly) -> DiffPoly:
        """Rewrite time-derivative jets via u^j_t = f^j in one substitution:
        u^j_sigma with t in sigma becomes D̄_{sigma - t}(f^j), which is
        already internal."""
        t = self.ctx.time_index
        return p.substitute({v: self.dsigma_f(v.idx[0], mi_remove_one(v.idx[1], t))
                             for v in p.variables() if v.kind == JET and t in v.idx[1]})
