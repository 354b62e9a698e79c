"""Operators in total derivatives and the Cartan-form calculus.

A CDiffOp is a matrix whose entries are finite sums sum_sigma a_sigma D_sigma
in normal form (coefficients to the left of the derivatives).  An operator
holds one space (`jetspace`), and every D is that space's `derive(i, p)`:
the free D on a JetContext, the restricted derivatives on an evolution
system (the time index refers to D̄_t), the extended ones on a covering.
The functions on forms and shadows take the space whose derivative they
use in the same way (`horizontal_differential`, `shadow_residual`).
`CDiffOp.apply_derivatives` takes a vector by its memo of derivatives,
`prefix_derivatives(space.derive, .)` per component, so that the consumers
of one vector derive it once; `contract` takes a field by its image map,
which reads the jets from that memo.

Cartan-form-valued sections (shadows) are keyed by the VarId of the jet or
covering variable v of each form om(v) or th(v).  A total derivative acts on
every form by one rule, L_{D_i} om(v) = d_C(D_i v), with D_i v read from the
image map `space.image(i)` that the space's `derive` runs on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .dalg import (
    JET,
    NONLOCAL,
    DiffPoly,
    Immutable,
    MultiIndex,
    VarId,
    mi_key,
    mi_splittings,
)
from .jetspace import (
    EvolutionSystem,
    GeneralSystem,
    JetContext,
    ONE,
    RegimeMismatch,
    prefix_derivatives,
)


class DimensionMismatch(ValueError):
    pass


class DegreeOverflow(ValueError):
    pass


Entry = dict[MultiIndex, DiffPoly]


def _clean(entry: Entry) -> Entry:
    return {s: p for s, p in entry.items() if p}


def _collect(pairs: Iterable[tuple[Hashable, DiffPoly]]) -> dict:
    """Group (key, polynomial) pairs by key, sum each group in one
    `DiffPoly.sum` and drop the keys whose sum is zero.  Keys keep the
    order of their first pair."""
    groups: dict = {}
    for k, p in pairs:
        groups.setdefault(k, []).append(p)
    return {k: s for k, g in groups.items() if (s := DiffPoly.sum(g))}


def _times(a: DiffPoly, p: DiffPoly) -> DiffPoly:
    """a * p, where a constant a (the ±1 of D̄_t and D_x^3 in a
    linearization, the 1 of a shifted contact form) scales p; it is not
    multiplied out."""
    c = a.as_constant()
    return a * p if c is None else p.scale(c)


class CDiffOp:
    """Matrix operator sum_sigma a_sigma D_sigma in normal form, with the D
    of its `space`."""

    __slots__ = ("space", "rows", "cols", "entries")

    def __init__(self, space, rows: int, cols: int, entries: Sequence[Sequence[Entry]]):
        self.space = space
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(_clean(dict(entries[r][c])) for c in range(cols)) for r in range(rows))

    @staticmethod
    def _make(space, rows: int, cols: int, entries: list[list[Entry]]) -> "CDiffOp":
        """Trusted constructor: every entry is clean and owned by the new value."""
        op = object.__new__(CDiffOp)
        op.space = space
        op.rows = rows
        op.cols = cols
        op.entries = tuple(tuple(row) for row in entries)
        return op

    @property
    def ctx(self) -> JetContext:
        return self.space.ctx

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(space, rows: int = 1, cols: int = 1) -> "CDiffOp":
        return CDiffOp(space, rows, cols, [[{} for _ in range(cols)] for _ in range(rows)])

    @staticmethod
    def scalar(space, entry: Entry) -> "CDiffOp":
        return CDiffOp(space, 1, 1, [[entry]])

    @staticmethod
    def identity(space, size: int = 1) -> "CDiffOp":
        one = DiffPoly.const(1)
        return CDiffOp(space, size, size,
                       [[{(): one} if r == c else {} for c in range(size)] for r in range(size)])

    @staticmethod
    def d(space, i: int) -> "CDiffOp":
        return CDiffOp._make(space, 1, 1, [[{(i,): ONE}]])

    @staticmethod
    def mult(space, a: DiffPoly) -> "CDiffOp":
        return CDiffOp._make(space, 1, 1, [[{(): a} if a else {}]])

    # -- structure -----------------------------------------------------------

    @property
    def order(self) -> int:
        return max((len(s) for row in self.entries for e in row for s in e), default=0)

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CDiffOp) and self.rows == other.rows and self.cols == other.cols
                and (self.space is other.space or self.space == other.space)
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols,
                     tuple(tuple(frozenset(e.items()) for e in row) for row in self.entries)))

    def _check_compatible(self, other: "CDiffOp"):
        if self.space is not other.space and self.space != other.space:
            raise RegimeMismatch("operators live on different spaces")

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "CDiffOp") -> "CDiffOp":
        self._check_compatible(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("operator shapes differ")
        out = [[_collect(chain(a.items(), b.items())) for a, b in zip(ra, rb)]
               for ra, rb in zip(self.entries, other.entries)]
        return CDiffOp._make(self.space, self.rows, self.cols, out)

    def scale(self, c: int | Fraction) -> "CDiffOp":
        if not c:
            return CDiffOp.zero(self.space, self.rows, self.cols)
        return CDiffOp._make(self.space, self.rows, self.cols,
                             [[{s: p.scale(c) for s, p in e.items()} for e in row] for row in self.entries])

    def __truediv__(self, c: int | Fraction) -> "CDiffOp":
        """self / c for a nonzero rational c, entry by entry."""
        return CDiffOp._make(self.space, self.rows, self.cols,
                             [[{s: p / c for s, p in e.items()} for e in row] for row in self.entries])

    def __neg__(self) -> "CDiffOp":
        return self.scale(-1)

    def __sub__(self, other: "CDiffOp") -> "CDiffOp":
        return self + (-other)

    def apply(self, vec: Sequence[DiffPoly]) -> list[DiffPoly]:
        """Componentwise sum_sigma a_sigma D_sigma(v), canonical."""
        return self.apply_derivatives([prefix_derivatives(self.space.derive, v) for v in vec])

    def apply_derivatives(self, derivs: Sequence[Callable[[MultiIndex], DiffPoly]]) -> list[DiffPoly]:
        """`apply` to the vector v with derivs[c](sigma) = D_sigma(v^c) in the
        derivatives of this operator's space (`prefix_derivatives(space.derive,
        v^c)`), so that a caller who holds that memo shares it."""
        if len(derivs) != self.cols:
            raise DimensionMismatch(f"expected {self.cols} components, got {len(derivs)}")
        for d in derivs:
            self.space.check_internal(d(()))
        return [DiffPoly.sum(_times(a, derivs[c](sigma))
                             for c in range(self.cols) for sigma, a in self.entries[r][c].items())
                for r in range(self.rows)]

    def _compose_terms(self, row: Sequence[Entry],
                       col: Sequence[Entry]) -> Iterator[tuple[MultiIndex, DiffPoly]]:
        """Terms of sum_k row[k] o col[k], each (sum a_s D_s) o (sum b_t D_t)
        expanded with D pushed right."""
        for e2, e1 in zip(row, col):
            derivs = [(t, prefix_derivatives(self.space.derive, b)) for t, b in e1.items()]
            for s, a in e2.items():
                for t, db in derivs:
                    for rho, rest, w in mi_splittings(s):
                        coef = a * db(rho).scale(w)
                        if coef:
                            yield tuple(sorted(rest + t)), coef

    def compose(self, other: "CDiffOp") -> "CDiffOp":
        """self o other in normal form; apply(compose) == apply o apply."""
        self._check_compatible(other)
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        cols = list(zip(*other.entries))
        out = [[_collect(self._compose_terms(row, col)) for col in cols] for row in self.entries]
        return CDiffOp._make(self.space, self.rows, other.cols, out)

    def adjoint(self) -> "CDiffOp":
        """Formal integration-by-parts transpose.

        Scalar entries map by sum_s a_s D_s -> sum_s (-1)^|s| D_s o a_s
        (expanded to normal form); matrix entries are transposed.
        """
        def terms(e: Entry) -> Iterator[tuple[MultiIndex, DiffPoly]]:
            for s, a in e.items():
                sign = -1 if len(s) % 2 else 1
                da = prefix_derivatives(self.space.derive, a)
                for rho, rest, w in mi_splittings(s):
                    coef = da(rho).scale(w * sign)
                    if coef:
                        yield rest, coef

        return CDiffOp._make(self.space, self.cols, self.rows,
                             [[_collect(terms(e)) for e in col] for col in zip(*self.entries)])

    def is_skew_adjoint(self) -> bool:
        return (self + self.adjoint()).is_zero()

    # -- printing --------------------------------------------------------------

    def _entry_str(self, e: Entry) -> str:
        if not e:
            return "0"
        parts = []
        for sigma in sorted(e, key=mi_key):
            a = e[sigma]
            dstr = "*".join(
                f"D_{self.ctx.independent[i]}" + (f"^{sigma.count(i)}" if sigma.count(i) > 1 else "")
                for i in sorted(set(sigma)))
            astr = str(a)
            if not sigma:
                parts.append(astr if len(a) == 1 else f"({astr})")
            elif a == DiffPoly.const(1):
                parts.append(dstr)
            elif a == DiffPoly.const(-1):
                parts.append(f"-{dstr}")
            elif len(a) == 1:
                parts.append(f"{astr}*{dstr}")
            else:
                parts.append(f"({astr})*{dstr}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        if self.rows == 1 and self.cols == 1:
            return self._entry_str(self.entries[0][0])
        lines = []
        for r in range(self.rows):
            lines.append("[" + ", ".join(self._entry_str(e) for e in self.entries[r]) + "]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CDiffOp({self})"


# --------------------------------------------------------------------------
# Linearization and evolutionary derivations


def _jet_partials(ctx: JetContext, F: Sequence[DiffPoly]) -> list[list[Entry]]:
    """Row k, column alpha: sum_sigma dF^k/du^alpha_sigma D_sigma."""
    entries = []
    for comp in F:
        row: list[Entry] = [dict() for _ in range(ctx.m)]
        for v in comp.variables():
            if v.kind == JET:
                alpha, sigma = v.idx
                row[alpha][sigma] = comp.partial(v)
        entries.append(row)
    return entries


def linearization(sys) -> CDiffOp:
    """Universal linearization.

    For a general system the entry (beta, alpha) is
    sum_sigma dF^beta/du^alpha_sigma D_sigma on the free jet space.  For an
    evolution system or a covering, the operator of F = u_t - f on the
    equation, in its own derivatives: D̄_t - sum df^beta/du^alpha_sigma D̄_sigma.
    """
    ctx = sys.ctx
    if isinstance(sys, GeneralSystem):
        return CDiffOp(ctx, len(sys.F), ctx.m, _jet_partials(ctx, sys.F))
    # D̄_t on the diagonal of the flow linearization of -f (f has no time
    # jets).  D̄_t comes first: `apply` sums in entry order from a copy of
    # the first term, and D̄_t of the input is usually the largest.
    entries = _jet_partials(ctx, [-f for f in sys.f])
    for r, row in enumerate(entries):
        row[r] = {(ctx.time_index,): ONE, **row[r]}
    return CDiffOp(sys, ctx.m, ctx.m, entries)


def flow_linearization(sys: EvolutionSystem) -> CDiffOp:
    """ell_f = sum_sigma df^beta/du^alpha_sigma D_sigma (spatial, on-equation)."""
    return CDiffOp(sys, sys.ctx.m, sys.ctx.m, _jet_partials(sys.ctx, sys.f))


def evolutionary(ctx: JetContext, phi: Sequence[DiffPoly], p: DiffPoly) -> DiffPoly:
    """The evolutionary derivation: sum_{j,sigma} D_sigma(phi^j) dp/du^j_sigma."""
    if len(phi) != ctx.m:
        raise DimensionMismatch(f"generating section needs {ctx.m} components")
    derivs = [prefix_derivatives(ctx.derive, c) for c in phi]
    return p.derivation(lambda v: derivs[v.idx[0]](v.idx[1]) if v.kind == JET else None)


def jacobi_bracket(ctx: JetContext, phi: Sequence[DiffPoly], psi: Sequence[DiffPoly]) -> list[DiffPoly]:
    """{phi, psi}^j = evolutionary_phi(psi^j) - evolutionary_psi(phi^j)."""
    return [evolutionary(ctx, phi, psi[j]) - evolutionary(ctx, psi, phi[j]) for j in range(ctx.m)]


# --------------------------------------------------------------------------
# Horizontal forms


class HorForm(Immutable):
    """Horizontal q-form: map from strictly increasing index tuples to
    coefficients; antisymmetry is absorbed into the sorted storage.  The
    (index, coefficient) pairs are checked, sorted and cleared of zeros at
    construction; an index is a strictly increasing `degree`-tuple of
    independent variables of `ctx`, given once."""

    __slots__ = ("ctx", "degree", "comps")

    def __init__(self, ctx: JetContext, degree: int, comps: Iterable[tuple[tuple[int, ...], DiffPoly]]):
        comps = sorted(comps, key=lambda c: c[0])
        for k, (idx, _) in enumerate(comps):
            if len(idx) != degree or list(idx) != sorted(set(idx)) or not all(0 <= i < ctx.n for i in idx):
                raise ValueError(f"component index {idx} is not a strictly increasing {degree}-tuple "
                                 f"of the {ctx.n} independent variables")
            if k and comps[k - 1][0] == idx:
                raise ValueError(f"component index {idx} is given twice")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", tuple((idx, p) for idx, p in comps if p))

    @staticmethod
    def make(ctx: JetContext, degree: int, comps: dict[tuple[int, ...], DiffPoly]) -> "HorForm":
        return HorForm(ctx, degree, comps.items())

    def coefficient(self, idx: tuple[int, ...]) -> DiffPoly:
        for i, p in self.comps:
            if i == idx:
                return p
        return DiffPoly.zero()

    def is_zero(self) -> bool:
        return not self.comps

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        names = self.ctx.independent
        bits = []
        for idx, p in self.comps:
            dx = "^".join(f"d{names[i]}" for i in idx) if idx else "1"
            coef = str(p)
            if len(p) > 1:
                coef = f"({coef})"
            bits.append(f"{coef}*{dx}" if idx else coef)
        return " + ".join(bits)


def wedge(a: HorForm, b: HorForm) -> HorForm:
    def terms() -> Iterator[tuple[tuple[int, ...], DiffPoly]]:
        for ia, pa in a.comps:
            for ib, pb in b.comps:
                if set(ia) & set(ib):
                    continue
                merged = ia + ib
                order = sorted(range(len(merged)), key=lambda k: merged[k])
                inversions = sum(1 for x in range(len(order)) for y in range(x + 1, len(order))
                                 if order[x] > order[y])
                yield tuple(sorted(merged)), (pa * pb).scale((-1) ** inversions)

    return HorForm.make(a.ctx, a.degree + b.degree, _collect(terms()))


def horizontal_differential(omega: HorForm, space) -> HorForm:
    """d̄(a dx_I) = sum_i D_i(a) dx_i ^ dx_I with the derivatives of `space`;
    the result is re-sorted into canonical components."""
    ctx = omega.ctx
    if omega.degree >= ctx.n:
        raise DegreeOverflow(f"cannot raise degree {omega.degree} in {ctx.n} variables")
    derive = space.derive

    def terms() -> Iterator[tuple[tuple[int, ...], DiffPoly]]:
        for idx, a in omega.comps:
            for i in range(ctx.n):
                if i not in idx:
                    sign = (-1) ** sum(1 for k in idx if k < i)
                    yield tuple(sorted(idx + (i,))), derive(i, a).scale(sign)

    return HorForm.make(ctx, omega.degree + 1, _collect(terms()))


# --------------------------------------------------------------------------
# Cartan-form-valued sections (shadows)

# A Cartan map sends the VarId of a jet u^j_sigma or of a covering variable
# w^a to the coefficient of its contact form om(u^j_sigma) or th(w^a).
CartanMap = dict[VarId, DiffPoly]


class CartanShadow(Immutable):
    """Cartan-1-form-valued section: one CartanMap per output component.

    A plain Cartan differential has a single component; a recursion-operator
    shadow of an m-component evolution system has m of them.  Forms print
    in VarId order, jets before covering variables.  Every key is a jet or
    covering variable of `ctx`, and there are at most m components, each
    printed with its dependent variable when there are several; anything
    else is refused at construction.
    """

    __slots__ = ("ctx", "comps")

    def __init__(self, ctx: JetContext, comps: tuple[CartanMap, ...]):
        comps = tuple({k: p for k, p in c.items() if p} for c in comps)
        if len(comps) > ctx.m:
            raise DimensionMismatch(f"{len(comps)} components, but the context names {ctx.m} dependent variables")
        for v in chain.from_iterable(comps):
            if v.kind == JET:
                known = v.idx[0] < ctx.m and all(i < ctx.n for i in v.idx[1])
            else:
                known = v.kind == NONLOCAL and v.idx[0] < len(ctx.nonlocals)
            if not known:
                raise ValueError(f"{v.name or v!r} is not a jet or covering variable of the context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "comps", comps)

    @staticmethod
    def identity(ctx: JetContext) -> "CartanShadow":
        one = DiffPoly.const(1)
        return CartanShadow(ctx, tuple({ctx.jet(j): one} for j in range(ctx.m)))

    def is_zero(self) -> bool:
        return all(not c for c in self.comps)

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanShadow) and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(tuple(frozenset(c.items()) for c in self.comps))

    def max_order(self) -> int:
        return max((len(v.idx[1]) for c in self.comps for v in c if v.kind == JET), default=0)

    def comp_str(self, c: CartanMap) -> str:
        if not c:
            return "0"
        bits = []
        for v in sorted(c):
            p = c[v]
            ks = f"om({v.name})" if v.kind == JET else f"th({v.name})"
            if p == DiffPoly.const(1):
                bits.append(ks)
                continue
            text = str(p)
            bits.append(f"{text}*{ks}" if len(p) == 1 and not text.startswith("-") else f"({text})*{ks}")
        return " + ".join(bits)

    def __str__(self) -> str:
        if len(self.comps) == 1:
            return self.comp_str(self.comps[0])
        return "; ".join(f"[{self.ctx.dependent[j]}] {self.comp_str(c)}" for j, c in enumerate(self.comps))


def cartan_differential(p: DiffPoly, ctx: JetContext) -> CartanShadow:
    """d_C p = sum dp/du^j_sigma om^j_sigma (+ dp/dw^a th^a inside a covering)."""
    return CartanShadow(ctx, ({v: p.partial(v) for v in p.variables() if v.kind in (JET, NONLOCAL)},))


def _cmap_derive(cmap: CartanMap, i: int, space) -> Iterator[tuple[VarId, DiffPoly]]:
    """Terms of the Lie action of the space's i-th total derivative on a
    Cartan-form value: derives coefficients with `space.derive` and maps
    the form of each variable v to d_C(image_i(v)), read from the space's
    image map of its i-th derivative."""
    image = space.image(i)
    for v, coef in cmap.items():
        yield v, space.derive(i, coef)
        if v.kind == NONLOCAL and v.idx[0] >= len(space.ctx.nonlocals):
            raise RegimeMismatch(f"the space has no covering layer {v.idx[0]}")
        dv = image(v)
        if dv is not None:
            for k in dv.variables():
                if k.kind in (JET, NONLOCAL):
                    yield k, _times(dv.partial(k), coef)


def shadow_residual(sh: CartanShadow, space) -> CartanShadow:
    """Left-hand side of the shadow equation, component beta:

        D_t(om^beta) - sum_{alpha,sigma} df^beta/du^alpha_sigma D_sigma(om^alpha)

    with the derivatives of `space` (an evolution system or a covering)
    throughout.  A shadow solves the equation iff every Cartan coefficient
    of the result vanishes.
    """
    ctx = space.ctx
    if len(sh.comps) != ctx.m:
        raise DimensionMismatch("shadow must have one component per dependent variable")
    derivs = [prefix_derivatives(lambda i, c: _collect(_cmap_derive(c, i, space)), comp)
              for comp in sh.comps]
    ell = flow_linearization(space)

    def terms(beta: int) -> Iterator[tuple[VarId, DiffPoly]]:
        yield from _cmap_derive(sh.comps[beta], ctx.time_index, space)
        for alpha, entry in enumerate(ell.entries[beta]):
            for sigma, coef in entry.items():
                neg = -coef
                for k, p in derivs[alpha](sigma).items():
                    yield k, neg * p

    return CartanShadow(sh.ctx, tuple(_collect(terms(beta)) for beta in range(ctx.m)))


def contract(image: Callable[[VarId], DiffPoly], sh: CartanShadow) -> list[DiffPoly]:
    """Contraction of an evolutionary field into a shadow: component r is
    sum_v c_v * image(v) over the forms om(v), th(v) of sh.comps[r] with
    coefficients c_v.

    `image` is the field's image map: a jet u^j_sigma goes to
    D_sigma(phi^j) in the derivatives of the space phi lives on (read from
    `prefix_derivatives(space.derive, phi^j)`), so phi may hold the
    variables of a covering, and a covering variable w^a to the field's
    value on it, which integrating the covering relations gives.
    """
    return [DiffPoly.sum(coef * image(v) for v, coef in cmap.items()) for cmap in sh.comps]
