"""Exact differential-polynomial arithmetic.

Expressions are polynomials with rational coefficients in a mixed set of
formal variables: base (independent) variables, jet variables u^j_sigma,
nonlocal variables of a covering, named parameters, and the unknown
coefficients of ansatz templates.  A covector argument is no kind of its
own: it is a dependent variable of a widened context.  Everything is immutable
and canonical: equal values have equal representations, so equality of
expressions is equality of their numerator maps and denominators.

Kernel invariants, which every operation keeps:

- The monomial layout is private to this module.  A polynomial maps
  monomials to int numerators over one denominator (`num`, `den`), and a
  monomial is one packed int: each variable owns a field of FIELD_BITS
  bits whose top bit is a guard, so a product of monomials is one int
  addition, and the result is tested once against the guard bits; an
  exponent above MAX_EXPONENT raises ExponentOverflow instead of carrying
  into the next field.  A template unknown is never a field: it sits in
  the low bits, under a flag bit and a guard of their own, so two unknowns
  in one monomial raise NonlinearInUnknowns where they meet.  A field is
  assigned the first time its variable is seen, in a process-wide,
  append-only table that interns variables only, keyed by (VarId, name),
  and never holds a result.  Field offsets depend on that order, so
  nothing orders by the packed int: `order_key`, `terms` and pickling
  decode to sorted factor tuples, and printing, which decodes nothing,
  ranks the variables of a polynomial in VarId order once and sorts its
  monomials by their field bytes permuted into that rank.  Other modules
  build and take apart polynomials only through the `DiffPoly` API and
  read them through the decoded `terms` view.  Monomials come from `var`
  and `monomial`, ordered by `order_key`; an ansatz pool is built packed
  by `pool`, as sums of variable units sorted by the print-order key of
  their field bytes; templates from `combination`, whose unknowns are
  column indices written into the low bits (`unknown_var` only decodes);
  a template's further slots, and their derivatives, are its first slot
  with the unknown indices offset (`offset_unknowns`), since no derivation
  acts on an unknown; integer coefficient rows from `linear_rows`;
  integrals from `antiderivative`; the parts of each degree in one kind of
  variable from `homogeneous_parts`.
- Coefficients are nonzero int numerators over one positive denominator
  coprime to them, 1 for an integer polynomial (FLINT's `fmpq_poly`).  Ring
  operations run on ints and divide out one gcd, in `DiffPoly._make`;
  rationals enter through `DiffPoly(terms)`, `const`, `scale` and `/`, and
  leave through the `terms` view.
- `DiffPoly(terms)` cleans its input; the trusted `DiffPoly._make` is only
  for numerator dicts that hold no zero and are owned by the new value.
- `DiffPoly.sum` is the only accumulator.  A sum of many polynomials is
  never a chain of `+`, which copies the partial sum at every step.  Keyed
  maps of polynomials (operator entries, Cartan maps, form components)
  accumulate through it too: `cdiff._collect` groups terms by key and
  sums each group once.  `DiffPoly.integration`, the inverse of
  `derivation` for one `derive(i, .)`, keeps its remainder in one
  numerator dict and subtracts each pass's derive(i, h1) through `_merge`,
  the merge loop `sum` runs on.
- `DiffPoly.derivation` is the only derivation primitive; total,
  restricted, extended and evolutionary derivatives are image maps over it.
  Each space answers `derive(i, p)` with its own: the free D_i of a
  `JetContext`, the restricted D̄_i of an `EvolutionSystem` and the extended
  D̃_i of a covering, which adds the layer images to its equation's image
  map.  No caller picks a derivative: operators, forms, shadows and
  contractions derive through the space they are given, and rewriting into
  internal coordinates is one `substitute` of memoized D̄_sigma f.
- A `VarId` is the tuple of its canonical sort key, so hashing, equality
  and ordering of variables and factor tuples never run Python code.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, compress, pairwise
from math import comb, gcd, lcm
from operator import itemgetter, or_
import sys
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Rational = Fraction
Coef = int | Fraction


# Variable kinds, in the fixed total order used for canonical forms.
BASE = 0
JET = 1
NONLOCAL = 2
PARAM = 3
UNKNOWN = 4

# A multi-index is a sorted tuple of base-variable indices; repetition
# encodes the derivative order in that variable.
MultiIndex = tuple[int, ...]


def mi_add(sigma: MultiIndex, i: int) -> MultiIndex:
    return tuple(sorted(sigma + (i,)))


def mi_count(sigma: MultiIndex, i: int) -> int:
    return sum(1 for k in sigma if k == i)


def mi_remove_one(sigma: MultiIndex, i: int) -> MultiIndex:
    out = list(sigma)
    out.remove(i)
    return tuple(out)


def mi_key(sigma: MultiIndex) -> tuple:
    """Graded-lex sort key: order first, then positions."""
    return (len(sigma), sigma)


def mi_splittings(sigma: MultiIndex) -> Iterator[tuple[MultiIndex, MultiIndex, int]]:
    """All ways to split sigma into tau + (sigma - tau), with multinomial weight.

    Yields (tau, rest, binom(sigma, tau)) where binom is the product of
    per-variable binomial coefficients.  Used by the Leibniz rule for
    iterated total derivatives.
    """
    items = sorted(set(sigma))
    counts = [mi_count(sigma, i) for i in items]

    def rec(pos: int, tau: list[int], rest: list[int], weight: int):
        if pos == len(items):
            yield tuple(tau), tuple(rest), weight
            return
        i, c = items[pos], counts[pos]
        for k in range(c + 1):
            yield from rec(pos + 1, tau + [i] * k, rest + [i] * (c - k), weight * comb(c, k))

    yield from rec(0, [], [], 1)


class Immutable:
    """Base of the value classes: assigning an attribute raises.

    A subclass sets its fields in `__init__` (or `__new__`) through
    `object.__setattr__`, and so does unpickling and copying."""

    __slots__ = ()

    def __setattr__(self, attr, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {attr!r}")

    def __setstate__(self, state):
        for attr, value in state[1].items():
            object.__setattr__(self, attr, value)


class VarId(tuple, Immutable):
    """Identity of a formal variable.

    `idx` is the identity payload (per-kind encoding); `name` is display-only
    and excluded from equality so that bookkeeping never depends on how a
    variable happens to be rendered.

    The tuple itself is the canonical sort key, computed once at
    construction: the kind, then for jets (component, order, multi-index),
    and the payload for every other kind.  The key determines (kind, idx), so
    hashing, equality and ordering are plain tuple operations; `kind`,
    `idx` and `name` ride along as attributes.
    """

    def __new__(cls, kind: int, idx: tuple, name: str = ""):
        if kind == JET:
            key = (JET, idx[0], len(idx[1]), idx[1])
        else:
            key = (kind,) + idx
        self = tuple.__new__(cls, key)
        attrs = self.__dict__
        attrs["kind"] = kind
        attrs["idx"] = idx
        attrs["name"] = name
        attrs["_unit"] = None  # its monomial, once the field table has seen it
        return self

    def __reduce__(self):
        # Pickling and copying rebuild a variable from its constructor
        # arguments: neither the key tuple nor the cached monomial (`_unit`),
        # whose field another process assigns on its own.
        return VarId, (self.kind, self.idx, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VarId({self.name or self.idx})"


def base_var(i: int, name: str) -> VarId:
    return VarId(BASE, (i,), name)


def jet_subscript(sigma: MultiIndex, base_names: tuple[str, ...]) -> str:
    if not sigma:
        return ""
    letters = "".join(base_names[i] for i in sigma)
    return "_" + (letters if len(sigma) == 1 else "{" + letters + "}")


def jet_var(j: int, sigma: MultiIndex, dep_name: str, base_names: tuple[str, ...]) -> VarId:
    return VarId(JET, (j, tuple(sorted(sigma))), dep_name + jet_subscript(tuple(sorted(sigma)), base_names))


def nonlocal_var(layer: int, name: str) -> VarId:
    return VarId(NONLOCAL, (layer,), name)


def param_var(name: str) -> VarId:
    return VarId(PARAM, (name,), name)


# A monomial's factor part, as `terms` yields it: ((VarId, exponent), ...)
# sorted by VarId, with positive exponents.
Factors = tuple[tuple[VarId, int], ...]

# The packed layout of a monomial: one int.  The low _LOW_BITS bits hold the
# template unknown, if any: a set flag bit over the unknown's index, and a
# guard bit above the flag.  Above them each variable owns one field of
# FIELD_BITS bits, whose top bit is a guard, so an exponent is at most
# MAX_EXPONENT.  A sum of two valid monomials never carries out of a field:
# it sets the field's guard bit instead, and two unknowns set the guard of
# the low bits.
FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_LOW_BITS = 24
_LOW = (1 << _LOW_BITS) - 1
_LOW_GUARD = 1 << (_LOW_BITS - 1)
_UNKNOWN_FLAG = 1 << (_LOW_BITS - 2)

# The field table: process-wide and append-only.  Field i holds the exponent
# of _VARS[i]; a variable gets its field the first time it is seen.  Keys are
# (VarId, name), since VarId equality ignores the display name.
_VARS: list[VarId] = []
_FIELDS: dict[tuple[VarId, str], int] = {}
_GUARDS = _LOW_GUARD
_KIND_MASKS: dict[int, int] = {UNKNOWN: _LOW}


def unknown_var(k: int) -> VarId:
    """The k-th template unknown: a coefficient, never an exponent field."""
    if not 0 <= k < _UNKNOWN_FLAG:
        raise ValueError(f"a template holds at most {_UNKNOWN_FLAG} unknowns")
    return VarId(UNKNOWN, (k,), f"@c{k}")


def _unit(v: VarId) -> int:
    """The monomial v: a field's 1, or an unknown's low bits."""
    unit = v._unit
    return _intern(v) if unit is None else unit


def _intern(v: VarId) -> int:
    """Look v up in the field table, adding it if new; cache its unit on v."""
    if v.kind == UNKNOWN:
        unit = _UNKNOWN_FLAG | v.idx[0]
    else:
        key = (v, v.name)
        unit = _FIELDS.get(key)
        if unit is None:
            global _GUARDS
            unit = _FIELDS[key] = 1 << (_LOW_BITS + FIELD_BITS * len(_VARS))
            _VARS.append(v)
            _GUARDS |= unit << (FIELD_BITS - 1)
            _KIND_MASKS[v.kind] = _KIND_MASKS.get(v.kind, 0) | unit * MAX_EXPONENT
    v.__dict__["_unit"] = unit
    return unit


def _exponent(m: int, unit: int) -> int:
    if unit > _LOW:
        return (m >> (unit.bit_length() - 1)) & MAX_EXPONENT
    return 1 if m & _LOW == unit else 0


def _field_bytes(m: int) -> bytes:
    """The exponent fields of m, one byte each."""
    fields = m >> _LOW_BITS
    return fields.to_bytes((fields.bit_length() + 7) >> 3, "little")


def _field_vars(m: int) -> set[VarId]:
    """The variables whose fields are nonzero in m."""
    return set(compress(_VARS, _field_bytes(m)))


def _encode(factors: Iterable[tuple[VarId, int]]) -> int:
    m = 0
    for v, e in factors:
        if not 0 <= e <= MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {e} of {v.name} is outside 0..{MAX_EXPONENT}")
        unit = _unit(v)
        if e > 1 and unit <= _LOW:
            raise NonlinearInUnknowns(f"a power of the template unknown {v.name}")
        m += unit * e
    if m & _GUARDS:  # the same variable twice, or two unknowns
        raise _overflow(m)
    return m


def _decode(m: int) -> Factors:
    fields = _field_bytes(m)
    factors = sorted(zip(compress(_VARS, fields), fields.replace(b"\0", b"")))
    low = m & _LOW
    if low:
        factors.append((unknown_var(low ^ _UNKNOWN_FLAG), 1))
    return tuple(factors)


def _check(num: Iterable[int]):
    """Raise if a monomial of `num` has a guard bit set."""
    acc = reduce(or_, num, 0)
    if acc & _GUARDS:
        raise _overflow(acc)


def _overflow(acc: int) -> ValueError:
    if acc & _LOW_GUARD:
        return NonlinearInUnknowns("a product of two template unknowns")
    # The least variable, not the first field: the message must not depend
    # on the order in which the process happened to meet the variables.
    v = min(v for v, e in zip(_VARS, _field_bytes(acc)) if e > MAX_EXPONENT)
    return ExponentOverflow(f"exponent of {v.name} above {MAX_EXPONENT}, the largest a monomial holds")


def _two_names(ranked: Sequence[VarId]) -> ValueError | None:
    """The refusal of the least variable that sorted `ranked` holds under
    two names (from two contexts), or None."""
    for a, b in pairwise(ranked):
        if a == b:
            return ValueError(f"'{a.name}' and '{b.name}' are one variable under two names")
    return None


def _print_rank(support: int) -> tuple[int, list[int]]:
    """The byte width of the fields of `support`, a union of monomials, and
    the indices of its nonzero fields in VarId order."""
    fields = support >> _LOW_BITS
    width = (fields.bit_length() + 7) >> 3
    return width, sorted(compress(range(width), fields.to_bytes(width, "little")), key=_VARS.__getitem__)


def _print_key(width: int, down: Sequence[int]) -> Callable[[int], tuple]:
    """The print-order key of a monomial whose fields are among `down`, field
    indices from the highest variable down: (-degree, unknown bits, its
    exponents from the highest variable down), which orders like
    `_monomial_key`."""
    # itemgetter of one index would return a bare int.
    pick = itemgetter(*down) if len(down) > 1 else lambda fb: tuple(fb[k] for k in down)

    def key(m: int) -> tuple:
        fb = (m >> _LOW_BITS).to_bytes(width, "little")
        low = m & _LOW
        return -sum(fb) - (low > 0), low, pick(fb)

    return key


def _monomial_key(factors: Factors) -> tuple:
    """Canonical order: total degree descending, then exponents read from the
    highest variable downwards ascending.  Makes `u^2 - u_x^2` print with u^2
    first and `u_x^2 + 3/2*u*u_xx` with u_x^2 first."""
    return (-sum(e for _, e in factors), factors[::-1])


class NonlinearInUnknowns(ValueError):
    pass


class ExponentOverflow(ValueError):
    """An exponent above MAX_EXPONENT, which a packed monomial cannot hold."""


class DiffPoly:
    """Immutable multivariate polynomial with rational coefficients.

    `num` maps packed monomials to integer numerators over the denominator
    `den`; the zero polynomial is the empty map over 1.  All operations
    return new canonical values and keep the kernel invariants of the
    module docstring.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, terms: Mapping[Factors, Coef] | None = None):
        # Fractions arrive reduced, so the lcm of their denominators is
        # coprime to the numerators over it.
        terms = terms or {}
        self.den = den = lcm(*(c.denominator for c in terms.values()))
        self.num = {_encode(f): c.numerator * (den // c.denominator) for f, c in terms.items() if c}
        self._hash = None

    @staticmethod
    def _make(num: dict[int, int], den: int = 1) -> "DiffPoly":
        """Trusted constructor: `num` holds no zero and is not shared; reduces by the gcd."""
        if den > 1:
            g = gcd(den, *num.values())
            if g > 1:
                den //= g
                for f, c in num.items():
                    num[f] = c // g
        p = _new_poly(DiffPoly)
        p.num = num
        p.den = den
        p._hash = None
        return p

    @property
    def terms(self) -> Mapping[Factors, Coef]:
        """Read-only view, decoded: factor tuples to coefficients, each an
        int or a non-integral Fraction.  ValueError if two monomials decode
        alike, which happens when the polynomial mixes one variable under
        two names (from two contexts)."""
        den = self.den
        if den == 1:
            out = {_decode(m): c for m, c in self.num.items()}
        else:
            out = {_decode(m): c // den if c % den == 0 else Fraction(c, den) for m, c in self.num.items()}
        if len(out) < len(self.num):
            raise _two_names(sorted(compress(_VARS, _field_bytes(reduce(or_, self.num)))))
        return out

    def __reduce__(self):
        # Through the decoded terms: a copy re-interns its variables, and
        # never carries another process's fields or hash.
        return DiffPoly, (self.terms,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO

    @staticmethod
    def const(c: Coef) -> "DiffPoly":
        return DiffPoly._make({0: c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(v: VarId) -> "DiffPoly":
        return DiffPoly._make({_unit(v): 1})

    @staticmethod
    def monomial(vs: Iterable[VarId]) -> "DiffPoly":
        """The monic monomial of a multiset of variables: the product of
        `var(v)` over `vs`, repeats included."""
        return DiffPoly._make({_encode(Counter(vs).items()): 1})

    @staticmethod
    def pool(groups: Sequence[tuple[Sequence[VarId], int]]) -> list["DiffPoly"]:
        """The monic monomials p_1 * ... * p_g, where p_k is a product of at
        most deg_k variables of the k-th group (variables, deg_k), repeats
        allowed, in `order_key` order.  Built packed: a part is a sum of
        variable units, a monomial a sum of parts, and the pool is sorted
        by the print-order key of its field bytes, decoding nothing."""
        packed = [0]
        for vs, deg in groups:
            if vs and deg > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {MAX_EXPONENT + 1} of {vs[0].name} is outside 0..{MAX_EXPONENT}")
            units = [_unit(v) for v in vs]
            parts = [sum(c) for d in range(deg + 1) for c in combinations_with_replacement(units, d)]
            packed = [m + p for m in packed for p in parts]
        _check(packed)  # a variable in two groups
        width, ranked = _print_rank(reduce(or_, packed))
        return [DiffPoly._make({m: 1}) for m in sorted(set(packed), key=_print_key(width, ranked[::-1]))]

    @staticmethod
    def combination(polys: Sequence["DiffPoly"], start: int) -> "DiffPoly":
        """sum_k c_{start+k} * p_k in one numerator dict with no products:
        index start+k enters the low bits of the monomials of p_k.
        ValueError past the unknowns' range, NonlinearInUnknowns if a p_k
        holds an unknown."""
        if start < 0 or start + len(polys) > _UNKNOWN_FLAG:
            raise ValueError(f"a template holds at most {_UNKNOWN_FLAG} unknowns")
        den = lcm(*(p.den for p in polys))
        num = {}
        unit = _UNKNOWN_FLAG | start
        for p in polys:
            k = den // p.den
            for f, n in p.num.items():
                num[f + unit] = n * k
            unit += 1
        _check(num)
        return DiffPoly._make(num, den)

    @staticmethod
    def sum(polys: Iterable["DiffPoly"]) -> "DiffPoly":
        """Sum of any number of polynomials in one accumulator.

        Terms, and their order, are those of the left fold of `+`; a sum
        with one nonzero operand is that operand itself, as with `+`.  The
        accumulator is lifted to a larger common denominator only when an
        operand brings one.
        """
        first = out = None
        den = 1
        for p in polys:
            if not p.num:
                continue
            if first is None:
                first = p
                continue
            if out is None:
                out = dict(first.num)
                den = first.den
            den = _merge(out, den, p)
        if out is None:
            return first or _ZERO
        return DiffPoly._make(out, den) if out else _ZERO

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not self.num:
            return other
        if not other.num:
            return self
        return DiffPoly.sum((self, other))

    def __neg__(self) -> "DiffPoly":
        return DiffPoly._make({f: -c for f, c in self.num.items()}, self.den)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # A monomial times a polynomial: a shift of every key, which
            # keeps the keys distinct.
            (fb, cb), = b.items()
            out = {fa + fb: ca * cb for fa, ca in a.items()}
        else:
            out = {}
            get = out.get
            for fa, ca in a.items():
                for fb, cb in b.items():
                    f = fa + fb
                    s = get(f)
                    if s is None:
                        out[f] = ca * cb
                    else:
                        s += ca * cb
                        if s:
                            out[f] = s
                        else:
                            del out[f]
        _check(out)
        return DiffPoly._make(out, self.den * other.den)

    def scale(self, c: Coef) -> "DiffPoly":
        if c == 1:
            return self
        if not c:
            return _ZERO
        n = c.numerator
        return DiffPoly._make({f: n * k for f, k in self.num.items()}, self.den * c.denominator)

    def __truediv__(self, c: Coef) -> "DiffPoly":
        """self / c for a nonzero rational c: an int c multiplies the
        denominator, and `_make` reduces once."""
        if not c:
            raise ZeroDivisionError("division of a differential polynomial by zero")
        n, d = c.denominator, c.numerator
        if d < 0:
            n, d = -n, -d
        return DiffPoly._make({f: n * k for f, k in self.num.items()}, self.den * d)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative power of a differential polynomial")
        if len(self.num) == 1:
            # One term: the squarings below on its packed monomial, each a
            # doubling under the guard checks of a product.
            (m, c), = self.num.items()
            out, k = 0, n
            while k:
                if k & 1:
                    out += m
                    if out & _GUARDS:
                        raise _overflow(out)
                k >>= 1
                if k:
                    m += m
                    if m & _GUARDS:
                        raise _overflow(m)
            return DiffPoly._make({out: c ** n}, self.den ** n)
        result = DiffPoly.const(1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        """The number of terms."""
        return len(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.den, frozenset(self.num.items())))
        return h

    def variables(self) -> set[VarId]:
        """The variables self depends on; template unknowns are coefficients,
        not variables, and are left out (see `has_kind(UNKNOWN)`)."""
        return _field_vars(reduce(or_, self.num, 0))

    def has_kind(self, kind: int) -> bool:
        mask = _KIND_MASKS.get(kind)
        return mask is not None and any(m & mask for m in self.num)

    def as_constant(self) -> Coef | None:
        """The value of a constant polynomial, None if variables or unknowns remain."""
        num = self.num
        if not num:
            return 0
        c = num.get(0)
        if c is None or len(num) > 1:
            return None
        return c if self.den == 1 else Fraction(c, self.den)

    def homogeneous_parts(self, kind: int) -> dict[int, "DiffPoly"]:
        """{d: the terms of self whose exponents of the variables of `kind`
        add up to d}, for a kind other than UNKNOWN; the parts sum to self."""
        mask = _KIND_MASKS.get(kind, 0)
        groups: dict[int, dict[int, int]] = {}
        for m, c in self.num.items():
            groups.setdefault(sum(_field_bytes(m & mask)), {})[m] = c
        return {d: DiffPoly._make(num, self.den) for d, num in groups.items()}

    def total_degree(self) -> int:
        return max((sum(_field_bytes(m)) + (m & _LOW > 0) for m in self.num), default=0)

    def order_key(self) -> tuple:
        """Sort key of a monomial: the order in which `__str__` prints terms."""
        (m,) = self.num
        return _monomial_key(_decode(m))

    def linear_rows(self) -> tuple[list[dict[int, int]], bool]:
        """Integer coefficient rows of an expression linear in template unknowns.

        Terms are grouped by their unknown-free monomial; each group is one
        row {k: numerator of the coefficient of unknown_var(k)}, in the order
        the groups are first seen.  The rows leave out the common
        denominator, which does not change their solutions.  The flag is
        True when some term holds no unknown.  (A product of unknowns never
        gets this far: it raises NonlinearInUnknowns where it is formed.)
        """
        grouped: dict[int, dict[int, int]] = {}
        free = False
        for m, c in self.num.items():
            u = m & _LOW
            if u:
                # (known, unknown) determines the term, so no entry repeats.
                grouped.setdefault(m ^ u, {})[u ^ _UNKNOWN_FLAG] = c
            else:
                free = True
        return list(grouped.values()), free

    def offset_unknowns(self, k: int) -> "DiffPoly":
        """self with the index of every template unknown raised by k: the
        combination over c_{i+k} of the one over c_i.  Derivations treat
        unknowns as constants, so they commute with the offset.  ValueError
        if a term holds no unknown or an index leaves the unknowns' range."""
        num = self.num
        if not num:
            return self
        lows = [m & _LOW for m in num]
        lo, hi = min(lows), max(lows)
        if not lo:
            raise ValueError("a term without a template unknown cannot be offset")
        if (lo ^ _UNKNOWN_FLAG) + k < 0 or (hi ^ _UNKNOWN_FLAG) + k >= _UNKNOWN_FLAG:
            raise ValueError(f"a template holds at most {_UNKNOWN_FLAG} unknowns")
        # The coefficients are unchanged, so they need no new reduction.
        p = _new_poly(DiffPoly)
        p.num = {m + k: c for m, c in num.items()}
        p.den = self.den
        p._hash = None
        return p

    # -- calculus ----------------------------------------------------------

    # Distinct monomials stay distinct once the exponent of one variable is
    # lowered, so partial derivatives never add coefficients together.

    def partial(self, v: VarId) -> "DiffPoly":
        """Formal partial derivative; every VarId is an independent coordinate.

        The one-variable case of `derivation`'s pass: a term whose field of
        v is nonzero is lowered by v's unit.  It reads the field directly
        instead of testing `m & mask_v` first, which measured faster on the
        polynomials of two or three terms that partials mostly get."""
        unit = _unit(v)
        if unit <= _LOW:
            out = {m ^ unit: c for m, c in self.num.items() if m & _LOW == unit}
        else:
            off = unit.bit_length() - 1
            out = {}
            for m, c in self.num.items():
                e = (m >> off) & MAX_EXPONENT
                if e:
                    out[m - unit] = c * e
        return DiffPoly._make(out, self.den)

    def derivation(self, image: Callable[[VarId], "DiffPoly | None"]) -> "DiffPoly":
        """The derivation sum_v image(v) * dself/dv, one filtered pass per variable.

        `image` is asked once for each variable of self, in the order of
        `variables()`, and returns None for a variable the derivation kills;
        template unknowns are constants to every derivation.  The loop is
        variable-major: for each v with a nonzero image, in VarId order, one
        pass visits only the terms that hold v (`m & mask_v`) and adds
        c*e*rest*image(v) straight into one accumulator, on the numerators
        of the images lifted to their common denominator.  A one-term image
        g*d (the shift u_sigma -> u_sigma+i of a D_i, x_i -> 1, a covering's
        w -> X) is a shift of the key by g - unit_v with no inner loop, and
        the first such pass into an empty accumulator is one comprehension;
        a multi-term image (D̄_t of a jet, D̃_t of a layer) loops over its
        terms.  The result is reduced once, in `_make`.
        """
        support = reduce(or_, self.num, 0)
        images = []
        for v in _field_vars(support):
            img = image(v)
            if img is not None and img.num:
                images.append((v, img))
        if not images:
            return _ZERO
        if support & _LOW and any(reduce(or_, img.num) & _LOW for _, img in images):
            raise NonlinearInUnknowns("a derivation with unknowns in both the polynomial and an image")
        images.sort(key=itemgetter(0))
        den_i = lcm(*(img.den for _, img in images))
        items = self.num.items()
        out: dict[int, int] = {}
        get = out.get
        for v, img in images:
            unit = _unit(v)
            off = unit.bit_length() - 1
            mask = unit * MAX_EXPONENT
            lift = den_i // img.den
            if len(img.num) == 1:
                # A shift of every key that holds v: distinct keys stay distinct.
                (g, d), = img.num.items()
                d *= lift
                shift = g - unit
                if not out:
                    out = {m + shift: c * ((m >> off) & MAX_EXPONENT) * d for m, c in items if m & mask}
                    get = out.get
                    continue
                for m, c in items:
                    if m & mask:
                        key = m + shift
                        t = c * ((m >> off) & MAX_EXPONENT) * d
                        s = get(key)
                        if s is None:
                            out[key] = t
                        else:
                            s += t
                            if s:
                                out[key] = s
                            else:
                                del out[key]
                continue
            gs = img.num.items() if lift == 1 else [(g, d * lift) for g, d in img.num.items()]
            for m, c in items:
                if m & mask:
                    rest = m - unit
                    ce = c * ((m >> off) & MAX_EXPONENT)
                    for g, d in gs:
                        key = rest + g
                        s = get(key)
                        if s is None:
                            out[key] = ce * d
                        else:
                            s += ce * d
                            if s:
                                out[key] = s
                            else:
                                del out[key]
        _check(out)
        return DiffPoly._make(out, self.den * den_i)

    def integration(self, derive: Callable[[int, "DiffPoly"], "DiffPoly"], jet: Callable[[int, MultiIndex], VarId],
                    i: int, q: int = 0) -> tuple[list["DiffPoly"], "DiffPoly", bool]:
        """The inverse of the derivation `derive(i, .)` on the positive-order
        jets: integrates them from the top order downwards and returns the
        parts h1 found, the remainder g = self - sum derive(i, h1), and
        whether g is down to jets of order 0.  `jet(j, sigma)` names the jet
        variables u^j_sigma.

        At each pass the coefficients of the highest-order jet variables are
        demanded (a) to contain derivatives in the direction i, (b) to enter
        linearly with coefficients of lower order, and (c) to admit a joint
        antiderivative h1, which is vacuous for one such variable; a failure
        proves self is not in the image, and the pass returns g with False.
        The coefficients are read from g's numerators, and derive(i, -h1) is
        merged into them in place, so g lives in one dict over the passes.

        Termination.  `q` is the highest jet order that `derive(i, .)` can
        bring in besides the shifted jets: 0 for the total derivative, the
        highest jet order of the x-expressions of a covering.  While the top
        order k of g exceeds q, derive(i, h1) and D_i h1 agree at order k; if
        g = D_i H, the top jets of g come from the jets of H one order lower,
        whose coefficients are derivatives of H that depend on no other jets
        of that order, so removing derive(i, h1) strictly lowers k.  Once
        k <= q it stays there, and the x-expressions may bring order-k terms
        back (w_x = u_x takes g = w*u_x through two passes at order 1).  From
        then on a pass must instead shrink the multiset of (nonlocal degree,
        jet order) pairs of g's monomials (`_profile`): it removes every
        order-k monomial and, when the x-expressions are free of nonlocal
        variables, adds only monomials of lower order or of lower nonlocal
        degree.  Both measures are well-founded, so the loop ends; a pass
        that lowers neither returns g with False.
        """
        num, den = dict(self.num), self.den
        parts = []
        last = None
        while True:
            # A jet's sort key is (JET, j, order, sigma).
            jets = [v for v in compress(_VARS, _field_bytes(reduce(or_, num, 0) & _KIND_MASKS.get(JET, 0))) if v[2]]
            if not jets:
                return parts, DiffPoly._make(num, den) if num else _ZERO, True
            k = max(v[2] for v in jets)
            measure = (k,) if k > q else (q, _profile(num))
            if last is not None and measure >= last:
                break
            last = measure
            top = sorted(v for v in jets if v[2] == k)
            high = sum(map(_unit, top)) * MAX_EXPONENT
            coeffs = []
            for v in top:
                if i not in v.idx[1]:
                    break
                unit = _unit(v)
                off = unit.bit_length() - 1
                a = {}
                for m, c in num.items():
                    e = (m >> off) & MAX_EXPONENT
                    if e:
                        a[m - unit] = c * e
                if reduce(or_, a) & high:
                    break
                coeffs.append((jet(v.idx[0], mi_remove_one(v.idx[1], i)), DiffPoly._make(a, den)))
            else:
                (w, a), *rest = coeffs
                h1 = a.antiderivative(w)
                for w, a in rest:
                    h1 += (a - h1.partial(w)).antiderivative(w)
                if not rest or all(h1.partial(w) == a for w, a in coeffs):
                    den = _merge(num, den, derive(i, -h1))
                    parts.append(h1)
                    continue
            break  # the pass failed (a), (b) or (c)
        return parts, DiffPoly._make(num, den), False

    def substitute(self, bindings: Mapping[VarId, "DiffPoly"]) -> "DiffPoly":
        """Simultaneous substitution of variables by polynomials.

        All bindings are applied in a single pass (the images are not
        re-substituted), so self-referencing images such as u -> s*u are
        well-defined.
        """
        if not bindings:
            return self
        units = [(_unit(v), img) for v, img in bindings.items()]

        def terms():
            for m, c in self.num.items():
                images = []
                for unit, img in units:
                    e = _exponent(m, unit)
                    if e:
                        m -= unit * e
                        images.append(img ** e)
                term = DiffPoly._make({m: c}, self.den)
                for img in images:
                    term = term * img
                yield term

        return DiffPoly.sum(terms())

    def antiderivative(self, v: VarId) -> "DiffPoly":
        """The antiderivative in v whose every term holds v: c*v^e*rest
        becomes c/(e+1)*v^(e+1)*rest."""
        unit = _unit(v)
        raised = [_exponent(m, unit) + 1 for m in self.num]
        top = lcm(*raised)
        out = {m + unit: c * (top // e) for (m, c), e in zip(self.num.items(), raised)}
        _check(out)
        return DiffPoly._make(out, self.den * top)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        """Terms in `order_key` order, read from the field bytes: the
        support's variables are ranked in VarId order once, and a monomial
        sorts by (-degree, unknown bits, its exponents from the highest
        variable down), which orders like `_monomial_key`.  `compress` picks a
        term's nonzero exponents, so the loop that formats factors runs over
        a term's few factors, not the whole support.  A support that holds
        one variable under two names (from two contexts) is refused."""
        num, den = self.num, self.den
        if not num:
            return "0"
        width, ranked = _print_rank(reduce(or_, num))
        refusal = _two_names([_VARS[k] for k in ranked])
        if refusal:
            raise refusal
        down = ranked[::-1]
        names = [_VARS[k].name for k in down]
        # Keys are distinct, so the coefficients are never compared.
        keyed = sorted(zip(map(_print_key(width, down), num), num.values()))
        parts: list[str] = []
        try:
            for (_, low, exps), c in keyed:
                factors = [name if e == 1 else f"{name}^{e}" for name, e in compress(zip(names, exps), exps)]
                factors.reverse()
                if low:
                    factors.append(unknown_var(low ^ _UNKNOWN_FLAG).name)
                body = "*".join(factors)
                mag = abs(c)
                g = gcd(mag, den)
                coef = str(mag // g) if g == den else f"{mag // g}/{den // g}"
                chunk = coef if not body else body if coef == "1" else f"{coef}*{body}"
                if not parts:
                    parts.append(chunk if c > 0 else "-" + chunk)
                else:
                    parts.append(("+ " if c > 0 else "- ") + chunk)
        except ValueError:  # more digits than str() converts, which no literal may have
            raise ValueError(f"a coefficient longer than {sys.get_int_max_str_digits()} digits, "
                             "the most a report prints") from None
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiffPoly({self})"


_ZERO = DiffPoly()
_new_poly = object.__new__


def _merge(out: dict[int, int], den: int, p: DiffPoly) -> int:
    """Add p into the numerators `out` over `den`, in place, and return
    the denominator of the sum: both sides are lifted to the common one
    only when p brings a larger one.  The merge loop of every accumulator."""
    items = p.num.items()
    if p.den != den:
        common = lcm(den, p.den)
        if common != den:
            k = common // den
            for f, c in out.items():
                out[f] = c * k
        if common != p.den:
            k = common // p.den
            items = [(f, c * k) for f, c in items]
        den = common
    get = out.get
    for f, c in items:
        s = get(f)
        if s is None:
            out[f] = c
        else:
            s += c
            if s:
                out[f] = s
            else:
                del out[f]
    return den


def _profile(num: Iterable[int]) -> list[tuple[int, int]]:
    """(nonlocal degree, highest jet order) of each monomial, largest first;
    as lists these compare like the multisets they list."""
    nonlocals, jets = _KIND_MASKS.get(NONLOCAL, 0), _KIND_MASKS.get(JET, 0)
    return sorted(((sum(_field_bytes(m & nonlocals)), max((len(v.idx[1]) for v in _field_vars(m & jets)), default=0))
                   for m in num), reverse=True)


# --------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error in an expression, annotated with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifier(ParseError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown identifier '{name}'", pos)
        self.identifier = name


_TOKEN_OPS = set("+-*/^()")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens are (type, value, pos) with type in {num, ident, op, end}.

    An identifier may carry a derivative subscript: `u_x` or `u_{xxt}`.
    """
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            name = text[i:j]
            if j < n and text[j] == "_":
                k = j + 1
                if k < n and text[k] == "{":
                    close = text.find("}", k)
                    if close < 0:
                        raise ParseError("unterminated '{' in subscript", k)
                    tokens.append(("ident", text[i:close + 1], i))
                    i = close + 1
                    continue
                m = k
                while m < n and text[m].isalnum():
                    m += 1
                if m == k:
                    raise ParseError("empty subscript after '_'", k)
                tokens.append(("ident", text[i:m], i))
                i = m
                continue
            tokens.append(("ident", name, i))
            i = j
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(("op", ",", i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def split_identifier(token: str) -> tuple[str, str | None]:
    """Split `u_{xxt}` into ('u', 'xxt'); bare names give (name, None)."""
    if "_" not in token:
        return token, None
    base, sub = token.split("_", 1)
    if sub.startswith("{"):
        sub = sub[1:-1]
    return base, sub


# The deepest nesting the grammar reads: each '(' and each sign opens a
# level while its operand is read.  The descent takes at most three frames
# a level, which keeps it inside Python's recursion limit.
MAX_NESTING = 200


class _Parser:
    """Recursive-descent parser over the shared expression grammar.

    The grammar is fixed; what its atoms and operators build is not.  The
    hooks `number`, `identifier`, `product`, `power` and `constant` make
    polynomials here; the CLI overrides them to build operators in total
    derivatives from the same grammar, and to check a declaration without
    building it.  Values must support `+`, `-`, unary `-` and `/` by a
    nonzero rational constant (an int or a Fraction), which is how the
    grammar divides.  The grammar reads number literals and exponents
    itself, so every hook set gets the same ints and the same errors for
    them.

    `ctx.resolve_identifier(base, subscript, pos) -> VarId` maps identifiers
    to variables; it raises UnknownIdentifier for names not in scope.
    """

    def __init__(self, text: str, ctx):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ctx = ctx

    # -- hooks ---------------------------------------------------------------

    def number(self, value: int):
        return DiffPoly.const(value)

    def identifier(self, base: str, sub: str | None, pos: int):
        return DiffPoly.var(self.ctx.resolve_identifier(base, sub, pos))

    def product(self, a, b):
        return a * b

    def power(self, a, n: int):
        return a ** n

    def constant(self, a) -> Coef | None:
        """The value of `a` when it is a rational constant, else None."""
        return a.as_constant()

    # -- grammar -------------------------------------------------------------
    # `self.pos` indexes the next token; a hook runs with every token of its
    # operands read, so an exponent overflow cites the last one.

    def parse(self):
        """The whole input as one expression."""
        try:
            result = self.parse_expr()
        except ExponentOverflow as exc:
            raise ParseError(str(exc), self.tokens[self.pos - 1][2]) from None
        typ, _, pos = self.tokens[self.pos]
        if typ != "end":
            raise ParseError("trailing input", pos)
        return result

    def parse_expr(self):
        acc = self.parse_term()
        tokens = self.tokens
        while True:
            typ, val, _ = tokens[self.pos]
            if typ != "op" or val not in "+-":
                return acc
            self.pos += 1
            rhs = self.parse_term()
            acc = acc + rhs if val == "+" else acc - rhs

    def parse_term(self):
        acc = self.parse_factor()
        tokens = self.tokens
        while True:
            typ, val, pos = tokens[self.pos]
            if typ != "op" or val not in "*/":
                return acc
            self.pos += 1
            rhs = self.parse_factor()
            if val == "*":
                acc = self.product(acc, rhs)
                continue
            c = self.constant(rhs)
            if c is None:
                raise ParseError("division is only defined by rational constants", pos)
            if c == 0:
                raise ParseError("division by zero", pos)
            acc = acc / c

    def open_level(self, pos: int):
        if self.depth == MAX_NESTING:
            raise ParseError("expression nested too deeply", pos)
        self.depth += 1

    def parse_factor(self):
        """A sign and a factor, or an atom (a number, an identifier or a
        parenthesised expression) with an optional `^n`."""
        tokens = self.tokens
        typ, val, pos = tokens[self.pos]
        self.pos += 1
        if typ == "ident":
            base, sub = split_identifier(val)
            atom = self.identifier(base, sub, pos)
        elif typ == "num":
            try:
                value = int(val)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number longer than {sys.get_int_max_str_digits()} digits, "
                                 "the longest one allowed", pos) from None
            atom = self.number(value)
        elif typ == "op" and val == "(":
            self.open_level(pos)
            atom = self.parse_expr()
            self.depth -= 1
            typ, val, pos = tokens[self.pos]
            self.pos += 1
            if typ != "op" or val != ")":
                raise ParseError("expected ')'", pos)
        elif typ == "op" and val in "+-":
            self.open_level(pos)
            inner = self.parse_factor()
            self.depth -= 1
            return inner if val == "+" else -inner
        else:
            raise ParseError("expected a number, identifier or '('", pos)
        typ, val, _ = tokens[self.pos]
        if typ != "op" or val != "^":
            return atom
        typ, val, pos = tokens[self.pos + 1]
        self.pos += 2
        if typ != "num":
            raise ParseError("exponent must be a nonnegative integer", pos)
        if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(f"exponent above {MAX_EXPONENT}, the largest one allowed", pos)
        return self.power(atom, int(val))


def parse(text: str, ctx) -> DiffPoly:
    """Parse an expression string against a declaration context.

    `ctx` must provide resolve_identifier(base, subscript, pos) -> VarId.
    """
    return _Parser(text, ctx).parse()
