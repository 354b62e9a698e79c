"""Exact differential-polynomial arithmetic.

Expressions are polynomials with rational coefficients in a mixed set of
formal variables: base (independent) variables, jet variables u^j_sigma,
nonlocal variables of a covering, named parameters, test covectors, and an
auxiliary scalar used by the homotopy integral.  Everything is immutable
and canonical: equal values have equal representations, so equality of
expressions is equality of their numerator maps and denominators.

Kernel invariants, which every operation keeps:

- The monomial layout is private to this module: a monomial is a sorted
  tuple of (VarId, exponent) factors, and a polynomial maps monomials to
  int numerators over one denominator (`num`, `den`).  Other modules build
  and take apart polynomials only through the `DiffPoly` API and read them
  through the decoded `terms` view.  Monomials come from `var` and
  `monomial`, ordered by `order_key`; templates from `combination`;
  coefficient rows from `linear_rows`; integrals from `antiderivative`.
- Coefficients are nonzero int numerators over one positive denominator
  coprime to them, 1 for an integer polynomial (FLINT's `fmpq_poly`).  Ring
  operations run on ints and divide out one gcd, in `DiffPoly._make`;
  rationals enter through `DiffPoly(terms)`, `const`, `scale` and
  `evaluate`, and leave through the `terms` view.
- `DiffPoly(terms)` cleans its input; the trusted `DiffPoly._make` is only
  for numerator dicts that hold no zero and are owned by the new value.
- `DiffPoly.sum` is the only accumulator.  A sum of many polynomials is
  never a chain of `+`, which copies the partial sum at every step.  Keyed
  maps of polynomials (operator entries, Cartan maps, form components)
  accumulate through it too: `cdiff._collect` groups terms by key and
  sums each group once.
- `DiffPoly.derivation` is the only derivation primitive; total,
  restricted, extended and evolutionary derivatives are image maps over it.
- A `VarId` is the tuple of its canonical sort key, so hashing, equality
  and ordering of variables and factor tuples never run Python code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Rational = Fraction
Coef = int | Fraction


# Variable kinds, in the fixed total order used for canonical forms.
BASE = 0
JET = 1
NONLOCAL = 2
PARAM = 3
TESTCOV = 4
HSCALAR = 5

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


class VarId(tuple):
    """Identity of a formal variable.

    `idx` is the identity payload (per-kind encoding); `name` is display-only
    and excluded from equality so that bookkeeping never depends on how a
    variable happens to be rendered.

    The tuple itself is the canonical sort key, computed once at
    construction: the kind, then for jets (component, order, multi-index),
    for test covectors (name, component, order, multi-index), and the
    payload for every other kind.  The key determines (kind, idx), so
    hashing, equality and ordering are plain tuple operations; `kind`,
    `idx` and `name` ride along as attributes.
    """

    def __new__(cls, kind: int, idx: tuple, name: str = ""):
        if kind == JET:
            key = (JET, idx[0], len(idx[1]), idx[1])
        elif kind == TESTCOV:
            key = (TESTCOV, idx[0], idx[1], len(idx[2]), idx[2])
        else:
            key = (kind,) + idx
        self = tuple.__new__(cls, key)
        attrs = self.__dict__
        attrs["kind"] = kind
        attrs["idx"] = idx
        attrs["name"] = name
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"VarId is immutable; cannot set {attr!r}")

    def __getnewargs__(self):
        # Pickling and copying rebuild a variable from its constructor
        # arguments, not from the key tuple.
        return self.kind, self.idx, self.name

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


def testcov_var(name: str, comp: int, sigma: MultiIndex, base_names: tuple[str, ...], dep_names: tuple[str, ...] = ()) -> VarId:
    display = name if len(dep_names) <= 1 else f"{name}[{dep_names[comp]}]"
    return VarId(TESTCOV, (name, comp, tuple(sorted(sigma))), display + jet_subscript(tuple(sorted(sigma)), base_names))


# The homotopy scalar is unique; its display name cannot be produced by the
# expression grammar, so it can never collide with user identifiers.
HOMOTOPY_SCALAR = VarId(HSCALAR, (), "@s")


# A monomial's factor part: ((VarId, exponent), ...) sorted by VarId, with
# positive exponents.
Factors = tuple[tuple[VarId, int], ...]


def _merge_factors(a: Factors, b: Factors) -> Factors:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # One factor, the common case (a variable times a monomial): insert
        # it at its place in the sorted tuple.
        (v, e), = b
        i = bisect_left(a, (v,))
        if i < len(a) and a[i][0] == v:
            return a[:i] + ((v, a[i][1] + e),) + a[i + 1:]
        return a[:i] + b + a[i:]
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _monomial_key(factors: Factors) -> tuple:
    """Canonical order: total degree descending, then exponents read from the
    highest variable downwards ascending.  Makes `u^2 - u_x^2` print with u^2
    first and `u_x^2 + 3/2*u*u_xx` with u_x^2 first."""
    return (-sum(e for _, e in factors), factors[::-1])


class NonlinearInUnknowns(ValueError):
    pass


class DiffPoly:
    """Immutable multivariate polynomial with rational coefficients.

    `num` maps factor tuples to integer numerators over the denominator
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
        self.num = {f: c.numerator * (den // c.denominator) for f, c in terms.items() if c}
        self._hash = None

    @staticmethod
    def _make(num: dict[Factors, int], den: int = 1) -> "DiffPoly":
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
        """Read-only view: each coefficient an int or a non-integral Fraction."""
        den = self.den
        if den == 1:
            return self.num
        return {f: c // den if c % den == 0 else Fraction(c, den) for f, c in self.num.items()}

    def __reduce__(self):
        # Through the constructor: a copy never carries another process's hash.
        return DiffPoly, (self.terms,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO

    @staticmethod
    def const(c: Coef) -> "DiffPoly":
        return DiffPoly._make({(): c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(v: VarId) -> "DiffPoly":
        return DiffPoly._make({((v, 1),): 1})

    @staticmethod
    def monomial(vs: Iterable[VarId]) -> "DiffPoly":
        """The monic monomial of a multiset of variables: the product of
        `var(v)` over `vs`, repeats included."""
        return DiffPoly._make({tuple(sorted(Counter(vs).items())): 1})

    @staticmethod
    def combination(pairs: Sequence[tuple[VarId, "DiffPoly"]]) -> "DiffPoly":
        """sum_k c_k * m_k over pairs (c_k, m_k), assembled in one numerator
        dict with no products: each c_k, a variable of no m_k and of no
        other pair, enters the monomials of its m_k."""
        den = lcm(*(m.den for _, m in pairs))
        num = {}
        for c, m in pairs:
            unit = ((c, 1),)
            for f, k in m.num.items():
                num[_merge_factors(f, unit) if f else unit] = k * (den // m.den)
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
            items = p.num.items()
            if p.den != den:
                common = lcm(den, p.den)
                if common != den:
                    out = {f: c * (common // den) for f, c in out.items()}
                if common != p.den:
                    items = [(f, c * (common // p.den)) for f, c in items]
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
        if not self.num or not other.num:
            return _ZERO
        out: dict[Factors, int] = {}
        get = out.get
        for fa, ca in self.num.items():
            for fb, cb in other.num.items():
                f = _merge_factors(fa, fb) if fa and fb else fa or fb
                s = get(f)
                if s is None:
                    out[f] = ca * cb
                else:
                    s += ca * cb
                    if s:
                        out[f] = s
                    else:
                        del out[f]
        return DiffPoly._make(out, self.den * other.den)

    def scale(self, c: Coef) -> "DiffPoly":
        if c == 1:
            return self
        if not c:
            return _ZERO
        n = c.numerator
        return DiffPoly._make({f: n * k for f, k in self.num.items()}, self.den * c.denominator)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("negative power of a differential polynomial")
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

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.den, frozenset(self.num.items())))
        return h

    def variables(self) -> set[VarId]:
        out: set[VarId] = set()
        for f in self.num:
            for v, _ in f:
                out.add(v)
        return out

    def has_kind(self, kind: int) -> bool:
        return any(v.kind == kind for f in self.num for v, _ in f)

    def as_constant(self) -> Coef | None:
        """The value of a constant polynomial, None if variables remain."""
        if len(self.num) > 1 or self.num and () not in self.num:
            return None
        return self.terms.get((), 0)

    def total_degree(self) -> int:
        return max((sum(e for _, e in f) for f in self.num), default=0)

    def order_key(self) -> tuple:
        """Sort key of a monomial: the order in which `__str__` prints terms."""
        (f,) = self.num
        return _monomial_key(f)

    def linear_rows(self, index: Mapping[str, int]) -> tuple[list[dict[int, Coef]], bool]:
        """Coefficient rows of an expression linear in unknowns, the
        parameters whose names `index` maps to columns.

        Terms are grouped by their unknown-free monomial; each group is one
        row {column: coefficient}, in the order the groups are first seen.
        The flag is True when some term holds no unknown.  A product or a
        power of unknowns raises NonlinearInUnknowns.
        """
        den = self.den
        grouped: dict[Factors, dict[int, Coef]] = {}
        free = False
        for f, c in self.num.items():
            unknown = None
            known = []
            for v, e in f:
                if v.kind == PARAM and v.idx[0] in index:
                    if unknown is not None or e > 1:
                        raise NonlinearInUnknowns(f"monomial {DiffPoly._make({f: c}, den)} is nonlinear in unknowns")
                    unknown = index[v.idx[0]]
                else:
                    known.append((v, e))
            if unknown is None:
                free = True
            else:
                # (known, unknown) determines the term, so no entry repeats.
                grouped.setdefault(tuple(known), {})[unknown] = c if den == 1 else Fraction(c, den)
        return list(grouped.values()), free

    # -- calculus ----------------------------------------------------------

    # Distinct monomials stay distinct once the exponent of one variable is
    # lowered, so partial derivatives never add coefficients together.

    def partial(self, v: VarId) -> "DiffPoly":
        """Formal partial derivative; every VarId is an independent coordinate."""
        out: dict[Factors, int] = {}
        for f, c in self.num.items():
            for pos, (w, e) in enumerate(f):
                if w == v:
                    if e == 1:
                        out[f[:pos] + f[pos + 1:]] = c
                    else:
                        out[f[:pos] + ((w, e - 1),) + f[pos + 1:]] = c * e
                    break
        return DiffPoly._make(out, self.den)

    def derivation(self, image: Callable[[VarId], "DiffPoly | None"]) -> "DiffPoly":
        """The derivation sum_v image(v) * dself/dv, in one pass over the terms.

        `image` is asked once for each variable of self, in the order of
        `variables()`, and returns None for a variable the derivation kills.
        Each factor (v, e) of a term adds rest * image(v) straight into one
        accumulator, on the numerators of the images lifted to their common
        denominator; the result is reduced once, in `_make`.
        """
        images: dict[VarId, DiffPoly] = {}
        for v in self.variables():
            img = image(v)
            if img is not None and img.num:
                images[v] = img
        if not images:
            return _ZERO
        den_i = lcm(*(img.den for img in images.values()))
        nums = {v: img.num if img.den == den_i else {g: d * (den_i // img.den) for g, d in img.num.items()}
                for v, img in images.items()}
        out: dict[Factors, int] = {}
        get = out.get
        for f, c in self.num.items():
            for pos, (v, e) in enumerate(f):
                img = nums.get(v)
                if img is None:
                    continue
                if e == 1:
                    rest = f[:pos] + f[pos + 1:]
                    ce = c
                else:
                    rest = f[:pos] + ((v, e - 1),) + f[pos + 1:]
                    ce = c * e
                for g, d in img.items():
                    key = (_merge_factors(rest, g) if g else rest) if rest else g
                    s = get(key)
                    if s is None:
                        out[key] = ce * d
                    else:
                        s += ce * d
                        if s:
                            out[key] = s
                        else:
                            del out[key]
        return DiffPoly._make(out, self.den * den_i)

    def substitute(self, bindings: Mapping[VarId, "DiffPoly"]) -> "DiffPoly":
        """Simultaneous substitution of variables by polynomials.

        All bindings are applied in a single pass (the images are not
        re-substituted), so self-referencing images such as u -> s*u are
        well-defined.
        """
        if not bindings:
            return self

        def terms():
            for f, c in self.num.items():
                kept = []
                images = []
                for v, e in f:
                    img = bindings.get(v)
                    if img is None:
                        kept.append((v, e))
                    else:
                        images.append(img ** e)
                term = DiffPoly._make({tuple(kept): c}, self.den)
                for img in images:
                    term = term * img
                yield term

        return DiffPoly.sum(terms())

    def evaluate(self, values: Mapping[VarId, Coef]) -> "DiffPoly":
        """Substitution of rational constants: `substitute` with constant
        images, without building the intermediate products."""

        def terms():
            for f, c in self.num.items():
                kept = []
                d = self.den
                for v, e in f:
                    val = values.get(v)
                    if val is None:
                        kept.append((v, e))
                    else:
                        c *= val.numerator ** e
                        d *= val.denominator ** e
                if c:
                    yield DiffPoly._make({tuple(kept): c}, d)

        return DiffPoly.sum(terms())

    def antiderivative(self, v: VarId) -> "DiffPoly":
        """The antiderivative in v whose every term holds v: c*v^e*rest
        becomes c/(e+1)*v^(e+1)*rest."""
        unit = ((v, 1),)
        raised = {}
        for f, c in self.num.items():
            e = next((k for w, k in f if w == v), 0) + 1
            raised[_merge_factors(f, unit) if f else unit] = (c, e)
        top = lcm(*(e for _, e in raised.values()))
        return DiffPoly._make({f: c * (top // e) for f, (c, e) in raised.items()}, self.den * top)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts: list[str] = []
        for f, c in sorted(self.terms.items(), key=lambda t: _monomial_key(t[0])):
            body = "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in f)
            mag = abs(c)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            if not parts:
                parts.append(chunk if c > 0 else "-" + chunk)
            else:
                parts.append(("+ " if c > 0 else "- ") + chunk)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiffPoly({self})"


_ZERO = DiffPoly()
_new_poly = object.__new__


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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


class _Parser:
    """Recursive-descent parser over the shared expression grammar.

    The grammar is fixed; what its atoms and operators build is not.  The
    hooks `number`, `identifier`, `product`, `power` and `constant` make
    polynomials here; the operator parser of the CLI overrides them to build
    operators in total derivatives from the same grammar.  Values must
    support `+`, `-`, unary `-` and `scale`.

    `ctx.resolve_identifier(base, subscript, pos) -> VarId` maps identifiers
    to variables; it raises UnknownIdentifier for names not in scope.
    """

    def __init__(self, text: str, ctx):
        self.tokens = tokenize(text)
        self.pos = 0
        self.ctx = ctx

    # -- hooks ---------------------------------------------------------------

    def number(self, digits: str):
        return DiffPoly.const(int(digits))

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

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def parse(self):
        """The whole input as one expression."""
        try:
            result = self.parse_expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", self.peek()[2]) from None
        typ, _, pos = self.peek()
        if typ != "end":
            raise ParseError("trailing input", pos)
        return result

    def parse_expr(self):
        acc = self.parse_term()
        while True:
            typ, val, _ = self.peek()
            if typ == "op" and val in "+-":
                self.next()
                rhs = self.parse_term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            typ, val, pos = self.peek()
            if typ == "op" and val == "*":
                self.next()
                acc = self.product(acc, self.parse_factor())
            elif typ == "op" and val == "/":
                self.next()
                c = self.constant(self.parse_factor())
                if c is None:
                    raise ParseError("division is only defined by rational constants", pos)
                if c == 0:
                    raise ParseError("division by zero", pos)
                acc = acc.scale(Fraction(1) / c)
            else:
                return acc

    def parse_factor(self):
        typ, val, pos = self.peek()
        if typ == "op" and val in "+-":
            self.next()
            inner = self.parse_factor()
            return inner if val == "+" else -inner
        return self.parse_power()

    def parse_power(self):
        atom = self.parse_atom()
        typ, val, pos = self.peek()
        if typ == "op" and val == "^":
            self.next()
            etyp, eval_, epos = self.next()
            if etyp != "num":
                raise ParseError("exponent must be a nonnegative integer", epos)
            return self.power(atom, int(eval_))
        return atom

    def parse_atom(self):
        typ, val, pos = self.next()
        if typ == "num":
            return self.number(val)
        if typ == "ident":
            base, sub = split_identifier(val)
            return self.identifier(base, sub, pos)
        if typ == "op" and val == "(":
            inner = self.parse_expr()
            typ, val, pos = self.next()
            if typ != "op" or val != ")":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a number, identifier or '('", pos)


def parse(text: str, ctx) -> DiffPoly:
    """Parse an expression string against a declaration context.

    `ctx` must provide resolve_identifier(base, subscript, pos) -> VarId.
    """
    return _Parser(text, ctx).parse()
