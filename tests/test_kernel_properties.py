"""Property tests of the polynomial kernel and the exact nullspace.

hypothesis draws the inputs; sympy is the independent oracle for the
reduced row echelon form.  Both are test-only dependencies.  The fused
`DiffPoly.derivation` is checked against the partial-then-multiply sum it
replaced, and the derivatives built on it against the identities of the
variational bicomplex.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd

import jetcalc
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from jetcalc.dalg import (
    BASE,
    HOMOTOPY_SCALAR,
    HSCALAR,
    JET,
    NONLOCAL,
    PARAM,
    TESTCOV,
    DiffPoly,
    VarId,
    unknown_var,
)
from jetcalc.cdiff import CDiffOp, _collect
from jetcalc.detsolve import LinearSystem, _strip_pinned, match_coefficients, nullspace
from jetcalc.jetspace import EvolutionSystem, JetContext, total_derivative
from jetcalc.hamrec import make_covering
from jetcalc.variational import Density, dx_inverse, euler

CTX = JetContext(("x", "t"), ("u", "v"), has_time=True)
VARS = [CTX.base(0), CTX.base(1), CTX.jet(0), CTX.jet(0, (0,)), CTX.jet(1, (0, 0)), CTX.jet(1, (0, 1)),
        CTX.testcov("p", 1, (0,)), VarId(PARAM, ("c0",), "c0"), HOMOTOPY_SCALAR]

KERNEL = settings(max_examples=60, deadline=None)

coefficients = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def polys(draw, max_terms=5, variables=VARS):
    """Random polynomials, built only through the public ring operations."""
    out = DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(draw(coefficients))
        for v in draw(st.lists(st.sampled_from(variables), max_size=3)):
            term = term * DiffPoly.var(v)
        out = out + term
    return out


def assert_clean(p: DiffPoly):
    """The stored layout in normal form (integer numerators, none zero,
    over one positive denominator coprime to them all), no zero
    coefficient, and every coefficient an int or a non-integral Fraction."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    for f, c in p.terms.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert all(e > 0 for _, e in f)
        assert list(f) == sorted(f)


def reference_add(acc: dict, p: DiffPoly) -> dict:
    """The original `+` on term dicts: copy, add, drop cancelled terms."""
    out = dict(acc)
    for f, c in p.terms.items():
        s = out.get(f, 0) + c
        if s:
            out[f] = s
        elif f in out:
            del out[f]
    return out


@KERNEL
@given(st.lists(polys(), max_size=6))
@example([DiffPoly.zero(), DiffPoly.var(VARS[2]), DiffPoly.zero()])
def test_sum_is_left_fold(ps):
    folded = reduce(reference_add, ps, {})
    total = DiffPoly.sum(ps)
    assert list(total.terms.items()) == list(folded.items())
    assert total == reduce(lambda a, b: a + b, ps, DiffPoly.zero())
    assert_clean(total)
    nonzero = [p for p in ps if p]
    if len(nonzero) == 1:
        assert total is nonzero[0]


@KERNEL
@given(st.lists(st.tuples(st.integers(0, 3), polys(max_terms=3)), max_size=10))
@example([(0, DiffPoly.var(VARS[2])), (1, DiffPoly.var(VARS[2])), (0, -DiffPoly.var(VARS[2]))])
def test_collect_is_per_key_left_fold(pairs):
    keys = dict.fromkeys(k for k, _ in pairs)
    folded = {k: reduce(lambda a, b: a + b, (p for j, p in pairs if j == k), DiffPoly.zero()) for k in keys}
    got = _collect(pairs)
    assert got == {k: p for k, p in folded.items() if p}
    assert list(got) == [k for k in keys if folded[k]]
    for p in got.values():
        assert p
        assert_clean(p)


HALF_U2 = DiffPoly.const(Fraction(1, 2)) * DiffPoly.var(VARS[2]) ** 2


@KERNEL
@given(polys(), polys(), coefficients, st.sampled_from(VARS))
@example(HALF_U2, HALF_U2 + DiffPoly.const(2), 2, VARS[2])
def test_operations_store_no_zero_coefficient(a, b, c, v):
    values = {w: Fraction(k, 2) - 1 for k, w in enumerate(VARS[:4])}
    results = [a + b, a - b, a - a, a * b, -a, a.scale(c), a.scale(0), a.partial(v), a ** 2,
               a.substitute({v: b}), a.evaluate(values), (a * DiffPoly.var(HOMOTOPY_SCALAR)).antiderivative(HOMOTOPY_SCALAR).evaluate({HOMOTOPY_SCALAR: 1}),
               a.antiderivative(v),
               DiffPoly.sum([a, b, -a]), DiffPoly(a.terms)]
    for p in results:
        assert_clean(p)


@KERNEL
@given(polys())
def test_pickle_and_copy_roundtrip(p):
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and str(q) == str(p)
        assert [v.name for f in q.terms for v, _ in f] == [v.name for f in p.terms for v, _ in f]


SRC = os.path.dirname(os.path.dirname(os.path.abspath(jetcalc.__file__)))
PICKLE_POLY = """
import pickle, sys
from fractions import Fraction
from jetcalc.dalg import DiffPoly, param_var
p = DiffPoly.var(param_var("a")) * DiffPoly.var(param_var("b")).scale(Fraction(1, 2)) + DiffPoly.const(3)
"""


def run_under_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", PICKLE_POLY + code], input=stdin, capture_output=True,
                          env=env, check=True, timeout=120).stdout


def test_pickle_does_not_carry_the_hash_across_processes():
    """A polynomial hashed, then pickled under one hash seed, loads under
    another as a value that hashes like its equal there."""
    dumped = run_under_hash_seed(1, "hash(p)\nsys.stdout.buffer.write(pickle.dumps(p))\n")
    verdict = run_under_hash_seed(2, "q = pickle.loads(sys.stdin.buffer.read())\n"
                                     "print(q == p, hash(q) == hash(p), q in {p})\n", dumped)
    assert verdict.split() == [b"True", b"True", b"True"]


@KERNEL
@given(polys(), polys())
def test_evaluate_agrees_with_constant_substitution(a, b):
    values = {w: Fraction(k, 3) for k, w in enumerate(VARS[2:6])}
    p = a * b
    assert p.evaluate(values) == p.substitute({w: DiffPoly.const(c) for w, c in values.items()})


def old_sort_key(v: VarId) -> tuple:
    """The canonical variable order of the original dataclass VarId."""
    if v.kind == JET:
        j, sigma = v.idx
        return (JET, j, len(sigma), sigma)
    if v.kind == TESTCOV:
        nm, comp, sigma = v.idx
        return (TESTCOV, nm, comp, len(sigma), sigma)
    return (v.kind,) + v.idx


multi_indices = st.lists(st.integers(0, 2), max_size=3).map(lambda s: tuple(sorted(s)))
names = st.sampled_from(["a", "b", "c0", "p", "q"])
var_ids = st.one_of(
    st.builds(lambda i: VarId(BASE, (i,), f"x{i}"), st.integers(0, 2)),
    st.builds(lambda j, s: VarId(JET, (j, s), f"u{j}"), st.integers(0, 2), multi_indices),
    st.builds(lambda k: VarId(NONLOCAL, (k,), f"w{k}"), st.integers(0, 2)),
    st.builds(lambda n: VarId(PARAM, (n,), n), names),
    st.builds(lambda n, c, s: VarId(TESTCOV, (n, c, s), n), names, st.integers(0, 1), multi_indices),
    st.just(VarId(HSCALAR, (), "@s")),
)


@KERNEL
@given(var_ids, var_ids, st.text(max_size=3))
def test_varid_identity_ignores_name(a, b, name):
    renamed = VarId(a.kind, a.idx, name)
    assert renamed == a and hash(renamed) == hash(a)
    assert renamed.name == name and renamed.kind == a.kind and renamed.idx == a.idx
    with pytest.raises(AttributeError):
        renamed.name = "z"
    assert (a == b) == ((a.kind, a.idx) == (b.kind, b.idx))


def check_order(vs):
    assert [old_sort_key(v) for v in sorted(vs)] == sorted(old_sort_key(v) for v in vs)
    for a, b in zip(vs, vs[1:]):
        assert (a < b) == (old_sort_key(a) < old_sort_key(b))


@KERNEL
@given(st.lists(var_ids, max_size=12))
def test_varid_order_matches_old_sort_key(vs):
    check_order(vs)


def test_varid_order_is_graded_on_every_kind():
    sigmas = [tuple(sorted(s)) for n in range(4) for s in combinations_with_replacement(range(2), n)]
    vs = ([VarId(JET, (j, s)) for j in range(2) for s in sigmas]
          + [VarId(TESTCOV, (n, c, s)) for n in "pq" for c in range(2) for s in sigmas]
          + [VarId(BASE, (i,)) for i in range(2)] + [VarId(NONLOCAL, (0,)), VarId(PARAM, ("c",)), HOMOTOPY_SCALAR])
    random.Random(3).shuffle(vs)
    check_order(vs)


@st.composite
def sparse_systems(draw):
    """Sparse rational rows with zero, duplicate and dependent rows mixed in."""
    n = draw(st.integers(1, 7))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
        rows.append({k: draw(entry) for k in cols})
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "dependent"]))
        if kind == "zero" or not rows:
            extra.append({})
        elif kind == "duplicate":
            extra.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = draw(entry), draw(entry)
            combo = {k: ka * a.get(k, 0) + kb * b.get(k, 0) for k in set(a) | set(b)}
            extra.append({k: c for k, c in combo.items() if c})
    return n, rows + extra


def sympy_nullspace(n, rows, names):
    m = sympy.Matrix([[sympy.Rational(r.get(k, 0)) for k in range(n)] for r in rows] or [[0] * n])
    out = []
    for vec in m.nullspace():
        out.append({names[k]: Fraction(int(c.p), int(c.q)) for k, c in enumerate(vec) if c != 0})
    return out


@KERNEL
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_nullspace_matches_sympy_and_ignores_row_order(system, rnd):
    n, rows = system
    names = [f"c{k}" for k in range(n)]
    basis = nullspace(LinearSystem(names, rows))
    assert basis == sympy_nullspace(n, rows, names)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert nullspace(LinearSystem(names, shuffled)) == basis


def test_nullspace_leaves_system_rows_untouched():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1, 2), 2: 3}]
    system = LinearSystem(["a", "b", "c"], [dict(r) for r in rows])
    nullspace(system)
    assert system.rows == rows


def test_nullspace_of_large_random_system_matches_sympy():
    rng = random.Random(7)
    n = 24
    rows = [{k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in rng.sample(range(n), 4)}
            for _ in range(20)]
    rows = [{k: c for k, c in r.items() if c} for r in rows]
    names = [f"c{k}" for k in range(n)]
    assert nullspace(LinearSystem(names, rows)) == sympy_nullspace(n, rows, names)


@st.composite
def pinning_systems(draw):
    """Systems whose one-entry rows pin unknowns in cascades: the k-th chain
    row holds one new unknown and some already pinned ones, so it is left
    with one entry once those are struck.  Free rows, repeated rows and
    scalar multiples are mixed in, and the rows are shuffled.  Returns the
    unknown count, the rows and the unknowns the chain pins."""
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    order = draw(st.permutations(range(n)))
    rows = []
    chain = order[:draw(st.integers(0, n))]
    for k in range(len(chain)):
        cols = {order[k]} | draw(st.sets(st.sampled_from(order[:k]), max_size=2)) if k else {order[0]}
        rows.append({c: draw(entry) for c in cols})
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        rows.append({c: draw(entry) for c in cols})
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            row, scale = draw(st.sampled_from(rows)), draw(st.one_of(st.sampled_from([1, -1]), entry))
            rows.append({c: scale * v for c, v in row.items()})
    return n, draw(st.permutations(rows)), chain


@KERNEL
@given(pinning_systems(), st.randoms(use_true_random=False))
def test_pinned_elimination_matches_sympy_and_leaves_rows_alone(system, rnd):
    n, rows, chain = system
    pinned, left = _strip_pinned(rows)
    assert set(chain) <= pinned
    assert all(len(r) >= 2 and not pinned & r.keys() for r in left)
    names = [f"c{k}" for k in range(n)]
    snapshot = [list(r.items()) for r in rows]
    linear = LinearSystem(names, rows)
    basis = nullspace(linear)
    assert [list(r.items()) for r in linear.rows] == snapshot
    assert basis == sympy_nullspace(n, rows, names)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert nullspace(LinearSystem(names, shuffled)) == basis


KNOWN = [v for v in VARS if v.kind != PARAM]


@KERNEL
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 4), st.lists(st.sampled_from(KNOWN), max_size=3),
                                              coefficients.filter(bool)), max_size=12))
def test_match_coefficients_rows_are_the_grouped_coefficients(n, terms):
    """One row per known monomial, holding the summed coefficient of each
    unknown: the same multiset of rows whatever order they come in, and the
    same order on every call."""
    names = [f"c{k}" for k in range(n)]
    expr = DiffPoly.zero()
    expected: dict = {}
    for k, known, c in terms:
        mono = reduce(lambda a, b: a * b, (DiffPoly.var(v) for v in known), DiffPoly.const(1))
        expr = expr + DiffPoly.var(unknown_var(k % n)).scale(c) * mono
        row = expected.setdefault(next(iter(mono.terms)), {})
        row[k % n] = row.get(k % n, 0) + c
    want = sorted(sorted(r.items()) for r in expected.values() if any(r.values()))
    want = [[(k, c) for k, c in r if c] for r in want]
    first, again = LinearSystem(names, []), LinearSystem(names, [])
    match_coefficients(expr, first)
    match_coefficients(expr, again)
    assert sorted(sorted(r.items()) for r in first.rows) == sorted(want)
    assert [list(r.items()) for r in again.rows] == [list(r.items()) for r in first.rows]
    assert not first.inconsistent

# --------------------------------------------------------------------------
# The derivation primitive


def reference_derivation(p: DiffPoly, image) -> DiffPoly:
    """The partial-then-multiply sum that `DiffPoly.derivation` replaced."""
    parts = []
    for v in p.variables():
        img = image(v)
        if img is not None:
            parts.append(img * p.partial(v))
    return DiffPoly.sum(parts)


def assert_canonical(p: DiffPoly):
    """`assert_clean`, and every integral coefficient an int."""
    assert_clean(p)
    for c in p.terms.values():
        assert type(c) is int or c.denominator != 1


fractional_polys = polys().map(lambda q: q.scale(Fraction(1, 6)))


@KERNEL
@given(polys(), st.lists(st.one_of(st.none(), polys(max_terms=3), fractional_polys), min_size=len(VARS),
                         max_size=len(VARS)))
def test_derivation_matches_partial_sum(p, imgs):
    table = dict(zip(VARS, imgs))
    asked = []

    def image(v):
        asked.append(v)
        return table[v]

    got = p.derivation(image)
    assert asked == list(p.variables())
    assert got == reference_derivation(p, table.get)
    assert_canonical(got)


@KERNEL
@given(polys(), polys(max_terms=2), st.sampled_from(VARS), st.sampled_from(VARS))
def test_derivation_cancels_to_zero(p, q, a, b):
    """The Hamiltonian field q*(dp/db d/da - dp/da d/db) kills p."""
    assume(a != b)
    table = {a: q * p.partial(b), b: -(q * p.partial(a))}
    got = p.derivation(table.get)
    assert got.is_zero() and got.terms == {}
    assert reference_derivation(p, table.get).is_zero()


@KERNEL
@given(polys(), coefficients)
def test_derivation_keeps_integral_coefficients_int(p, c):
    """Integral values come back as ints, also from integral Fractions
    (`scale` may leave one) and from fractions that add up to integers."""
    half = DiffPoly.const(Fraction(1, 2))
    one = half.scale(2)

    def image(v):
        return one if v.kind == JET else half

    got = p.scale(c).derivation(image)
    assert got == reference_derivation(p.scale(c), image)
    assert_canonical(got)


# --------------------------------------------------------------------------
# Derivatives built on it

SPACE = JetContext(("x",), ("u", "v"), ("a",))
SPACE_VARS = [SPACE.base(0), SPACE.jet(0), SPACE.jet(0, (0,)), SPACE.jet(1), SPACE.jet(1, (0, 0)),
              SPACE.param("a")]


jet_polys = polys(max_terms=4, variables=SPACE_VARS)


def reference_total_derivative(ctx: JetContext, i: int, p: DiffPoly) -> DiffPoly:
    parts = [p.partial(ctx.base(i))]
    for v in p.variables():
        if v.kind == JET:
            parts.append(DiffPoly.var(ctx.jet(v.idx[0], tuple(sorted(v.idx[1] + (i,))))) * p.partial(v))
    return DiffPoly.sum(parts)


@KERNEL
@given(jet_polys)
def test_total_derivative_matches_reference(h):
    got = total_derivative(SPACE, 0, h)
    assert got == reference_total_derivative(SPACE, 0, h)
    assert_canonical(got)


SX = sympy.Symbol("x")
SFUNCS = [sympy.Function("u")(SX), sympy.Function("v")(SX)]


def to_sympy(p: DiffPoly):
    """p as a sympy expression in functions u(x), v(x) and their derivatives."""

    def atom(v):
        if v.kind == JET:
            return sympy.diff(SFUNCS[v.idx[0]], SX, len(v.idx[1]))
        return SX if v.kind == BASE else sympy.Symbol(v.name)

    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(atom(v) ** e for v, e in f))
                for f, c in p.terms.items()), sympy.Integer(0))


@KERNEL
@given(jet_polys)
def test_total_derivative_matches_sympy(h):
    assert sympy.expand(sympy.diff(to_sympy(h), SX) - to_sympy(total_derivative(SPACE, 0, h))) == 0


@KERNEL
@given(jet_polys)
def test_dx_inverse_inverts_dx(h):
    g = total_derivative(SPACE, 0, h)
    assert total_derivative(SPACE, 0, dx_inverse(SPACE, g, 0)) == g


@KERNEL
@given(jet_polys)
def test_euler_kills_total_derivatives(h):
    assert all(c.is_zero() for c in euler(Density(SPACE, total_derivative(SPACE, 0, h))))


BURGERS = JetContext(("x", "t"), ("u",), has_time=True)
BURGERS_SYS = EvolutionSystem(BURGERS, [BURGERS.parse("u*u_x + u_{xx}")])
POT = make_covering(BURGERS_SYS, [("w", [BURGERS.parse("u"), BURGERS.parse("u^2/2 + u_x")])])
POT_VARS = [BURGERS.base(0), BURGERS.base(1), BURGERS.jet(0), BURGERS.jet(0, (0,)), BURGERS.jet(0, (0, 0)),
            POT.ctx.nonlocal_(0)]


def reference_covering_derive(i: int, p: DiffPoly) -> DiffPoly:
    parts = [p.partial(BURGERS.base(i))]
    for v in p.variables():
        if v.kind == JET:
            j, sigma = v.idx
            img = BURGERS_SYS.dsigma_f(j, sigma) if i == 1 else DiffPoly.var(BURGERS.jet(j, sigma + (i,)))
            parts.append(img * p.partial(v))
        elif v.kind == NONLOCAL:
            parts.append(POT.expr(i, v.idx[0]) * p.partial(v))
    return DiffPoly.sum(parts)


@KERNEL
@given(polys(max_terms=4, variables=POT_VARS), st.sampled_from([0, 1]))
def test_covering_derive_matches_reference(p, i):
    got = POT.derive(i, p)
    assert got == reference_covering_derive(i, p)
    assert_canonical(got)


# --------------------------------------------------------------------------
# Operators with fractional coefficients


@st.composite
def operators(draw, size=2):
    """size x size operators in D_x up to order 2 over the jet space of
    SPACE, every coefficient a random polynomial divided by 6."""
    coefs = polys(max_terms=2, variables=SPACE_VARS).map(lambda q: q.scale(Fraction(1, 6)))
    entries = [[{(0,) * k: draw(coefs) for k in draw(st.sets(st.integers(0, 2), max_size=2))}
                for _ in range(size)] for _ in range(size)]
    return CDiffOp(SPACE, size, size, entries)


@KERNEL
@given(operators())
def test_adjoint_is_an_involution(A):
    assert A.adjoint().adjoint() == A


@KERNEL
@given(operators(), operators(), st.lists(jet_polys, min_size=2, max_size=2))
def test_apply_of_compose_is_apply_of_apply(A, B, v):
    got = A.compose(B).apply(v)
    assert got == A.apply(B.apply(v))
    for p in got:
        assert_clean(p)


# --------------------------------------------------------------------------
# Monomials, antiderivatives and constants


@KERNEL
@given(st.lists(st.sampled_from(VARS), max_size=6))
def test_monomial_is_the_product_of_its_variables(vs):
    m = DiffPoly.monomial(vs)
    assert m == reduce(lambda acc, v: acc * DiffPoly.var(v), vs, DiffPoly.const(1))
    assert_clean(m)


@KERNEL
@given(polys(), st.sampled_from(VARS))
@example(HALF_U2 + DiffPoly.var(VARS[3]) + DiffPoly.const(Fraction(2, 3)), VARS[2])
def test_antiderivative_inverts_the_partial(p, v):
    q = p.antiderivative(v)
    assert q.partial(v) == p
    assert all(v in dict(f) for f in q.terms)
    assert_clean(q)


@KERNEL
@given(polys())
@example(DiffPoly.const(Fraction(-3, 4)))
def test_as_constant_is_none_exactly_when_variables_remain(p):
    c = p.as_constant()
    assert (c is None) == bool(p.variables())
    if c is not None:
        assert DiffPoly.const(c) == p
