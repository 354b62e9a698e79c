"""Property tests of the polynomial kernel and the exact nullspace.

hypothesis draws the inputs; sympy is the independent oracle for the
reduced row echelon form.  Both are test-only dependencies.
"""

import copy
import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
)
from jetcalc.detsolve import LinearSystem, nullspace
from jetcalc.jetspace import JetContext

CTX = JetContext(("x", "t"), ("u", "v"), has_time=True)
VARS = [CTX.base(0), CTX.base(1), CTX.jet(0), CTX.jet(0, (0,)), CTX.jet(1, (0, 0)), CTX.jet(1, (0, 1)),
        CTX.testcov("p", 1, (0,)), VarId(PARAM, ("c0",), "c0"), HOMOTOPY_SCALAR]

KERNEL = settings(max_examples=60, deadline=None)

coefficients = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def polys(draw, max_terms=5):
    """Random polynomials, built only through the public ring operations."""
    out = DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(draw(coefficients))
        for v in draw(st.lists(st.sampled_from(VARS), max_size=3)):
            term = term * DiffPoly.var(v)
        out = out + term
    return out


def assert_clean(p: DiffPoly):
    """No zero coefficient, and every coefficient an int or a Fraction."""
    for f, c in p.terms.items():
        assert c != 0
        assert type(c) in (int, Fraction)
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
def test_sum_is_left_fold(ps):
    folded = reduce(reference_add, ps, {})
    total = DiffPoly.sum(ps)
    assert list(total.terms.items()) == list(folded.items())
    assert total == reduce(lambda a, b: a + b, ps, DiffPoly.zero())
    assert_clean(total)


@KERNEL
@given(polys(), polys(), coefficients, st.sampled_from(VARS))
def test_operations_store_no_zero_coefficient(a, b, c, v):
    values = {w: Fraction(k, 2) - 1 for k, w in enumerate(VARS[:4])}
    results = [a + b, a - b, a - a, a * b, -a, a.scale(c), a.scale(0), a.partial(v), a ** 2,
               a.substitute({v: b}), a.evaluate(values), (a * DiffPoly.var(HOMOTOPY_SCALAR)).integrate_scalar_01(),
               DiffPoly.sum([a, b, -a]), DiffPoly(a.terms)]
    for p in results:
        assert_clean(p)


@KERNEL
@given(polys())
def test_pickle_and_copy_roundtrip(p):
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and str(q) == str(p)
        assert [v.name for f in q.terms for v, _ in f] == [v.name for f in p.terms for v, _ in f]


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
