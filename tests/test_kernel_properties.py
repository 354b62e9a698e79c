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
from math import gcd, lcm
from operator import or_

import jetcalc
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from jetcalc.dalg import (
    BASE,
    JET,
    MAX_EXPONENT,
    NONLOCAL,
    PARAM,
    UNKNOWN,
    DiffPoly,
    ExponentOverflow,
    VarId,
    _UNKNOWN_FLAG,
    _VARS,
    _monomial_key,
    _print_key,
    _print_rank,
    _two_names,
    unknown_var,
)
from jetcalc.cdiff import CDiffOp, _collect
from jetcalc.detsolve import LinearSystem, match_coefficients, nullspace
from jetcalc.jetspace import EvolutionSystem, JetContext, total_derivative
from jetcalc.hamrec import make_covering
from jetcalc.variational import Density, dx_inverse, euler

CTX = JetContext(("x", "t"), ("u", "v"), has_time=True)
VARS = [CTX.base(0), CTX.base(1), CTX.jet(0), CTX.jet(0, (0,)), CTX.jet(1, (0, 0)), CTX.jet(1, (0, 1)),
        VarId(NONLOCAL, (0,), "w"), VarId(PARAM, ("c0",), "c0"), VarId(PARAM, ("s",), "s")]

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
    values = {w: DiffPoly.const(Fraction(k, 2) - 1) for k, w in enumerate(VARS[:4])}
    s = VARS[-1]
    results = [a + b, a - b, a - a, a * b, -a, a.scale(c), a.scale(0), a.partial(v), a ** 2,
               a.substitute({v: b}), a.substitute(values),
               (a * DiffPoly.var(s)).antiderivative(s).substitute({s: DiffPoly.const(1)}),
               a.antiderivative(v), *a.homogeneous_parts(v.kind).values(),
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
    """Substituting constants agrees with evaluating the decoded terms one
    factor at a time."""
    values = {w: Fraction(k, 3) for k, w in enumerate(VARS[2:6])}
    p = a * b
    expected: dict = {}
    for f, c in p.terms.items():
        rest = tuple((w, e) for w, e in f if w not in values)
        for w, e in f:
            c *= values.get(w, 1) ** e
        expected[rest] = expected.get(rest, 0) + c
    got = p.substitute({w: DiffPoly.const(c) for w, c in values.items()})
    assert got == DiffPoly(expected)
    assert_clean(got)


@KERNEL
@given(polys(), st.sampled_from([BASE, JET, NONLOCAL, PARAM]))
@example(HALF_U2 * DiffPoly.var(VARS[3]) + DiffPoly.var(VARS[0]) + DiffPoly.const(Fraction(2, 3)), JET)
def test_homogeneous_parts_sum_back_and_have_their_degree(p, kind):
    """The parts sum to p, and each part of degree d is homogeneous of
    degree d: the derivation v -> v over the variables of the kind gives
    d*part (Euler's identity)."""
    parts = p.homogeneous_parts(kind)
    assert DiffPoly.sum(parts.values()) == p
    for d, part in parts.items():
        assert part and d >= 0
        assert_clean(part)
        assert part.derivation(lambda v: DiffPoly.var(v) if v.kind == kind else None) == part.scale(d)



# The printer against the algorithm it replaced: decode every monomial to its
# factor tuple and coefficient, sort by `_monomial_key`, join the names.
PRINT_CTX = JetContext(("x", "t"), ("u", "v"), ("c0",), has_time=True, nonlocals=("w",))
# A second context on the same names: the covering's, with one more layer
# and one more dependent variable.
PRINT_CTX2 = JetContext(("x", "t"), ("u", "v", "q"), ("c0",), has_time=True, nonlocals=("w", "z"))
PRINT_VARS = [PRINT_CTX.base(0), PRINT_CTX.base(1), PRINT_CTX.jet(0), PRINT_CTX.jet(0, (0,)),
              PRINT_CTX.jet(1, (0, 0, 0)), PRINT_CTX.nonlocal_(0), PRINT_CTX.param("c0"),
              PRINT_CTX.jet(1, (0,)), PRINT_CTX.jet(1), VarId(PARAM, ("s",), "s"),
              PRINT_CTX2.jet(2, (0,)), PRINT_CTX2.nonlocal_(1), PRINT_CTX2.jet(1, (0, 0, 0, 0))]
print_coefficients = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=7),
                               st.integers(-10 ** 30, 10 ** 30))


def reference_str(p: DiffPoly) -> str:
    if not p:
        return "0"
    parts = []
    for f, c in sorted(p.terms.items(), key=lambda t: _monomial_key(t[0])):
        body = "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in f)
        mag = abs(c)
        chunk = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        parts.append((chunk if c > 0 else "-" + chunk) if not parts else ("+ " if c > 0 else "- ") + chunk)
    return " ".join(parts)


@st.composite
def printable_polys(draw):
    """A sum of random terms over both contexts, plus a template (a
    `combination` of unknowns) or nothing."""
    free = draw(polys(max_terms=6, variables=PRINT_VARS)).scale(draw(print_coefficients))
    pairs = [(k, draw(polys(max_terms=2, variables=PRINT_VARS)).scale(draw(print_coefficients)))
             for k in draw(st.lists(st.integers(0, 40), unique=True, max_size=4))]
    return free + DiffPoly.sum(DiffPoly.combination([m], k) for k, m in pairs)


@KERNEL
@given(printable_polys())
@example(DiffPoly.const(Fraction(-3, 4)))
@example(DiffPoly.combination([DiffPoly.const(-2), DiffPoly.zero(), DiffPoly.const(1)], 1))
def test_printing_matches_the_decoded_reference(p):
    assert str(p) == reference_str(p)
    # Print order has one definition: that of `order_key` on the monomials.
    monomials = [DiffPoly({f: 1}) for f in p.terms]
    by_order_key = [m.terms for m in sorted(monomials, key=DiffPoly.order_key)]
    assert by_order_key == [{f: 1} for f in sorted(p.terms, key=_monomial_key)]


def test_printing_refuses_one_variable_under_two_names():
    """A context that calls x 'y' shares its identity: a polynomial that
    holds both names is refused, even where no two terms decode alike."""
    other = JetContext(("y", "t"), ("u", "v"), has_time=True)
    for p in (PRINT_CTX.parse("x") + other.parse("y^2"), PRINT_CTX.parse("x*u") * other.parse("y")):
        with pytest.raises(ValueError, match="'x' and 'y' are one variable under two names|"
                                             "'y' and 'x' are one variable under two names"):
            str(p)


# The packed printer as it was before it picked each term's nonzero
# exponents: it walks every variable of the support for each term.
def support_walk_str(p: DiffPoly) -> str:
    num, den = p.num, p.den
    if not num:
        return "0"
    width, ranked = _print_rank(reduce(or_, num))
    refusal = _two_names([_VARS[k] for k in ranked])
    if refusal:
        raise refusal
    down = ranked[::-1]
    names = [_VARS[k].name for k in down]
    keyed = sorted(zip(map(_print_key(width, down), num), num.values()))
    parts = []
    try:
        for (_, low, exps), c in keyed:
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
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
    except ValueError:
        raise ValueError(f"a coefficient longer than {sys.get_int_max_str_digits()} digits, "
                         "the most a report prints") from None
    return " ".join(parts)


@st.composite
def edge_printable_polys(draw):
    """The shapes a printer gets wrong first: a constant, one variable to a
    power up to MAX_EXPONENT, unknowns alone, and a general sum, each with
    negative and non-integral coefficients."""
    c = draw(print_coefficients.filter(bool))
    v = draw(st.sampled_from(PRINT_VARS))
    shape = draw(st.sampled_from(["constant", "one variable", "unknowns", "sum"]))
    if shape == "constant":
        return DiffPoly.const(c)
    if shape == "one variable":
        return DiffPoly.sum(DiffPoly.var(v) ** e * DiffPoly.const(draw(print_coefficients))
                            for e in draw(st.lists(st.integers(0, MAX_EXPONENT), min_size=1, max_size=4)))
    if shape == "unknowns":
        return DiffPoly.combination([DiffPoly.const(draw(print_coefficients)) for _ in range(draw(st.integers(1, 4)))],
                                    draw(st.integers(0, 40)))
    return draw(printable_polys()) * DiffPoly.var(v) ** draw(st.integers(0, MAX_EXPONENT - 3))


@KERNEL
@given(st.one_of(edge_printable_polys(), printable_polys()))
@example(DiffPoly.const(Fraction(-3, 4)))
@example(DiffPoly.var(PRINT_VARS[2]) ** MAX_EXPONENT)
def test_printing_matches_the_support_walk(p):
    assert str(p) == support_walk_str(p)


def test_printing_refusals_keep_their_messages():
    """One variable under two names, and a coefficient with more digits
    than str() converts."""
    other = JetContext(("y", "t"), ("u", "v"), has_time=True)
    refused = [PRINT_CTX.parse("x*u") * other.parse("y")]
    limit = sys.get_int_max_str_digits()
    if limit:
        huge = DiffPoly.const(10 ** limit) * PRINT_CTX.parse("u")
        refused += [huge, huge / 7]
    for p in refused:
        with pytest.raises(ValueError) as got:
            str(p)
        with pytest.raises(ValueError) as want:
            support_walk_str(p)
        assert str(got.value) == str(want.value)
    if limit:
        assert str(got.value) == f"a coefficient longer than {limit} digits, the most a report prints"


def old_sort_key(v: VarId) -> tuple:
    """The canonical variable order of the original dataclass VarId."""
    if v.kind == JET:
        j, sigma = v.idx
        return (JET, j, len(sigma), sigma)
    return (v.kind,) + v.idx


multi_indices = st.lists(st.integers(0, 2), max_size=3).map(lambda s: tuple(sorted(s)))
names = st.sampled_from(["a", "b", "c0", "p", "q"])
var_ids = st.one_of(
    st.builds(lambda i: VarId(BASE, (i,), f"x{i}"), st.integers(0, 2)),
    st.builds(lambda j, s: VarId(JET, (j, s), f"u{j}"), st.integers(0, 2), multi_indices),
    st.builds(lambda k: VarId(NONLOCAL, (k,), f"w{k}"), st.integers(0, 2)),
    st.builds(lambda n: VarId(PARAM, (n,), n), names),
    st.builds(lambda k: VarId(UNKNOWN, (k,), f"@c{k}"), st.integers(0, 2)),
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
    vs = ([VarId(JET, (j, s)) for j in range(4) for s in sigmas]
          + [VarId(BASE, (i,)) for i in range(2)] + [VarId(NONLOCAL, (0,)), VarId(PARAM, ("c",)), unknown_var(0)])
    random.Random(3).shuffle(vs)
    check_order(vs)


@st.composite
def sparse_systems(draw):
    """Sparse rows with zero, duplicate, fraction-scaled and dependent rows
    mixed in.  Entries mix ints, integral Fractions and proper fractions, so
    rows scaled by different factors to the integer rows `nullspace` takes
    (`integer_rows`) meet in one elimination."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3)).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
        rows.append({k: draw(entry) for k in cols})
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled", "dependent"]))
        if kind == "zero" or not rows:
            extra.append({})
        elif kind == "duplicate":
            extra.append(dict(draw(st.sampled_from(rows))))
        elif kind == "scaled":
            scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda f: f.denominator > 1))
            extra.append({k: scale * v for k, v in draw(st.sampled_from(rows)).items()})
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ka, kb = draw(entry), draw(entry)
            combo = {k: ka * a.get(k, 0) + kb * b.get(k, 0) for k in set(a) | set(b)}
            extra.append({k: c for k, c in combo.items() if c})
    return n, rows + extra


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the integer rows
    `nullspace` takes, with the solutions of the rational ones."""
    out = []
    for r in rows:
        den = lcm(*(Fraction(c).denominator for c in r.values()))
        out.append({k: int(c * den) for k, c in r.items()})
    return out


def sympy_nullspace(n, rows):
    m = sympy.Matrix([[sympy.Rational(r.get(k, 0)) for k in range(n)] for r in rows] or [[0] * n])
    out = []
    for vec in m.nullspace():
        out.append({k: Fraction(int(c.p), int(c.q)) for k, c in enumerate(vec) if c != 0})
    return out


@KERNEL
@given(sparse_systems(), st.randoms(use_true_random=False))
# An int row, the same row scaled by 1/6, and int rows beside a rational one.
@example((4, [{0: 2, 1: 4, 2: 6}, {0: Fraction(1, 3), 1: Fraction(2, 3), 2: Fraction(1)},
              {1: 3, 3: Fraction(5, 2)}, {0: -1, 1: 4}]), random.Random(0))
def test_nullspace_matches_sympy_and_ignores_row_order(system, rnd):
    n, rows = system
    ints = integer_rows(rows)
    basis = nullspace(LinearSystem(n, ints))
    assert basis == sympy_nullspace(n, rows)
    shuffled = list(ints)
    rnd.shuffle(shuffled)
    assert nullspace(LinearSystem(n, shuffled)) == basis


def test_nullspace_leaves_system_rows_untouched():
    rows = [{0: 2, 1: 4}, {1: 1, 2: 6}]
    system = LinearSystem(3, [dict(r) for r in rows])
    nullspace(system)
    assert system.rows == rows


def test_nullspace_of_large_random_system_matches_sympy():
    rng = random.Random(7)
    n = 24
    rows = [{k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in rng.sample(range(n), 4)}
            for _ in range(20)]
    rows = [{k: c for k, c in r.items() if c} for r in rows]
    assert nullspace(LinearSystem(n, integer_rows(rows))) == sympy_nullspace(n, rows)


@st.composite
def pinning_systems(draw, pin_last=False):
    """Systems whose one-entry rows pin unknowns in cascades: the k-th chain
    row holds one new unknown and some already pinned ones, so it is left
    with one entry once those are struck.  Free rows, repeated rows and
    scalar multiples are mixed in, and the rows are shuffled.  Returns the
    unknown count, the rows and the unknowns the chain pins.

    With `pin_last` the chain's one-entry row is replaced by two rows on
    the first three unknowns of the chain's order that differ only at its
    first unknown.  They are as long as the longest other rows and go after
    them without a shuffle, followed by a few longer rows.  `nullspace`
    takes the rows shortest first, so that unknown is pinned only after the
    rows holding it are stored as pivots, striking it cascades through
    them, and the longer rows are reduced by the struck pivots."""
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    order = draw(st.permutations(range(n)))
    rows = []
    chain = order[:draw(st.integers(1 if pin_last else 0, n))]
    for k in range(1 if pin_last else 0, len(chain)):
        cols = {order[k]} | draw(st.sets(st.sampled_from(order[:k]), max_size=2)) if k else {order[0]}
        rows.append({c: draw(entry) for c in cols})
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        rows.append({c: draw(entry) for c in cols})
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            row, scale = draw(st.sampled_from(rows)), draw(st.one_of(st.sampled_from([1, -1]), entry))
            rows.append({c: scale * v for c, v in row.items()})
    rows = draw(st.permutations(rows))
    if not pin_last:
        return n, rows, chain
    c = order[0]
    first = {k: draw(entry) for k in order[:3]}
    shift = draw(entry.filter(lambda e: e != -first[c]))
    later = [{k: draw(entry) for k in draw(st.sets(st.integers(0, n - 1), min_size=4, max_size=5))}
             for _ in range(draw(st.integers(0, 3)) if n > 3 else 0)]
    return n, rows + [first, {**first, c: first[c] + shift}] + later, chain


def check_pinned_elimination(n, rows, chain, rnd):
    """The chain's unknowns are zero in every basis vector, the basis of the
    integer rows is sympy's of the rational ones whatever the row order, and
    the rows of the system are left as they were."""
    ints = integer_rows(rows)
    snapshot = [list(r.items()) for r in ints]
    linear = LinearSystem(n, ints)
    basis = nullspace(linear)
    assert [list(r.items()) for r in linear.rows] == snapshot
    assert not any(c in vec for vec in basis for c in chain)
    assert basis == sympy_nullspace(n, rows)
    shuffled = list(ints)
    rnd.shuffle(shuffled)
    assert nullspace(LinearSystem(n, shuffled)) == basis


@KERNEL
@given(pinning_systems(), st.randoms(use_true_random=False))
def test_pinned_elimination_matches_sympy_and_leaves_rows_alone(system, rnd):
    check_pinned_elimination(*system, rnd)


@KERNEL
@given(pinning_systems(pin_last=True), st.randoms(use_true_random=False))
# c2 is pinned by the third row; the last row is then reduced by pivot row
# c0, which must no longer hold c2.
@example((6, [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 2, 2: 1}, {0: 1, 3: 1, 4: 1, 5: 1}], [2, 1, 0]), random.Random(0))
def test_a_late_pin_strikes_the_stored_pivots(system, rnd):
    check_pinned_elimination(*system, rnd)


KNOWN = [v for v in VARS if v.kind != PARAM]


@st.composite
def unknown_linear(draw, coefficient=coefficients):
    """An expression linear in n unknowns, built through the ring operations,
    with its rational coefficient rows: for each known monomial, the summed
    coefficient of each unknown, zero ones left out."""
    n = draw(st.integers(1, 5))
    terms = draw(st.lists(st.tuples(st.integers(0, 4), st.lists(st.sampled_from(KNOWN), max_size=3),
                                    coefficient.filter(bool)), max_size=12))
    expr = DiffPoly.zero()
    expected: dict = {}
    for k, known, c in terms:
        mono = reduce(lambda a, b: a * b, (DiffPoly.var(v) for v in known), DiffPoly.const(1))
        expr = expr + DiffPoly.var(unknown_var(k % n)).scale(c) * mono
        row = expected.setdefault(next(iter(mono.terms)), {})
        row[k % n] = row.get(k % n, 0) + c
    rows = [{k: c for k, c in r.items() if c} for r in expected.values()]
    return n, expr, [r for r in rows if r]


@KERNEL
@given(unknown_linear())
def test_match_coefficients_rows_are_the_grouped_coefficients(system):
    """One row per known monomial, holding the summed coefficient of each
    unknown times the lcm of all their denominators: the same multiset of
    rows whatever order they come in, and the same order on every call."""
    n, expr, rows = system
    den = lcm(*(Fraction(c).denominator for r in rows for c in r.values()))
    want = [sorted((k, int(c * den)) for k, c in r.items()) for r in rows]
    first, again = LinearSystem(n, []), LinearSystem(n, [])
    match_coefficients(expr, first)
    match_coefficients(expr, again)
    assert sorted(sorted(r.items()) for r in first.rows) == sorted(want)
    assert [list(r.items()) for r in again.rows] == [list(r.items()) for r in first.rows]
    assert not first.inconsistent


@KERNEL
@given(unknown_linear(st.fractions(min_value=-3, max_value=3, max_denominator=6)))
@example((2, DiffPoly.var(unknown_var(0)).scale(Fraction(1, 2)) + DiffPoly.var(unknown_var(1)).scale(Fraction(2, 3)),
          [{0: Fraction(1, 2), 1: Fraction(2, 3)}]))
def test_nullspace_of_the_integer_rows_is_that_of_the_rational_coefficients(system):
    """`linear_rows` gives numerators, not coefficients: for an expression
    with a denominator above 1 their nullspace is sympy's nullspace of the
    rational coefficient rows."""
    n, expr, rows = system
    assume(any(Fraction(c).denominator > 1 for r in rows for c in r.values()))
    linear, free = expr.linear_rows()
    assert not free and all(type(c) is int for r in linear for c in r.values())
    assert nullspace(LinearSystem(n, linear)) == sympy_nullspace(n, rows)

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


def check_derivation(p: DiffPoly, table: dict) -> DiffPoly:
    """p.derivation(table.get): the reference sum, asked once per variable
    in `variables()` order, canonical."""
    asked = []

    def image(v):
        asked.append(v)
        return table.get(v)

    got = p.derivation(image)
    assert asked == list(p.variables())
    assert got == reference_derivation(p, table.get)
    assert_canonical(got)
    return got


@KERNEL
@given(polys(), st.lists(st.one_of(st.none(), polys(max_terms=3), fractional_polys), min_size=len(VARS),
                         max_size=len(VARS)))
def test_derivation_matches_partial_sum(p, imgs):
    check_derivation(p, dict(zip(VARS, imgs)))


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


nonzero_coefficients = coefficients.filter(bool)
# A one-term image: a monomial (1 included) times a nonzero rational.
one_term_images = st.builds(lambda vs, c: DiffPoly.monomial(vs).scale(c),
                            st.lists(st.sampled_from(VARS), max_size=2), nonzero_coefficients)


@KERNEL
@given(polys(), st.lists(st.one_of(st.none(), one_term_images), min_size=len(VARS), max_size=len(VARS)))
@example(HALF_U2 + DiffPoly.var(VARS[0]) * DiffPoly.var(VARS[2]),
         [DiffPoly.const(Fraction(-2, 3))] + [None] * (len(VARS) - 1))
def test_derivation_by_one_term_images(p, imgs):
    check_derivation(p, dict(zip(VARS, imgs)))


weights = st.lists(st.integers(-2, 2), min_size=len(VARS), max_size=len(VARS))


def weight(factors, lam: dict) -> int:
    return sum(lam[v] * e for v, e in factors)


@KERNEL
@given(polys(), weights)
def test_diagonal_field_scales_each_monomial_by_its_weight(p, lam):
    """v -> lam_v*v: by Euler's identity each monomial comes back times
    its lam-weight; every pass writes the key of the monomial itself."""
    lam = dict(zip(VARS, lam))
    table = {v: DiffPoly.var(v).scale(k) for v, k in lam.items()}
    got = check_derivation(p, table)
    assert got == DiffPoly({f: c * weight(f, lam) for f, c in p.terms.items()})


@KERNEL
@given(polys(max_terms=6), st.lists(st.integers(-1, 1), min_size=len(VARS), max_size=len(VARS)))
@example(DiffPoly.var(VARS[0]) * DiffPoly.var(VARS[2]) + DiffPoly.const(3), [1, 0, -1, 0, 0, 0, 0, 0, 0])
def test_diagonal_field_of_weight_zero_cancels_every_key(p, lam):
    """A later pass cancels every key that the first pass wrote."""
    lam = dict(zip(VARS, lam))
    p = DiffPoly({f: c for f, c in p.terms.items() if weight(f, lam) == 0})
    got = p.derivation({v: DiffPoly.var(v).scale(k) for v, k in lam.items()}.get)
    assert got.is_zero() and got.terms == {}


@st.composite
def templates(draw, max_slots=4):
    """sum_k c_k*m_k over distinct monic monomials m_k, the shape of a
    template slot, its unknowns numbered from a drawn index."""
    monos = draw(st.lists(st.lists(st.sampled_from(VARS), max_size=3).map(DiffPoly.monomial),
                          max_size=max_slots, unique=True))
    first = draw(st.integers(0, 5))
    return DiffPoly.combination(monos, first)


@KERNEL
@given(st.lists(st.one_of(polys(max_terms=3), fractional_polys), max_size=5), st.integers(0, 40))
def test_combination_is_the_sum_of_unknown_products(ps, start):
    """`combination` writes the unknowns' indices without products; the
    reference multiplies each p_k by the variable of unknown start + k."""
    reference = DiffPoly.sum(DiffPoly.var(unknown_var(start + k)) * p for k, p in enumerate(ps))
    assert DiffPoly.combination(ps, start) == reference


@KERNEL
@given(templates(), st.lists(st.one_of(st.none(), one_term_images, polys(max_terms=3), fractional_polys),
                             min_size=len(VARS), max_size=len(VARS)))
def test_derivation_of_templates(p, imgs):
    got = check_derivation(p, dict(zip(VARS, imgs)))
    assert all(any(v.kind == UNKNOWN for v, _ in f) for f in got.terms)


@KERNEL
@given(templates(), st.lists(st.one_of(st.none(), one_term_images, polys(max_terms=3)), min_size=len(VARS),
                             max_size=len(VARS)), st.integers(0, 7))
def test_offset_commutes_with_derivation(p, imgs, k):
    """`detsolve.slot_derivatives` derives one slot and offsets the rest."""
    image = dict(zip(VARS, imgs)).get
    assert p.offset_unknowns(k).derivation(image) == p.derivation(image).offset_unknowns(k)


def test_one_term_image_past_the_maximum_exponent_raises_with_an_unknown():
    x, t, u = VARS[0], VARS[1], VARS[2]
    c0 = DiffPoly.var(unknown_var(0))
    top = DiffPoly.var(u) ** 127
    shift = {x: DiffPoly.var(u)}.get
    with pytest.raises(ExponentOverflow, match="127"):
        (c0 * top * DiffPoly.var(x)).derivation(shift)  # the first pass
    with pytest.raises(ExponentOverflow, match="127"):
        (top * DiffPoly.var(x)).derivation({x: c0 * DiffPoly.var(u)}.get)
    # x -> 1 writes the first keys; t -> u overflows in a later pass.
    p = c0 * (DiffPoly.var(x) + top * DiffPoly.var(t))
    with pytest.raises(ExponentOverflow, match="127"):
        p.derivation({x: DiffPoly.const(1), t: DiffPoly.var(u)}.get)


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
