"""The integer kernel against an independent oracle: textbook Gauss-Jordan over Fraction.

``nullspace``'s modular path, its certificate and its fallback to the exact
kernel are checked on inputs that force each branch.  The sparse-matrix
helpers are checked against dense Fraction products.
"""

import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

from hypothesis import given, settings, strategies as st

import nhsf
import nhsf.linalg as linalg
from nhsf.linalg import (IntSpan, apply, commutator, dense_rows, nullspace, rank, row_to_ints,
                         solve)
from nhsf.verify import MATCH, CaseSpec, run_case


def oracle_rref(rows, ncols):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    m = [[Q(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def oracle_rank(rows, ncols):
    return len(oracle_rref(rows, ncols)[1])


def times(rows, x):
    return [sum(Q(a) * b for a, b in zip(row, x)) for row in rows]


def combination(coeffs, rows, ncols):
    return [sum(c * Q(row[j]) for c, row in zip(coeffs, rows)) for j in range(ncols)]


entries = st.one_of(st.integers(min_value=-6, max_value=6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=6))
# past 2^31 a kernel entry can leave the lift's bound, so nullspace falls back
big_entries = st.one_of(st.integers(min_value=2 ** 31, max_value=2 ** 64),
                        st.integers(min_value=-2 ** 64, max_value=-2 ** 31))
matrix_entries = st.one_of(entries, entries, entries, big_entries)


@st.composite
def matrices(draw, min_rows=0):
    """(rows, ncols): up to 6 rows over 1..5 columns, ints and Fractions mixed, some past 2^31."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(matrix_entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=6))
    return rows, ncols


def test_nullspace_simple():
    # x + y + z = 0
    basis = nullspace([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def canonical_kernel(rows, ncols):
    """A 1 at each free column, minus that column of the oracle RREF at the pivots."""
    red, pivots = oracle_rref(rows, ncols)
    want = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        want.append(v)
    return want


def count_fallbacks(monkeypatch) -> list:
    """Wrap the exact kernel: the returned list grows by one per fallback."""
    calls = []
    exact = linalg._exact_nullspace

    def counted(ints, ncols):
        calls.append(ncols)
        return exact(ints, ncols)

    monkeypatch.setattr(linalg, "_exact_nullspace", counted)
    return calls


def test_small_entries_take_the_modular_path(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    rows = [[1, 2, 3, 4], [Q(1, 2), 0, -1, Q(2, 3)], [2, 4, 6, 8]]
    assert nullspace(rows, 4) == canonical_kernel(rows, 4)
    assert fallbacks == []


def test_entry_past_the_lift_bound_falls_back(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    big = 2 ** 40 + 1
    assert nullspace([[1, -big]], 2) == [[Q(big), Q(1)]]
    assert fallbacks == [2]


def test_prime_dividing_a_pivot_falls_back(monkeypatch):
    # mod P the row is (0, 1): rank_P = rank_Q, but the free column differs
    fallbacks = count_fallbacks(monkeypatch)
    p = 2 ** 61 - 1
    assert linalg._modular_nullspace([[p, 1]], 2) is None
    assert nullspace([[p, 1]], 2) == [[Q(-1, p), Q(1)]]
    assert fallbacks == [2]


def test_tampered_lift_is_rejected(monkeypatch):
    rows = [[1, 2, 3], [0, 1, 1]]
    want = canonical_kernel(rows, 3)
    assert linalg._modular_nullspace(rows, 3) == want
    real = linalg._lift
    monkeypatch.setattr(linalg, "_lift", lambda a: (real(a)[0] + 1, real(a)[1]))
    assert linalg._modular_nullspace(rows, 3) is None
    fallbacks = count_fallbacks(monkeypatch)
    assert nullspace(rows, 3) == want
    assert fallbacks == [3]


def test_tampered_lift_is_rejected_under_python_O():
    code = ("import sys\n"
            "import nhsf.linalg as linalg\n"
            "assert False, 'asserts are enabled'\n"
            "real = linalg._lift\n"
            "linalg._lift = lambda a: (real(a)[0] + 1, real(a)[1])\n"
            "sys.exit(0 if linalg._modular_nullspace([[1, 2, 3], [0, 1, 1]], 3) is None else 3)\n")
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_f4_node1_full_never_falls_back(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    assert run_case(CaseSpec("F", 4, (1,), "full"))["status"] == MATCH
    assert fallbacks == []


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    assert solve([[1, 1], [1, -1]], [2, 0]) == [Q(1), Q(1)]


def test_row_to_ints():
    assert row_to_ints([Q(1, 2), Q(1, 3)]) == [3, 2]
    assert row_to_ints([2, 4]) == [1, 2]
    assert row_to_ints([0, 0]) == [0, 0]


def test_reducer_express():
    span = IntSpan(3)
    assert span.add([1, 0, 1])
    assert span.add([0, 1, 1])
    assert not span.add([1, 1, 2])  # dependent; still counted as a source
    coords = span.express([2, 3, 5])
    assert coords == [Q(2), Q(3), Q(0)]
    assert span.express([0, 0, 1]) is None


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_rref(m):
    rows, ncols = m
    assert rank(rows) == oracle_rank(rows, ncols)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_annihilates(m):
    rows, ncols = m
    basis = nullspace(rows, ncols)
    for v in basis:
        assert all(type(x) is Q for x in v)
        assert times(rows, v) == [0] * len(rows)
    assert len(basis) == ncols - oracle_rank(rows, ncols)
    assert basis == canonical_kernel(rows, ncols)


@given(matrices(min_rows=1), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_rref(m, data):
    rows, ncols = m
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    x = solve(rows, rhs)
    red, pivots = oracle_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        assert x is None
        return
    assert times(rows, x) == [Q(b) for b in rhs]
    want = [Q(0)] * ncols  # free variables 0
    for r, p in zip(red, pivots):
        want[p] = r[ncols]
    assert x == want


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_int_span_rank(m):
    rows, ncols = m
    span = IntSpan(ncols)
    added = sum(1 for r in rows if span.add(r))
    assert added == span.rank == oracle_rank(rows, ncols)


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_express_reproduces_or_refuses(m, data):
    rows, ncols = m
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        v = combination(coeffs, rows, ncols)
    else:
        v = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    span = IntSpan(ncols)
    independent = [span.add(r) for r in rows]
    coords = span.express(v)
    if oracle_rank(rows + [v], ncols) > oracle_rank(rows, ncols):
        assert coords is None
        return
    assert len(coords) == len(rows)
    assert all(c == 0 for c, ind in zip(coords, independent) if not ind)
    assert combination(coords, rows, ncols) == [Q(x) for x in v]


# -- sparse matrices (column -> {row: coeff}) --------------------------------

sparse_entries = st.one_of(st.just(0), st.just(0), entries)


def to_sparse(dense):
    """Sparse column dict of a dense square matrix dense[row][col]."""
    out = {}
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v != 0:
                out.setdefault(c, {})[r] = v
    return out


def dense_product(a, b):
    n = len(a)
    return [[sum(Q(a[i][k]) * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def square(draw, n):
    return draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(square(n), st.lists(sparse_entries, min_size=n, max_size=n))))
@settings(max_examples=80, deadline=None)
def test_apply_is_the_dense_product(case):
    dense, vec = case
    got = apply(to_sparse(dense), {c: v for c, v in enumerate(vec) if v != 0})
    want = times(dense, vec)
    assert got == {r: v for r, v in enumerate(want) if v != 0}


@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(square(n), square(n))))
@settings(max_examples=80, deadline=None)
def test_commutator_is_ab_minus_ba(case):
    a, b = case
    ab, ba = dense_product(a, b), dense_product(b, a)
    sa, sb = to_sparse(a), to_sparse(b)
    for col in range(len(a)):
        want = {r: ab[r][col] - ba[r][col] for r in range(len(a)) if ab[r][col] != ba[r][col]}
        assert commutator(sa, sb, col) == want


@given(st.lists(st.dictionaries(st.integers(min_value=0, max_value=8),
                                entries.filter(lambda v: v != 0), max_size=4), max_size=5),
       st.data())
@settings(max_examples=80, deadline=None)
def test_dense_rows_reproduce_the_columns(cols, data):
    rows = dense_rows(cols)
    targets = sorted(set().union(*cols))
    assert len(rows) == len(targets)
    assert all(len(row) == len(cols) and any(row) for row in rows)
    # rows . x is the combination of the sparse columns, in target order
    x = data.draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
    combo = {}
    for xj, col in zip(x, cols):
        for t, v in col.items():
            combo[t] = combo.get(t, 0) + Q(xj) * v
    assert times(rows, x) == [combo[t] for t in targets]
