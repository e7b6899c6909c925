"""The modular kernel against independent oracles: textbook Gauss-Jordan over Fraction,
and the fraction-free integer elimination of ``models`` (``rank``, ``exact_nullspace``).

Each drawn dense matrix is handed to ``linalg`` as sparse columns (vectors
as sparse dicts), the one format it takes and returns.  ``nullspace``'s
path mod P, its certificate and its retry up the prime ladder are checked
on inputs that force each branch: an entry past the lift bound, a prime
that divides a pivot, a lift tampered mod P (the retry returns the right
kernel) and one tampered at every modulus (``InvariantError``, also under
``python -O``).  The mod-P pivot count is checked against ``rank``, and the
sparse-matrix helpers against dense Fraction products.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nhsf
import nhsf.linalg as linalg
from nhsf import InvariantError
from nhsf.linalg import _scaled, apply, commutator, nullspace, solve
from nhsf.verify import MATCH, CaseSpec, run_case

from models import IntSpan, exact_nullspace, rank, scaled_with_factor


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
# past 2^31 a kernel entry can leave the lift's bound mod P, so nullspace retries
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


def columns(rows, ncols):
    """The sparse columns {row: entry}, zeros absent, of a dense matrix."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j] != 0} for j in range(ncols)]


def sparse(vec):
    return {i: v for i, v in enumerate(vec) if v != 0}


def dense(vec, n):
    return [Q(vec.get(i, 0)) for i in range(n)]


def test_nullspace_simple():
    # x + y + z = 0
    basis = nullspace([{0: 1}, {0: 1}, {0: 1}])
    assert len(basis) == 2
    for v in basis:
        assert sum(v.values()) == 0


def canonical_kernel(rows, ncols):
    """A 1 at each free column, minus that column of the oracle RREF at the pivots."""
    red, pivots = oracle_rref(rows, ncols)
    want = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        want.append(sparse(v))
    return want


def random_sparse_columns(rng, fractions):
    """Up to 9 sparse columns over up to 8 rows, about a third of the entries nonzero;
    a few columns repeat sums of earlier ones, so that some columns are dependent."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)

    def entry():
        if fractions and rng.random() < 0.5:
            return Q(rng.randint(-6, 6), rng.randint(1, 6))
        return rng.randint(-6, 6)

    cols = []
    for _ in range(ncols):
        if cols and rng.random() < 0.3:
            a, b = rng.choice(cols), rng.choice(cols)
            col = dict(a)
            for i, v in b.items():
                linalg.acc(col, i, v)
        else:
            col = {i: v for i in range(nrows) if rng.random() < 0.35 and (v := entry())}
        cols.append(col)
    return cols


def test_prefix_ranks_read_off_the_canonical_kernel():
    """rank(cols[:p]) = p - #{v in nullspace(cols) : max(v) < p} for every p, and the
    number of mod-P RREF pivots below p."""
    rng = random.Random(20050919)
    for fractions in (False, True):
        for _ in range(150):
            cols = random_sparse_columns(rng, fractions)
            kernel = nullspace(cols)
            red = linalg.reduce_mod_p(cols)
            for p in range(len(cols) + 1):
                assert p - sum(1 for v in kernel if max(v) < p) == rank(cols[:p])
                # no entry here is divisible by P, so the mod-P pivots count the rank too
                assert red.rank_below(p) == rank(cols[:p])


def count_fallbacks(monkeypatch) -> list:
    """Wrap ``_rref_mod``: the returned list gets the column count of every reduction
    modulo a prime other than P, that is one per step up the prime ladder."""
    calls = []
    rref_mod = linalg._rref_mod

    def counted(rows, ncols, p):
        if p != linalg.P:
            calls.append(ncols)
        return rref_mod(rows, ncols, p)

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    return calls


def tamper_lift(only_mod_p: bool):
    """A ``_lift`` whose numerators are off by one, mod P only or at every modulus."""
    real = linalg._lift

    def tampered(a, p):
        nd = real(a, p)
        if nd is None or (only_mod_p and p != linalg.P):
            return nd
        return nd[0] + 1, nd[1]

    return tampered


def test_small_entries_take_the_modular_path(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    rows = [[1, 2, 3, 4], [Q(1, 2), 0, -1, Q(2, 3)], [2, 4, 6, 8]]
    assert nullspace(columns(rows, 4)) == canonical_kernel(rows, 4)
    assert fallbacks == []


def test_entry_past_the_lift_bound_falls_back(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    big = 2 ** 40 + 1
    assert nullspace([{0: 1}, {0: -big}]) == [{0: Q(big), 1: Q(1)}]
    assert fallbacks == [2]


def test_prime_dividing_a_pivot_falls_back(monkeypatch):
    # mod P the row is (0, 1): rank_P = rank_Q, but the free column differs
    fallbacks = count_fallbacks(monkeypatch)
    p = 2 ** 61 - 1
    assert linalg._lifted_kernel(linalg.reduce_mod_p([{0: p}, {0: 1}]), p) is None
    assert nullspace([{0: p}, {0: 1}]) == [{0: Q(-1, p), 1: Q(1)}]
    assert fallbacks == [2]


def test_an_entry_p_hides_a_pivot_but_not_the_kernel(monkeypatch):
    """An entry P vanishes mod P, so the RREF has fewer pivots than ``rank``; the
    kernel ``nullspace`` certifies still equals ``exact_nullspace``."""
    fallbacks = count_fallbacks(monkeypatch)
    p = linalg.P
    for rows in ([[p, 1], [0, 1]], [[p, 0, 1], [0, 2, 0], [0, 0, 1]],
                 [[p, 2 * p, 1], [0, 0, 1]]):
        ncols = len(rows[0])
        red = linalg.reduce_mod_p(columns(rows, ncols))
        assert red.rank_below(ncols) < rank(columns(rows, ncols)) == oracle_rank(rows, ncols)
        exact = exact_nullspace(red.rows, ncols)
        assert linalg.kernel(red) == exact == canonical_kernel(rows, ncols)
    assert fallbacks == [2, 3, 3]


def test_tampered_lift_is_rejected(monkeypatch):
    rows = [[1, 2, 3], [0, 1, 1]]
    want = canonical_kernel(rows, 3)
    red = linalg.reduce_mod_p(columns(rows, 3))
    assert linalg._lifted_kernel(red, linalg.P) == want
    monkeypatch.setattr(linalg, "_lift", tamper_lift(only_mod_p=True))
    assert linalg._lifted_kernel(red, linalg.P) is None
    fallbacks = count_fallbacks(monkeypatch)
    assert nullspace(columns(rows, 3)) == want
    assert fallbacks == [3]


def run_under_python_O(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``python -O`` and the package importable."""
    src = str(Path(nhsf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_tampered_lift_is_rejected_under_python_O():
    res = run_under_python_O(
        "import sys\n"
        "import nhsf.linalg as linalg\n"
        "assert False, 'asserts are enabled'\n"
        "real = linalg._lift\n"
        "linalg._lift = lambda a, p: (real(a, p)[0] + (p == linalg.P), real(a, p)[1])\n"
        "red = linalg.reduce_mod_p([{0: 1}, {0: 2, 1: 1}, {0: 3, 1: 1}])\n"
        "sys.exit(0 if linalg._lifted_kernel(red, linalg.P) is None else 3)\n")
    assert res.returncode == 0, res.stderr


def test_a_lift_tampered_at_every_modulus_raises(monkeypatch):
    """No prime of the ladder certifies a wrong lift; past 2 H^2 (here H = 2 * 3 * 4,
    so the first retry) the ladder stops with ``InvariantError``, also under -O."""
    rows = [[1, 2, 3], [0, 1, 1]]
    fallbacks = count_fallbacks(monkeypatch)
    monkeypatch.setattr(linalg, "_lift", tamper_lift(only_mod_p=False))
    with pytest.raises(InvariantError, match=r"fails its certificate mod 2\^127 - 1"):
        nullspace(columns(rows, 3))
    assert fallbacks == [3]
    res = run_under_python_O(
        "import sys\n"
        "import nhsf.linalg as linalg\n"
        "from nhsf import InvariantError\n"
        "assert False, 'asserts are enabled'\n"
        "real = linalg._lift\n"
        "linalg._lift = lambda a, p: (real(a, p)[0] + 1, real(a, p)[1])\n"
        "try:\n"
        "    linalg.nullspace([{0: 1}, {0: 2, 1: 1}, {0: 3, 1: 1}])\n"
        "except InvariantError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n")
    assert res.returncode == 0, res.stderr


def test_f4_node1_full_never_falls_back(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    assert run_case(CaseSpec("F", 4, (1,), "full"))["status"] == MATCH
    assert fallbacks == []


def test_solve_inconsistent():
    assert solve([{0: 1, 1: 1}, {0: 1, 1: 1}], [{0: 1, 1: 2}]) == [None]
    assert solve([{0: 1, 1: 1}, {0: 1, 1: -1}], [{0: 2}]) == [{0: Q(1), 1: Q(1)}]
    cols = [{0: 1}, {0: 2}, {1: 1}]  # column 1 is dependent; key 2 is outside the span
    rhss = [{2: 1},  # outside the span
            {0: 3, 2: 5},  # 3 cols[0] + 5 rhss[0]: reads another rhs
            {0: 4, 1: -1},  # in the span, after two that are not
            {}]
    assert solve(cols, rhss) == [None, None, {0: Q(4), 2: Q(-1)}, {}]


def test_scaled():
    assert _scaled({0: Q(1, 2), 3: Q(1, 3)}) == {0: 3, 3: 2}
    assert _scaled({1: 2, 2: 4}) == {1: 1, 2: 2}
    assert _scaled({0: 0, 1: Q(0)}) == {}
    assert scaled_with_factor({0: Q(1, 2), 3: Q(1, 3)}) == ({0: 3, 3: 2}, Q(6))
    assert scaled_with_factor({1: 2, 2: 4}) == ({1: 1, 2: 2}, Q(1, 2))
    assert scaled_with_factor({0: 0, 1: Q(0)}) == ({}, Q(1))


def test_reducer_express():
    span = IntSpan()
    assert span.add({0: 1, 2: 1})
    assert span.add({1: 1, 2: 1})
    assert not span.add({0: 1, 1: 1, 2: 2})  # dependent; still counted as a source
    assert span.express({0: 2, 1: 3, 2: 5}) == {0: Q(2), 1: Q(3)}
    assert span.express({2: 1}) is None


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_matches_rref(m):
    rows, ncols = m
    assert rank(columns(rows, ncols)) == oracle_rank(rows, ncols)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_annihilates(m):
    rows, ncols = m
    basis = nullspace(columns(rows, ncols))
    for v in basis:
        assert list(v) == sorted(v)
        assert all(type(x) is Q and x != 0 for x in v.values())
        assert times(rows, dense(v, ncols)) == [0] * len(rows)
    assert len(basis) == ncols - oracle_rank(rows, ncols)
    assert basis == canonical_kernel(rows, ncols)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_reads_any_row_keys_and_explicit_zeros(m):
    rows, ncols = m
    want = canonical_kernel(rows, ncols)
    keyed = [{(i % 2, "r", i): v for i, v in col.items()} for col in columns(rows, ncols)]
    assert nullspace(keyed) == want
    with_zeros = [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)]
    assert nullspace(with_zeros) == want


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_nullspace_frees_empty_columns(m, data):
    rows, ncols = m
    extra = data.draw(st.integers(min_value=1, max_value=3))
    n = ncols + extra
    empty = set(data.draw(st.permutations(range(n)))[:extra])
    kept = [c for c in range(n) if c not in empty]
    padded = [[0] * n for _ in rows]
    for row, out in zip(rows, padded):
        for x, c in zip(row, kept):
            out[c] = x
    cols = columns(padded, n)
    assert all(cols[c] == {} for c in empty)
    assert nullspace(cols) == canonical_kernel(padded, n)


def oracle_solve(rows, ncols, rhs):
    """The solution read off the RREF of [rows | rhs] with the free variables 0, or None."""
    red, pivots = oracle_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    want = [Q(0)] * ncols
    for r, p in zip(red, pivots):
        want[p] = r[ncols]
    return sparse(want)


@given(matrices(min_rows=1), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_matches_rref(m, data):
    rows, ncols = m
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    [x] = solve(columns(rows, ncols), [sparse(rhs)])
    assert x == oracle_solve(rows, ncols, rhs)
    if x is not None:
        assert times(rows, dense(x, ncols)) == [Q(b) for b in rhs]


@given(matrices(min_rows=1), st.data())
@settings(max_examples=80, deadline=None)
def test_batched_solve_answers_each_rhs_alone(m, data):
    """Several rhss in one call: drawn ones (often outside the span), one leaning on
    an earlier rhs (None whenever that one is outside), then rhss in the span."""
    rows, ncols = m
    vectors = st.lists(entries, min_size=len(rows), max_size=len(rows))

    def in_span():
        return times(rows, data.draw(st.lists(entries, min_size=ncols, max_size=ncols)))

    rhss = data.draw(st.lists(vectors, min_size=1, max_size=3))
    c = data.draw(st.fractions(min_value=1, max_value=6, max_denominator=6))
    rhss.append([c * Q(b) + x for b, x in zip(data.draw(st.sampled_from(rhss)), in_span())])
    rhss += [in_span() for _ in range(data.draw(st.integers(min_value=1, max_value=2)))]
    got = solve(columns(rows, ncols), [sparse(b) for b in rhss])
    assert got == [oracle_solve(rows, ncols, b) for b in rhss]


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_int_span_rank(m):
    rows, ncols = m
    span = IntSpan()
    added = sum(1 for r in rows if span.add(sparse(r)))
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
    span = IntSpan()
    independent = [span.add(sparse(r)) for r in rows]
    coords = span.express(sparse(v))
    if oracle_rank(rows + [v], ncols) > oracle_rank(rows, ncols):
        assert coords is None
        return
    assert list(coords) == sorted(coords)
    assert all(independent[i] and c != 0 for i, c in coords.items())
    assert combination(dense(coords, len(rows)), rows, ncols) == [Q(x) for x in v]


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
