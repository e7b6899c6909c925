"""The integer kernel against an independent oracle: textbook Gauss-Jordan over Fraction."""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from nhsf.linalg import IntSpan, nullspace, rank, row_to_ints, solve


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


@st.composite
def matrices(draw, min_rows=0):
    """(rows, ncols): up to 6 rows over 1..5 columns, ints and Fractions mixed."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=6))
    return rows, ncols


def test_nullspace_simple():
    # x + y + z = 0
    basis = nullspace([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


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
    # canonical form: a 1 at each free column, minus that RREF column at the pivots
    red, pivots = oracle_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    want = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        want.append(v)
    assert basis == want


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
