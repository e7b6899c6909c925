"""Exact linear algebra shared by the whole package: one integer kernel.

The kernel is fraction-free forward elimination over the integers
(``echelon_int``): each step replaces a row r by ``e[c] * r - r[c] * e`` and
divides the result by its content (Bareiss, Math. Comp. 22 (1968), with
content division in place of the Bareiss quotient).  Rows reach it as
integers: ``row_to_ints`` passes ``int`` entries through, clears the
denominators of ``fractions.Fraction`` entries and divides out the content.
``rank``, ``nullspace``, ``IntSpan`` and ``solve`` are thin entry points over
that one step, and ``Fraction`` appears only in the vectors that
``nullspace``, ``IntSpan.express`` and ``solve`` return.

Module actions are sparse matrices (``SparseMat``: column -> {row: coeff});
``apply``, ``commutator`` and ``dense_rows`` are their whole algebra.

Pivots are the leftmost nonzero column, chosen on the first row that has
one, so any two runs produce identical echelon forms.  ``nullspace`` returns
the canonical basis read off the reduced row echelon form: a 1 at each free
column, minus that column of the RREF at the pivot columns.  It computes
that basis from a sparse RREF mod the prime P = 2^61 - 1, lifts each entry
to a fraction n/d with |n|, d < 2^30 (Wang's rational reconstruction) and
certifies the lift exactly: every lifted vector, denominators cleared, must
satisfy M u = 0 over Z.  The certificate suffices although a rank mod P can
undercount: rank_P <= rank_Q, so n - rank_P independent exact kernel vectors
force rank_Q = rank_P; each vector u_f has a 1 at its free column f, 0 at
the other free columns and support in {c <= f}, so every free column mod P
is free over Q, the free sets agree, and u_f is the canonical vector of f,
bit for bit.  If any entry fails to lift or any vector fails the
certificate, the whole call falls back to ``echelon_int``.  ``rank``,
``IntSpan`` and ``solve`` stay exact over Z throughout.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Q = Fraction
SparseMat = dict[int, dict[int, "int | Fraction"]]  # column -> {row: coeff}


def acc(d: dict, k, v) -> None:
    """d[k] += v on a sparse vector, dropping the entry when it becomes 0."""
    nv = d.get(k, 0) + v
    if nv == 0:
        d.pop(k, None)
    else:
        d[k] = nv


def apply(mat: SparseMat, vec: dict) -> dict:
    """mat . vec for a sparse vector {column: coeff}; zeros are dropped."""
    out: dict = {}
    for col, c in vec.items():
        for row, v in mat.get(col, {}).items():
            acc(out, row, c * v)
    return out


def commutator(a: SparseMat, b: SparseMat, col: int) -> dict:
    """Column ``col`` of ab - ba."""
    out = apply(a, b.get(col, {}))
    for row, v in apply(b, a.get(col, {})).items():
        acc(out, row, -v)
    return out


def dense_rows(cols: Sequence[dict]) -> list[list]:
    """The rows, in target order, of the matrix whose j-th column is cols[j]."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for t, v in col.items():
            rows.setdefault(t, [0] * len(cols))[j] = v
    return [rows[t] for t in sorted(rows)]


def _scaled(row) -> tuple[list[int], Fraction]:
    """(coprime integer row, the positive factor it is the given row times)."""
    dens = [x.denominator for x in row if type(x) is Fraction]
    if dens:
        den = lcm(*dens)
        ints = [x.numerator * (den // x.denominator) if type(x) is Fraction else x * den
                for x in row]
    else:
        den = 1
        ints = list(row)
    g = gcd(*ints)
    if g > 1:
        return [v // g for v in ints], Fraction(den, g)
    return ints, Fraction(den)


def row_to_ints(row) -> list[int]:
    """Scale a row of ints and Fractions to coprime integers (zero rows stay zero)."""
    return _scaled(row)[0]


def _eliminate(r: list[int], e: list[int], c: int) -> list[int]:
    """The kernel step: e[c] * r - r[c] * e, which clears column c, over its content."""
    p, q = e[c], r[c]
    out = [p * a - q * b for a, b in zip(r, e)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer forward elimination (fraction-free); returns (rows, pivots)."""
    work = [r for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    ech: list[list[int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not work:
            break
        i = next((i for i, r in enumerate(work) if r[c]), None)
        if i is None:
            continue
        sel = work.pop(i)
        out = []
        for r in work:
            if r[c]:
                r = _eliminate(r, sel, c)
                if not any(r):
                    continue
            out.append(r)
        ech.append(sel)
        pivots.append(c)
        work = out
    return ech, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon_int([row_to_ints(r) for r in rows])[0])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Fraction]]:
    """Deterministic basis of {x : M x = 0} (the canonical RREF form).

    Computed mod P and lifted; a lift that fails its exact certificate
    sends the whole call to the exact ``echelon_int`` route.
    """
    ints = [row_to_ints(r) for r in rows]
    basis = _modular_nullspace(ints, ncols)
    return _exact_nullspace(ints, ncols) if basis is None else basis


def _exact_nullspace(ints: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """The canonical kernel basis by exact integer elimination."""
    ech, pivots = echelon_int(ints)
    for i in range(len(ech) - 1, 0, -1):
        p = pivots[i]
        for j in range(i):
            if ech[j][p]:
                ech[j] = _eliminate(ech[j], ech[i], p)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, p in zip(ech, pivots):
            v[p] = Q(-r[f], r[p])
        basis.append(v)
    return basis


P = (1 << 61) - 1  # a Mersenne prime
LIFT_BOUND = 1 << 30  # a lift n/d has |n| < LIFT_BOUND and 0 < d < LIFT_BOUND


def _rref_mod(rows: list[dict[int, int]], ncols: int) -> dict[int, dict[int, int]]:
    """The reduced row echelon form mod P of sparse rows, as {pivot column: row}.

    Rows are sparse ({column: entry}).  An entry is any integer in (-P, P)
    of the right residue, reduced mod P only when it leaves that range, so
    the small entries of the usual input stay small.  The pivot rows stay
    reduced throughout (a 1 at their pivot, 0 at every other pivot), so a
    new row is reduced by one pass over the pivot columns it holds; its
    leftmost remaining entry becomes a pivot, cleared from the rows before
    it.  The RREF does not depend on the row order, so the sparsest rows go
    first, and rows after the rank reaches ``ncols`` are not read.
    """
    piv: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if len(piv) == ncols:
            break
        r = {}
        for c, v in row.items():
            if not -P < v < P:
                v %= P
            if v:
                r[c] = v
        for q in [q for q in r if q in piv]:
            _axpy(r, -r.pop(q), piv[q], q)
        if not r:
            continue
        lead = min(r)
        x = r[lead]
        if x == -1:
            r = {k: -v for k, v in r.items()}
        elif x != 1:
            inv = pow(x, -1, P)
            r = {k: v * inv % P for k, v in r.items()}
        for e in piv.values():
            if lead in e:
                _axpy(e, -e.pop(lead), r, lead)
        piv[lead] = r
    return piv


def _axpy(r: dict[int, int], x: int, e: dict[int, int], skip: int) -> None:
    """r += x * e mod P, in place, leaving out column ``skip`` of e."""
    for k, v in e.items():
        if k != skip:
            nv = r.get(k, 0) + x * v
            if not -P < nv < P:
                nv %= P
            if nv:
                r[k] = nv
            else:
                r.pop(k, None)


def _lift(a: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: (n, d) with n/d = a mod P and |n|, d < LIFT_BOUND,
    or None when no such fraction exists."""
    r0, r1, t0, t1 = P, a, 0, 1
    while r1 >= LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not -LIFT_BOUND < t1 < LIFT_BOUND or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _modular_nullspace(ints: list[list[int]], ncols: int) -> list[list[Fraction]] | None:
    """The canonical kernel basis from the RREF mod P, or None when a lift fails.

    Every lifted vector, denominators cleared, is checked against M over Z,
    sparse by column; the module docstring says why that certifies the basis.
    """
    rows = [{c: v for c, v in enumerate(row) if v} for row in ints]
    piv = _rref_mod(rows, ncols)
    at: dict[int, list[tuple[int, int]]] = {}  # free column -> [(pivot, RREF entry)]
    for p, r in piv.items():
        for k, v in r.items():
            if k != p:
                at.setdefault(k, []).append((p, v))
    cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c].append((i, v))
    zero, one = Q(0), Q(1)
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        vec = [zero] * ncols
        vec[f] = one
        lifted = []  # (pivot, n, d)
        for p, v in at.get(f, ()):
            nd = _lift(-v % P)
            if nd is None:
                return None
            lifted.append((p, *nd))
            vec[p] = Q(*nd)
        den = lcm(*(d for _, _, d in lifted))
        total = {i: den * v for i, v in cols[f]}  # M u_f with the denominators cleared
        for p, n, d in lifted:
            u = n * (den // d)
            for i, v in cols[p]:
                total[i] = total.get(i, 0) + u * v
        if any(total.values()):
            return None
        basis.append(vec)
    return basis


class IntSpan:
    """Incremental integer row span with deterministic membership tests.

    A stored row is ``ncols`` integers, then ``ncols`` slots saying which
    combination of the independent added rows it is (slot k is the k-th
    independent one), then one slot that ``express`` uses to carry the
    scale of the vector it reduces.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self._sources: list[tuple[int, Fraction]] = []  # (add index, scale) per slot
        self._added = 0

    def _reduce(self, r: list[int]) -> list[int]:
        for e, p in zip(self.rows, self.pivots):
            if r[p]:
                r = _eliminate(r, e, p)
        return r

    def add(self, row) -> bool:
        """Add a row; True when it is independent of the rows added before."""
        ints, scale = _scaled(row)
        n = self.ncols
        r = ints + [0] * (n + 1)
        r[n + len(self._sources)] = 1
        self._added += 1
        r = self._reduce(r)
        piv = next((c for c in range(n) if r[c]), None)
        if piv is None:
            return False
        self._sources.append((self._added - 1, scale))
        ins = bisect_left(self.pivots, piv)
        self.rows.insert(ins, r)
        self.pivots.insert(ins, piv)
        return True

    def express(self, v) -> list[Fraction] | None:
        """Coordinates of v over every row added so far, or None outside the span.

        Rows that ``add`` found dependent get coordinate 0, so the answer is
        unique whenever v is in the span.
        """
        ints, scale = _scaled(v)
        n = self.ncols
        r = self._reduce(ints + [0] * n + [1])
        if any(r[:n]):
            return None
        den = -r[2 * n] * scale
        out = [Q(0)] * self._added
        for k, (i, src_scale) in enumerate(self._sources):
            out[i] = r[n + k] * src_scale / den
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One solution of M x = b with the free variables 0, or None if inconsistent."""
    if not rows:
        return None
    span = IntSpan(len(rows))
    for col in zip(*rows):
        span.add(col)
    return span.express(rhs)
