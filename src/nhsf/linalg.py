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

Pivots are the leftmost nonzero column, chosen on the first row that has
one, so any two runs produce identical echelon forms.  ``nullspace`` returns
the canonical basis read off the reduced row echelon form: a 1 at each free
column, minus that column of the RREF at the pivot columns.  All arithmetic
is exact over Z; there is no modular shortcut, since a rank mod p can
undercount.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Q = Fraction


def acc(d: dict, k, v) -> None:
    """d[k] += v on a sparse vector, dropping the entry when it becomes 0."""
    nv = d.get(k, 0) + v
    if nv == 0:
        d.pop(k, None)
    else:
        d[k] = nv


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
    """Deterministic basis of {x : M x = 0} (the canonical RREF form)."""
    ech, pivots = echelon_int([row_to_ints(r) for r in rows])
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
