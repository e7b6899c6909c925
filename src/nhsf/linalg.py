"""Exact linear algebra shared by the whole package: one sparse format, one kernel.

Every vector is sparse: a dict {index: coeff} with ``int`` or
``fractions.Fraction`` coefficients and its zeros absent (an explicit zero
is read as absent).  A matrix is a sequence of such columns; its row keys
may be any hashable.  ``nullspace``, ``solve`` and ``pivots`` take these
vectors as their callers hold them; the first two return them with keys in
ascending order, ``nullspace``'s with ``int`` values.  Module actions are
``SparseMat`` (column -> {row: coeff}); ``apply`` and ``commutator`` are
their whole algebra.

``_rref_mod`` is the one elimination: every solve and change of basis in
the package is read off ``nullspace``'s canonical basis, and every exact
rank and independence test off ``pivots``.  The canonical basis is the one
given by the reduced row echelon form (RREF): a 1 at each free column,
minus that column of the RREF at the pivot columns.  ``nullspace`` returns
each canonical vector v as the primitive integer vector u, u[max u] > 0,
with v = u / u[max u].  The pivots are the columns independent of the
columns before them, and the free ones are the rest.  ``solve`` is one
``nullspace`` of the columns followed by the right-hand sides: the
canonical vector of a right-hand side's column, negated and without its 1,
is the solution whose dependent columns are 0.  Each vector's largest key
is its free column, so the rank of the first p columns is p less the
number of vectors whose largest key is below p.

``nullspace`` transposes the columns once to sparse integer rows
(``_scaled`` clears the denominators of a row that holds a ``Fraction``;
scaling a row changes neither the kernel nor the RREF), computes their
sparse RREF mod the prime P = 2^61 - 1 and reads the basis off it: it lifts
each entry to a fraction n/d with |n|, d < 2^30 (Wang's rational
reconstruction) and certifies the lift exactly: every lifted vector,
denominators cleared, must satisfy M u = 0 over Z.  The certificate
suffices although the RREF can have fewer pivots than the rank: for an
integer matrix rank_P <= rank_Q (a minor that vanishes over Z vanishes mod
P), so n - rank_P independent exact kernel vectors force rank_Q = rank_P;
each vector u_f has a 1 at its free column f, 0 at the other free columns
and support in {c <= f}, so every free column mod P is free over Q, the
free sets agree, and u_f is the canonical vector of f, bit for bit.  The
same holds mod any prime.  The vector certified and returned is den u_f,
den the lcm of the lifted denominators: primitive, as each n/d is reduced.

If any entry fails to lift or any vector fails the certificate, ``nullspace``
climbs a ladder of Mersenne primes p = 2^q - 1 (q = 127, 521, 607, 1279,
...), one at a time: the same ``_rref_mod`` on the same rows mod p, lifted
with |n|, d < 2^((q - 1) // 2) and certified as above, and the first basis
that passes is the answer.  A failure can come from an entry past the lift
bound or from a prime that divides a minor (Wang, SYMSAC 1981; von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5).  Neither survives a
prime past 2 H^2, H = prod over the columns of (floor |col|_2 + 1), the
Hadamard bound on every minor of the rows: such a prime divides no nonzero
minor, so its pivots are the rational ones, and every RREF entry is a ratio
of two minors (Cramer's rule), so |n|, d <= H < 2^((q - 1) // 2) and every
entry lifts.  A failure there is a bug, and ``nullspace`` raises
``InvariantError``; it never returns a basis that failed its certificate.

``pivots`` returns the pivots themselves, with no lift and no certificate
where Hadamard's inequality shows that P divides no minor that could hide
one.  It runs the same ``_rref_mod`` mod P on the same rows; let r be the
number of its pivots.  If r = ncols, every column is a pivot over Q too.
Otherwise, rank_P <= rank_Q on every column prefix, and if the two
differed on a prefix of rank r_j <= r mod P, some (r_j + 1)-minor of that
prefix would be a nonzero integer divisible by P, so minor^2 >= P^2.  By
Hadamard's inequality minor^2 is at most the product of the squared norms
of the minor's columns, and of its rows, and so at most the product of
those of the whole r_j + 1 columns, or rows, of the matrix.  These factors
are integers >= 1, so that product is at most the product of the r + 1
largest.  (Every row is nonzero.  A zero column is a pivot neither mod P
nor over Q, and where fewer than r + 1 columns are nonzero, the r pivots
mod P are every nonzero column, and so are the pivots over Q.)  So where
the r + 1 largest squared column norms, or row norms, multiply to less than
P^2 (integers: no square root), every prefix has the same rank mod P and
over Q, and the pivots mod P are the pivots over Q.  Where that bound is
open, ``pivots`` lifts and certifies the canonical kernel from the RREF it
already has, up the same ladder as ``nullspace``, and returns the columns
that are not free.  There is no shortcut at r = number of rows: the rank is
then exact but the pivot set need not be.  The one row [P, 1] has the pivot
{1} mod P and {0} over Q, and callers read prefix ranks off the pivot set.

``pivots_mod_2`` is a rank lower bound, not a second kernel: the columns
independent mod 2 of the columns before them.  A column becomes a Python
int with bit b set where its b-th row key holds an odd entry, and it is
reduced by XOR with the kept column of its lowest set bit, one C-level
operation per step.  Its pivots below p count rank_2 of the first p
columns, and for an integer matrix rank_2 <= rank_Q for the reason given
for P above: a minor that vanishes over Z is even.  A column that holds a
``Fraction`` is ``_scaled`` first; scaling a column by a nonzero rational
changes the rank over Q of no prefix, so the bound holds for the columns as
given.  ``cohom`` reads ranks off it only where they sum to a bound that
forces them to be exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from . import InvariantError

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


def _scaled(vec: dict) -> dict[int, int]:
    """``vec`` times the positive rational that makes it coprime and integer; zeros dropped."""
    den = lcm(*(v.denominator for v in vec.values() if type(v) is Fraction))
    ints = {k: v.numerator * (den // v.denominator) if type(v) is Fraction else v * den
            for k, v in vec.items() if v}
    g = gcd(*ints.values())
    return {k: v // g for k, v in ints.items()} if g > 1 else ints


def _int_rows(cols: Sequence[dict]) -> list[dict[int, int]]:
    """The nonzero rows of ``cols`` as sparse integer rows {column: entry}, a row that
    holds a ``Fraction`` ``_scaled``: scaling a row changes neither the kernel nor the RREF."""
    by_row: dict = {}
    for j, col in enumerate(cols):
        for t, v in col.items():
            if v:
                by_row.setdefault(t, {})[j] = v
    return [_scaled(r) if Fraction in map(type, r.values()) else r for r in by_row.values()]


def nullspace(cols: Sequence[dict]) -> list[dict[int, int]]:
    """Deterministic basis of {x : sum_j x_j cols[j] = 0}: the canonical RREF vectors as
    primitive integer vectors, positive at their free column, lifted from the RREF mod P
    and certified; a lift that fails sends the rows up the prime ladder (module docstring)."""
    rows = _int_rows(cols)
    return _certified_kernel(rows, len(cols), _rref_mod(rows, len(cols), P))


def pivots(cols: Sequence[dict]) -> list[int]:
    """The columns independent over Q of the columns before them, ascending: the pivots
    mod P where Hadamard's bound shows that P divides no minor that matters, else the
    complement of the certified kernel's free columns (module docstring)."""
    rows = _int_rows(cols)
    ncols = len(cols)
    piv = _rref_mod(rows, ncols, P)
    if _exact_mod_p(rows, ncols, len(piv)):
        return sorted(piv)
    free = {max(vec) for vec in _certified_kernel(rows, ncols, piv)}
    return [c for c in range(ncols) if c not in free]


def _exact_mod_p(rows: list[dict[int, int]], ncols: int, r: int) -> bool:
    """Whether the r pivots mod P of ``rows`` are their pivots over Q by Hadamard's bound:
    r = ncols, or the r + 1 largest squared norms of the columns, or of the rows,
    multiply to less than P^2 (module docstring)."""
    if r == ncols:
        return True
    row_sq = (sum(map(mul, row.values(), row.values())) for row in rows)  # read if needed
    return any(prod(sorted(sq)[-r - 1:]) < P * P for sq in (_col_sq(rows, ncols), row_sq))


def _certified_kernel(rows: list[dict[int, int]], ncols: int,
                      piv: dict[int, dict[int, int]]) -> list[dict[int, int]]:
    """The integer kernel basis of ``rows``, lifted from ``piv`` (their RREF mod P) or,
    where that fails its certificate, from the first prime up the ladder that passes."""
    basis = _lifted_kernel(rows, ncols, piv, P)
    if basis is not None:
        return basis
    bound = 2 * _hadamard(rows, ncols) ** 2
    for q in MERSENNE[1:]:
        p = (1 << q) - 1
        basis = _lifted_kernel(rows, ncols, _rref_mod(rows, ncols, p), p)
        if basis is not None:
            return basis
        if p > bound:
            break
    raise InvariantError(f"the kernel of a {len(rows)} x {ncols} integer matrix fails its "
                         f"certificate mod 2^{q} - 1; 2 H^2 < 2^{bound.bit_length()}")


def pivots_mod_2(cols: Sequence[dict]) -> list[int]:
    """The columns independent mod 2 of the columns before them, ascending; those below p
    count rank_2 of the first p columns, at most rank_Q (module docstring).

    A column is an int with bit b set where its b-th distinct row key holds
    an odd entry, XORed with the kept column of its lowest set bit until it
    is 0 or that bit is new.
    """
    bits: dict = {}
    low: dict[int, int] = {}  # lowest set bit -> kept column
    piv = []
    for j, col in enumerate(cols):
        if Fraction in map(type, col.values()):
            col = _scaled(col)
        x = 0
        for k, v in col.items():
            if v & 1:
                x |= 1 << bits.setdefault(k, len(bits))
        while x:
            b = x & -x
            if b not in low:
                low[b] = x
                piv.append(j)
                break
            x ^= low[b]
    return piv


def _col_sq(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """The squared Euclidean norm of each column of ``rows``."""
    sq = [0] * ncols
    for row in rows:
        for c, v in row.items():
            sq[c] += v * v
    return sq


def _hadamard(rows: list[dict[int, int]], ncols: int) -> int:
    """H = prod over the columns of (floor |col|_2 + 1), above |every minor| of the rows."""
    return prod(isqrt(s) + 1 for s in _col_sq(rows, ncols))


# exponents q of the Mersenne primes 2^q - 1 of the ladder; P = 2^61 - 1 comes first
MERSENNE = (61, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937,
            21701, 23209, 44497, 86243)
P = (1 << MERSENNE[0]) - 1


def _rref_mod(rows: list[dict[int, int]], ncols: int, p: int) -> dict[int, dict[int, int]]:
    """The reduced row echelon form mod the prime p of sparse rows, as {pivot column: row}.

    An entry is any integer in (-p, p) of the right residue, reduced mod p
    only when it leaves that range, so the small entries of the usual input
    stay small.  The pivot rows stay reduced throughout (a 1 at their pivot,
    0 at every other pivot), so a new row is reduced by one pass over the
    pivot columns it holds; its leftmost remaining entry becomes a pivot,
    cleared from the rows before it.  The RREF does not depend on the row
    order, so the sparsest rows go first, and rows after the rank reaches
    ``ncols`` are not read.
    """
    piv: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if len(piv) == ncols:
            break
        r = {}
        for c, v in row.items():
            if not -p < v < p:
                v %= p
            if v:
                r[c] = v
        for q in [q for q in r if q in piv]:
            _axpy(r, -r.pop(q), piv[q], q, p)
        if not r:
            continue
        lead = min(r)
        x = r[lead]
        if x == -1:
            r = {k: -v for k, v in r.items()}
        elif x != 1:
            inv = pow(x, -1, p)
            r = {k: v * inv % p for k, v in r.items()}
        for e in piv.values():
            if lead in e:
                _axpy(e, -e.pop(lead), r, lead, p)
        piv[lead] = r
    return piv


def _axpy(r: dict[int, int], x: int, e: dict[int, int], skip: int, p: int) -> None:
    """r += x * e mod p, in place, leaving out column ``skip`` of e."""
    for k, v in e.items():
        if k != skip:
            nv = r.get(k, 0) + x * v
            if not -p < nv < p:
                nv %= p
            if nv:
                r[k] = nv
            else:
                r.pop(k, None)


def _lift(a: int, p: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction mod p = 2^q - 1: (n, d) with n/d = a mod p and
    |n|, d < 2^((q - 1) // 2), or None when no such fraction exists."""
    bound = 1 << ((p.bit_length() - 1) // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 >= bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not -bound < t1 < bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lifted_kernel(rows: list[dict[int, int]], ncols: int, piv: dict[int, dict[int, int]],
                   p: int) -> list[dict[int, int]] | None:
    """The integer kernel basis of ``rows`` read off ``piv``, their RREF mod p, or None
    when a lift fails.

    Every vector is checked against M over Z, sparse by column; the module
    docstring says why that certifies the basis.
    """
    at: dict[int, list[tuple[int, int]]] = {}  # free column -> [(pivot, RREF entry)]
    for c, r in piv.items():
        for k, v in r.items():
            if k != c:
                at.setdefault(k, []).append((c, v))
    cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c].append((i, v))
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        lifted = []  # (pivot, n, d)
        for c, v in at.get(f, ()):
            nd = _lift(-v % p, p)
            if nd is None:
                return None
            lifted.append((c, *nd))
        den = lcm(*(d for _, _, d in lifted))
        vec = {c: n * (den // d) for c, n, d in sorted(lifted)}
        vec[f] = den  # every pivot c with an entry at f is left of f
        total: dict = {}  # M vec
        for c, u in vec.items():
            for i, v in cols[c]:
                total[i] = total.get(i, 0) + u * v
        if any(total.values()):
            return None
        basis.append(vec)
    return basis


def solve(cols: Sequence[dict], rhss: Sequence[dict]) -> list[dict[int, Fraction] | None]:
    """For each rhs, the solution of sum_j x_j cols[j] = rhs with the dependent columns 0.

    One ``nullspace`` of [*cols, *rhss]: rhs i's answer is the vector u of column n + i
    over -u[n + i], without that entry, or None if n + i is a pivot or u reads another rhs.
    """
    n = len(cols)
    out: list[dict[int, Fraction] | None] = [None] * len(rhss)
    for vec in nullspace([*cols, *rhss]):
        f = max(vec)
        if f >= n and all(k < n for k in vec if k != f):
            out[f - n] = {k: Q(-v, vec[f]) for k, v in vec.items() if k != f}
    return out
