"""Exact linear algebra shared by the whole package: one sparse format, one kernel.

Every vector is sparse: a dict {index: coeff} with ``int`` or
``fractions.Fraction`` coefficients and its zeros absent (an explicit zero
is read as absent).  A matrix is a sequence of such columns; its row keys
may be any hashable.  ``nullspace`` and ``solve`` take these vectors as
their callers hold them and return them, with ``Fraction`` values and keys
in ascending order.  Module actions are ``SparseMat`` (column -> {row:
coeff}); ``apply`` and ``commutator`` are their whole algebra.

``nullspace`` is the one elimination: every solve, independence test and
change of basis in the package is read off its canonical basis, the one
given by the reduced row echelon form (RREF): a 1 at each free column, minus
that column of the RREF at the pivot columns.  The pivots are the columns
independent of the columns before them, and the free ones are the rest.
``solve`` is one ``nullspace`` of the columns followed by the right-hand
sides: the canonical vector of a right-hand side's column, negated and
without its 1, is the solution whose dependent columns are 0.  Each
canonical vector's largest key is its free column, so the rank of the first
p columns is p less the number of vectors whose largest key is below p.

``nullspace`` is ``kernel(reduce_mod_p(cols))``: one elimination, then the
certificate, deferred so that a caller can skip it where the RREF alone
proves what it needs (``cohom``).  ``reduce_mod_p`` transposes the columns
once to sparse integer rows (``_scaled`` clears the denominators of a row
that holds a ``Fraction``; scaling a row changes neither the kernel nor the
RREF) and computes their sparse RREF mod the prime P = 2^61 - 1.  Its
pivots below p count the rank mod P of the first p columns, which for an
integer matrix is at most the rank over Q (a minor that vanishes over Z
vanishes mod P), and equal to it unless P divides some minor.  ``kernel``
reads the basis off that RREF: it lifts each entry to a fraction n/d with
|n|, d < 2^30 (Wang's rational reconstruction) and certifies the lift
exactly: every lifted vector, denominators cleared, must satisfy M u = 0
over Z.  The certificate suffices although a rank mod P can undercount:
rank_P <= rank_Q, so n - rank_P independent exact kernel vectors force
rank_Q = rank_P; each vector u_f has a 1 at its free column f, 0 at the
other free columns and support in {c <= f}, so every free column mod P is
free over Q, the free sets agree, and u_f is the canonical vector of f, bit
for bit.  The same holds mod any prime.

If any entry fails to lift or any vector fails the certificate, ``kernel``
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
entry lifts.  A failure there is a bug, and ``kernel`` raises
``InvariantError``; it never returns a basis that failed its certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple, Sequence

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


class Reduction(NamedTuple):
    """A matrix's sparse integer rows and their RREF mod P (mod a larger prime on the
    ladder), as {pivot column: row}."""

    rows: list[dict[int, int]]
    ncols: int
    piv: dict[int, dict[int, int]]

    def rank_below(self, p: int) -> int:
        """rank_P of the first p columns: the RREF's pivots below p; at most rank_Q."""
        return sum(1 for c in self.piv if c < p)


def reduce_mod_p(cols: Sequence[dict]) -> Reduction:
    """The one elimination of ``nullspace``: the columns transposed to integer rows, reduced mod P."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for t, v in col.items():
            if v:
                rows.setdefault(t, {})[j] = v
    # scaling a row changes neither the kernel nor the RREF, so integer rows go as they are
    ints = [_scaled(r) if any(type(v) is Fraction for v in r.values()) else r
            for r in rows.values()]
    return Reduction(ints, len(cols), _rref_mod(ints, len(cols), P))


def kernel(red: Reduction) -> list[dict[int, Fraction]]:
    """The canonical kernel basis of ``red``'s matrix, lifted from its RREF and certified;
    a lift that fails sends the rows up the prime ladder (module docstring)."""
    basis = _lifted_kernel(red, P)
    if basis is not None:
        return basis
    rows, ncols, _ = red
    bound = 2 * _hadamard(rows, ncols) ** 2
    for q in MERSENNE[1:]:
        p = (1 << q) - 1
        basis = _lifted_kernel(Reduction(rows, ncols, _rref_mod(rows, ncols, p)), p)
        if basis is not None:
            return basis
        if p > bound:
            break
    raise InvariantError(f"the kernel of a {len(rows)} x {ncols} integer matrix fails its "
                         f"certificate mod 2^{q} - 1; 2 H^2 < 2^{bound.bit_length()}")


def nullspace(cols: Sequence[dict]) -> list[dict[int, Fraction]]:
    """Deterministic basis of {x : sum_j x_j cols[j] = 0} (the canonical RREF form)."""
    return kernel(reduce_mod_p(cols))


def _hadamard(rows: list[dict[int, int]], ncols: int) -> int:
    """H = prod over the columns of (floor |col|_2 + 1), above |every minor| of the rows."""
    sq = [0] * ncols
    for row in rows:
        for c, v in row.items():
            sq[c] += v * v
    return prod(isqrt(s) + 1 for s in sq)


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


def _lifted_kernel(red: Reduction, p: int) -> list[dict[int, Fraction]] | None:
    """The canonical kernel basis read off ``red.piv``, an RREF mod p, or None when a
    lift fails.

    Every lifted vector, denominators cleared, is checked against M over Z,
    sparse by column; the module docstring says why that certifies the basis.
    """
    rows, ncols, piv = red
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
        total = {i: den * v for i, v in cols[f]}  # M u_f with the denominators cleared
        for c, n, d in lifted:
            u = n * (den // d)
            for i, v in cols[c]:
                total[i] = total.get(i, 0) + u * v
        if any(total.values()):
            return None
        vec = {c: Q(n, d) for c, n, d in sorted(lifted)}
        vec[f] = Q(1)  # every pivot c with an entry at f is left of f
        basis.append(vec)
    return basis


def solve(cols: Sequence[dict], rhss: Sequence[dict]) -> list[dict[int, Fraction] | None]:
    """For each rhs, the solution of sum_j x_j cols[j] = rhs with the dependent columns 0.

    One ``nullspace`` of [*cols, *rhss]: rhs i is column n + i, and its
    canonical vector, negated and without its 1, is the solution.  The
    answer is None when n + i is a pivot or its vector reads another rhs.
    """
    n = len(cols)
    out: list[dict[int, Fraction] | None] = [None] * len(rhss)
    for vec in nullspace([*cols, *rhss]):
        f = max(vec)
        if f >= n and all(k < n for k in vec if k != f):
            out[f - n] = {k: -v for k, v in vec.items() if k != f}
    return out
