"""Polynomial realizations of the classical infinite prolongs, and the tests' oracles.

These provide degreewise-complete coefficient modules for vect(n), svect(n),
h(2n), po(2n) and k(2n+1), each truncated at a chosen bound.  Monomial bases
make the actions exact and the degree/weight labels immediate.  The tests
use them as the oracle for the prolongation solver and as complete
coefficient modules for the cohomology checks; the ``nhsf`` package does
not import this module.

``reference_slice`` is the cohomology slice computed the long way: it
enumerates C^{s+1}_k as well and finds every target of d by a lookup in the
enumerated basis, as ``cohom`` did before it keyed d's rows as they appear,
and it counts H by reducing a cocycle basis modulo coboundaries through an
``IntSpan`` per block.  ``reference_decompose`` splits H into Levi summands
the long way: it builds the one-step weight blocks as well, stores H as
representatives and reduces the actors' images on them modulo coboundaries,
as ``decomp`` did before it read multiplicities from kernel counts.  Both
build a filtered basis as the unfiltered ``cochain_basis`` restricted by the
predicate (``filtered_basis``), not by ``cohom``'s mask join, and read
each block's ranks off a certified ``nullspace`` and an ``IntSpan``, never
off the mod-P pivots alone.  The tests hold
``cohom.cohomology`` and ``decomp.decompose`` to them.

``echelon_int`` is the exact elimination the package's modular kernel is
held to: fraction-free forward elimination over the integers on sparse
rows, where each step replaces a row r by ``e[c] * r - r[c] * e`` and
divides the result by its content (Bareiss, Math. Comp. 22 (1968), with
content division in place of the Bareiss quotient).  Pivots are the leftmost
nonzero column, chosen on the first row that has one, so any two runs
produce identical echelon forms.  ``rank`` counts its pivots and
``exact_nullspace`` back-substitutes them to the canonical kernel basis; no
prime and no lift is involved.

``IntSpan`` is an incremental fraction-free reducer on the same step:
vectors are added one at a time and later ones are tested against, or
expressed over, those before them.  The package solves every system by one
``linalg.nullspace`` instead, so the reducer lives here, where the
references above use it and the tests of ``linalg.solve`` have a second
solver to agree with.

The last group holds what only the tests call: the Heisenberg algebra and
its full degree-0 derivations (``heisenberg``, ``der0``), the g_- and g_0
of the contact prolongs; the representation property of a module and the
Jacobi identity of a computed prolong; and R_W^- of a Weyl word.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from nhsf import InvariantError
from nhsf.cohom import (CochainBasis, CohomologySlice, WeightBlock, _reverse_bracket,
                        cochain_basis, differential_columns, full_window, slice_valid)
from nhsf.decomp import HIGHEST, LOWEST, ExtremalWeights, IrreducibleSummand
from nhsf.linalg import (Q, SparseMat, _scaled, acc, apply, commutator, nullspace,
                         solve)
from nhsf.liealg import GradedNilpotent, abelian_nilpotent
from nhsf.gmod import Actor, GradedModule, ModuleElt
from nhsf.prolong import (G0, ProlongedAlgebra, ProlongElt, _as_elt, _derivations,
                          bracket_elements)
from nhsf.rootsys import RootSystem


# -- the exact oracle kernel -----------------------------------------------


def _eliminate(r: dict, e: dict, c) -> dict:
    """The elimination step: e[c] * r - r[c] * e, which clears column c, over its content."""
    p, q = e[c], r[c]
    out = {k: p * v for k, v in r.items()}
    for k, v in e.items():
        nv = out.get(k, 0) - q * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def echelon_int(rows: list[dict]) -> tuple[list[dict], list]:
    """Integer forward elimination (fraction-free) on sparse rows; returns (rows, pivots)."""
    work = [r for r in rows if r]
    ech: list[dict] = []
    pivots: list = []
    while work:
        c = min(min(r) for r in work)
        sel = work.pop(next(i for i, r in enumerate(work) if c in r))
        out = []
        for r in work:
            if c in r:
                r = _eliminate(r, sel, c)
                if not r:
                    continue
            out.append(r)
        ech.append(sel)
        pivots.append(c)
        work = out
    return ech, pivots


def rank(vecs: Sequence[dict]) -> int:
    return len(echelon_int([_scaled(v) for v in vecs])[0])


def exact_nullspace(ints: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """The canonical kernel basis of sparse integer rows by exact integer elimination."""
    ech, pivots = echelon_int(ints)
    for i in range(len(ech) - 1, 0, -1):
        p = pivots[i]
        for j in range(i):
            if p in ech[j]:
                ech[j] = _eliminate(ech[j], ech[i], p)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {p: Q(-r[f], r[p]) for r, p in zip(ech, pivots) if f in r}
        v[f] = Q(1)
        basis.append(v)
    return basis


def scaled_with_factor(vec: dict) -> tuple[dict[int, int], Fraction]:
    """(``linalg._scaled(vec)``, the positive factor it is ``vec`` times)."""
    ints = _scaled(vec)
    k = next(iter(ints), None)
    return ints, Q(1) if k is None else Q(ints[k]) / vec[k]


class IntSpan:
    """Incremental integer span of sparse vectors with deterministic membership tests.

    Vectors are keyed by nonnegative integers.  A stored row also says, at
    negative keys, which combination of the independent added vectors it
    is: slot k, at key -1 - k, belongs to the k-th independent one.
    ``express`` carries the scale of the vector it reduces in the first free
    slot.
    """

    def __init__(self):
        self.rows: list[dict[int, int]] = []
        self.pivots: list[int] = []
        self._sources: list[tuple[int, Fraction]] = []  # (add index, scale) per slot
        self._added = 0

    def _reduce(self, r: dict[int, int]) -> dict[int, int]:
        for e, p in zip(self.rows, self.pivots):
            if p in r:
                r = _eliminate(r, e, p)
        return r

    def add(self, vec: dict) -> bool:
        """Add a vector; True when it is independent of the vectors added before."""
        ints, scale = scaled_with_factor(vec)
        ints[-1 - len(self._sources)] = 1
        self._added += 1
        r = self._reduce(ints)
        piv = min((c for c in r if c >= 0), default=None)
        if piv is None:
            return False
        self._sources.append((self._added - 1, scale))
        ins = bisect_left(self.pivots, piv)
        self.rows.insert(ins, r)
        self.pivots.insert(ins, piv)
        return True

    def express(self, vec: dict) -> dict[int, Fraction] | None:
        """Coordinates of vec over every vector added so far, or None outside the span.

        Vectors that ``add`` found dependent get coordinate 0, so the answer
        is unique whenever vec is in the span.
        """
        ints, scale = scaled_with_factor(vec)
        free = -1 - len(self._sources)
        ints[free] = 1
        r = self._reduce(ints)
        if any(c >= 0 for c in r):
            return None
        den = -r[free] * scale
        return {i: r[-1 - k] * src_scale / den
                for k, (i, src_scale) in enumerate(self._sources) if -1 - k in r}

    @property
    def rank(self) -> int:
        return len(self.rows)


# -- what only the tests call ------------------------------------------------


def heisenberg(n_pairs: int) -> GradedNilpotent:
    """hei(2n): [p_i, q_i] = z, graded with p,q at -1 and z at -2."""
    labels = [f"p{i}" for i in range(n_pairs)] + [f"q{i}" for i in range(n_pairs)] + ["z"]
    degrees = [-1] * (2 * n_pairs) + [-2]
    weights: list = []
    for i in range(n_pairs):
        w = [0] * n_pairs
        w[i] = 1
        weights.append(tuple(w))
    for i in range(n_pairs):
        w = [0] * n_pairs
        w[i] = -1
        weights.append(tuple(w))
    weights.append((0,) * n_pairs)
    nil = GradedNilpotent(labels, degrees, weights)
    z = 2 * n_pairs
    for i in range(n_pairs):
        nil.bracket_table[(i, n_pairs + i)] = {z: 1}
    return nil


def der0(gminus: GradedNilpotent) -> G0:
    """All degree-preserving derivations of g_-, closed under commutator."""
    g0 = _derivations(ProlongedAlgebra(gminus, G0([], [], [])), 0)
    g0.bracket = _matrix_bracket_table(gminus.dim, g0.act)
    return g0


def _matrix_bracket_table(n: int, act: list[SparseMat]):
    """Commutators of action matrices, expressed in the given basis."""

    def flat(mat: SparseMat) -> dict:
        return {row * n + col: v for col, rowd in mat.items() for row, v in rowd.items()}

    pairs = [(i, j) for i in range(len(act)) for j in range(i + 1, len(act))]
    comms = [flat({col: commutator(act[i], act[j], col) for col in range(n)}) for i, j in pairs]
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for ij, coords in zip(pairs, solve([flat(mat) for mat in act], comms)):
        if coords is None:
            raise InvariantError("derivation algebra not closed under commutator")
        if coords:
            table[ij] = coords
    return table


def verify_representation(mod: GradedModule) -> None:
    """act([u,v]) = [act(u), act(v)] on every g_- pair and basis column."""
    gm = mod.gminus
    for i in range(gm.dim):
        for j in range(i + 1, gm.dim):
            br = gm.bracket(i, j)
            for col in range(mod.dim):
                lhs: dict[int, Fraction] = {}
                for k, c in br.items():
                    for row, v in mod.act[k].get(col, {}).items():
                        acc(lhs, row, c * v)
                if lhs != commutator(mod.act[i], mod.act[j], col):
                    raise InvariantError(
                        f"representation property fails on pair ({i},{j}), column {col}"
                    )


def verify_prolong_jacobi(p: ProlongedAlgebra, max_total: int | None = None) -> None:
    """Jacobi identity on all basis triples within the computed window."""
    if max_total is None:
        max_total = p.computed_to
    gens = [(d, u) for u, d in enumerate(p.gminus.degrees)]
    gens += [(k, t) for k in [0] + sorted(p.positive) for t in range(p.layer(k).dim)]
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            for c in range(b + 1, len(gens)):
                la, lb, lc = gens[a][0], gens[b][0], gens[c][0]
                if any(x + y > max_total for x, y in
                       ((la, lb), (lb, lc), (la, lc))):
                    continue
                if la + lb + lc > max_total:
                    continue
                ea, eb, ec = (_as_elt(*gens[a]), _as_elt(*gens[b]), _as_elt(*gens[c]))
                total: ProlongElt = {}
                for term in (
                    bracket_elements(p, bracket_elements(p, ea, eb), ec),
                    bracket_elements(p, bracket_elements(p, eb, ec), ea),
                    bracket_elements(p, bracket_elements(p, ec, ea), eb),
                ):
                    for k2, v in term.items():
                        acc(total, k2, v)
                if total:
                    raise InvariantError(f"prolong Jacobi fails on {gens[a]},{gens[b]},{gens[c]}")


def inversions_of_inverse(rs: RootSystem, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """{beta > 0 : w^{-1}(beta) < 0}, the paper's R_W^- for w."""
    inv = word[::-1]
    out = []
    for beta in rs.positive_roots:
        img = rs.apply_word_to_root(inv, beta)
        if all(c <= 0 for c in img):
            out.append(beta)
    return out


# -- the polynomial prolongs ---------------------------------------------------


def _monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        for rest in _monomials(nvars - 1, total - first):
            out.append((first,) + rest)
    return sorted(out)


def _fmt(exp: tuple[int, ...], names: list[str]) -> str:
    parts = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, exp) if e]
    return "*".join(parts) if parts else "1"


def _vect_data(n: int, kmax: int):
    weights = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    nil = abelian_nilpotent(n, weights=weights, label="d")
    names = [f"x{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-1, kmax + 1):
        for a in _monomials(n, deg + 1):
            for i in range(n):
                index[(a, i)] = len(basis)
                w = tuple(a[j] - (1 if j == i else 0) for j in range(n))
                basis.append(ModuleElt(f"{_fmt(a, names)} d{i}", deg, w))
    act: list[SparseMat] = []
    for j in range(n):
        mat: SparseMat = {}
        for (a, i), col in index.items():
            if a[j] == 0:
                continue
            down = tuple(e - (1 if t == j else 0) for t, e in enumerate(a))
            mat[col] = {index[(down, i)]: Q(a[j])}
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax), index


def vect_module(n: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """vect(n) = polynomial vector fields over abelian g_{-1} = C^n."""
    nil, mod, _ = _vect_data(n, kmax)
    return nil, mod


def svect_module(n: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """Divergence-free subalgebra of vect(n), degreewise."""
    nil, vect, index = _vect_data(n, kmax)
    key_of = {col: key for key, col in index.items()}
    basis: list[ModuleElt] = []
    vectors: list[dict[int, Fraction]] = []
    for deg in range(-1, kmax + 1):
        cols = vect.by_degree.get(deg, [])
        bywt: dict[tuple, list[int]] = {}
        for c in cols:
            bywt.setdefault(vect.basis[c].weight, []).append(c)
        for w in sorted(bywt):
            block = sorted(bywt[w])
            # column c: the divergence of basis vector c, keyed by its monomial
            cols = []
            for c in block:
                a, i = key_of[c]
                down = tuple(e - (1 if t == i else 0) for t, e in enumerate(a))
                cols.append({down: a[i]} if a[i] else {})
            for vec in nullspace(cols):
                k = len(basis)
                basis.append(ModuleElt(f"s{deg}.{k}", deg, w))
                vectors.append({block[t]: v for t, v in vec.items()})
    act = _restricted_action(vect, basis, vectors, nil.dim)
    return nil, GradedModule(nil, basis, act, kmax)


def _restricted_action(parent: GradedModule, basis, vectors, n_gminus) -> list[SparseMat]:
    """Action matrices of a submodule given expansions in the parent basis."""
    spans: dict[int, tuple[IntSpan, list[int]]] = {}
    bydeg: dict[int, list[int]] = {}
    for k, b in enumerate(basis):
        bydeg.setdefault(b.degree, []).append(k)
    for deg, ks in bydeg.items():
        span = IntSpan()
        for k in ks:
            if not span.add(vectors[k]):
                raise InvariantError("submodule expansion vectors must be independent")
        spans[deg] = (span, ks)
    act: list[SparseMat] = []
    for j in range(n_gminus):
        mat: SparseMat = {}
        for k, b in enumerate(basis):
            img = apply(parent.act[j], vectors[k])
            if not img:
                continue
            tdeg = b.degree - 1
            if tdeg < parent.min_degree:
                raise InvariantError("action fell below the module window")
            span, ks = spans[tdeg]
            coords = span.express(img)
            if coords is None:
                raise InvariantError("submodule is not action-closed")
            col = {ks[t]: c for t, c in coords.items()}
            if col:
                mat[k] = col
        act.append(mat)
    return act


def hamiltonian_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """h(2n) over abelian C^{2n}: H_f for monomials f(p,q), deg H_f = |f|-2."""
    n = n_pairs
    weights = []
    for i in range(n):
        weights.append(tuple(1 if j == i else 0 for j in range(n)))
    for i in range(n):
        weights.append(tuple(-1 if j == i else 0 for j in range(n)))
    nil = abelian_nilpotent(2 * n, weights=weights, label="H")
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-1, kmax + 1):
        for f in _monomials(2 * n, deg + 2):
            index[f] = len(basis)
            w = tuple(f[i] - f[n + i] for i in range(n))
            basis.append(ModuleElt(f"H[{_fmt(f, names)}]", deg, w))
    act: list[SparseMat] = []
    for g in range(2 * n):
        # generator: H_{p_g} acts by d/dq_g ; H_{q_g} by -d/dp_g
        var = n + g if g < n else g - n
        sign = Q(1) if g < n else Q(-1)
        mat: SparseMat = {}
        for f, col in index.items():
            if f[var] == 0:
                continue
            down = tuple(e - (1 if t == var else 0) for t, e in enumerate(f))
            if sum(down) == 0:
                continue  # constants are dropped in h(2n)
            mat[col] = {index[down]: sign * f[var]}
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax)


def _poisson_bracket(f: tuple[int, ...], g: tuple[int, ...], n: int) -> dict[tuple, Fraction]:
    """{f,g} = sum df/dp dg/dq - df/dq dg/dp on monomial exponents (p|q)."""
    out: dict[tuple, Fraction] = {}
    for i in range(n):
        p, q = i, n + i
        if f[p] and g[q]:
            h = list(f)
            h[p] -= 1
            res = tuple(a + b for a, b in zip(h, g))
            res = tuple(res[t] - (1 if t == q else 0) for t in range(2 * n))
            out[res] = out.get(res, Q(0)) + f[p] * g[q]
        if f[q] and g[p]:
            h = list(f)
            h[q] -= 1
            res = tuple(a + b for a, b in zip(h, g))
            res = tuple(res[t] - (1 if t == p else 0) for t in range(2 * n))
            out[res] = out.get(res, Q(0)) - f[q] * g[p]
    return {k: v for k, v in out.items() if v != 0}


def poisson_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """po(2n) over hei(2n): all monomials in p,q with the Poisson action."""
    n = n_pairs
    nil = heisenberg(n)
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}
    for deg in range(-2, kmax + 1):
        for f in _monomials(2 * n, deg + 2):
            index[f] = len(basis)
            w = tuple(f[i] - f[n + i] for i in range(n))
            basis.append(ModuleElt(f"K[{_fmt(f, names)}]", deg, w))
    act: list[SparseMat] = []
    gens = []
    for i in range(n):  # p_i
        gens.append(tuple(1 if t == i else 0 for t in range(2 * n)))
    for i in range(n):  # q_i
        gens.append(tuple(1 if t == n + i else 0 for t in range(2 * n)))
    for gen in gens:
        mat: SparseMat = {}
        for f, col in index.items():
            # action via the contact bracket restricted to t-free symbols:
            # {gen, f}_K = -{gen, f}_PB
            res = _poisson_bracket(gen, f, n)
            col_out = {index[h]: -v for h, v in res.items()}
            if col_out:
                mat[col] = col_out
        act.append(mat)
    act.append({})  # center z maps to the constant; {const, t-free}_K = 0
    return nil, GradedModule(nil, basis, act, kmax)


def contact_module(n_pairs: int, kmax: int) -> tuple[GradedNilpotent, GradedModule]:
    """k(2n+1) over hei(2n): monomials in t,p,q with the contact action.

    deg t = 2; K_f has degree wdeg(f) - 2.  The hei generators embed as
    p_i, q_i, z -> -1, matching [p_i, q_i] = z.
    """
    n = n_pairs
    nil = heisenberg(n)
    names = [f"p{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
    basis: list[ModuleElt] = []
    index: dict[tuple, int] = {}  # (t_exp, pq_exps) -> idx
    for deg in range(-2, kmax + 1):
        for t_exp in range(0, deg // 2 + 2):
            pq_total = deg + 2 - 2 * t_exp
            if pq_total < 0:
                continue
            for f in _monomials(2 * n, pq_total):
                index[(t_exp, f)] = len(basis)
                w = tuple(f[i] - f[n + i] for i in range(n))
                lbl = ("t^%d*" % t_exp if t_exp else "") + _fmt(f, names)
                basis.append(ModuleElt(f"K[{lbl}]", deg, w))

    def k_bracket_with_gen(gen_pq, gen_sign, t_exp, f):
        """{gen, t^c f}_K for gen a degree-1 monomial in p,q (or the constant).

        gen_sign = None encodes the constant -1 (image of z).
        """
        out: dict[tuple, Fraction] = {}
        if gen_sign is None:
            # {-1, g}_K = (2 - E)(-1) dg/dt = -2 dg/dt
            if t_exp:
                out[(t_exp - 1, f)] = Q(-2 * t_exp)
            return out
        # gen is p_i or q_i: (2-E)(gen) = gen, d gen/dt = 0
        # term1: gen * dg/dt
        if t_exp:
            res = tuple(a + b for a, b in zip(gen_pq, f))
            out[(t_exp - 1, res)] = out.get((t_exp - 1, res), Q(0)) + t_exp
        # term3: -{gen, g}_PB
        for h, v in _poisson_bracket(gen_pq, f, n).items():
            out[(t_exp, h)] = out.get((t_exp, h), Q(0)) - v
        return {k: v for k, v in out.items() if v != 0}

    act: list[SparseMat] = []
    gens: list[tuple] = []
    for i in range(n):
        gens.append((tuple(1 if t == i else 0 for t in range(2 * n)), 1))
    for i in range(n):
        gens.append((tuple(1 if t == n + i else 0 for t in range(2 * n)), 1))
    gens.append((None, None))  # z -> constant -1
    for gen_pq, gs in gens:
        mat: SparseMat = {}
        for (t_exp, f), col in index.items():
            res = k_bracket_with_gen(gen_pq, gs, t_exp, f)
            col_out = {}
            for key, v in res.items():
                if key in index:
                    col_out[index[key]] = v
                elif 2 * key[0] + sum(key[1]) - 2 > kmax:
                    raise InvariantError("contact action escaped the window upward")
            if col_out:
                mat[col] = col_out
        act.append(mat)
    return nil, GradedModule(nil, basis, act, kmax)


def contact_dim_oracle(n_pairs: int, degree: int) -> int:
    """dim k(2n+1)_degree by monomial count: wdeg = 2 deg_t + |pq| = degree+2."""
    target = degree + 2
    if target < 0:
        return 0
    count = 0
    for t_exp in range(target // 2 + 1):
        rem = target - 2 * t_exp
        count += len(_monomials(2 * n_pairs, rem))
    return count


# -- the cohomology slice with C^{s+1} enumerated ---------------------------


def _reference_columns(gm, mod, src, dst):
    """d: C^s_k -> C^{s+1}_k with rows at ``dst.pos``; a target outside dst is a KeyError."""
    rev = _reverse_bracket(gm)
    cols = []
    for mono, m in src.elts:
        col = {}
        mono_set = set(mono)
        for a in range(gm.dim):
            if a in mono_set:
                continue
            outs = mod.act[a].get(m)
            if not outs:
                continue
            sign = (-1) ** sum(1 for i in mono if i < a)
            new_mono = tuple(sorted(mono + (a,)))
            for m2, v in outs.items():
                acc(col, dst.pos[(new_mono, m2)], sign * v)
        for ci, c in enumerate(mono):
            for a, b, coef in rev.get(c, ()):
                rest = mono_set - {c}
                if a in rest or b in rest:
                    continue
                new_mono = tuple(sorted(rest | {a, b}))
                t = new_mono.index(a)
                u = new_mono.index(b)
                acc(col, dst.pos[(new_mono, m)], (-1) ** (t + u + ci) * coef)
        cols.append(col)
    return cols


def filtered_basis(gm, mod, s, k, weights=None) -> CochainBasis:
    """C^s_k with every weight, then only the cochains whose weight ``weights`` accepts."""
    full = cochain_basis(gm, mod, s, k)
    if weights is None:
        return full
    keep = [i for i, w in enumerate(full.weights) if weights(w)]
    return CochainBasis([full.elts[i] for i in keep], [full.weights[i] for i in keep])


def reference_slice(gm, mod, s, k, weights=None) -> CohomologySlice:
    """H^s_k with C^{s-1}_k, C^s_k and C^{s+1}_k all enumerated (same filter)."""
    basis_cur = filtered_basis(gm, mod, s, k, weights)
    if basis_cur.dim == 0:
        return CohomologySlice(s, k, (0, 0), 0, 0, 0, slice_valid(gm, mod, s, k), basis_cur,
                               {}, weights)
    basis_prev = filtered_basis(gm, mod, s - 1, k, weights)
    basis_next = filtered_basis(gm, mod, s + 1, k, weights)
    cols_in = _reference_columns(gm, mod, basis_prev, basis_cur) if s >= 1 else []
    cols_out = _reference_columns(gm, mod, basis_cur, basis_next)
    return _by_representatives(gm, mod, s, k, weights, basis_prev, basis_cur, cols_in,
                               cols_out)[0]


@dataclass
class Representatives:
    """H of a slice stored once: representatives in cochain coordinates, and per
    weight block (idx, the IntSpan of its coboundary columns then its cocycle
    basis, the span slot of each representative)."""

    basis: CochainBasis
    vectors: list[dict]
    weights: list
    blocks: dict


def _by_representatives(gm, mod, s, k, weights, basis_prev, basis_cur, cols_in, cols_out):
    """The slice and its representatives, each block reduced through one IntSpan."""
    valid = slice_valid(gm, mod, s, k)
    blocks, spans = {}, {}
    rank_in_tot = rank_out_tot = dim_h_tot = 0
    reps_global, rep_weights = [], []
    in_by_weight = {}
    for j, col in enumerate(cols_in):
        if col:
            in_by_weight.setdefault(basis_prev.weights[j], []).append(col)
    for w in sorted(basis_cur.by_weight, key=lambda x: (x is None, x)):
        idx = basis_cur.by_weight[w]
        local = {g: i for i, g in enumerate(idx)}
        d_in = [{local[g]: v for g, v in col.items()} for col in in_by_weight.get(w, [])]
        d_out = [cols_out[g] for g in idx]
        for col in d_in:
            dd = {}
            for i, c in col.items():
                for tgt, v in d_out[i].items():
                    acc(dd, tgt, c * v)
            assert not dd, f"d o d != 0 at (s={s}, k={k})"
        kernel = nullspace(d_out)
        rank_out = len(idx) - len(kernel)
        span = IntSpan()
        rank_in = sum(span.add(col) for col in d_in)
        kept = [(len(d_in) + j, vec) for j, vec in enumerate(kernel) if span.add(vec)]
        assert len(kept) == len(idx) - rank_out - rank_in
        blocks[w] = WeightBlock(idx, d_in, d_out, rank_in, len(kept))
        spans[w] = (idx, span, [slot for slot, _ in kept])
        rank_in_tot += rank_in
        rank_out_tot += rank_out
        dim_h_tot += len(kept)
        for _, vec in kept:
            reps_global.append({idx[i]: v for i, v in vec.items()})
            rep_weights.append(w)
    sl = CohomologySlice(s, k, (basis_prev.dim, basis_cur.dim), rank_in_tot, rank_out_tot,
                         dim_h_tot, valid, basis_cur, blocks, weights)
    return sl, Representatives(basis_cur, reps_global, rep_weights, spans)


# -- the decomposition by representatives on one-step weight blocks ---------


@dataclass(frozen=True)
class OneStepWeights:
    """The extremal weights of ``flt`` and their images under one actor step
    (+alpha_j for Highest, -alpha_j for Lowest, j unselected)."""

    flt: ExtremalWeights

    def __call__(self, w) -> bool:
        if self.flt(w):
            return True
        a = self.flt.rs.cartan_matrix
        sign = 1 if self.flt.kind == HIGHEST else -1
        return any(self.flt(tuple(x - sign * a[i][j - 1] for i, x in enumerate(w)))
                   for j in self.flt.unselected)


def reference_decompose(mod: GradedModule, s: int, flt: ExtremalWeights,
                        ks=None) -> list[IrreducibleSummand]:
    """The summands of H^s the long way: the actors act on representatives.

    Each slice is built on the one-step blocks, H is stored as
    representatives, an actor image is reduced modulo coboundaries in the
    target block, and the extremal vectors are the joint kernel of the
    lowering (Lowest) or raising (Highest) actors on the extremal weights.
    """
    gm = mod.gminus
    weights = OneStepWeights(flt)
    out = []
    for k in full_window(gm, mod, s) if ks is None else ks:
        basis_prev = filtered_basis(gm, mod, s - 1, k, weights)
        basis_cur = filtered_basis(gm, mod, s, k, weights)
        pos = dict(basis_cur.pos)
        cols_in = differential_columns(gm, mod, basis_prev, pos)
        cols_out = differential_columns(gm, mod, basis_cur, {})
        sl, reps = _by_representatives(gm, mod, s, k, weights, basis_prev, basis_cur,
                                       cols_in, cols_out)
        if sl.dim_h:
            counts = Counter(w for w, _vec in extremal_vectors(reps, mod, flt))
            out += [flt.summand(w, s, k, counts[w]) for w in sorted(counts)]
    return out


def actor_matrix_on_reps(reps: Representatives, mod: GradedModule, actor: Actor, rows):
    """{src rep: {dst rep: coeff}}: one actor on the representatives listed in
    ``rows``, its images reduced modulo coboundaries in the target block."""
    out = {}
    first = {}  # weight -> index of its block's first representative
    for r, w in enumerate(reps.weights):
        first.setdefault(w, r)
    for r in rows:
        vec, w = reps.vectors[r], reps.weights[r]
        img = {}
        for g, c in vec.items():
            mono, m = reps.basis.elts[g]
            for tgt, v in _act_on_cochain(mod, reps.basis, actor, mono, m).items():
                acc(img, tgt, c * v)
        if not img:
            continue
        wt = tuple(a + b for a, b in zip(w, actor.weight))
        idx, span, rep_slots = reps.blocks[wt]
        local_of = {g: i for i, g in enumerate(idx)}
        assert local_of.keys() >= img.keys(), "actor image left the weight block"
        coords = span.express({local_of[g]: v for g, v in img.items()})
        assert coords is not None, f"actor {actor.name} image is not a cocycle mod coboundaries"
        col = {first[wt] + t: coords[slot] for t, slot in enumerate(rep_slots) if slot in coords}
        if col:
            out[r] = col
    return out


def _act_on_cochain(mod: GradedModule, basis, actor: Actor, mono, m) -> dict:
    """(xi . (e_I (x) m)) in cochain coordinates."""
    out = {}
    iset = set(mono)
    for m2, v in actor.on_module.get(m, {}).items():
        acc(out, basis.pos[(mono, m2)], v)
    pos_in = {i: t for t, i in enumerate(mono)}
    for j in range(mod.gminus.dim):
        for i, c in actor.on_gminus.get(j, {}).items():
            if i not in iset or (j != i and j in iset):
                continue
            new_mono = tuple(sorted((iset - {i}) | {j}))
            sign = (-1) ** (new_mono.index(j) + pos_in[i])
            acc(out, basis.pos[(new_mono, m)], -sign * c)
    return out


def extremal_vectors(reps: Representatives, mod: GradedModule, flt: ExtremalWeights):
    """(weight, vector over representative indices): a basis of the joint kernel of
    the lowering (Lowest) or raising (Highest) actors on each extremal weight."""
    want = "lower" if flt.kind == LOWEST else "raise"
    ops = [a for a in mod.actors if a.kind == want]
    bywt = {}
    for r, w in enumerate(reps.weights):
        if flt(w):
            bywt.setdefault(w, []).append(r)
    rows = [r for idx in bywt.values() for r in idx]
    mats = [actor_matrix_on_reps(reps, mod, a, rows) for a in ops]
    out = []
    for w in sorted(bywt):
        idx = bywt[w]
        cols = [{(a, t): v for a, mat in enumerate(mats) for t, v in mat.get(r, {}).items()}
                for r in idx]
        for vec in nullspace(cols):
            out.append((w, {idx[i]: v for i, v in vec.items()}))
    return out
