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
prime and no lift is involved.  ``rank_mod_2`` is the rank over GF(2) of
integer vectors, by Gauss elimination on the sets of their odd entries.

``IntSpan`` is an incremental fraction-free reducer on the same step:
vectors are added one at a time and later ones are tested against, or
expressed over, those before them.  The package solves every system by one
``linalg.nullspace`` instead, so the reducer lives here, where the
references above use it and the tests of ``linalg.solve`` have a second
solver to agree with.

The last group holds what only the tests call: the Heisenberg algebra and
its full degree-0 derivations (``heisenberg``, ``der0``), the g_- and g_0
of the contact prolongs; the representation property of a module; the
bracket of two elements of a graded algebra (``lie_bracket``); the Riemann
module g_- (+) l1 built on its own (``riemann_module``) and the co-Riemann
module realized on z (+) g_+ (``coriemann_z_module``, with the center z of
the Levi from ``z_basis``), the references for the index-set cuts of the
adjoint that ``FlagCase`` makes; an irreducible L(lambda) built by lowering
(``IrreducibleModule``), the oracle for the weights of an irreducible and for
V = L(1, 0) of G(2); the G(2)-structure's coefficients V (+) g_0 built by
hand on it (``abelian_negative``), the reference for the prolongation module
the package takes them as (``verify.g2_structure_module``); the Jacobi
identity of a computed prolong, with the bracket of the prolonged algebra it
needs (``ProlongBracket``) and the bracket table of a Levi g_0 read off the
structure constants (``levi_bracket``); ``reference_derivations``, the
prolongation's derivation solve with its constraints rebuilt per weight
block; and R_W^- of a Weyl word.
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
                         pivots, solve)
from nhsf.liealg import GradedNilpotent, ZGradedLieAlgebra, abelian_nilpotent
from nhsf.gmod import Actor, FlagCase, GradedModule, ModuleElt, _simple_root
from nhsf.prolong import G0, ProlongedAlgebra, _derivations
from nhsf.rootsys import CartanMatrixSpec, RootSystem


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


def rank_mod_2(vecs: Sequence[dict[int, int]]) -> int:
    """The rank over GF(2) of integer vectors: each kept set of odd keys holds no pivot of
    the sets kept before it, so reducing by them in order clears every pivot."""
    kept: list[tuple[object, frozenset]] = []
    for v in vecs:
        odd = frozenset(k for k, x in v.items() if x % 2)
        for piv, row in kept:
            if piv in odd:
                odd ^= row
        if odd:
            kept.append((next(iter(odd)), odd))
    return len(kept)


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
    """All degree-preserving derivations of g_-, checked closed under commutator."""
    g0 = _derivations(ProlongedAlgebra(gminus, G0([], [], [])), 0)
    _matrix_bracket_table(gminus.dim, g0.act)  # raises unless closed
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


def lie_bracket(alg: ZGradedLieAlgebra, u: dict, v: dict) -> dict:
    """[u, v] of two elements of ``alg`` given as basis index -> coefficient."""
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, ck in alg.bracket_basis(i, j).items():
                acc(out, k, ci * cj * ck)
    return out


def riemann_module(fc: FlagCase) -> GradedModule:
    """g_- (+) l1 built on its own, ordered by degree: the reference for the Riemann
    slices that ``cohom`` reads off the adjoint's blocks."""
    alg = fc.alg
    sub = sorted(fc.levi.g_minus + fc.levi.l1, key=lambda i: (alg.basis[i].degree, i))
    basis = [ModuleElt(alg.label(i), alg.basis[i].degree, alg.basis[i].weight) for i in sub]
    mat_of = lambda amb: alg.restricted_ad(amb, sub)
    return GradedModule(fc.gminus, basis, [mat_of(a) for a in fc.ambient], None,
                        fc._actors_for(mat_of))


def z_basis(alg: ZGradedLieAlgebra) -> list[dict[int, int]]:
    """The center z of the Levi, {h in the Cartan : alpha_j(h) = 0 at every
    unselected node j}, as primitive integer Cartan combinations."""
    unselected = [j for j, d in enumerate(alg.grading.degrees) if d == 0]
    a = alg.rs.cartan_matrix
    cols = [{j: a[i][j] for j in unselected if a[i][j]} for i in range(alg.rank)]
    return nullspace(cols)


def coriemann_z_module(fc: FlagCase, zbasis=None) -> GradedModule:
    """(g_- (+) z)^* realized on z (+) g_+ (``zbasis``, by default ``z_basis``): the
    reference for the quotient ``FlagCase.coriemann_module``.  The Cartan splits
    as l1-Cartan (the unselected coroots) + z, and each bracket is projected onto
    z and the positive root vectors, so the entries are fractions."""
    alg = fc.alg
    zbasis = z_basis(alg) if zbasis is None else zbasis
    pos_idx = sorted((i for i, lab in enumerate(alg.basis) if lab.degree > 0),
                     key=lambda i: (alg.basis[i].degree, i))
    basis = [ModuleElt(f"z{k}", 0, (0,) * fc.rank) for k in range(len(zbasis))]
    basis += [ModuleElt(alg.label(i), alg.basis[i].degree, alg.basis[i].weight)
              for i in pos_idx]
    pos_of = {amb: len(zbasis) + k for k, amb in enumerate(pos_idx)}
    # h_i -> its z part
    unsel = [{j - 1: 1} for j in fc.unselected]
    sols = solve(unsel + zbasis, [{i: 1} for i in range(fc.rank)])
    if None in sols:
        raise InvariantError("Cartan element outside l1-Cartan + z")
    to_z: SparseMat = {i: {t - len(unsel): c for t, c in sol.items() if t >= len(unsel)}
                       for i, sol in enumerate(sols)}

    def project(vec: dict) -> dict[int, Fraction]:
        """Image of an ambient element in the basis; g_- and l1 die in the quotient."""
        out: dict[int, Fraction] = {}
        cart: dict[int, Fraction] = {}
        for amb, c in vec.items():
            lab = alg.basis[amb]
            if lab.kind == "h":
                acc(cart, lab.index, c)
            elif lab.degree > 0:
                acc(out, pos_of[amb], c)
        out.update(sorted(apply(to_z, cart).items()))
        return out

    reps = zbasis + [{amb: 1} for amb in pos_idx]  # ambient lift of each basis vector

    def mat_of(actor_amb: int) -> SparseMat:
        out: SparseMat = {}
        for col, vec in enumerate(reps):
            if proj := project(lie_bracket(alg, {actor_amb: 1}, vec)):
                out[col] = proj
        return out

    return GradedModule(fc.gminus, basis, [mat_of(a) for a in fc.ambient], None,
                        fc._actors_for(mat_of))


class IrreducibleModule:
    """L(lambda) built by lowering with contravariant-form pruning, for a dominant
    ``hw_coroot``: the oracle for V = L(1, 0) of G(2), which the package reads off
    B4's grading instead (``verify.g2_on_v``), and for the weights of an irreducible.

    The basis is the weight vectors f_{j1}...f_{jk} v_lambda that the pivots of
    each weight space's Gram matrix pick, and the entries are ``Fraction``s.
    This monomial basis is not Kostant's Z-form (Humphreys, Introduction to Lie
    Algebras, Sec. 27), and ``actions`` divides commutators by structure
    constants: on L(1, 0) of G(2), six of the 46 entries are halves.  Nothing
    checks the dimension here; the tests hold it to Weyl's product.
    """

    def __init__(self, rs: RootSystem, hw_coroot: tuple[int, ...]):
        self.rs = rs
        self.hw = tuple(hw_coroot)
        self.weights: list[tuple[int, ...]] = []
        self.e_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self.f_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self._build()

    @property
    def dim(self) -> int:
        return len(self.weights)

    def _build(self):
        rs = self.rs
        n = rs.rank
        alpha_cw = [tuple(rs.cartan_matrix[i][j] for i in range(n)) for j in range(n)]
        self.weights = [self.hw]
        self._levels: dict[tuple, list[int]] = {self.hw: [0]}
        self._grams: dict[tuple, list[dict[int, Fraction]]] = {self.hw: [{0: Q(1)}]}
        self._local: dict[int, int] = {0: 0}
        frontier = [self.hw]
        while frontier:
            cand: dict[tuple, list[tuple[int, int]]] = {}
            for mu in frontier:
                for j in range(n):
                    nu = tuple(m - a for m, a in zip(mu, alpha_cw[j]))
                    for b in self._levels[mu]:
                        cand.setdefault(nu, []).append((j, b))
            created = []
            for nu in sorted(cand):
                if nu in self._levels:
                    raise InvariantError("weight revisited; level order broken")
                pairs = sorted(cand[nu])
                gram = [{c: g for c, (j2, b2) in enumerate(pairs)
                         if (g := self._form_ff(j, b, j2, b2))} for (j, b) in pairs]
                # the rows independent of the rows before them: the pivots of gram
                chosen = pivots(gram)
                if not chosen:
                    continue
                ids = []
                for t, r in enumerate(chosen):
                    self._local[len(self.weights)] = t
                    ids.append(len(self.weights))
                    self.weights.append(nu)
                self._levels[nu] = ids
                pos = {c: t for t, c in enumerate(chosen)}
                on_chosen = [{pos[c]: g for c, g in row.items() if c in pos} for row in gram]
                self._grams[nu] = [on_chosen[r] for r in chosen]
                # f-action: each candidate (j, b) expressed in the chosen basis,
                # solving against the columns of the chosen Gram block
                sub_cols = [{u: row[t] for u, row in enumerate(self._grams[nu]) if t in row}
                            for t in range(len(chosen))]
                for (j, b), coords in zip(pairs, solve(sub_cols, on_chosen)):
                    if coords is None:
                        raise InvariantError("candidate outside the chosen weight basis")
                    col = {ids[t]: c for t, c in coords.items()}
                    if col:
                        self.f_mat[j][b] = col
                # e-action on the new vectors: e_i(f_j v_b) = f_j(e_i v_b) + d_ij h_i v_b
                for t, r in enumerate(chosen):
                    j, b = pairs[r]
                    for i in range(n):
                        res = apply(self.f_mat[j], self.e_mat[i].get(b, {}))
                        if i == j:
                            hval = Q(self.weights[b][i])
                            if hval != 0:
                                acc(res, b, hval)
                        if res:
                            self.e_mat[i][ids[t]] = res
                created.append(nu)
            frontier = created

    def actions(self, alg: ZGradedLieAlgebra) -> list[SparseMat]:
        """The action on V of every basis element of ``alg``, the Lie algebra of
        ``self.rs``, in its basis order: h_i by the weights, a simple root vector by
        e_i or f_i, any other root vector by the commutator of a simple root vector
        with a lower one, divided by their structure constant."""
        rs = self.rs

        def irr_action(amb: int) -> SparseMat:
            """Action of an ambient g-basis element on V, via Chevalley words."""
            lab = alg.basis[amb]
            if lab.kind == "h":
                return {k: {k: Q(w[lab.index])} for k, w in enumerate(self.weights)
                        if w[lab.index] != 0}
            beta = rs.positive_roots[lab.index]
            if sum(beta) == 1:
                j = beta.index(1)
                return self.e_mat[j] if lab.kind == "x" else self.f_mat[j]
            # non-simple root vector: peel one simple root off
            for j in range(rs.rank):
                down = tuple(b - (1 if t == j else 0) for t, b in enumerate(beta))
                if min(down) >= 0 and down in rs.root_index:
                    break
            index = alg.x_index if lab.kind == "x" else alg.y_index
            simple_amb, rest_amb = index(_simple_root(rs, j)), index(rs.root_index[down])
            coeff = alg.bracket_basis(simple_amb, rest_amb)[amb]
            m1, m2 = irr_acts[simple_amb], irr_acts[rest_amb]
            out: SparseMat = {}
            for col in range(self.dim):
                res = commutator(m1, m2, col)
                if res:
                    out[col] = {r: v / coeff for r, v in res.items()}
            return out

        # the basis lists lower roots first, so the sub-root actions a
        # non-simple root vector needs are already in irr_acts
        irr_acts: list[SparseMat] = []
        for amb in range(alg.dim):
            irr_acts.append(irr_action(amb))
        return irr_acts

    def _form_ff(self, j: int, b: int, j2: int, b2: int) -> Fraction:
        """<f_j v_b, f_{j2} v_{b2}> = <v_b, f_{j2}(e_j v_{b2}) + d_jj2 h_j v_{b2}>."""
        res = apply(self.f_mat[j2], self.e_mat[j].get(b2, {}))
        if j == j2:
            acc(res, b2, Q(self.weights[b2][j]))
        if not res:
            return Q(0)
        # pair <v_b, res> through the Gram matrix of b's weight space
        mu = self.weights[b]
        gram = self._grams[mu]
        lb = self._local[b]
        total = Q(0)
        for m, v in res.items():
            if self.weights[m] != mu:
                raise InvariantError("contravariant form pairing across weights")
            total += v * gram[lb].get(self._local[m], 0)
        return total


def abelian_negative(irr: IrreducibleModule, include_center: bool,
                     alg: ZGradedLieAlgebra) -> tuple[GradedNilpotent, GradedModule]:
    """Package V = L(lambda) as abelian g_{-1} with g_0 = g (+ optional center).

    Coefficients are V (degree -1) + g_0 (degree 0); the actors are the
    Chevalley generators of g, so cohomology can be decomposed into
    irreducible g_0-constituents.  The G(2)-structure's coefficients built by
    hand on the oracle ``irr``: the reference for ``verify.g2_structure_module``.
    """
    n = irr.rs.rank
    nil = abelian_nilpotent(irr.dim, weights=irr.weights)

    g_order = sorted(range(alg.dim), key=lambda i: (alg.basis[i].degree, i))
    nV = irr.dim
    basis = [ModuleElt(f"v{k}", -1, irr.weights[k]) for k in range(nV)]
    basis += [ModuleElt(alg.label(i), 0, alg.basis[i].weight) for i in g_order]
    if include_center:
        basis.append(ModuleElt("z", 0, (0,) * n))
    irr_acts = irr.actions(alg)

    def module_action_of(amb: int) -> SparseMat:
        """Action on V (+) g0 of one g-basis element."""
        out = dict(irr_acts[amb])
        for col, img in alg.restricted_ad(amb, g_order).items():
            out[nV + col] = {nV + r: v for r, v in img.items()}
        return out

    # g_- action on the coefficients: v . (w (+) X (+) z) = -X(v) - z(v)
    act: list[SparseMat] = []
    for k in range(nV):
        mat: SparseMat = {}
        for col, gamb in enumerate(g_order):
            res = {row: -v for row, v in irr_acts[gamb].get(k, {}).items()}
            if res:
                mat[nV + col] = res
        if include_center:
            mat[nV + len(g_order)] = {k: Q(-1)}
        act.append(mat)

    actors: list[Actor] = []
    for j in range(n):
        for kind, amb, name in (("raise", alg.x_index(_simple_root(irr.rs, j)), f"x{j + 1}"),
                                ("lower", alg.y_index(_simple_root(irr.rs, j)), f"y{j + 1}")):
            actors.append(Actor(name, kind, alg.basis[amb].weight, irr_acts[amb],
                                module_action_of(amb)))
    return nil, GradedModule(nil, basis, act, None, actors)


def levi_bracket(fc: FlagCase) -> dict:
    """The bracket table {(a, b): [E_a, E_b]}, a < b, of ``fc.levi_g0()``'s basis,
    read off the algebra's structure constants (``ProlongBracket``)."""
    alg, lidx = fc.alg, fc.levi.l
    table = {}
    for a, amb in enumerate(lidx):
        for b, col in alg.restricted_ad(amb, lidx).items():
            if b > a:
                table[(a, b)] = col
    return table


ProlongElt = dict[tuple[int, int], Fraction]  # (level, index) -> coefficient
# negative levels index the global gminus basis; levels >= 0 index the
# basis of p.layer(level)


def verify_prolong_jacobi(p: ProlongedAlgebra, g0_bracket: dict,
                          max_total: int | None = None) -> None:
    """Jacobi identity on all basis triples within the computed window; ``g0_bracket``
    is the bracket table of p's degree-0 basis (``ProlongBracket``)."""
    if max_total is None:
        max_total = p.computed_to
    br = ProlongBracket(p, g0_bracket)
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
                for term in (br(br(ea, eb), ec), br(br(eb, ec), ea), br(br(ec, ea), eb)):
                    for k2, v in term.items():
                        acc(total, k2, v)
                if total:
                    raise InvariantError(f"prolong Jacobi fails on {gens[a]},{gens[b]},{gens[c]}")


def _as_elt(level: int, idx: int) -> ProlongElt:
    return {(level, idx): Q(1)}


class ProlongBracket:
    """The bracket of the prolonged algebra ``p``, defined within its computed window.

    ``g0_bracket`` is the bracket table {(i, j): [E_i, E_j]} over i < j of p's
    degree-0 basis, which a ``G0`` layer does not carry: ``levi_bracket`` for a
    Levi g_0, ``_matrix_bracket_table`` for a g_0 given by matrices alone.
    """

    def __init__(self, p: ProlongedAlgebra, g0_bracket: dict):
        self.p, self.g0_bracket = p, g0_bracket
        self.memo: dict = {}

    def __call__(self, e1: ProlongElt, e2: ProlongElt) -> ProlongElt:
        out: ProlongElt = {}
        for (l1, i1), c1 in e1.items():
            for (l2, i2), c2 in e2.items():
                for key, v in self.basis(l1, i1, l2, i2).items():
                    acc(out, key, c1 * c2 * v)
        return out

    def basis(self, l1: int, i1: int, l2: int, i2: int) -> ProlongElt:
        key = (l1, i1, l2, i2)
        if key not in self.memo:
            self.memo[key] = self._raw(l1, i1, l2, i2)
        return self.memo[key]

    def _raw(self, l1, i1, l2, i2) -> ProlongElt:
        p = self.p
        gm = p.gminus
        if (l1, i1) == (l2, i2):
            return {}
        if l1 > l2:
            return {k: -v for k, v in self.basis(l2, i2, l1, i1).items()}
        if l2 < 0:
            return {(gm.degrees[w], w): c for w, c in gm.bracket(i1, i2).items()}
        if l1 < 0:
            # [u, E] = -E(u); coords live in layer l2 + deg(u)
            tgt = l2 + gm.degrees[i1]
            out: ProlongElt = {}
            for coord, v in p.apply(l2, i2, i1).items():
                acc(out, (tgt, coord), -v)
            return out
        if l1 == 0 and l2 == 0:
            if i1 > i2:
                return {(0, t): -v for t, v in self.g0_bracket.get((i2, i1), {}).items()}
            return {(0, t): v for t, v in self.g0_bracket.get((i1, i2), {}).items()}
        s = l1 + l2
        if s > p.computed_to and not p.stabilized:
            raise ValueError("bracket leaves the computed window")
        # when stabilized, layers above the last nonzero one are genuinely zero
        # and the zero-layer path below verifies the bracket vanishes
        # transitivity: the result is determined by its values on g_{-1}
        top = [u for u in range(gm.dim) if gm.degrees[u] == -1]
        vals = {}
        e1, e2 = _as_elt(l1, i1), _as_elt(l2, i2)
        for u in top:
            ue = _as_elt(gm.degrees[u], u)
            t1 = self(e1, self(e2, ue))
            t2 = self(e2, self(e1, ue))
            vals[u] = {k: t1.get(k, Q(0)) - t2.get(k, Q(0))
                       for k in set(t1) | set(t2)}
            vals[u] = {k: v for k, v in vals[u].items() if v != 0}
        return _solve_by_top_values(p, s, vals, top)


def _solve_by_top_values(p, s, vals, top) -> ProlongElt:
    """Express a degree-s derivation by matching its g_{-1} values."""
    tgt = s - 1
    coords_idx = {}
    for u in top:
        for coord in p.layer_indices(tgt):
            coords_idx.setdefault((u, coord), len(coords_idx))
    n = p.layer(s).dim
    if n == 0:
        if any(vals[u] for u in top):
            raise InvariantError("nonzero bracket lands in an empty layer")
        return {}
    cols = [{coords_idx[(u, coord)]: v for u in top for coord, v in p.apply(s, t, u).items()}
            for t in range(n)]
    rhs = {}
    for u in top:
        for (lvl, coord), v in vals[u].items():
            if lvl != tgt:
                raise InvariantError(f"bracket value at level {lvl}, expected {tgt}")
            rhs[coords_idx[(u, coord)]] = v
    sol = solve(cols, [rhs])[0]
    if sol is None:
        raise InvariantError("bracket image is not in the prolong layer")
    return {(s, t): c for t, c in sol.items()}


def reference_derivations(p: ProlongedAlgebra, k: int) -> G0:
    """``prolong._derivations`` the long way: the constraints are rebuilt per weight block.

    Each block walks every (u, v) pair and layer coordinate again and keeps
    only the entries of its own unknowns, as the package did before it built
    the constraints once per degree.  The layer must come out identical.
    """
    gm = p.gminus
    unknowns = [(u, t) for u in range(gm.dim) for t in p.layer_indices(k + gm.degrees[u])]
    weighted = all(w is not None for w in gm.weights) and all(
        p.layer_weight(k + gm.degrees[u], t) is not None for u, t in unknowns)
    blocks: dict = {}
    for u, t in unknowns:
        bw = None
        if weighted:
            wt = p.layer_weight(k + gm.degrees[u], t)
            bw = tuple(a - b for a, b in zip(wt, gm.weights[u]))
        blocks.setdefault(bw, []).append((u, t))
    labels: list[str] = []
    weights: list = []
    act: list[SparseMat] = []
    for bw in sorted(blocks):
        unk = blocks[bw]
        pos_of = {ut: c for c, ut in enumerate(unk)}
        for sol in nullspace(_block_derivation_cols(p, k, pos_of)):
            mat: SparseMat = {}
            for c, v in sol.items():
                u, tgt = unk[c]
                mat.setdefault(u, {})[tgt] = v
            labels.append(f"D{k}.{len(labels)}")
            weights.append(bw)
            act.append(mat)
    return G0(labels, weights, act)


def _block_derivation_cols(p, k, pos_of):
    """The derivation constraints restricted to the unknowns of one block (``pos_of``)."""
    gm = p.gminus
    cols: list[dict] = [{} for _ in pos_of]
    for u in range(gm.dim):
        for v in range(u + 1, gm.dim):

            def add(coord, unknown_key, val):
                if unknown_key in pos_of:
                    acc(cols[pos_of[unknown_key]], (u, v, coord), val)

            for w, c in gm.bracket(u, v).items():
                for t in p.layer_indices(k + gm.degrees[w]):
                    add(t, (w, t), c)
            mu = k + gm.degrees[u]
            for t in p.layer_indices(mu):
                for coord, val in p.apply(mu, t, v).items():
                    add(coord, (u, t), -val)
            mv = k + gm.degrees[v]
            for t in p.layer_indices(mv):
                for coord, val in p.apply(mv, t, u).items():
                    add(coord, (v, t), val)
    return cols


def misweighted_b2() -> RootSystem:
    """B2 with its symmetrizer reversed, so that the long and short roots swap
    lengths: a tampered root system whose Weyl products and Freudenthal
    multiplicities are no longer integers."""
    rs = RootSystem(CartanMatrixSpec("B", 2))
    rs.symmetrizer = rs.symmetrizer[::-1]
    return rs


def apply_word_to_root(rs: RootSystem, word: tuple[int, ...], beta) -> tuple[int, ...]:
    """w(beta) in simple-root coordinates for the word w = s_{i1} s_{i2} ..., its
    letters applied right to left: s_i(beta) = beta - <beta, alpha_i^vee> alpha_i."""
    out = list(beta)
    for i in reversed(word):
        out[i] -= rs.pair_with_coroot(out, i)
    return tuple(out)


def inversions_of_inverse(rs: RootSystem, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """{beta > 0 : w^{-1}(beta) < 0}, the paper's R_W^- for w."""
    inv = word[::-1]
    out = []
    for beta in rs.positive_roots:
        img = apply_word_to_root(rs, inv, beta)
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
