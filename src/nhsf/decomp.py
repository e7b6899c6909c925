"""Decomposition of cohomology slices into irreducible g_0-constituents.

The module's actors (the raising and lowering generators of the Levi, or of
any reductive g_0 packaged the same way) act on cochains; ``decomp`` reduces
their images modulo coboundaries through each weight block's ``IntSpan``, so
they act on the representatives of H.  Extremal vectors are the joint kernel
of the lowering (lowest-weight) or raising (highest-weight) actors on each
weight space; the Cartan part acts through the weights themselves.

A slice need not hold every weight block.  ``ExtremalWeights`` is the weight
filter of ``cohom.cohomology`` that keeps the Levi-antidominant (Lowest) or
-dominant (Highest) weights, where extremal vectors live, and their images
under one lowering (raising) step, which the joint kernel reads.  On such a
slice ``decompose`` checks the local identity dim H_lam =
sum_mu m(mu) mult_{L(mu)}(lam) on every extremal lam (and on every other
block the slice built), with the multiplicities from Freudenthal's formula
(``rootsys.dominant_multiplicities``).  H is a finite-dimensional Levi
module, so its character is invariant under the Levi Weyl group and fixed by
its values on the extremal weights: the identity holds exactly when the
summands' characters add up to that of H.  That implies the global check
sum_mu m(mu) dim L(mu) = dim H, which slices with every block keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import InvariantError
from .linalg import acc, dense_rows, nullspace
from .gmod import Actor, GradedModule
from .cohom import CohomologySlice
from .rootsys import (COROOT, SIMPLEROOT, RootSystem, Weight, _weyl_product, convert_weight,
                      dominant_multiplicities)

LOWEST = "Lowest"
HIGHEST = "Highest"


@dataclass(frozen=True)
class IrreducibleSummand:
    weight_cm: tuple[int, ...]  # coroot coordinates
    weight_fw: tuple[Fraction, ...]  # simple-root coordinates
    extremal_kind: str
    s: int
    degree: int
    multiplicity: int

    def key(self):
        return (self.s, self.degree, self.weight_cm, self.multiplicity)


class DecompositionError(InvariantError):
    pass


@dataclass(frozen=True)
class ExtremalWeights:
    """The weights ``decompose`` reads for one extremal kind, as a weight filter.

    A weight w is accepted when w or w - step is extremal for one actor step
    (+alpha_j for Highest, -alpha_j for Lowest, j unselected): extremal means
    Levi-dominant for Highest and Levi-antidominant for Lowest.
    """

    rs: RootSystem
    unselected: tuple[int, ...]  # 1-based Levi nodes
    kind: str

    @cached_property
    def _steps(self) -> list[list[int]]:
        """alpha_j at the Levi nodes, for each Levi node j."""
        a = self.rs.cartan_matrix
        return [[a[i - 1][j - 1] for i in self.unselected] for j in self.unselected]

    @cached_property
    def _floor(self) -> int:
        return min((min(step) for step in self._steps), default=0)

    def _signed(self, w) -> list:
        """w at the Levi nodes, negated for Lowest: extremal iff all >= 0."""
        if self.kind == HIGHEST:
            return [w[j - 1] for j in self.unselected]
        return [-w[j - 1] for j in self.unselected]

    def extremal(self, w) -> bool:
        return min(self._signed(w), default=0) >= 0

    def __call__(self, w) -> bool:
        v = self._signed(w)
        low = min(v, default=0)
        if low >= 0:
            return True
        # v >= alpha_j needs v_j >= 2 and every entry >= min_i a_ij
        if max(v) < 2 or low < self._floor:
            return False
        return any(all(x >= t for x, t in zip(v, step)) for step in self._steps)

    def to_extremal(self, w) -> tuple:
        """The extremal weight in w's orbit under the Levi Weyl group."""
        a = self.rs.cartan_matrix
        w = list(w)
        v = self._signed(w)
        while min(v, default=0) < 0:
            j = self.unselected[v.index(min(v))] - 1
            c = w[j]
            w = [x - c * a[i][j] for i, x in enumerate(w)]
            v = self._signed(w)
        return tuple(w)

    def character(self, mu) -> dict[tuple, int]:
        """{lam: mult}: the extremal weights of the Levi irreducible with extremal weight mu."""
        nodes = [j - 1 for j in self.unselected]
        if self.kind == HIGHEST:
            return dominant_multiplicities(self.rs, mu, nodes)
        # L(mu) with lowest weight mu is dual to the one with highest weight -mu
        dual = dominant_multiplicities(self.rs, tuple(-c for c in mu), nodes)
        return {tuple(-c for c in lam): m for lam, m in dual.items()}


def actor_matrix_on_reps(sl: CohomologySlice, mod: GradedModule, actor: Actor,
                         rows=None):
    """Matrix of one raise/lower actor on the representatives of a slice.

    Returns {src_rep_index: {dst_rep_index: coeff}} over the representatives
    listed in ``rows`` (default: all); the action is computed on cochains and
    reduced modulo coboundaries inside the target weight block.  A failure to
    reduce means H is not acted on, i.e. a bug.
    """
    basis = sl.basis
    gm = mod.gminus
    out: dict[int, dict[int, Fraction]] = {}
    # map global rep index per block for reassembly
    rep_offset: dict = {}
    off = 0
    for w in sorted(sl.blocks, key=lambda x: (x is None, x)):
        rep_offset[w] = off
        off += len(sl.blocks[w].reps)
    for r in range(len(sl.representatives)) if rows is None else rows:
        vec, w = sl.representatives[r], sl.rep_weights[r]
        img: dict[int, Fraction] = {}
        for g, c in vec.items():
            mono, m = basis.elts[g]
            for tgt, v in _act_on_cochain(gm, mod, basis, actor, mono, m).items():
                acc(img, tgt, c * v)
        if not img:
            continue
        wt = tuple(a + b for a, b in zip(w, actor.weight))
        block = sl.blocks.get(wt)
        if block is None:
            raise DecompositionError(
                f"actor {actor.name} maps H out of the computed weight blocks")
        local_of = {g: i for i, g in enumerate(block.idx)}
        loc = [0] * len(block.idx)
        for g, v in img.items():
            if g not in local_of:
                raise DecompositionError("actor image left the weight block")
            loc[local_of[g]] = v
        coords = block.span.express(loc)
        if coords is None:
            raise DecompositionError(
                f"actor {actor.name} image is not a cocycle mod coboundaries")
        col: dict[int, Fraction] = {}
        for t, slot in enumerate(block.rep_slots):
            if coords[slot] != 0:
                col[rep_offset[wt] + t] = coords[slot]
        if col:
            out[r] = col
    return out


def _act_on_cochain(gm, mod: GradedModule, basis, actor: Actor,
                    mono: tuple[int, ...], m: int) -> dict[int, Fraction]:
    """(xi . (e_I (x) m)) in cochain coordinates."""
    out: dict[int, Fraction] = {}
    iset = set(mono)
    for m2, v in actor.on_module.get(m, {}).items():
        tgt = basis.pos.get((mono, m2))
        if tgt is None:
            raise DecompositionError("module action escaped the cochain window")
        acc(out, tgt, v)
    pos_in = {i: t for t, i in enumerate(mono)}
    for j in range(gm.dim):
        col = actor.on_gminus.get(j, {})
        if not col:
            continue
        for i, c in col.items():
            if i not in iset:
                continue
            if j != i and j in iset:
                continue
            new_mono = tuple(sorted((iset - {i}) | {j}))
            sign = (-1) ** (new_mono.index(j) + pos_in[i])
            tgt = basis.pos.get((new_mono, m))
            if tgt is None:
                raise DecompositionError("dual action escaped the cochain window")
            acc(out, tgt, -sign * c)
    return out


def g0_action(sl: CohomologySlice, mod: GradedModule) -> dict[str, dict]:
    """Matrices of all raise/lower actors on the slice's representatives."""
    return {actor.name: actor_matrix_on_reps(sl, mod, actor) for actor in mod.actors}


def extremal_vectors(sl: CohomologySlice, mod: GradedModule, kind: str):
    """Basis of the joint kernel of lowering (Lowest) / raising (Highest) ops.

    Returns a list of (weight, vector over representative indices).  On a
    slice computed on ``ExtremalWeights`` only the extremal weights are read.
    """
    want = "lower" if kind == LOWEST else "raise"
    ops = [a for a in mod.actors if a.kind == want]
    keep = None if sl.weights is None else _filter_of(sl, kind).extremal
    bywt: dict = {}
    for r, w in enumerate(sl.rep_weights):
        if keep is None or keep(w):
            bywt.setdefault(w, []).append(r)
    reps = [r for idx in bywt.values() for r in idx]
    mats = [actor_matrix_on_reps(sl, mod, a, reps) for a in ops]
    out = []
    for w in sorted(bywt, key=lambda x: (x is None, x)):
        idx = bywt[w]
        rows = [row for mat in mats for row in dense_rows([mat.get(r, {}) for r in idx])]
        for vec in nullspace(rows, len(idx)):
            out.append((w, {idx[i]: v for i, v in enumerate(vec) if v != 0}))
    return out


def _filter_of(sl: CohomologySlice, kind: str) -> ExtremalWeights:
    """The slice's weight filter, which must be ``ExtremalWeights`` of this kind."""
    flt = sl.weights
    if not isinstance(flt, ExtremalWeights) or flt.kind != kind:
        raise InvariantError(f"slice (s={sl.s}, k={sl.k}) was not computed on the "
                             f"{kind} extremal weights")
    return flt


def decompose(slices: list[CohomologySlice], mod: GradedModule, kind: str,
              dim_of, rs: RootSystem | None = None) -> list[IrreducibleSummand]:
    """Full decomposition, checked against the dimensions of H.

    ``dim_of(weight, kind)`` gives the dimension of the irreducible
    g_0-constituent with that extremal weight.  A slice with every weight
    block is checked by sum mult * dim = dim H, a slice computed on
    ``ExtremalWeights`` by the local identity on every extremal weight.
    """
    out: list[IrreducibleSummand] = []
    for sl in slices:
        if not sl.valid:
            raise InvariantError(f"slice (s={sl.s}, k={sl.k}) is not valid")
        if sl.dim_h == 0:
            continue
        ext = extremal_vectors(sl, mod, kind)
        counts: dict[tuple, int] = {}
        for w, _vec in ext:
            counts[w] = counts.get(w, 0) + 1
        total = 0
        for w in sorted(counts):
            dim = dim_of(w, kind)
            total += counts[w] * dim
            fw = None
            if rs is not None:
                fw = convert_weight(Weight(w, COROOT), SIMPLEROOT, rs).coords
            out.append(IrreducibleSummand(
                weight_cm=tuple(int(c) for c in w),
                weight_fw=fw if fw is not None else tuple(),
                extremal_kind=kind,
                s=sl.s,
                degree=sl.k,
                multiplicity=counts[w],
            ))
        if sl.weights is None:
            if total != sl.dim_h:
                raise DecompositionError(
                    f"bookkeeping: sum of irreducible dims {total} != dim H {sl.dim_h} "
                    f"at (s={sl.s}, k={sl.k})")
        else:
            _check_local_identity(sl, _filter_of(sl, kind), counts)
    return out


def _check_local_identity(sl: CohomologySlice, flt: ExtremalWeights, counts: dict) -> None:
    """dim H_lam = sum_mu m(mu) mult_{L(mu)}(lam) on every extremal weight lam.

    The identity is also checked on every other weight block the slice
    built, through the extremal weight in lam's Levi Weyl orbit.
    """
    chars = {mu: flt.character(mu) for mu in counts}
    for lam in sorted(set(sl.blocks).union(*chars.values())):
        have = len(sl.blocks[lam].reps) if lam in sl.blocks else 0
        ext = flt.to_extremal(lam)
        want = sum(m * chars[mu].get(ext, 0) for mu, m in counts.items())
        if have != want:
            raise DecompositionError(
                f"local identity: dim H = {have} but the summands give {want} "
                f"at weight {lam} (s={sl.s}, k={sl.k})")


def levi_irrep_dim(rs: RootSystem, unselected: list[int], weight: tuple, kind: str) -> int:
    """Weyl dimension of the l1-irreducible with the given extremal weight.

    ``unselected`` holds 1-based nodes; the weight is in ambient coroot
    coordinates.  Lowest weights are flipped to their dual highest weight.
    """
    lam = [-c for c in weight] if kind == LOWEST else list(weight)
    if any(lam[j - 1] < 0 for j in unselected):
        raise DecompositionError(f"extremal weight {weight} not {kind}-dominant")
    val = _weyl_product(rs, lam, [j - 1 for j in unselected])
    if val.denominator != 1:
        raise DecompositionError("non-integral Weyl dimension")
    return int(val)
