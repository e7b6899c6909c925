"""Decomposition of cohomology slices into irreducible Levi constituents.

The module's actors (the raising and lowering generators of the Levi, or of
any reductive g_0 packaged the same way) act on cochains; ``decomp`` reduces
their images modulo coboundaries through each weight block's ``IntSpan``, so
they act on the representatives of H.  Extremal vectors are the joint kernel
of the lowering (lowest-weight) or raising (highest-weight) actors on each
extremal weight space; the Cartan part acts through the weights themselves.

``ExtremalWeights`` names the Levi and the extremal kind of a decomposition.
It is also the weight filter of ``cohom.cohomology`` that keeps the
Levi-antidominant (Lowest) or -dominant (Highest) weights, where extremal
vectors live, and their images under one lowering (raising) step, which the
joint kernel reads.  ``decompose`` takes a slice computed on that filter or
one with every weight block, and checks one identity on every block the
slice built: dim H_lam = sum_mu m(mu) mult_{L(mu)}(lam), read at the
extremal weight of lam's Levi Weyl orbit, with the multiplicities from
Freudenthal's formula (``rootsys.dominant_multiplicities``).  H is a
finite-dimensional Levi module, so its character is invariant under the
Levi Weyl group and fixed by its values on the extremal weights: the
identity holds exactly when the summands' characters add up to that of H.
On a slice with every block it covers every weight, so it implies
sum_mu m(mu) dim L(mu) = dim H.

One kind of extremal weight gives the other: w0 of the Levi maps the
highest weight of L(mu) to its lowest (``ExtremalWeights.relabel``), so each
H is decomposed once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import InvariantError
from .linalg import acc, nullspace
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


class DecompositionError(InvariantError):
    pass


@dataclass(frozen=True)
class ExtremalWeights:
    """The Levi and extremal kind of a decomposition; as a weight filter, the
    weights ``decompose`` reads.

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

    def summand(self, w, s: int, degree: int, multiplicity: int) -> IrreducibleSummand:
        """The summand of this kind with extremal weight w (coroot coordinates)."""
        fw = convert_weight(Weight(w, COROOT), SIMPLEROOT, self.rs).coords
        return IrreducibleSummand(tuple(int(c) for c in w), fw, self.kind, s, degree,
                                  multiplicity)

    def relabel(self, summands: list[IrreducibleSummand]) -> list[IrreducibleSummand]:
        """The same summands, each named by its extremal weight of this kind.

        w0 of the Levi maps the highest weight of L(mu) to its lowest and back.
        """
        return [self.summand(self.to_extremal(sm.weight_cm), sm.s, sm.degree, sm.multiplicity)
                for sm in summands]


def actor_matrix_on_reps(sl: CohomologySlice, mod: GradedModule, actor: Actor, rows):
    """Matrix of one raise/lower actor on the representatives of a slice.

    Returns {src_rep_index: {dst_rep_index: coeff}} over the representatives
    listed in ``rows``; the action is computed on cochains and reduced modulo
    coboundaries inside the target weight block.  A failure to reduce means
    H is not acted on, i.e. a bug.
    """
    basis = sl.basis
    gm = mod.gminus
    out: dict[int, dict[int, Fraction]] = {}
    first: dict = {}  # weight -> index of its block's first representative
    for r, w in enumerate(sl.rep_weights):
        first.setdefault(w, r)
    for r in rows:
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
        if not local_of.keys() >= img.keys():
            raise DecompositionError("actor image left the weight block")
        coords = block.span.express({local_of[g]: v for g, v in img.items()})
        if coords is None:
            raise DecompositionError(
                f"actor {actor.name} image is not a cocycle mod coboundaries")
        col = {first[wt] + t: coords[slot]
               for t, slot in enumerate(block.rep_slots) if slot in coords}
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


def extremal_vectors(sl: CohomologySlice, mod: GradedModule, flt: ExtremalWeights):
    """Basis of the joint kernel of lowering (Lowest) / raising (Highest) ops.

    Returns a list of (weight, vector over representative indices).  Only
    the extremal weights of ``flt`` are read: no other weight carries an
    extremal vector.
    """
    want = "lower" if flt.kind == LOWEST else "raise"
    ops = [a for a in mod.actors if a.kind == want]
    bywt: dict = {}
    for r, w in enumerate(sl.rep_weights):
        if flt.extremal(w):
            bywt.setdefault(w, []).append(r)
    reps = [r for idx in bywt.values() for r in idx]
    mats = [actor_matrix_on_reps(sl, mod, a, reps) for a in ops]
    out = []
    for w in sorted(bywt):
        idx = bywt[w]
        # column r stacks the images of rep r under every actor, keyed (actor, rep)
        cols = [{(a, t): v for a, mat in enumerate(mats) for t, v in mat.get(r, {}).items()}
                for r in idx]
        for vec in nullspace(cols):
            out.append((w, {idx[i]: v for i, v in vec.items()}))
    return out


def decompose(slices: list[CohomologySlice], mod: GradedModule,
              flt: ExtremalWeights) -> list[IrreducibleSummand]:
    """The Levi summands of each slice, named by their ``flt.kind`` extremal weight.

    A slice holds every weight block or was computed on ``flt``; either way
    the local identity is checked on every block it built.
    """
    out: list[IrreducibleSummand] = []
    for sl in slices:
        if not sl.valid:
            raise InvariantError(f"slice (s={sl.s}, k={sl.k}) is not valid")
        if sl.weights not in (None, flt):
            raise InvariantError(f"slice (s={sl.s}, k={sl.k}) was not computed on the "
                                 f"{flt.kind} extremal weights")
        if sl.dim_h == 0:
            continue
        counts = Counter(w for w, _vec in extremal_vectors(sl, mod, flt))
        out += [flt.summand(w, sl.s, sl.k, counts[w]) for w in sorted(counts)]
        _check_local_identity(sl, flt, counts)
    return out


def _check_local_identity(sl: CohomologySlice, flt: ExtremalWeights, counts: Counter) -> None:
    """dim H_lam = sum_mu m(mu) mult_{L(mu)}(lam) on every block the slice built.

    Each lam is read at the extremal weight in its Levi Weyl orbit; the
    summands' extremal weights are checked too, built or not.
    """
    chars = {mu: flt.character(mu) for mu in counts}
    for lam in sorted(set(sl.blocks).union(*chars.values())):
        have = len(sl.blocks[lam].rep_slots) if lam in sl.blocks else 0
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
