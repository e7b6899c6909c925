"""Decomposition of cohomology slices into irreducible g_0-constituents.

The Levi (or any reductive g_0 supplied through actors) acts on harmonic
representatives modulo coboundaries; extremal vectors are the joint kernel
of its lowering (lowest-weight) or raising (highest-weight) operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Q, acc, nullspace
from .gmod import Actor, GradedModule
from .cohom import CohomologySlice
from .rootsys import COROOT, SIMPLEROOT, RootSystem, Weight, convert_weight

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


class DecompositionError(AssertionError):
    pass


def actor_matrix_on_reps(sl: CohomologySlice, mod: GradedModule, actor: Actor):
    """Matrix of one raise/lower actor on the representatives of a slice.

    Returns {src_rep_index: {dst_rep_index: coeff}}; the action is computed
    on cochains and reduced modulo coboundaries inside the target weight
    block.  A failure to reduce means H is not acted on, i.e. a bug.
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
    for r, (vec, w) in enumerate(zip(sl.representatives, sl.rep_weights)):
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
        coords = block.reducer.express(loc)
        if coords is None:
            raise DecompositionError(
                f"actor {actor.name} image is not a cocycle mod coboundaries")
        col: dict[int, Fraction] = {}
        for t in range(len(block.reps)):
            if coords[t] != 0:
                col[rep_offset[wt] + t] = coords[t]
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
    out = {}
    for actor in mod.actors:
        if actor.kind == "cartan":
            continue
        out[actor.name] = actor_matrix_on_reps(sl, mod, actor)
    return out


def extremal_vectors(sl: CohomologySlice, mod: GradedModule, kind: str):
    """Basis of the joint kernel of lowering (Lowest) / raising (Highest) ops.

    Returns a list of (weight, vector over representative indices).
    """
    want = "lower" if kind == LOWEST else "raise"
    ops = [a for a in mod.actors if a.kind == want]
    mats = [actor_matrix_on_reps(sl, mod, a) for a in ops]
    bywt: dict = {}
    for r, w in enumerate(sl.rep_weights):
        bywt.setdefault(w, []).append(r)
    out = []
    for w in sorted(bywt, key=lambda x: (x is None, x)):
        idx = bywt[w]
        rows = []
        for mat in mats:
            row_map: dict[int, list[Fraction]] = {}
            for li, r in enumerate(idx):
                for tgt, v in mat.get(r, {}).items():
                    row_map.setdefault(tgt, [0] * len(idx))[li] = v
            rows.extend(row_map[t] for t in sorted(row_map))
        for vec in nullspace(rows, len(idx)):
            out.append((w, {idx[i]: v for i, v in enumerate(vec) if v != 0}))
    return out


def decompose(slices: list[CohomologySlice], mod: GradedModule, kind: str,
              dim_of, rs: RootSystem | None = None) -> list[IrreducibleSummand]:
    """Full decomposition with the dimension bookkeeping check.

    ``dim_of(weight, kind)`` gives the dimension of the irreducible
    g_0-constituent with that extremal weight.
    """
    out: list[IrreducibleSummand] = []
    for sl in slices:
        if not sl.valid:
            raise ValueError(f"slice (s={sl.s}, k={sl.k}) is not valid")
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
        if total != sl.dim_h:
            raise DecompositionError(
                f"bookkeeping: sum of irreducible dims {total} != dim H {sl.dim_h} "
                f"at (s={sl.s}, k={sl.k})")
    return out


def levi_irrep_dim(rs: RootSystem, unselected: list[int], weight: tuple, kind: str) -> int:
    """Weyl dimension of the l1-irreducible with the given extremal weight.

    ``unselected`` holds 1-based nodes; the weight is in ambient coroot
    coordinates.  Lowest weights are flipped to their dual highest weight.
    """
    lam = {j: (Q(-weight[j - 1]) if kind == LOWEST else Q(weight[j - 1]))
           for j in unselected}
    if any(v < 0 for v in lam.values()):
        raise DecompositionError(f"extremal weight {weight} not {kind}-dominant")
    unsel0 = {j - 1 for j in unselected}
    num = Q(1)
    den = Q(1)
    d = rs.symmetrizer
    for beta in rs.positive_roots:
        if any(beta[t] and t not in unsel0 for t in range(rs.rank)):
            continue
        dbeta = rs.norm2(beta) / 2
        lam_b = sum(lam[t + 1] * beta[t] * d[t] for t in unsel0) / dbeta
        rho_b = sum(Q(beta[t]) * d[t] for t in unsel0) / dbeta
        num *= lam_b + rho_b
        den *= rho_b
    val = num / den
    if val.denominator != 1:
        raise DecompositionError("non-integral Weyl dimension")
    return int(val)
