"""Tanaka-Shchepochkina prolongation, computed degreewise.

Every layer of degree k >= 0 is one ``G0``: a basis of degree-k derivations
D of g_-, each stored by its values D(v) on the g_- basis, as coordinates in
layer k + deg(v) (global g_- indices when that layer is negative).  Since
g_- is generated by its degree -1 part, such a derivation is determined by
its restriction to g_{-1}, which makes the realization equivalent to the
symbolic intersection definition.  g_0 is supplied (a Levi part, gl(V), ...);
the positive layers come from ``prolong_step``, which solves
D([u,v]) = [D(u),v] + [u,D(v)] as exact kernels blocked by weight whenever
weights are available.  The constraints of a degree are built once, for every
unknown, and then split by weight block; weight additivity keeps each
constraint inside one block, and ``_derivations`` checks that it does.  Every
layer is integral where g_0 and the g_- bracket are, by induction on the
degree: its constraints are integer, and so are ``nullspace``'s kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import InputError, InvariantError
from .linalg import SparseMat, acc, nullspace
from .liealg import GradedNilpotent
from .gmod import Actor, GradedModule, ModuleElt


@dataclass
class G0:
    """One layer of degree k >= 0 acting on g_- (Levi part, D_k, gl(V), ...).

    ``act[t][v]`` is [E_t, v] for the t-th basis element E_t and the g_-
    basis vector v, as coordinates in layer k + deg(v).
    """

    labels: list[str]
    weights: list[tuple[int, ...] | None]
    act: list[SparseMat]

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass
class ProlongedAlgebra:
    gminus: GradedNilpotent
    g0: G0
    positive: dict[int, G0] = field(default_factory=dict)
    computed_to: int = 0
    stabilized: bool = False

    def dims(self) -> dict[int, int]:
        out = dict(self.gminus.dims_by_degree())
        out[0] = self.g0.dim
        for k, layer in self.positive.items():
            out[k] = layer.dim
        return out

    # -- layer access ------------------------------------------------------

    def layer(self, m: int) -> G0:
        """Layer m >= 0; empty for a degree that has no computed layer."""
        if m == 0:
            return self.g0
        return self.positive.get(m) or G0([], [], [])

    def layer_indices(self, m: int) -> list[int]:
        """Coordinate index set of layer m (global gminus idx for m < 0)."""
        if m < 0:
            return [i for i, d in enumerate(self.gminus.degrees) if d == m]
        return list(range(self.layer(m).dim))

    def layer_weight(self, m: int, t: int):
        if m < 0:
            return self.gminus.weights[t]
        return self.layer(m).weights[t]

    def apply(self, m: int, t: int, v: int) -> dict[int, int]:
        """[E, v] for E the t-th basis element of layer m, v a gminus index.

        Result coordinates live in layer m + deg(v) (gminus indices if that
        layer is negative).  The result is shared: callers must not mutate it.
        """
        if m < 0:
            return self.gminus.bracket(t, v)
        return self.layer(m).act[t].get(v, {})


def prolong_step(p: ProlongedAlgebra, k: int) -> G0:
    """Solve for the degree-k component; requires components < k present."""
    if k <= 0:
        raise ValueError("prolong_step needs k >= 1")
    return _derivations(p, k)


def _derivations(p: ProlongedAlgebra, k: int) -> G0:
    """All degree-k derivations of g_- into the layers of p, as a layer (k >= 0).

    The unknowns are the coordinates (u, t) of D(u) in layer k + deg(u).  The
    constraints are built once for every unknown, then solved per block weight
    wt(t) - wt(u) when every weight is known.  Weight additivity keeps each
    constraint row inside one block; that is checked by an ``if``, since a row
    spanning two blocks would lose the terms outside each block's system.
    """
    gm = p.gminus
    unknowns = [(u, t) for u in range(gm.dim) for t in p.layer_indices(k + gm.degrees[u])]
    weighted = all(w is not None for w in gm.weights) and all(
        p.layer_weight(k + gm.degrees[u], t) is not None for u, t in unknowns)
    cols = _derivation_cols(p, k, unknowns)
    blocks: dict = {}
    row_block: dict = {}
    for u, t in unknowns:
        bw = None
        if weighted:
            wt = p.layer_weight(k + gm.degrees[u], t)
            bw = tuple(a - b for a, b in zip(wt, gm.weights[u]))
        blocks.setdefault(bw, []).append((u, t))
        for row in cols[u, t]:
            if row_block.setdefault(row, bw) != bw:
                raise InvariantError(f"degree-{k} derivation constraint {row} spans "
                                     f"weight blocks {row_block[row]} and {bw}")

    labels: list[str] = []
    weights: list = []
    act: list[SparseMat] = []
    for bw in sorted(blocks):
        unk = blocks[bw]
        for sol in nullspace([cols[ut] for ut in unk]):
            mat: SparseMat = {}
            for c, v in sol.items():
                u, tgt = unk[c]
                mat.setdefault(u, {})[tgt] = v
            labels.append(f"D{k}.{len(labels)}")
            weights.append(bw)
            act.append(mat)
    return G0(labels, weights, act)


def _derivation_cols(p, k, unknowns) -> dict:
    """Linear constraints D([u,v]) = [D(u),v] + [u,D(v)], one sparse column per unknown.

    A constraint (row) is keyed (u, v, coordinate); the columns are keyed by
    unknown (u, t).
    """
    gm = p.gminus
    cols: dict = {ut: {} for ut in unknowns}
    indices = {m: p.layer_indices(m) for m in {k + d for d in gm.degrees}}
    for u in range(gm.dim):
        mu = k + gm.degrees[u]
        for v in range(u + 1, gm.dim):
            pair = (u, v)
            # LHS: D([u, v])
            for w, c in gm.bracket(u, v).items():
                for t in indices[k + gm.degrees[w]]:
                    acc(cols[w, t], pair + (t,), c)
            # RHS: [D(u), v]
            for t in indices[mu]:
                col = cols[u, t]
                for coord, val in p.apply(mu, t, v).items():
                    acc(col, pair + (coord,), -val)
            # RHS: + [u, D(v)] = -[D(v), u]
            mv = k + gm.degrees[v]
            for t in indices[mv]:
                col = cols[v, t]
                for coord, val in p.apply(mv, t, u).items():
                    acc(col, pair + (coord,), val)
    return cols


def full_prolong(gminus: GradedNilpotent, g0: G0, kmax: int) -> ProlongedAlgebra:
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    if not gminus.generated_by_top():
        raise ValueError("g_- must be generated by its degree -1 part")
    p = ProlongedAlgebra(gminus, g0)
    for k in range(1, kmax + 1):
        layer = prolong_step(p, k)
        if layer.dim == 0:
            p.stabilized = True
            p.computed_to = k
            break
        p.positive[k] = layer
        p.computed_to = k
    return p


def prolong_as_module(p: ProlongedAlgebra, actors: list[Actor] | None = None) -> GradedModule:
    """The prolong as a g_- module: g_- + g_0 + positive layers.

    Marked complete up to the last computed degree unless stabilized, in
    which case the module is complete everywhere above as well.  The g_-
    basis comes first, so module index u is the g_- basis vector u; the
    layers follow in degree order.  ``GradedModule.actors_of`` checks the
    ``actors`` (the G(2)-structure passes the generators of g2) on that basis,
    each kind before ``decompose`` reads it.
    """
    gm = p.gminus
    basis = [ModuleElt(gm.labels[u], gm.degrees[u], gm.weights[u]) for u in range(gm.dim)]
    coords: list[tuple[int, int]] = []  # (level, idx-in-layer) of basis[gm.dim:]
    for k in [0] + sorted(p.positive):
        layer = p.layer(k)
        for t in range(layer.dim):
            basis.append(ModuleElt(layer.labels[t], k, layer.weights[t]))
            coords.append((k, t))
    pos_of = {lt: gm.dim + i for i, lt in enumerate(coords)}

    act: list[SparseMat] = []
    for u in range(gm.dim):
        mat: SparseMat = {}
        for w in range(gm.dim):
            col = {x: c for x, c in gm.bracket(u, w).items() if c != 0}
            if col:
                mat[w] = col
        for idx, (lvl, t) in enumerate(coords, gm.dim):
            # [u, E] = -E(u), coords in layer lvl + deg(u)
            target_lvl = lvl + gm.degrees[u]
            col: dict[int, int] = {}
            for coord, val in p.apply(lvl, t, u).items():
                acc(col, coord if target_lvl < 0 else pos_of[(target_lvl, coord)], -val)
            if col:
                mat[idx] = col
        act.append(mat)
    bound = None if p.stabilized else p.computed_to
    return GradedModule(gm, basis, act, bound, actors)


TAG_EQUALS_S = "EqualsS"
TAG_DEPTH1 = "Depth1Vect"
TAG_CONTACT = "ContactK"
TAG_SPECIAL = "SpecialSlSp"


def yamaguchi_classify(alg) -> str:
    """Classification of (s_-)_* per the depth/contact/special-sl-sp trichotomy."""
    if alg.grading is None:
        raise ValueError("needs a graded algebra")
    if alg.depth == 1:
        return TAG_DEPTH1
    dims = alg.dims_by_degree
    if alg.depth == 2 and dims.get(-2, 0) == 1:
        return TAG_CONTACT
    sel = set(alg.grading.selected_nodes)
    n = alg.rank
    t = alg.rs.spec.type_letter
    if t == "A" and len(sel) == 2 and (1 in sel or n in sel) and sel != {1, n}:
        return TAG_SPECIAL
    if t == "C" and sel == {1, n}:
        return TAG_SPECIAL
    return TAG_EQUALS_S
