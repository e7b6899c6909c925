"""Tanaka-Shchepochkina prolongation, computed degreewise.

Every layer of degree k >= 0 is one ``G0``: a basis of degree-k derivations
D of g_-, each stored by its values D(v) on the g_- basis, as coordinates in
layer k + deg(v) (global g_- indices when that layer is negative).  Since
g_- is generated by its degree -1 part, such a derivation is determined by
its restriction to g_{-1}, which makes the realization equivalent to the
symbolic intersection definition.  g_0 is supplied (a Levi part, gl(V), ...);
the positive layers come from ``prolong_step``, which solves
D([u,v]) = [D(u),v] + [u,D(v)] as exact kernels blocked by weight whenever
weights are available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import InputError, InvariantError
from .linalg import Q, SparseMat, acc, nullspace, solve
from .liealg import GradedNilpotent
from .gmod import GradedModule, ModuleElt


@dataclass
class G0:
    """One layer of degree k >= 0 acting on g_- (Levi part, D_k, gl(V), ...).

    ``act[t][v]`` is [E_t, v] for the t-th basis element E_t and the g_-
    basis vector v, as coordinates in layer k + deg(v).  ``bracket`` is the
    bracket table of a degree-0 layer; positive layers leave it None.
    """

    labels: list[str]
    weights: list[tuple[int, ...] | None]
    act: list[SparseMat]
    bracket: dict[tuple[int, int], dict[int, Fraction]] | None = None

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

    def apply(self, m: int, t: int, v: int) -> dict[int, Fraction]:
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

    The unknowns are the coordinates (u, t) of D(u) in layer k + deg(u); they
    are solved per block weight wt(t) - wt(u) when every weight is known.
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
        for sol in nullspace(_derivation_cols(p, k, pos_of)):
            mat: SparseMat = {}
            for c, v in sol.items():
                u, tgt = unk[c]
                mat.setdefault(u, {})[tgt] = v
            labels.append(f"D{k}.{len(labels)}")
            weights.append(bw)
            act.append(mat)
    return G0(labels, weights, act)


def _derivation_cols(p, k, pos_of):
    """Linear constraints D([u,v]) = [D(u),v] + [u,D(v)], one sparse column per unknown.

    A constraint (row) is keyed (u, v, coordinate).
    """
    gm = p.gminus
    cols: list[dict] = [{} for _ in pos_of]
    for u in range(gm.dim):
        for v in range(u + 1, gm.dim):

            def add(coord, unknown_key, val):
                # weight additivity keeps each constraint row inside one
                # weight block, so unknowns outside this block never mix
                # with in-block ones on the same row
                if unknown_key in pos_of:
                    acc(cols[pos_of[unknown_key]], (u, v, coord), val)

            # LHS: D([u, v])
            for w, c in gm.bracket(u, v).items():
                for t in p.layer_indices(k + gm.degrees[w]):
                    add(t, (w, t), c)
            # RHS: [D(u), v]
            mu = k + gm.degrees[u]
            for t in p.layer_indices(mu):
                for coord, val in p.apply(mu, t, v).items():
                    add(coord, (u, t), -val)
            # RHS: + [u, D(v)] = -[D(v), u]
            mv = k + gm.degrees[v]
            for t in p.layer_indices(mv):
                for coord, val in p.apply(mv, t, u).items():
                    add(coord, (v, t), val)
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


def prolong_as_module(p: ProlongedAlgebra) -> GradedModule:
    """The prolong as a g_- module: g_- + g_0 + positive layers.

    Marked complete up to the last computed degree unless stabilized, in
    which case the module is complete everywhere above as well.  The g_-
    basis comes first, so module index u is the g_- basis vector u.
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
            col: dict[int, Fraction] = {}
            for coord, val in p.apply(lvl, t, u).items():
                acc(col, coord if target_lvl < 0 else pos_of[(target_lvl, coord)], -val)
            if col:
                mat[idx] = col
        act.append(mat)
    bound = None if p.stabilized else p.computed_to
    return GradedModule(gm, basis, act, bound)


ProlongElt = dict[tuple[int, int], Fraction]  # (level, index) -> coefficient
# negative levels index the global gminus basis; levels >= 0 index the
# basis of p.layer(level)


def _as_elt(level: int, idx: int) -> ProlongElt:
    return {(level, idx): Q(1)}


def bracket_elements(p: ProlongedAlgebra, e1: ProlongElt, e2: ProlongElt) -> ProlongElt:
    """Bracket in the prolonged algebra, defined within the computed window."""
    out: ProlongElt = {}
    for (l1, i1), c1 in e1.items():
        for (l2, i2), c2 in e2.items():
            for key, v in _pbracket_basis(p, l1, i1, l2, i2).items():
                acc(out, key, c1 * c2 * v)
    return out


def _pbracket_basis(p: ProlongedAlgebra, l1: int, i1: int, l2: int, i2: int) -> ProlongElt:
    memo = getattr(p, "_pbr_memo", None)
    if memo is None:
        memo = {}
        p._pbr_memo = memo
    key = (l1, i1, l2, i2)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = _pbracket_raw(p, l1, i1, l2, i2)
    memo[key] = out
    return out


def _pbracket_raw(p, l1, i1, l2, i2) -> ProlongElt:
    gm = p.gminus
    if (l1, i1) == (l2, i2):
        return {}
    if l1 > l2:
        return {k: -v for k, v in _pbracket_basis(p, l2, i2, l1, i1).items()}
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
        if p.g0.bracket is None:
            raise ValueError("g0 bracket table unavailable")
        if i1 > i2:
            return {(0, t): -v for t, v in p.g0.bracket.get((i2, i1), {}).items()}
        return {(0, t): v for t, v in p.g0.bracket.get((i1, i2), {}).items()}
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
        t1 = bracket_elements(p, e1, bracket_elements(p, e2, ue))
        t2 = bracket_elements(p, e2, bracket_elements(p, e1, ue))
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
