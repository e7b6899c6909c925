"""Tanaka-Shchepochkina prolongation, computed degreewise.

A degree-k component is realized as the space of degree-k derivations
D: g_- -> (previously built graded space); since g_- is generated by its
degree -1 part, such a derivation is determined by its restriction to
g_{-1}, which makes the realization equivalent to the symbolic intersection
definition.  Layers are solved as exact kernels, blocked by weight whenever
weights are available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import InvariantError
from .linalg import IntSpan, Q, nullspace, solve
from .liealg import GradedNilpotent
from .gmod import GradedModule, ModuleElt, SparseMat


@dataclass
class G0:
    """A degree-0 algebra acting on g_- (Levi part, der0 output, gl(V), ...)."""

    labels: list[str]
    weights: list[tuple[int, ...] | None]
    act: list[SparseMat]  # on the g_- basis
    bracket: dict[tuple[int, int], dict[int, Fraction]] | None = None

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass
class PositiveLayer:
    labels: list[str]
    weights: list[tuple[int, ...] | None]
    # maps[t][u] = value of D_t on gminus basis u, as coords in the target layer
    maps: list[list[dict[int, Fraction]]]

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass
class ProlongedAlgebra:
    gminus: GradedNilpotent
    g0: G0
    positive: dict[int, PositiveLayer] = field(default_factory=dict)
    computed_to: int = 0
    stabilized: bool = False

    def dims(self) -> dict[int, int]:
        out = dict(self.gminus.dims_by_degree())
        out[0] = self.g0.dim
        for k, layer in self.positive.items():
            out[k] = layer.dim
        return out

    # -- layer access ------------------------------------------------------

    def layer_size(self, m: int) -> int:
        if m > 0:
            return self.positive[m].dim if m in self.positive else 0
        if m == 0:
            return self.g0.dim
        return sum(1 for d in self.gminus.degrees if d == m)

    def layer_indices(self, m: int) -> list[int]:
        """Coordinate index set of layer m (global gminus idx for m < 0)."""
        if m < 0:
            return [i for i, d in enumerate(self.gminus.degrees) if d == m]
        return list(range(self.layer_size(m)))

    def layer_weight(self, m: int, t: int):
        if m > 0:
            return self.positive[m].weights[t]
        if m == 0:
            return self.g0.weights[t]
        return self.gminus.weights[t]

    def apply(self, m: int, t: int, v: int) -> dict[int, Fraction]:
        """[E, v] for E the t-th basis element of layer m, v a gminus index.

        Result coordinates live in layer m + deg(v) (gminus indices if that
        layer is negative).
        """
        if m > 0:
            return dict(self.positive[m].maps[t][v])
        if m == 0:
            return dict(self.g0.act[t].get(v, {}))
        return dict(self.gminus.bracket(t, v))


def prolong_step(p: ProlongedAlgebra, k: int) -> PositiveLayer:
    """Solve for the degree-k component; requires components < k present."""
    if k <= 0:
        raise ValueError("prolong_step needs k >= 1")
    gm = p.gminus
    unknown_layers = {}
    for u in range(gm.dim):
        m = k + gm.degrees[u]
        unknown_layers[u] = m

    weighted = all(w is not None for w in gm.weights) and all(
        p.layer_weight(m, t) is not None
        for u, m in unknown_layers.items()
        for t in p.layer_indices(m)
    )

    def unknowns_for(block_weight):
        out = []
        for u in range(gm.dim):
            m = unknown_layers[u]
            for t in p.layer_indices(m):
                if block_weight is not None:
                    wu = gm.weights[u]
                    wt = p.layer_weight(m, t)
                    if tuple(a - b for a, b in zip(wt, wu)) != block_weight:
                        continue
                out.append((u, t))
        return out

    if weighted:
        block_weights = sorted({
            tuple(a - b for a, b in zip(p.layer_weight(unknown_layers[u], t), gm.weights[u]))
            for u in range(gm.dim)
            for t in p.layer_indices(unknown_layers[u])
        })
    else:
        block_weights = [None]

    labels: list[str] = []
    weights: list = []
    maps: list[list[dict[int, Fraction]]] = []
    for bw in block_weights:
        unk = unknowns_for(bw)
        if not unk:
            continue
        pos_of = {ut: c for c, ut in enumerate(unk)}
        rows = _derivation_rows(p, k, unknown_layers, unk, pos_of)
        for sol in nullspace(rows, len(unk)):
            t = len(labels)
            labels.append(f"D{k}.{t}")
            weights.append(bw)
            elt: list[dict[int, Fraction]] = [dict() for _ in range(gm.dim)]
            for c, (u, tgt) in enumerate(unk):
                if sol[c] != 0:
                    elt[u][tgt] = sol[c]
            maps.append(elt)
    return PositiveLayer(labels, weights, maps)


def _derivation_rows(p, k, unknown_layers, unk, pos_of):
    """Linear constraints D([u,v]) = [D(u),v] + [u,D(v)] as matrix rows."""
    gm = p.gminus
    rows = []
    for u in range(gm.dim):
        for v in range(u + 1, gm.dim):
            coeffs: dict[int, dict[int, Fraction]] = {}

            def add(coord, unknown_key, val):
                # weight additivity keeps each constraint row inside one
                # weight block, so unknowns outside this block never mix
                # with in-block ones on the same row
                if unknown_key not in pos_of:
                    return
                col = pos_of[unknown_key]
                row = coeffs.setdefault(coord, {})
                row[col] = row.get(col, 0) + val

            # LHS: D([u, v])
            for w, c in gm.bracket(u, v).items():
                for t in p.layer_indices(unknown_layers[w]):
                    add(t, (w, t), c)
            # RHS: [D(u), v]
            mu = unknown_layers[u]
            for t in p.layer_indices(mu):
                for coord, val in p.apply(mu, t, v).items():
                    add(coord, (u, t), -val)
            # RHS: + [u, D(v)] = -[D(v), u]
            mv = unknown_layers[v]
            for t in p.layer_indices(mv):
                for coord, val in p.apply(mv, t, u).items():
                    add(coord, (v, t), val)
            for coord in sorted(coeffs):
                row = [0] * len(unk)
                for col, val in coeffs[coord].items():
                    row[col] = val
                if any(row):
                    rows.append(row)
    return rows


def full_prolong(gminus: GradedNilpotent, g0: G0, kmax: int) -> ProlongedAlgebra:
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
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


def der0(gminus: GradedNilpotent) -> G0:
    """All degree-preserving derivations of g_-, closed under commutator."""
    gm = gminus
    # unknowns: per u, target coordinates at the same degree
    weighted = all(w is not None for w in gm.weights)
    targets = {u: [i for i, d in enumerate(gm.degrees) if d == gm.degrees[u]]
               for u in range(gm.dim)}
    if weighted:
        block_weights = sorted({
            tuple(a - b for a, b in zip(gm.weights[t], gm.weights[u]))
            for u in range(gm.dim) for t in targets[u]
        })
    else:
        block_weights = [None]
    labels, weights, act = [], [], []
    for bw in block_weights:
        unk = []
        for u in range(gm.dim):
            for t in targets[u]:
                if bw is not None:
                    if tuple(a - b for a, b in zip(gm.weights[t], gm.weights[u])) != bw:
                        continue
                unk.append((u, t))
        if not unk:
            continue
        pos_of = {ut: c for c, ut in enumerate(unk)}
        rows = []
        for u in range(gm.dim):
            for v in range(u + 1, gm.dim):
                coeffs: dict[int, dict[int, Fraction]] = {}

                def add(coord, key, val):
                    if key not in pos_of:
                        return
                    col = pos_of[key]
                    row = coeffs.setdefault(coord, {})
                    row[col] = row.get(col, 0) + val

                for w, c in gm.bracket(u, v).items():
                    for t in targets[w]:
                        add(t, (w, t), c)
                for t in targets[u]:
                    for coord, val in gm.bracket(t, v).items():
                        add(coord, (u, t), -val)
                for t in targets[v]:
                    for coord, val in gm.bracket(t, u).items():
                        add(coord, (v, t), val)
                for coord in sorted(coeffs):
                    row = [0] * len(unk)
                    for col, val in coeffs[coord].items():
                        row[col] = val
                    if any(row):
                        rows.append(row)
        for sol in nullspace(rows, len(unk)):
            t = len(labels)
            labels.append(f"der0.{t}")
            weights.append(bw)
            mat: SparseMat = {}
            for c, (u, tgt) in enumerate(unk):
                if sol[c] != 0:
                    mat.setdefault(u, {})[tgt] = sol[c]
            act.append(mat)
    g0 = G0(labels, weights, act)
    g0.bracket = _matrix_bracket_table(gm.dim, act)
    return g0


def _matrix_bracket_table(n: int, act: list[SparseMat]):
    """Commutators of action matrices, expressed in the given basis."""
    span = IntSpan(n * n)

    def flat(mat: SparseMat):
        vec = [0] * (n * n)
        for col, rowd in mat.items():
            for row, v in rowd.items():
                vec[row * n + col] = v
        return vec

    for mat in act:
        span.add(flat(mat))
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(len(act)):
        for j in range(i + 1, len(act)):
            comm: SparseMat = {}
            for col, rowd in act[j].items():
                for mid, v in rowd.items():
                    for row, w in act[i].get(mid, {}).items():
                        d = comm.setdefault(col, {})
                        d[row] = d.get(row, 0) + v * w
            for col, rowd in act[i].items():
                for mid, v in rowd.items():
                    for row, w in act[j].get(mid, {}).items():
                        d = comm.setdefault(col, {})
                        d[row] = d.get(row, 0) - v * w
            coords = span.express(flat(comm))
            if coords is None:
                raise AssertionError("derivation algebra not closed under commutator")
            entry = {t: c for t, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    return table


def prolong_as_module(p: ProlongedAlgebra) -> GradedModule:
    """The prolong as a g_- module: g_- + g_0 + positive layers.

    Marked complete up to the last computed degree unless stabilized, in
    which case the module is complete everywhere above as well.
    """
    gm = p.gminus
    basis: list[ModuleElt] = []
    coords: list[tuple[int, int]] = []  # (level, idx-in-layer)
    for u in range(gm.dim):
        basis.append(ModuleElt(gm.labels[u], gm.degrees[u], gm.weights[u]))
        coords.append((gm.degrees[u], u))
    for t in range(p.g0.dim):
        basis.append(ModuleElt(p.g0.labels[t], 0, p.g0.weights[t]))
        coords.append((0, t))
    for k in sorted(p.positive):
        for t in range(p.positive[k].dim):
            basis.append(ModuleElt(p.positive[k].labels[t], k, p.positive[k].weights[t]))
            coords.append((k, t))
    pos_of: dict[tuple[int, int], int] = {}
    for idx, (lvl, t) in enumerate(coords):
        pos_of[(lvl, t)] = idx
    # for negative levels the in-layer coordinate is the global gminus index
    neg_pos = {u: i for i, (lvl, t) in enumerate(coords) if lvl < 0 for u in [t]}

    act: list[SparseMat] = []
    for u in range(gm.dim):
        mat: SparseMat = {}
        for idx, (lvl, t) in enumerate(coords):
            col: dict[int, Fraction] = {}
            if lvl < 0:
                for w, c in gm.bracket(u, t).items():
                    col[neg_pos[w]] = col.get(neg_pos[w], Q(0)) + c
            else:
                # [u, E] = -E(u), coords in layer lvl + deg(u)
                target_lvl = lvl + gm.degrees[u]
                for coord, val in p.apply(lvl, t, u).items():
                    if target_lvl < 0:
                        row = neg_pos[coord]
                    else:
                        row = pos_of[(target_lvl, coord)]
                    col[row] = col.get(row, Q(0)) - val
            col = {r: v for r, v in col.items() if v != 0}
            if col:
                mat[idx] = col
        act.append(mat)
    bound = None if p.stabilized else p.computed_to
    return GradedModule(gm, basis, act, bound, name="prolong")


ProlongElt = dict[tuple[int, int], Fraction]  # (level, index) -> coefficient
# negative levels index the global gminus basis; level 0 indexes g0;
# positive levels index the computed PositiveLayer bases


def _as_elt(level: int, idx: int) -> ProlongElt:
    return {(level, idx): Q(1)}


def bracket_elements(p: ProlongedAlgebra, e1: ProlongElt, e2: ProlongElt) -> ProlongElt:
    """Bracket in the prolonged algebra, defined within the computed window."""
    out: ProlongElt = {}
    for (l1, i1), c1 in e1.items():
        for (l2, i2), c2 in e2.items():
            for key, v in _pbracket_basis(p, l1, i1, l2, i2).items():
                nv = out.get(key, Q(0)) + c1 * c2 * v
                if nv == 0:
                    out.pop(key, None)
                else:
                    out[key] = nv
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
            out[(tgt, coord)] = out.get((tgt, coord), Q(0)) - v
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
    n = p.layer_size(s) if (s <= 0 or s in p.positive) else 0
    if n == 0:
        if any(vals[u] for u in top):
            raise AssertionError("nonzero bracket lands in an empty layer")
        return {}
    rows = [[0] * n for _ in range(len(coords_idx))]
    for t in range(n):
        for u in top:
            for coord, v in p.apply(s, t, u).items():
                rows[coords_idx[(u, coord)]][t] = v
    rhs = [0] * len(coords_idx)
    for u in top:
        for (lvl, coord), v in vals[u].items():
            if lvl != tgt:
                raise InvariantError(f"bracket value at level {lvl}, expected {tgt}")
            rhs[coords_idx[(u, coord)]] = v
    sol = solve(rows, rhs)
    if sol is None:
        raise AssertionError("bracket image is not in the prolong layer")
    return {(s, t): c for t, c in enumerate(sol) if c != 0}


def verify_prolong_jacobi(p: ProlongedAlgebra, max_total: int | None = None) -> None:
    """Jacobi identity on all basis triples within the computed window."""
    if max_total is None:
        max_total = p.computed_to
    gens: list[tuple[int, int]] = []
    for u in range(p.gminus.dim):
        gens.append((p.gminus.degrees[u], u))
    for t in range(p.g0.dim):
        gens.append((0, t))
    for k in sorted(p.positive):
        for t in range(p.positive[k].dim):
            gens.append((k, t))
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
                acc: ProlongElt = {}
                for term in (
                    bracket_elements(p, bracket_elements(p, ea, eb), ec),
                    bracket_elements(p, bracket_elements(p, eb, ec), ea),
                    bracket_elements(p, bracket_elements(p, ec, ea), eb),
                ):
                    for k2, v in term.items():
                        nv = acc.get(k2, Q(0)) + v
                        if nv == 0:
                            acc.pop(k2, None)
                        else:
                            acc[k2] = nv
                if acc:
                    raise AssertionError(f"prolong Jacobi fails on {gens[a]},{gens[b]},{gens[c]}")


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
