"""The Chevalley-Eilenberg complex of g_- and its exact cohomology slices.

Cochains C^s = Hom(Lambda^s g_-, M) are enumerated as (exterior monomial,
module element) pairs in a fixed deterministic order.  The differential
includes the Lie term f([v_i, v_j], ...), which vanishes in the abelian case
and recovers the classical Spencer differential there.  Every slice is
computed blockwise per weight (the Cartan action commutes with d), with an
exact d o d = 0 check on each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .linalg import IntSpan, acc, nullspace
from .liealg import GradedNilpotent
from .gmod import GradedModule


@dataclass
class CochainBasis:
    s: int
    k: int
    elts: list[tuple[tuple[int, ...], int]]
    weights: list[tuple[int, ...] | None]

    def __post_init__(self):
        self.pos = {e: i for i, e in enumerate(self.elts)}
        self.by_weight: dict = {}
        for i, w in enumerate(self.weights):
            self.by_weight.setdefault(w, []).append(i)

    @property
    def dim(self) -> int:
        return len(self.elts)


def cochain_basis(gm: GradedNilpotent, mod: GradedModule, s: int, k: int) -> CochainBasis:
    """Ordered basis of C^s_k: degree-k maps Lambda^s g_- -> M."""
    cache = getattr(mod, "_basis_cache", None)
    if cache is None:
        cache = {}
        mod._basis_cache = cache
    hit = cache.get((s, k))
    if hit is not None:
        return hit
    out = _cochain_basis_raw(gm, mod, s, k)
    cache[(s, k)] = out
    return out


def _cochain_basis_raw(gm, mod, s, k) -> CochainBasis:
    if s < 0:
        return CochainBasis(s, k, [], [])
    elts: list[tuple[tuple[int, ...], int]] = []
    weights: list = []
    have_w = all(w is not None for w in gm.weights)
    for mono in combinations(range(gm.dim), s):
        dual_deg = -sum(gm.degrees[i] for i in mono)
        mdeg = k - dual_deg
        for m in mod.by_degree.get(mdeg, []):
            elts.append((mono, m))
            if have_w and mod.basis[m].weight is not None:
                w = list(mod.basis[m].weight)
                for i in mono:
                    w = [a - b for a, b in zip(w, gm.weights[i])]
                weights.append(tuple(w))
            else:
                weights.append(None)
    return CochainBasis(s, k, elts, weights)


def _reverse_bracket(gm: GradedNilpotent) -> dict[int, list[tuple[int, int, Fraction]]]:
    cached = getattr(gm, "_rev_bracket", None)
    if cached is not None:
        return cached
    out: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (a, b), res in sorted(gm.bracket_table.items()):
        for c, v in res.items():
            if v != 0:
                out.setdefault(c, []).append((a, b, v))
    gm._rev_bracket = out
    return out


def differential_columns(gm: GradedNilpotent, mod: GradedModule,
                         src: CochainBasis, dst: CochainBasis):
    """d: C^s_k -> C^{s+1}_k as per-column sparse dictionaries."""
    rev = _reverse_bracket(gm)
    cols: list[dict[int, Fraction]] = []
    for mono, m in src.elts:
        col: dict[int, Fraction] = {}
        mono_set = set(mono)
        # action term: insert a new argument slot a
        for a in range(gm.dim):
            if a in mono_set:
                continue
            outs = mod.act[a].get(m)
            if not outs:
                continue
            sign = (-1) ** sum(1 for i in mono if i < a)
            new_mono = tuple(sorted(mono + (a,)))
            for m2, v in outs.items():
                tgt = dst.pos.get((new_mono, m2))
                if tgt is None:
                    raise TruncationEscape(src.s, src.k)
                acc(col, tgt, sign * v)
        # Lie term: replace one argument c by a bracket pair (a, b)
        for ci, c in enumerate(mono):
            for a, b, coef in rev.get(c, ()):
                rest = mono_set - {c}
                if a in rest or b in rest:
                    continue
                new_mono = tuple(sorted(rest | {a, b}))
                t = new_mono.index(a)
                u = new_mono.index(b)
                tgt = dst.pos.get((new_mono, m))
                if tgt is None:
                    raise TruncationEscape(src.s, src.k)
                acc(col, tgt, (-1) ** (t + u + ci) * coef)
        cols.append(col)
    return cols


class TruncationEscape(Exception):
    """The differential left the enumerated window; slice must be invalid."""


@dataclass
class WeightBlock:
    weight: tuple | None
    idx: list[int]  # local -> global cochain index in C^s_k
    rank_in: int
    rank_out: int
    reps: list[dict[int, Fraction]]  # local coords
    in_cols: list[list]  # coboundary spanning vectors, local coords
    _reducer: IntSpan | None = None

    @property
    def reducer(self) -> IntSpan:
        """Representatives first, then coboundaries (built on demand)."""
        if self._reducer is None:
            span = IntSpan(len(self.idx))
            for rep in self.reps:
                vec = [0] * len(self.idx)
                for i, v in rep.items():
                    vec[i] = v
                span.add(vec)
            for col in self.in_cols:
                span.add(col)
            self._reducer = span
        return self._reducer


@dataclass
class CohomologySlice:
    s: int
    k: int
    dim_cochains: tuple[int, int, int]
    rank_in: int
    rank_out: int
    dim_h: int
    valid: bool
    representatives: list[dict[int, Fraction]]  # global cochain coordinates
    rep_weights: list[tuple | None]
    basis: CochainBasis | None = None
    blocks: dict = field(default_factory=dict)


def slice_valid(gm: GradedNilpotent, mod: GradedModule, s: int, k: int) -> bool:
    """Truncation safety: all module degrees touched by C^{s-1..s+1}_k exist."""
    if mod.truncation_bound is None:
        return True
    d = gm.depth
    for sigma in (s - 1, s, s + 1):
        if sigma < 0:
            continue
        lo = k - sigma * d
        hi = k - sigma
        for q in range(lo, hi + 1):
            if q >= mod.min_degree and not mod.complete_at(q):
                return False
    return True


def cohomology(gm: GradedNilpotent, mod: GradedModule, s: int,
               k_range, check_dd: bool = True) -> list[CohomologySlice]:
    """Exact H^s_k slices with deterministic representatives."""
    if isinstance(k_range, int):
        k_range = [k_range]
    out = []
    for k in k_range:
        out.append(_slice(gm, mod, s, k, check_dd))
    return out


def _slice(gm, mod, s, k, check_dd) -> CohomologySlice:
    valid = slice_valid(gm, mod, s, k)
    basis_cur = cochain_basis(gm, mod, s, k)
    if basis_cur.dim == 0:
        return CohomologySlice(s, k, (0, 0, 0), 0, 0, 0, valid, [], [], basis_cur, {})
    basis_prev = cochain_basis(gm, mod, s - 1, k)
    basis_next = cochain_basis(gm, mod, s + 1, k)
    dims = (basis_prev.dim, basis_cur.dim, basis_next.dim)
    try:
        cols_in = differential_columns(gm, mod, basis_prev, basis_cur) if s >= 1 else []
        cols_out = differential_columns(gm, mod, basis_cur, basis_next)
    except TruncationEscape:
        return CohomologySlice(s, k, dims, 0, 0, 0, False, [], [], basis_cur, {})

    blocks: dict = {}
    rank_in_tot = rank_out_tot = dim_h_tot = 0
    reps_global: list[dict[int, Fraction]] = []
    rep_weights: list = []
    in_by_weight: dict = {}
    if s >= 1:
        for j, col in enumerate(cols_in):
            if col:
                in_by_weight.setdefault(basis_prev.weights[j], []).append(col)
    for w in sorted(basis_cur.by_weight, key=lambda x: (x is None, x)):
        idx = basis_cur.by_weight[w]
        nloc = len(idx)
        cols_w = in_by_weight.get(w, [])
        if check_dd:
            for col in cols_w:
                dd: dict = {}
                for g, c in col.items():
                    for tgt, v in cols_out[g].items():
                        acc(dd, tgt, c * v)
                if dd:
                    raise AssertionError(f"d o d != 0 at (s={s}, k={k})")
        in_cols = [[col.get(g, 0) for g in idx] for col in cols_w]
        # outgoing map rows (target coordinate -> row over block columns)
        rows_map: dict = {}
        for li, g in enumerate(idx):
            for tgt, v in cols_out[g].items():
                rows_map.setdefault(tgt, [0] * nloc)[li] = v
        kernel = nullspace([rows_map[t] for t in sorted(rows_map)], nloc)
        rank_out = nloc - len(kernel)
        span = IntSpan(nloc)
        rank_in = sum(span.add(col) for col in in_cols)
        reps_local = [vec for vec in kernel if span.add(vec)]
        dim_h = len(reps_local)
        if dim_h != nloc - rank_out - rank_in:
            raise AssertionError("cohomology dimension bookkeeping failed")
        reps_block = [{i: v for i, v in enumerate(vec) if v != 0} for vec in reps_local]
        blocks[w] = WeightBlock(w, idx, rank_in, rank_out, reps_block, in_cols)
        rank_in_tot += rank_in
        rank_out_tot += rank_out
        dim_h_tot += dim_h
        for vec in reps_local:
            reps_global.append({idx[i]: v for i, v in enumerate(vec) if v != 0})
            rep_weights.append(w)
    return CohomologySlice(s, k, dims, rank_in_tot, rank_out_tot, dim_h_tot,
                           valid, reps_global, rep_weights, basis_cur, blocks)


def full_window(gm: GradedNilpotent, mod: GradedModule, s: int) -> list[int]:
    """All internal degrees k where C^{s-1}, C^s or C^{s+1} is nonzero."""
    degs = sorted(mod.by_degree)
    if not degs:
        return []
    dual_max = -sum(sorted(gm.degrees)[: s + 1])
    lo = degs[0]
    hi = degs[-1] + dual_max
    return list(range(lo, hi + 1))


def euler_characteristic_check(gm: GradedNilpotent, mod: GradedModule, k: int) -> bool:
    """sum_s (-1)^s dim C^s_k = sum_s (-1)^s dim H^s_k for complete finite M."""
    if mod.truncation_bound is not None:
        raise ValueError("Euler characteristic check needs a complete module")
    chi_c = 0
    chi_h = 0
    for s in range(0, gm.dim + 1):
        sl = _slice(gm, mod, s, k, check_dd=False)
        chi_c += (-1) ** s * sl.dim_cochains[1]
        chi_h += (-1) ** s * sl.dim_h
    return chi_c == chi_h
