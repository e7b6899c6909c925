"""The Chevalley-Eilenberg complex of g_- and its exact cohomology slices.

Cochains C^s = Hom(Lambda^s g_-, M) are enumerated as (exterior monomial,
module element) pairs in a fixed deterministic order; a cochain's weight is
its monomial's dual weight, computed once per monomial, plus its module
element's.  The differential includes the Lie term f([v_i, v_j], ...), which
vanishes in the abelian case and recovers the classical Spencer differential
there.  Every slice is computed blockwise per weight (the Cartan action
commutes with d), with an exact d o d = 0 check on each block.  By default
every weight block is built; a weight filter (``cohomology(...,
weights=...)``, e.g. ``decomp.ExtremalWeights``) builds only the blocks it
accepts, on C^{s-1}, C^s and C^{s+1} alike.  A slice stores H once: its
representatives in cochain coordinates, and per weight block the
``IntSpan`` that expresses a cocycle on them modulo coboundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import add

from . import InvariantError
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


def _monomials(gm: GradedNilpotent, s: int):
    """(mono, dual degree, dual weight) of every exterior s-monomial of g_-."""
    cache = getattr(gm, "_mono_cache", None)
    if cache is None:
        cache = {}
        gm._mono_cache = cache
    if s not in cache:
        have_w = gm.dim > 0 and all(w is not None for w in gm.weights)
        zero = (0,) * len(gm.weights[0]) if have_w else None
        out = []
        for mono in combinations(range(gm.dim), s):
            w = zero
            if have_w and mono:
                w = tuple(-sum(col) for col in zip(*(gm.weights[i] for i in mono)))
            out.append((mono, -sum(gm.degrees[i] for i in mono), w))
        cache[s] = out
    return cache[s]


def cochain_basis(gm: GradedNilpotent, mod: GradedModule, s: int, k: int,
                  weights=None) -> CochainBasis:
    """Ordered basis of C^s_k: degree-k maps Lambda^s g_- -> M.

    With a weight filter, only the cochains whose weight it accepts.
    """
    if s < 0:
        return CochainBasis(s, k, [], [])
    elts: list[tuple[tuple[int, ...], int]] = []
    wts: list = []
    # a cochain's weight is its module element's plus its monomial's dual
    # weight, so the pairs are summed once per (monomial weight, module
    # weight) and the filter, a function of the sum, is asked once per sum
    kept: dict = {}
    verdict: dict = {}
    for mono, dual_deg, dual_w in _monomials(gm, s):
        hits = kept.get((dual_deg, dual_w))
        if hits is None:
            hits = []
            for mod_w, ms in mod.by_degree_weight.get(k - dual_deg, {}).items():
                w = None
                if dual_w is not None and mod_w is not None:
                    w = tuple(map(add, mod_w, dual_w))
                if weights is not None:
                    if w not in verdict:
                        verdict[w] = weights(w)
                    if not verdict[w]:
                        continue
                hits.append((w, ms))
            kept[(dual_deg, dual_w)] = hits
        for w, ms in hits:
            elts += [(mono, m) for m in ms]
            wts += [w] * len(ms)
    return CochainBasis(s, k, elts, wts)


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
    idx: list[int]  # local -> global cochain index in C^s_k
    # the coboundary columns, then the cocycle basis, as added by _slice;
    # span.express(v).get(rep_slots[t], 0) is the coordinate of v on the
    # block's t-th representative
    span: IntSpan
    rep_slots: list[int]


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
    # the weight filter the slice was computed on; None: every weight block
    weights: object = None


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
               k_range, weights=None) -> list[CohomologySlice]:
    """Exact H^s_k slices with deterministic representatives.

    ``weights`` is None (every weight block) or a predicate on weight
    tuples (g_- and the module must carry weights): then C^{s-1}, C^s
    and C^{s+1} are enumerated, and their differentials built and reduced,
    only on the weights it accepts.  d preserves weights, so each block
    built is exact; ``dim_h`` then sums the built blocks only.
    """
    if isinstance(k_range, int):
        k_range = [k_range]
    out = []
    for k in k_range:
        out.append(_slice(gm, mod, s, k, weights))
    return out


def _slice(gm, mod, s, k, weights=None) -> CohomologySlice:
    valid = slice_valid(gm, mod, s, k)
    basis_cur = cochain_basis(gm, mod, s, k, weights)
    if basis_cur.dim == 0:
        return CohomologySlice(s, k, (0, 0, 0), 0, 0, 0, valid, [], [], basis_cur, {}, weights)
    basis_prev = cochain_basis(gm, mod, s - 1, k, weights)
    basis_next = cochain_basis(gm, mod, s + 1, k, weights)
    dims = (basis_prev.dim, basis_cur.dim, basis_next.dim)
    try:
        cols_in = differential_columns(gm, mod, basis_prev, basis_cur) if s >= 1 else []
        cols_out = differential_columns(gm, mod, basis_cur, basis_next)
    except TruncationEscape:
        return CohomologySlice(s, k, dims, 0, 0, 0, False, [], [], basis_cur, {}, weights)

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
        for col in cols_w:
            dd: dict = {}
            for g, c in col.items():
                for tgt, v in cols_out[g].items():
                    acc(dd, tgt, c * v)
            if dd:
                raise InvariantError(f"d o d != 0 at (s={s}, k={k})")
        local = {g: i for i, g in enumerate(idx)}
        kernel = nullspace([cols_out[g] for g in idx])
        rank_out = nloc - len(kernel)
        span = IntSpan()
        rank_in = sum(span.add({local[g]: v for g, v in col.items()}) for col in cols_w)
        kept = [(len(cols_w) + j, vec) for j, vec in enumerate(kernel) if span.add(vec)]
        reps_local = [vec for _, vec in kept]
        dim_h = len(reps_local)
        if dim_h != nloc - rank_out - rank_in:
            raise InvariantError("cohomology dimension bookkeeping failed")
        blocks[w] = WeightBlock(idx, span, [slot for slot, _ in kept])
        rank_in_tot += rank_in
        rank_out_tot += rank_out
        dim_h_tot += dim_h
        for vec in reps_local:
            reps_global.append({idx[i]: v for i, v in vec.items()})
            rep_weights.append(w)
    return CohomologySlice(s, k, dims, rank_in_tot, rank_out_tot, dim_h_tot,
                           valid, reps_global, rep_weights, basis_cur, blocks, weights)


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
        sl = _slice(gm, mod, s, k)
        chi_c += (-1) ** s * sl.dim_cochains[1]
        chi_h += (-1) ** s * sl.dim_h
    return chi_c == chi_h
