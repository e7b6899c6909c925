"""The Chevalley-Eilenberg complex of g_- and its exact cohomology slices.

Cochains C^s = Hom(Lambda^s g_-, M) are enumerated as (exterior monomial,
module element) pairs in a fixed deterministic order; a cochain's weight is
its monomial's dual weight, computed once per monomial, plus its module
element's.  The differential includes the Lie term f([v_i, v_j], ...), which
vanishes in the abelian case and recovers the classical Spencer differential
there.  Every slice is computed blockwise per weight (the Cartan action
commutes with d), with an exact d o d = 0 check on each block.  A block
keeps dim H = dim C^s_mu - rank d_out - rank d_in and, where H is nonzero,
its d columns.  By default every weight block is built; with ``weights``, a
``decomp.ExtremalWeights``, only the Levi-extremal ones, on which ``decomp``
reads each multiplicity as dim H of the subcomplex of n-invariants
(Hochschild-Serre; see its docstring).

The extremal cochains are picked by a mask join, not by a test per cochain.
A weight w is extremal iff ``signed(w)`` is >= 0 at every Levi node, and
``signed`` is linear, so the cochains of dual weight v and module weight u
are kept iff signed(u)_i >= -signed(v)_i at each node i.  For each module
degree, node i and value t that signed(u)_i takes there, one integer bitmask
holds the degree's module weights with signed(u)_i >= t (bit b for its b-th
weight).  Each distinct (dual degree, dual weight) ANDs one mask per node,
and only the weights whose bits survive are summed, in ascending bit order,
so the basis is the unfiltered one restricted to the extremal weights,
element for element and in the same order.  Without ``weights`` the mask
is all ones.

Only C^{s-1}_k and C^s_k are enumerated: the rows of d: C^s -> C^{s+1} are
its target cochains, numbered as d first reaches them.  None is lost.
``GradedModule`` checks that the action and the g_- bracket add degrees and
weights, so the action term (e_I, m) -> (e_I ^ a, a . m) and the Lie term,
which trades a slot c for a, b with [a, b] in c's degree and weight, keep
the internal degree k and the weight: every target of d lies in the window
of its source, filtered or not.  The pivots mod 2 and over Q (``linalg``)
do not depend on the row labels or order, and the d o d check
only asks for an empty result, so each slice equals the one on an
enumerated C^{s+1}_k.

Each entry of a column of d is assigned once, never summed.  On (mono, m)
the action term reaches (mono with a inserted, m2) for each a with
a . m != 0 and each m2 in a . m: distinct a give distinct monomials, so
these targets are distinct.  The Lie terms are summed per monomial first
and reach (mono', m), while deg m2 = deg a + deg m < deg m because
``GradedModule`` checks that every g_- degree is negative: no action target
is a Lie target.  It also rejects an action entry stored as 0, so no
assigned entry is 0.

Ranks are exact over Q wherever the mod-2 bound is open.  A block's d_out and
d_in are first screened mod 2 (``linalg.pivots_mod_2``): its pivots below p
count r_2(p), the rank mod 2 of the first p columns.  For an integer matrix
rank_2 <= rank_Q: every minor is an integer, and one that is odd is
nonzero.  A column that holds a ``Fraction`` (only the tests' reference
modules have one) is scaled to integers first, and scaling a column by a
nonzero rational changes the rank over Q of no prefix.  The d o d check
gives rank_Q d_out + rank_Q d_in <= n = dim C^s_mu, so

    n - r_2(d_out) - r_2(d_in) >= n - rank_Q d_out - rank_Q d_in = dim H >= 0,

and where the left side is 0 both ranks are exact and H = 0.  A block where
it is not 0, for the module or for the submodule below (whose complex is a
subcomplex, so the same bound holds on its leading columns), reads its
ranks off the pivots over Q of d_out and d_in (``linalg.pivots``: the
pivots mod P where Hadamard's bound closes, the certified kernel's
otherwise); every block with H != 0 is one of these.

A submodule N spanned by module basis elements (``cohomology(..., sub=...)``
with the indices ``GradedModule.submodule`` checks the action and the actors
map into themselves) gives the subcomplex of N-valued cochains: by the
additivity above, d and every actor map an N-valued cochain to N-valued
ones.  So N's block at (k, mu) is the N-valued part of the module's, and
each of the module's blocks lists its N-valued cochains first, and its
nonzero d_in columns from N-valued cochains first: N's d_out and d_in are
the leading columns of the module's.  The pivots mod 2 and over Q each
give the rank of any leading columns (``linalg``), so one screen, and one
``pivots``, of d_out and of d_in give both modules' ranks, bit for bit.
The module's d o d check covers N's columns; dim H >= 0 is checked on N's
blocks too.  N's blocks keep their leading columns where its H is nonzero
and index the module's cochain basis, so ``decomp`` reads them with the
module's actors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import combinations
from operator import add
from typing import TYPE_CHECKING

from . import InvariantError
from .linalg import acc, pivots, pivots_mod_2
from .liealg import GradedNilpotent
from .gmod import GradedModule

if TYPE_CHECKING:
    from .decomp import ExtremalWeights


@dataclass
class CochainBasis:
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
    cache = gm.__dict__.setdefault("_mono_cache", {})
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
                  weights: ExtremalWeights | None = None) -> CochainBasis:
    """Ordered basis of C^s_k: degree-k maps Lambda^s g_- -> M.

    With ``weights``, only the cochains on its extremal weights, picked by
    the mask join of the module docstring.
    """
    if s < 0:
        return CochainBasis([], [])
    elts: list[tuple[tuple[int, ...], int]] = []
    wts: list = []
    # a cochain's weight is its module element's plus its monomial's dual
    # weight, so the module weights each (dual degree, dual weight) keeps are
    # found once, as the bits of one mask
    kept: dict = {}
    # per module degree, its (weight, elements) pairs and their masks, built
    # once per module and filter; ``weights.signed`` of each dual weight, once
    # per g_- and filter
    tables = mod.__dict__.setdefault("_mask_cache", {}).setdefault(weights, {})
    signed = gm.__dict__.setdefault("_signed_cache", {}).setdefault(weights, {})
    for mono, dual_deg, dual_w in _monomials(gm, s):
        q = k - dual_deg
        if q not in mod.by_degree:
            continue
        hits = kept.get((dual_deg, dual_w))
        if hits is None:
            if q not in tables:
                tables[q] = _masks(mod.by_degree_weight[q], weights)
            items, masks = tables[q]
            bits = (1 << len(items)) - 1
            if weights is not None:
                if dual_w not in signed:
                    signed[dual_w] = weights.signed(dual_w)
                for (vals, at_least), t in zip(masks, signed[dual_w]):
                    bits &= at_least[bisect_left(vals, -t)]
                    if not bits:
                        break
            hits = []
            while bits:
                low = bits & -bits
                bits ^= low
                mod_w, ms = items[low.bit_length() - 1]
                w = None
                if dual_w is not None and mod_w is not None:
                    w = tuple(map(add, mod_w, dual_w))
                hits.append((w, ms))
            kept[(dual_deg, dual_w)] = hits
        for w, ms in hits:
            elts += [(mono, m) for m in ms]
            wts += [w] * len(ms)
    return CochainBasis(elts, wts)


def _masks(by_weight: dict, weights: ExtremalWeights | None):
    """The (module weight, elements) pairs of one degree, bit b for pair b, and
    per Levi position (the ascending values of ``weights.signed`` there, the
    mask of the pairs at least each value, then 0 for any larger threshold)."""
    items = list(by_weight.items())
    masks = []
    if weights is not None:
        for col in zip(*(weights.signed(w) for w, _ in items)):
            vals = sorted(set(col))
            at_least = [0] * (len(vals) + 1)
            for b, v in enumerate(col):
                at_least[bisect_left(vals, v)] |= 1 << b
            for j in range(len(vals) - 1, -1, -1):
                at_least[j] |= at_least[j + 1]
            masks.append((vals, at_least))
    return items, masks


def _reverse_bracket(gm: GradedNilpotent) -> dict[int, list[tuple[int, int, int]]]:
    if "_rev_bracket" not in gm.__dict__:
        out: dict[int, list[tuple[int, int, int]]] = {}
        for (a, b), res in sorted(gm.bracket_table.items()):
            for c, v in res.items():
                if v != 0:
                    out.setdefault(c, []).append((a, b, v))
        gm._rev_bracket = out
    return gm._rev_bracket


def differential_columns(gm: GradedNilpotent, mod: GradedModule, src: CochainBasis,
                         rows: dict) -> list[dict]:
    """d: C^s_k -> C^{s+1}_k as per-column sparse dictionaries.

    A target cochain (mono, m) is row ``rows[(mono, m)]``; a target not yet
    in ``rows`` is added to it as the next row, in the order d first reaches
    it.  Each monomial's insertions and Lie terms are computed once per call,
    and the a acting on m are read from ``mod.acting``.  No two terms of one
    column share a target (module docstring), so each entry is assigned.
    """
    rev = _reverse_bracket(gm)
    cols: list[dict] = []
    cur = None
    for mono, m in src.elts:
        if mono is not cur:
            cur, mono_set = mono, set(mono)
            ins: dict = {}  # a -> (sign, mono with a inserted)
            # Lie term: replace one argument c by a bracket pair (a, b)
            lie: dict = {}  # new mono -> coefficient
            for ci, c in enumerate(mono):
                rest = mono_set - {c}
                for a, b, coef in rev.get(c, ()):
                    if a in rest or b in rest:
                        continue
                    new_mono = tuple(sorted(rest | {a, b}))
                    acc(lie, new_mono, (-1) ** (new_mono.index(a) + new_mono.index(b) + ci) * coef)
        col: dict = {}
        # action term: insert a new argument slot a
        for a, outs in mod.acting[m]:
            if a in mono_set:
                continue
            hit = ins.get(a)
            if hit is None:
                t = bisect_left(mono, a)
                hit = ins[a] = ((-1) ** t, mono[:t] + (a,) + mono[t:])
            sign, new_mono = hit
            for m2, v in outs.items():
                col[rows.setdefault((new_mono, m2), len(rows))] = sign * v
        for new_mono, coef in lie.items():
            col[rows.setdefault((new_mono, m), len(rows))] = coef
        cols.append(col)
    return cols


@dataclass
class WeightBlock:
    idx: list[int]  # local -> global cochain index in C^s_k
    d_in: list[dict]  # nonzero columns of d into the block, local rows; [] if dim_h = 0
    d_out: list[dict]  # d on the block's cochains, local order; [] if dim_h = 0
    rank_in: int
    dim_h: int


@dataclass
class CohomologySlice:
    s: int
    k: int
    dim_cochains: tuple[int, int]  # (dim C^{s-1}_k, dim C^s_k), as built
    rank_in: int
    rank_out: int
    dim_h: int
    valid: bool
    basis: CochainBasis | None = None
    blocks: dict = field(default_factory=dict)
    # the extremal weights the slice was computed on; None: every weight block
    weights: ExtremalWeights | None = None
    # with ``cohomology(..., sub=...)``: the submodule's slice, its blocks on this basis
    sub: CohomologySlice | None = None


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


def cohomology(gm: GradedNilpotent, mod: GradedModule, s: int, k_range,
               weights: ExtremalWeights | None = None, sub=None) -> list[CohomologySlice]:
    """Exact H^s_k slices, blockwise per weight.

    Only C^{s-1}_k and C^s_k are enumerated (see the module docstring).
    ``weights`` is None (every weight block) or an ``ExtremalWeights`` (g_-
    and the module must carry weights): then both are enumerated, and their
    differentials built and reduced, only on its extremal weights.  d
    preserves weights, so each block built is exact; ``dim_h`` then sums the
    built blocks only.  ``sub`` is None or a set of module indices from
    ``GradedModule.submodule``: each slice then also carries, as ``.sub``,
    the same slice of the submodule they span, read off the module's blocks
    (module docstring).
    """
    ks = [k_range] if isinstance(k_range, int) else k_range
    return [_slice(gm, mod, s, k, weights, sub) for k in ks]


def _ranks(d_out: list[dict], d_in: list[dict], prefixes) -> list[tuple[int, int]]:
    """(rank of the first n columns of d_out, of the first m of d_in) per (n, m) in
    ``prefixes``, d o d = 0 checked.  A rank mod 2 is at most rank_Q, so
    n - r_2(out) - r_2(in) >= dim H >= 0, and where it is 0 for every prefix those
    ranks are exact (module docstring); elsewhere they are read off the exact pivots."""
    piv_out, piv_in = pivots_mod_2(d_out), pivots_mod_2(d_in)
    ranks = [(bisect_left(piv_out, n), bisect_left(piv_in, m)) for n, m in prefixes]
    if not any(n - r_out - r_in for (n, _), (r_out, r_in) in zip(prefixes, ranks)):
        return ranks
    piv_out, piv_in = pivots(d_out), pivots(d_in)
    return [(bisect_left(piv_out, n), bisect_left(piv_in, m)) for n, m in prefixes]


def _slice(gm, mod, s, k, weights=None, sub=None) -> CohomologySlice:
    valid = slice_valid(gm, mod, s, k)
    basis_cur = cochain_basis(gm, mod, s, k, weights)
    if basis_cur.dim == 0:
        sl = CohomologySlice(s, k, (0, 0), 0, 0, 0, valid, basis_cur, {}, weights)
        if sub is not None:
            sl.sub = replace(sl, blocks={})
        return sl
    basis_prev = cochain_basis(gm, mod, s - 1, k, weights)
    pos = dict(basis_cur.pos)
    cols_in = differential_columns(gm, mod, basis_prev, pos)
    if len(pos) != basis_cur.dim:
        raise InvariantError(f"d left C^{s}_{k}: an action or bracket is not additive")
    cols_out = differential_columns(gm, mod, basis_cur, {})

    # each block lists its sub-valued cochains first, and its nonzero d_in
    # columns from sub-valued cochains first; without ``sub`` there are none
    in_sub = frozenset() if sub is None else sub
    in_by_weight: dict = {}
    for j, col in enumerate(cols_in):
        if col:
            from_sub, rest = in_by_weight.setdefault(basis_prev.weights[j], ([], []))
            (from_sub if basis_prev.elts[j][1] in in_sub else rest).append(col)
    blocks: tuple[dict, dict] = ({}, {})  # the module's, the submodule's
    rank_out = [0, 0]
    for w in sorted(basis_cur.by_weight, key=lambda x: (x is None, x)):
        idx = basis_cur.by_weight[w]
        head = [g for g in idx if basis_cur.elts[g][1] in in_sub] if in_sub else []
        if head:
            idx = head + [g for g in idx if basis_cur.elts[g][1] not in in_sub]
        local = {g: i for i, g in enumerate(idx)}
        from_sub, rest = in_by_weight.get(w, ((), ()))
        d_in = [{local[g]: v for g, v in col.items()} for col in (*from_sub, *rest)]
        d_out = [cols_out[g] for g in idx]
        for col in d_in:
            dd: dict = {}
            for i, c in col.items():
                for tgt, v in d_out[i].items():
                    dd[tgt] = dd.get(tgt, 0) + c * v
            if any(dd.values()):
                raise InvariantError(f"d o d != 0 at (s={s}, k={k})")
        # (columns of d_out, of d_in) of the module, then of the submodule
        prefixes = [(len(idx), len(d_in))]
        if head:
            prefixes.append((len(head), len(from_sub)))
        ranks = _ranks(d_out, d_in, prefixes)
        for t, ((n, m), (r_out, r_in)) in enumerate(zip(prefixes, ranks)):
            # B <= Z: d o d = 0 makes r_in <= dim ker d_out
            dim_h = n - r_out - r_in
            if dim_h < 0:
                raise InvariantError("cohomology dimension bookkeeping failed")
            # no multiplicity is read where dim H = 0, so no columns are kept
            blocks[t][w] = WeightBlock(idx[:n], d_in[:m] if dim_h else [],
                                       d_out[:n] if dim_h else [], r_in, dim_h)
            rank_out[t] += r_out

    def assembled(t, dims):
        return CohomologySlice(s, k, dims, sum(b.rank_in for b in blocks[t].values()),
                               rank_out[t], sum(b.dim_h for b in blocks[t].values()), valid,
                               basis_cur, blocks[t], weights)

    sl = assembled(0, (basis_prev.dim, basis_cur.dim))
    if sub is not None:
        count = lambda basis: sum(1 for _, m in basis.elts if m in sub)
        sl.sub = assembled(1, (count(basis_prev), count(basis_cur)))
    return sl


def full_window(gm: GradedNilpotent, mod: GradedModule, s: int) -> list[int]:
    """All internal degrees k where C^{s-1}, C^s or C^{s+1} is nonzero."""
    degs = sorted(mod.by_degree)
    if not degs:
        return []
    dual_max = -sum(sorted(gm.degrees)[: s + 1])
    lo = degs[0]
    hi = degs[-1] + dual_max
    return list(range(lo, hi + 1))

