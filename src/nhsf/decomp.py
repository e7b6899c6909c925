"""Decomposition of cohomology slices into irreducible Levi constituents.

The module's actors (the raising and lowering generators of the Levi
semisimple part l1, or of any reductive g_0 packaged the same way) act on
C^s = Hom(Lambda^s g_-, M) commuting with d (``gmod`` checks why).  Each
C^s_k is finite-dimensional, hence a semisimple l1-module (Weyl's theorem;
Humphreys, Introduction to Lie Algebras, Sec. 6.3), so taking n-invariants
of weight mu is exact: H^{n-}_mu = Z^{n-}_mu / B^{n-}_mu (Hochschild-Serre,
Ann. Math. 57 (1953)), and its dimension is the multiplicity m(mu) of the
irreducible with extremal weight mu (n- spanned by the lowering actors for
Lowest, n+ by the raising ones for Highest).  Let F stack those actors on
cochains (``actor_columns``; its rows are keyed (actor, mono, m) as they
are reached, so no cochain of another weight is enumerated), d_out be d on
C^s_mu and d_in the coboundary columns into it.  Then

    m(mu) = dim ker[d_out ; F] - dim ker(F o d_in) + dim ker(d_in):

the first term is dim Z^{n-}_mu, and B^{n-}_mu = B_mu cap ker F is the
image under d_in of ker(F o d_in), which contains ker(d_in).  All three are
``linalg.nullspace`` counts.

``ExtremalWeights`` names the Levi and the extremal kind; as the weight
filter of ``cohom.cohomology`` it keeps the Levi-antidominant (Lowest) or
-dominant (Highest) weights, the only ones m(mu) is read on.  ``decompose``
takes a slice on that filter or one with every weight block, and checks one
identity on every block built: dim H_lam = sum_mu m(mu) mult_{L(mu)}(lam),
read at the extremal weight of lam's Levi Weyl orbit, with Freudenthal's
multiplicities (``rootsys.dominant_multiplicities``).  H's character is
Levi-Weyl invariant and fixed by its extremal weights, so the identity holds
exactly when the summands' characters add up to H's; on a slice with every
block it implies sum_mu m(mu) dim L(mu) = dim H.  w0 of the Levi maps the
highest weight of L(mu) to its lowest (``ExtremalWeights.relabel``), so each
H is decomposed once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import InvariantError
from .linalg import acc, nullspace
from .gmod import GradedModule
from .cohom import CohomologySlice, WeightBlock
from .rootsys import RootSystem, _weyl_product, dominant_multiplicities, to_root

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
    extremal weights: Levi-dominant for Highest, Levi-antidominant for Lowest.
    """

    rs: RootSystem
    unselected: tuple[int, ...]  # 1-based Levi nodes
    kind: str

    def signed(self, w) -> list:
        """w at the Levi nodes, negated for Lowest: extremal iff all >= 0.  Linear in w."""
        if self.kind == HIGHEST:
            return [w[j - 1] for j in self.unselected]
        return [-w[j - 1] for j in self.unselected]

    def __call__(self, w) -> bool:
        return min(self.signed(w), default=0) >= 0

    def to_extremal(self, w) -> tuple:
        """The extremal weight in w's orbit under the Levi Weyl group."""
        a = self.rs.cartan_matrix
        w = list(w)
        v = self.signed(w)
        while min(v, default=0) < 0:
            j = self.unselected[v.index(min(v))] - 1
            c = w[j]
            w = [x - c * a[i][j] for i, x in enumerate(w)]
            v = self.signed(w)
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
        return IrreducibleSummand(w, to_root(self.rs, w), self.kind, s, degree, multiplicity)

    def relabel(self, summands: list[IrreducibleSummand]) -> list[IrreducibleSummand]:
        """The same summands, each named by its extremal weight of this kind.

        w0 of the Levi maps the highest weight of L(mu) to its lowest and back.
        """
        return [self.summand(self.to_extremal(sm.weight_cm), sm.s, sm.degree, sm.multiplicity)
                for sm in summands]


def actor_columns(mod: GradedModule, actors: list[int], elts) -> list[dict]:
    """F on the cochains ``elts``: one column per (mono, m), rows keyed (t, mono, m).

    Actor t acts on e^mono (x) m as a derivation: on m by ``on_module``, on
    each slot by xi . e^i = -sum_j (xi e_j)_i e^j (``mod.actor_duals[t]``).
    """
    cols = []
    for mono, m in elts:
        col: dict = {}
        for t in actors:
            for m2, v in mod.actors[t].on_module.get(m, {}).items():
                acc(col, (t, mono, m2), v)
            dual = mod.actor_duals[t]
            for p, i in enumerate(mono):
                for j, c in dual.get(i, ()):
                    if j != i and j in mono:
                        continue
                    new = tuple(sorted(mono[:p] + (j,) + mono[p + 1:]))
                    acc(col, (t, new, m), (-1) ** (new.index(j) + p + 1) * c)
        cols.append(col)
    return cols


def _multiplicity(block: WeightBlock, basis, mod: GradedModule, actors: list[int]) -> int:
    """m(mu) = dim ker[d_out ; F] - dim ker(F o d_in) + dim ker(d_in) (module docstring)."""
    f = actor_columns(mod, actors, [basis.elts[g] for g in block.idx])
    z = len(nullspace([{**d, **fi} for d, fi in zip(block.d_out, f)]))
    f_in = []
    for col in block.d_in:
        img: dict = {}
        for i, c in col.items():
            for key, v in f[i].items():
                acc(img, key, c * v)
        f_in.append(img)
    return z - len(nullspace(f_in)) + len(block.d_in) - block.rank_in


def decompose(slices: list[CohomologySlice], mod: GradedModule,
              flt: ExtremalWeights) -> list[IrreducibleSummand]:
    """The Levi summands of each slice, named by their ``flt.kind`` extremal weight.

    A slice holds every weight block or was computed on ``flt``; either way
    each multiplicity is read on an extremal block and the local identity
    is checked on every block the slice built.
    """
    want = "lower" if flt.kind == LOWEST else "raise"
    actors = [t for t, a in enumerate(mod.actors) if a.kind == want]
    out: list[IrreducibleSummand] = []
    for sl in slices:
        if not sl.valid:
            raise InvariantError(f"slice (s={sl.s}, k={sl.k}) is not valid")
        if sl.weights not in (None, flt):
            raise InvariantError(f"slice (s={sl.s}, k={sl.k}) was not computed on the "
                                 f"{flt.kind} extremal weights")
        counts: Counter = Counter()
        for w, block in sl.blocks.items():
            if block.dim_h and flt(w):
                m = _multiplicity(block, sl.basis, mod, actors)
                if not 0 <= m <= block.dim_h:
                    raise DecompositionError(f"multiplicity {m} at {w} is not in 0..dim H")
                if m:
                    counts[w] = m
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
        have = sl.blocks[lam].dim_h if lam in sl.blocks else 0
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
