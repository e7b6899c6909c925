"""Chevalley bases with integer structure constants and Z-gradings.

Signs are fixed by choosing +(p+1) on extraspecial pairs under the root
order of :mod:`nhsf.rootsys`; all remaining constants follow from the
triple rule N(a,b)/(c,c) = N(b,c)/(a,a) (a+b+c=0) and one quadruple Jacobi
relation.  Root norms are the integers of ``RootSystem.norm2``; every
division by a norm is exact and checked, and a remainder raises
ChevalleyError.  The full table is Jacobi-verified at build time: a
violation is a sign bug in this module, never user error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, sub

from . import InputError, InvariantError
from .linalg import Q, SparseMat, acc, nullspace
from .rootsys import RootSystem, build_root_system

Element = dict[int, int | Fraction]  # basis index -> coefficient


class ChevalleyError(InvariantError):
    pass


@dataclass(frozen=True)
class GradingSpec:
    """Degrees of the raising Chevalley generators X_i^+ (one per node)."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.degrees):
            raise InputError("only parabolic gradings (all degrees >= 0) are supported")
        if all(d == 0 for d in self.degrees):
            raise InputError("grading must have at least one positive degree")

    @classmethod
    def from_nodes(cls, rank: int, nodes) -> "GradingSpec":
        """The grading that puts the selected 1-based ``nodes`` in degree 1."""
        nodes = list(nodes)
        bad = [n for n in nodes if not 1 <= n <= rank]
        if bad:
            raise InputError(f"nodes {bad} lie outside 1..{rank}")
        if len(set(nodes)) != len(nodes):
            raise InputError(f"nodes {nodes} repeat a node")
        return cls(tuple(1 if i + 1 in set(nodes) else 0 for i in range(rank)))

    @property
    def selected_nodes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, d in enumerate(self.degrees) if d > 0)


@dataclass
class BasisLabel:
    kind: str  # "h" | "x" | "y"
    index: int  # Cartan node (0-based) or positive-root index
    weight: tuple[int, ...]  # coroot coordinates
    degree: int


class ZGradedLieAlgebra:
    """A simple Lie algebra in a Chevalley basis, with a Z-grading."""

    def __init__(self, rs: RootSystem, n_table, grading: GradingSpec | None = None):
        self.rs = rs
        self._n = n_table
        self.rank = rs.rank
        roots = rs.positive_roots
        self.dim = rs.rank + 2 * len(roots)
        self.grading = grading
        self.basis: list[BasisLabel] = []
        for i in range(rs.rank):
            self.basis.append(BasisLabel("h", i, (0,) * rs.rank, 0))
        for k, beta in enumerate(roots):
            self.basis.append(BasisLabel("x", k, rs.root_coroot_coords(beta), self.root_degree(beta)))
        for k, beta in enumerate(roots):
            w = rs.root_coroot_coords(beta)
            self.basis.append(BasisLabel("y", k, tuple(-c for c in w), -self.root_degree(beta)))
        self.dims_by_degree: dict[int, int] = {}
        for lab in self.basis:
            self.dims_by_degree[lab.degree] = self.dims_by_degree.get(lab.degree, 0) + 1
        self.depth = max((-d for d in self.dims_by_degree if d < 0), default=0)
        self._bracket_cache: dict[tuple[int, int], Element] = {}

    # -- index helpers ----------------------------------------------------

    def h_index(self, i: int) -> int:
        return i

    def x_index(self, k: int) -> int:
        return self.rank + k

    def y_index(self, k: int) -> int:
        return self.rank + len(self.rs.positive_roots) + k

    def root_degree(self, beta) -> int:
        if self.grading is None:
            return 0
        return sum(d * b for d, b in zip(self.grading.degrees, beta))

    def root_of(self, idx: int):
        """Signed root of a root-vector basis element, in simple-root coords."""
        lab = self.basis[idx]
        beta = self.rs.positive_roots[lab.index]
        return beta if lab.kind == "x" else tuple(-c for c in beta)

    # -- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Element:
        if i == j:
            return {}
        if i > j:
            return {k: -v for k, v in self.bracket_basis(j, i).items()}
        key = (i, j)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        out = self._bracket_basis_raw(i, j)
        self._bracket_cache[key] = out
        return out

    def _bracket_basis_raw(self, i: int, j: int) -> Element:
        a, b = self.basis[i], self.basis[j]
        rs = self.rs
        if a.kind == "h" and b.kind == "h":
            return {}
        if a.kind == "h":
            beta = self.root_of(j)
            c = rs.pair_with_coroot(beta, a.index)
            return {j: c} if c else {}
        if b.kind == "h":
            return {k: -v for k, v in self._bracket_basis_raw(j, i).items()}
        alpha, beta = self.root_of(i), self.root_of(j)
        ssum = tuple(x + y for x, y in zip(alpha, beta))
        if all(c == 0 for c in ssum):
            # [x_beta, y_beta] = h_{beta^vee}
            sign = 1 if a.kind == "x" else -1
            pos = alpha if a.kind == "x" else beta
            out: Element = {}
            for node, c in enumerate(self._coroot_coeffs(pos)):
                if c:
                    out[self.h_index(node)] = sign * c
            return out
        n = self._n(alpha, beta)
        if n == 0:
            return {}
        if min(ssum) >= 0:  # ssum != 0 here
            return {self.x_index(rs.root_index[ssum]): n}
        return {self.y_index(rs.root_index[_neg(ssum)]): n}

    def _coroot_coeffs(self, beta) -> list[int]:
        """beta^vee = sum c_i alpha_i^vee, c_i = 2 beta_i d_i / (beta, beta), integers."""
        rs = self.rs
        n2 = rs.norm2(beta)
        out = []
        for b, d in zip(beta, rs.symmetrizer):
            c, r = divmod(2 * b * d, n2)
            if r:
                raise ChevalleyError(f"non-integer coroot coefficient for {beta}")
            out.append(c)
        return out

    def restricted_ad(self, i: int, sub: list[int]) -> SparseMat:
        """ad(i) on span(sub), with rows and columns in sub's order.

        Raises InvariantError when ad(i) maps span(sub) outside itself.
        """
        pos = {amb: k for k, amb in enumerate(sub)}
        out: SparseMat = {}
        for col, amb in enumerate(sub):
            br = self.bracket_basis(i, amb)
            if br:
                if not br.keys() <= pos.keys():
                    raise InvariantError(f"span of {len(sub)} basis elements is not "
                                         f"closed under ad of basis element {i}")
                out[col] = {pos[m]: v for m, v in br.items()}
        return out

    def bracket(self, u: Element, v: Element) -> Element:
        out: Element = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, ck in self.bracket_basis(i, j).items():
                    acc(out, k, ci * cj * ck)
        return out

    # -- verification -------------------------------------------------------

    def verify_jacobi(self) -> None:
        """Check the Jacobi identity exactly on every basis triple.

        First, in O(n^2): every [e_i, e_j] lies in the weight wt(i) + wt(j).
        Then every term of the Jacobi sum of (i, j, k) lies in the weight
        wt(i) + wt(j) + wt(k), and g has no basis element there unless that
        weight is a root or 0.  So only those triples i < j < k are summed,
        with k read from a weight -> indices index; the others vanish by
        construction.  Each [e_i, e_j] is read once through ``bracket_basis``
        into a both-orders table.  Raises ChevalleyError on the first failure.
        """
        n = self.dim
        name = self.rs.spec.name
        br: list[list[tuple]] = [[()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                bij = self.bracket_basis(i, j)
                br[i][j], br[j][i] = tuple(bij.items()), tuple((m, -v) for m, v in bij.items())
        wt = [lab.weight for lab in self.basis]
        by_weight: dict[tuple, list[int]] = {}
        for k, w in enumerate(wt):
            by_weight.setdefault(w, []).append(k)
        # completing[s]: the k, ascending, with s + wt(k) a weight of g
        completing: dict[tuple, list[int]] = {}
        for t in by_weight:
            for w, ks in by_weight.items():
                completing.setdefault(tuple(map(sub, t, w)), []).extend(ks)
        for ks in completing.values():
            ks.sort()
        for i in range(n):
            for j in range(i + 1, n):
                s = tuple(map(add, wt[i], wt[j]))
                if any(wt[m] != s for m, _ in br[i][j]):
                    raise ChevalleyError(f"bracket of basis pair ({i},{j}) of {name} "
                                         f"leaves the weight {s}")
        for i in range(n):
            bi = br[i]
            for j in range(i + 1, n):
                bij, bj = bi[j], br[j]
                ks = completing.get(tuple(map(add, wt[i], wt[j])), [])
                for k in ks[bisect_right(ks, j):]:
                    # [[i,j],k] + [[j,k],i] + [[k,i],j]
                    total: dict[int, int] = {}
                    for first, last in ((bij, k), (bj[k], i), (br[k][i], j)):
                        for m, c in first:
                            for p, v in br[m][last]:
                                total[p] = total.get(p, 0) + c * v
                    if any(total.values()):
                        raise ChevalleyError(f"Jacobi fails on basis triple ({i},{j},{k}) of {name}")


def _root_string_p(rs: RootSystem, alpha, beta) -> int:
    """max k with beta - k*alpha a root (alpha, beta roots, any sign)."""
    p = 0
    cur = tuple(b - a for a, b in zip(alpha, beta))
    while rs.is_root(cur) and any(c != 0 for c in cur):
        p += 1
        cur = tuple(c - a for a, c in zip(alpha, cur))
    return p


class _ConstantTable:
    """N(alpha,beta) for all signed roots, built from extraspecial pairs."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos: dict[tuple, int] = {}  # (alpha,beta) positive pairs, alpha<beta
        self._build()

    def _order(self, beta) -> int:
        return self.rs.root_index[beta]

    def _build(self):
        rs = self.rs
        for gamma in rs.positive_roots:
            if sum(gamma) == 1:
                continue
            pairs = []
            for alpha in rs.positive_roots:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if min(beta) >= 0 and beta in rs.root_index and self._order(alpha) < self._order(beta):
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda ab: self._order(ab[0]))
            a1, b1 = pairs[0]  # extraspecial
            self.pos[(a1, b1)] = _root_string_p(rs, a1, b1) + 1
            for alpha, beta in pairs[1:]:
                self.pos[(alpha, beta)] = self._special(alpha, beta, a1, b1)

    def _special(self, alpha, beta, a1, b1) -> int:
        """Non-extraspecial constant from the quadruple Jacobi relation."""
        rs = self.rs
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        t = Q(0)
        diff1 = tuple(b - a for b, a in zip(beta, a1))
        if rs.is_root(diff1):
            t += Q(self(beta, _neg(a1)) * self(alpha, _neg(b1)), rs.norm2(diff1))
        diff2 = tuple(b - a for b, a in zip(alpha, a1))
        if rs.is_root(diff2):
            t += Q(self(_neg(a1), alpha) * self(beta, _neg(b1)), rs.norm2(diff2))
        val = rs.norm2(gamma) * t / self.pos[(a1, b1)]
        if val.denominator != 1:
            raise ChevalleyError(f"non-integer constant for pair {alpha},{beta}")
        return int(val)

    def __call__(self, alpha, beta) -> int:
        """N(alpha, beta) for signed roots with alpha+beta a root."""
        rs = self.rs
        asum = tuple(x + y for x, y in zip(alpha, beta))
        if not rs.is_root(asum):  # 0 is not a root
            return 0
        pa, pb = min(alpha) >= 0, min(beta) >= 0
        if pa and pb:
            if self._order(alpha) < self._order(beta):
                return self.pos[(alpha, beta)]
            return -self.pos[(beta, alpha)]
        if not pa and not pb:
            return -self(_neg(alpha), _neg(beta))
        if not pa:
            return -self(beta, alpha)
        # alpha > 0 > beta
        eta = _neg(beta)
        diff = tuple(a - e for a, e in zip(alpha, eta))
        if min(diff) >= 0:
            # zeta = alpha - eta > 0; triple (alpha, -eta, -zeta)
            zeta = diff
            val, r = divmod(-rs.norm2(zeta) * self(eta, zeta), rs.norm2(alpha))
        else:
            # zeta = eta - alpha > 0; triple (alpha, -eta, zeta)
            zeta = _neg(diff)
            val, r = divmod(rs.norm2(zeta) * self(zeta, alpha), rs.norm2(eta))
        if r:
            raise ChevalleyError(f"non-integer mixed constant for {alpha},{beta}")
        return val


def _neg(beta):
    return tuple(-c for c in beta)


@lru_cache(maxsize=None)
def _constants(type_letter: str, rank: int) -> _ConstantTable:
    return _ConstantTable(build_root_system(type_letter, rank))


@lru_cache(maxsize=None)
def build_chevalley(type_letter: str, rank: int) -> ZGradedLieAlgebra:
    """Trivially graded simple Lie algebra with verified structure constants."""
    rs = build_root_system(type_letter, rank)
    alg = ZGradedLieAlgebra(rs, _constants(type_letter, rank), grading=None)
    alg.verify_jacobi()
    return alg


def apply_grading(alg: ZGradedLieAlgebra, spec: GradingSpec) -> ZGradedLieAlgebra:
    if len(spec.degrees) != alg.rank:
        raise ValueError("grading rank mismatch")
    out = ZGradedLieAlgebra(alg.rs, alg._n, grading=spec)
    out._bracket_cache = alg._bracket_cache  # same constants, share cache
    return out


@lru_cache(maxsize=None)
def graded_algebra(type_letter: str, rank: int, nodes: tuple[int, ...]) -> ZGradedLieAlgebra:
    """Convenience: Chevalley algebra graded by selecting the given nodes."""
    alg = build_chevalley(type_letter, rank)
    return apply_grading(alg, GradingSpec.from_nodes(rank, nodes))


@dataclass
class LeviPieces:
    g_minus: list[int]
    l: list[int]
    l1: list[int]
    z: list[Element]  # center of l, as Cartan combinations


def levi_pieces(alg: ZGradedLieAlgebra) -> LeviPieces:
    if alg.grading is None:
        raise ValueError("levi_pieces needs a graded algebra")
    g_minus = [i for i, lab in enumerate(alg.basis) if lab.degree < 0]
    l_part = [i for i, lab in enumerate(alg.basis) if lab.degree == 0]
    unselected = [j for j, d in enumerate(alg.grading.degrees) if d == 0]
    l1 = [i for i in l_part if alg.basis[i].kind != "h"]
    l1 += [alg.h_index(j) for j in unselected]
    # z = {h in Cartan : alpha_j(h) = 0 for all unselected j}
    a = alg.rs.cartan_matrix
    cols = [{j: a[i][j] for j in unselected if a[i][j]} for i in range(alg.rank)]
    z_basis = []
    for vec in nullspace(cols):
        den = lcm(*(c.denominator for c in vec.values()))
        z_basis.append({i: int(c * den) for i, c in vec.items()})
    pieces = LeviPieces(g_minus, l_part, sorted(l1), z_basis)
    if len(pieces.z) != len(alg.grading.selected_nodes):
        raise ChevalleyError("dim z != number of selected nodes")
    if len(pieces.l) != len(pieces.l1) + len(pieces.z):
        raise ChevalleyError("l != l1 (+) z dimension split")
    return pieces


@dataclass
class GradedNilpotent:
    """A graded nilpotent Lie algebra (the negative part g_-)."""

    labels: list[str]
    degrees: list[int]  # all < 0
    weights: list[tuple[int, ...] | None]
    bracket_table: dict[tuple[int, int], Element] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def depth(self) -> int:
        return max(-d for d in self.degrees)

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def bracket(self, i: int, j: int) -> Element:
        if i == j:
            return {}
        if i > j:
            return {k: -v for k, v in self.bracket(j, i).items()}
        return self.bracket_table.get((i, j), {})

    def generated_by_top(self) -> bool:
        """True when g_- is generated by its degree -1 component."""
        top = [i for i, d in enumerate(self.degrees) if d == -1]
        span = set(top)
        grown = True
        while grown:
            grown = False
            for i in top:
                for j in sorted(span):
                    for k, v in self.bracket(i, j).items():
                        if v != 0 and k not in span:
                            span.add(k)
                            grown = True
        return len(span) == self.dim


def gminus_of(alg: ZGradedLieAlgebra) -> tuple[GradedNilpotent, list[int]]:
    """Extract g_- as a GradedNilpotent; also return ambient basis indices."""
    idx = [i for i, lab in enumerate(alg.basis) if lab.degree < 0]
    idx.sort(key=lambda i: (-alg.basis[i].degree, alg.basis[i].index))
    labels, degrees, weights = [], [], []
    for amb in idx:
        lab = alg.basis[amb]
        labels.append(f"y[{self_root_name(alg, amb)}]")
        degrees.append(lab.degree)
        weights.append(lab.weight)
    nil = GradedNilpotent(labels, degrees, weights)
    for a, amb in enumerate(idx):
        for b, col in alg.restricted_ad(amb, idx).items():
            if b > a:
                nil.bracket_table[(a, b)] = col
    return nil, idx


def self_root_name(alg: ZGradedLieAlgebra, amb: int) -> str:
    beta = alg.rs.positive_roots[alg.basis[amb].index]
    return ",".join(str(c) for c in beta)


def abelian_nilpotent(n: int, weights=None, label="v") -> GradedNilpotent:
    return GradedNilpotent(
        [f"{label}{i}" for i in range(n)],
        [-1] * n,
        list(weights) if weights is not None else [None] * n,
    )
