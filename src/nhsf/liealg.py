"""Chevalley bases with integer structure constants and Z-gradings.

Signs are fixed by choosing +(p+1) on extraspecial pairs under the root
order of :mod:`nhsf.rootsys`; all remaining constants follow from the
triple rule N(a,b)/(c,c) = N(b,c)/(a,a) (a+b+c=0) and one quadruple Jacobi
relation.  Root norms are the integers of ``RootSystem.norm2``; every
division by a norm is exact and checked, and a remainder raises
ChevalleyError.

The bracket is one table per (type, rank), built once: ``table[(i, j)]``,
i < j, holds [e_i, e_j] when it is nonzero, and [e_j, e_i] is read as its
negative, so the bracket is bilinear and antisymmetric by construction.
[e_i, e_j] lies in the weight wt(i) + wt(j), so only the pairs whose weight
sum is a weight of g (a root or 0) are evaluated.  Every other pair is
absent and reads 0, which lies in every weight space.

The table is Jacobi-verified at build time, and a violation is a sign bug
in this module, never user error.  The check runs on the Chevalley
generators only: S = {u : ad u is a derivation} is a subalgebra, since a
commutator of derivations is one, and the generators reach every basis
vector, so S = g (proof in ``verify_jacobi``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import InputError, InvariantError
from .linalg import SparseMat
from .rootsys import RootSystem, build_root_system

Element = dict[int, int]  # basis index -> coefficient


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

    def __init__(self, rs: RootSystem, n_table, grading: GradingSpec | None = None,
                 table: dict[tuple[int, int], Element] | None = None):
        """Takes the bracket ``table`` of an algebra on ``rs``, or builds it from ``n_table``."""
        self.rs = rs
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
        self.table = self._bracket_table(n_table) if table is None else table

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

    def label(self, idx: int) -> str:
        """h<node> (1-based) for a Cartan element, x[beta] or y[beta] for a root
        vector, beta its positive root in simple-root coords."""
        lab = self.basis[idx]
        if lab.kind == "h":
            return f"h{lab.index + 1}"
        return f"{lab.kind}[{','.join(map(str, self.rs.positive_roots[lab.index]))}]"

    # -- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Element:
        if i > j:
            return {k: -v for k, v in self.table.get((j, i), {}).items()}
        return self.table.get((i, j), {})

    @cached_property
    def _weight_index(self) -> tuple[list[int], dict[int, list[int]]]:
        """(code, completing): code[k] packs wt(k) into one int, sum w_t * 64^t,
        which is linear and, as every coordinate <beta, alpha_t^vee> of a
        root lies in -3..3, injective on sums of up to three weights of g.
        completing[s] lists the k, ascending, with s + wt(k) a weight of g."""
        code = [sum(w * 64 ** t for t, w in enumerate(lab.weight)) for lab in self.basis]
        by_code: dict[int, list[int]] = {}
        for k, c in enumerate(code):
            by_code.setdefault(c, []).append(k)
        completing: dict[int, list[int]] = {}
        for t in by_code:
            for w, ks in by_code.items():
                completing.setdefault(t - w, []).extend(ks)
        for ks in completing.values():
            ks.sort()
        return code, completing

    def _bracket_table(self, n_table) -> dict[tuple[int, int], Element]:
        """Every nonzero [e_i, e_j], i < j, evaluated on the pairs whose weight
        sum is a weight of g only."""
        code, completing = self._weight_index
        table = {}
        for i in range(self.dim):
            ks = completing[code[i]]
            for j in ks[bisect_right(ks, i):]:
                entry = self._entry(n_table, i, j)
                if entry:
                    table[(i, j)] = entry
        return table

    def _entry(self, n_table, i: int, j: int) -> Element:
        """[e_i, e_j] for i < j, from the constants."""
        a, b = self.basis[i], self.basis[j]
        if a.kind == "h":  # [h_a, e_j] = <wt(j), alpha_a^vee> e_j
            c = b.weight[a.index]
            return {j: c} if c else {}
        alpha, beta = self.root_of(i), self.root_of(j)
        ssum = tuple(x + y for x, y in zip(alpha, beta))
        if not any(ssum):  # [x_beta, y_beta] = h_{beta^vee}
            return {self.h_index(node): c for node, c in enumerate(self._coroot_coeffs(alpha)) if c}
        n = n_table(alpha, beta)
        if min(ssum) >= 0:
            return {self.x_index(self.rs.root_index[ssum]): n} if n else {}
        return {self.y_index(self.rs.root_index[_neg(ssum)]): n} if n else {}

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

    # -- verification -------------------------------------------------------

    def verify_jacobi(self) -> None:
        """Check the Jacobi identity exactly, by the generators e_a = x[alpha_a]
        and f_a = y[alpha_a].  Each step raises ChevalleyError by an ``if``:
        1. every stored [e_i, e_j] lies in the weight wt(i) + wt(j);
        2. [e_a, f_a] is a nonzero multiple of h_a, for each node a;
        3. for each positive root beta of height > 1, some [e_a, x_(beta -
           alpha_a)] is a nonzero multiple of x_beta, and likewise for y_beta;
        4. ad e_a and ad f_a are derivations on every pair x < y with
           wt(u) + wt(x) + wt(y) a weight of g.
        By step 1 every term of [u, [x, y]] - [[u, x], y] - [x, [u, y]] lies in
        that weight, and a pair left out of the table is 0, which lies in every
        weight space; so the other pairs give 0.  Pairs x > y follow by
        antisymmetry.  S = {u : ad u is a derivation} is a subspace, and for
        x, u in S, ad [x, u] = [ad x, ad u] (ad x is a derivation at u), a
        derivation: S is a subalgebra.  It holds the e_a and f_a (step 4), so
        h_a (step 2) and, by induction on the height, every x_beta and y_beta
        (step 3).  So S = g, which with antisymmetry is Jacobi on every triple.
        """
        n, name, rs = self.dim, self.rs.spec.name, self.rs
        code, completing = self._weight_index
        for (i, j), entry in self.table.items():
            if any(code[m] != code[i] + code[j] for m in entry):
                s = tuple(map(sum, zip(self.basis[i].weight, self.basis[j].weight)))
                raise ChevalleyError(f"bracket of basis pair ({i},{j}) of {name} "
                                     f"leaves the weight {s}")
        simple = [rs.root_index[tuple(int(t == a) for t in range(rs.rank))]
                  for a in range(rs.rank)]
        for a, k in enumerate(simple):
            hf = self.bracket_basis(self.x_index(k), self.y_index(k))
            if hf.keys() != {self.h_index(a)} or not hf[self.h_index(a)]:
                raise ChevalleyError(f"[x, y] of simple root {a + 1} of {name} is not "
                                     f"a nonzero multiple of h{a + 1}")
        for beta in rs.positive_roots[rs.rank:]:  # by height: the simple roots first
            downs = [(k, rs.root_index[d]) for a, k in enumerate(simple)
                     if (d := tuple(b - int(t == a) for t, b in enumerate(beta))) in rs.root_index]
            for index in (self.x_index, self.y_index):
                target = index(rs.root_index[beta])
                if not any(self.bracket_basis(index(k), index(r)).get(target) for k, r in downs):
                    raise ChevalleyError(f"cannot reach {self.label(target)} of {name} "
                                         f"from the simple generators")
        br: list[dict[int, tuple]] = [{} for _ in range(n)]
        for (i, j), entry in self.table.items():
            br[i][j] = tuple(entry.items())
            br[j][i] = tuple((m, -v) for m, v in entry.items())
        for u in [index(k) for k in simple for index in (self.x_index, self.y_index)]:
            bu = br[u]
            for x in range(n):
                bx = br[x]
                ys = completing.get(code[u] + code[x], [])
                for y in ys[bisect_right(ys, x):]:
                    # [u,[x,y]] + [x,[y,u]] + [y,[u,x]]
                    total: dict[int, int] = {}
                    for outer, first in ((bu, bx.get(y, ())), (bx, br[y].get(u, ())),
                                         (br[y], bu.get(x, ()))):
                        for m, c in first:
                            for p, v in outer.get(m, ()):
                                total[p] = total.get(p, 0) + c * v
                    if any(total.values()):
                        raise ChevalleyError(f"ad of basis element {u} of {name} is not a "
                                             f"derivation on ({x},{y}): Jacobi fails")


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
        """Non-extraspecial constant from the quadruple Jacobi relation: the sum of
        its two terms n / (diff, diff), over one integer denominator, times
        (gamma, gamma) / N(a1, b1), divided exactly."""
        rs = self.rs
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        num, den = 0, 1
        diff1 = tuple(b - a for b, a in zip(beta, a1))
        if rs.is_root(diff1):
            n2 = rs.norm2(diff1)
            num, den = num * n2 + self(beta, _neg(a1)) * self(alpha, _neg(b1)) * den, den * n2
        diff2 = tuple(b - a for b, a in zip(alpha, a1))
        if rs.is_root(diff2):
            n2 = rs.norm2(diff2)
            num, den = num * n2 + self(_neg(a1), alpha) * self(beta, _neg(b1)) * den, den * n2
        val, r = divmod(rs.norm2(gamma) * num, den * self.pos[(a1, b1)])
        if r:
            raise ChevalleyError(f"non-integer constant for pair {alpha},{beta}")
        return val

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
    return ZGradedLieAlgebra(alg.rs, None, grading=spec, table=alg.table)


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


def levi_pieces(alg: ZGradedLieAlgebra) -> LeviPieces:
    if alg.grading is None:
        raise ValueError("levi_pieces needs a graded algebra")
    g_minus = [i for i, lab in enumerate(alg.basis) if lab.degree < 0]
    l_part = [i for i, lab in enumerate(alg.basis) if lab.degree == 0]
    unselected = [j for j, d in enumerate(alg.grading.degrees) if d == 0]
    l1 = [i for i in l_part if alg.basis[i].kind != "h"]
    l1 += [alg.h_index(j) for j in unselected]
    return LeviPieces(g_minus, l_part, sorted(l1))


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
        labels.append(alg.label(amb))
        degrees.append(lab.degree)
        weights.append(lab.weight)
    nil = GradedNilpotent(labels, degrees, weights)
    for a, amb in enumerate(idx):
        for b, col in alg.restricted_ad(amb, idx).items():
            if b > a:
                nil.bracket_table[(a, b)] = col
    return nil, idx


def abelian_nilpotent(n: int, weights=None, label="v") -> GradedNilpotent:
    return GradedNilpotent(
        [f"{label}{i}" for i in range(n)],
        [-1] * n,
        list(weights) if weights is not None else [None] * n,
    )
