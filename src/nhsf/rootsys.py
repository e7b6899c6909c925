"""Root systems, Weyl words and Dynkin-graph combinatorics for types A-G.

Numbering follows the classical (Onishchik-Vinberg style) vertex order:

* A_n, B_n, C_n, D_n: a path 1-2-...-n, with the D-fork {n-1, n} attached
  to node n-2; B_n has the short root last, C_n the long root last.
* E_n: chain 1-...-(n-1) with node n attached to the branch vertex
  (node 3 for E6, 4 for E7, 5 for E8).
* F4: chain 1-2-3-4 with nodes 1,2 short; G2: node 1 short.

The Cartan matrix convention is a[i][j] = <alpha_j, alpha_i^vee>, so the
coroot coordinates of alpha_j form the j-th column of A.  A weight is a tuple
of ints in coroot coordinates (pairings with the simple coroots, the
fundamental-weight coefficients); a root is a tuple of ints in simple-root
coordinates.  ``root_coroot_coords`` maps simple-root to coroot coordinates
(x -> A x) and ``to_root`` maps back (w -> A^-1 w, in Fractions).  ``to_root``
serves only ``decomp``'s ``weight_fw``: the BWB route starts from the maximal
root's simple-root coordinates.  A Weyl word is a tuple of 0-based nodes (i1,
i2, ...) for s_{i1} s_{i2} ..., applied right to left.

Weyl words and root strings are read off the Cartan matrix.  The words of
W(I) of length <= 2 that ``enumerate_w_i`` lists follow from a closed form in
its entries (proved in its docstring), so no word is applied to a root.  The
positive roots are found by walking alpha_i-strings, each root carrying its
coroot coordinates: A(beta + alpha_i) = A beta + column i of A.

Irreducible modules of a Levi subalgebra (the Cartan subalgebra plus the
root vectors on a node set) are described by Weyl's dimension product
(``_weyl_product``) and by Freudenthal's multiplicities on their dominant
weights (``dominant_multiplicities``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, mul

from . import InputError, InvariantError
from .linalg import solve

_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class InvalidCartanType(InputError):
    pass


@dataclass(frozen=True)
class CartanMatrixSpec:
    type_letter: str
    rank: int

    def __post_init__(self):
        t, n = self.type_letter, self.rank
        ok = (
            (t == "A" and n >= 1)
            or (t in ("B", "C") and n >= 2)
            or (t == "D" and n >= 3)
            or (t == "E" and n in (6, 7, 8))
            or (t == "F" and n == 4)
            or (t == "G" and n == 2)
        )
        if not ok:
            raise InvalidCartanType(
                f"({t},{n}) is not a valid simple type: need A>=1, B,C>=2, "
                f"D>=3, E in {{6,7,8}}, F=4, G=2"
            )

    @property
    def name(self) -> str:
        return f"{self.type_letter}{self.rank}"


def _dynkin_edges(spec: CartanMatrixSpec) -> list[tuple[int, int]]:
    """Undirected Dynkin edges as 1-based (i, j) pairs, i < j."""
    t, n = spec.type_letter, spec.rank
    if t in ("A", "B", "C", "F", "G"):
        return [(i, i + 1) for i in range(1, n)]
    if t == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    branch = {6: 3, 7: 4, 8: 5}[n]
    return [(i, i + 1) for i in range(1, n - 1)] + [(branch, n)]


def _cartan_matrix(spec: CartanMatrixSpec) -> list[list[int]]:
    t, n = spec.type_letter, spec.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in _dynkin_edges(spec):
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    if t == "B":
        a[n - 2][n - 1] = -1
        a[n - 1][n - 2] = -2  # alpha_n short
    elif t == "C":
        a[n - 2][n - 1] = -2  # alpha_n long
        a[n - 1][n - 2] = -1
    elif t == "F":
        a[1][2] = -2  # nodes 1,2 short, 3,4 long
        a[2][1] = -1
    elif t == "G":
        a[0][1] = -3  # node 1 short
        a[1][0] = -1
    return a


def _symmetrizer(a: list[list[int]]) -> list[int]:
    """Minimal positive integers d_i with d_i a_ij = d_j a_ji ((alpha_i,alpha_i)/2)."""
    n = len(a)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and a[i][j] != 0 and d[i] is not None and d[j] is None:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    changed = True
    if any(x is None for x in d):
        raise InvariantError("Dynkin diagram is not connected")
    lcm_den = lcm(*(x.denominator for x in d))
    vals = [int(x * lcm_den) for x in d]
    g = gcd(*vals)
    return [x // g for x in vals]


class RootSystem:
    def __init__(self, spec: CartanMatrixSpec):
        self.spec = spec
        self.rank = spec.rank
        self.cartan_matrix = _cartan_matrix(spec)
        self.dynkin_edges = _dynkin_edges(spec)
        self.symmetrizer = _symmetrizer(self.cartan_matrix)
        self.positive_roots = self._enumerate_positive_roots()
        self.root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self._norm2: dict[tuple[int, ...], int] = {}  # filled by norm2, once per root
        self.maximal_root = self.positive_roots[-1]
        n_expected = _POSITIVE_ROOT_COUNT[spec.type_letter](spec.rank)
        if len(self.positive_roots) != n_expected:
            raise InvariantError(
                f"{spec.name}: found {len(self.positive_roots)} positive roots, "
                f"expected {n_expected}"
            )
        if any(self.maximal_root[i] < r[i] for r in self.positive_roots for i in range(self.rank)):
            raise InvariantError(f"{spec.name}: maximal root fails to dominate")

    @cached_property
    def cartan_inverse(self) -> tuple[list[list[int]], int]:
        """(B, q), integers with A^-1 = B / q: ``to_root`` solves A x = w by it."""
        a, n = self.cartan_matrix, range(self.rank)
        cols = solve([{i: a[i][j] for i in n if a[i][j]} for j in n], [{i: 1} for i in n])
        if None in cols:
            raise InvariantError(f"Cartan matrix of {self.spec.name} is singular")
        q = lcm(*(v.denominator for col in cols for v in col.values()))
        return [[int(cols[j].get(i, 0) * q) for j in n] for i in n], q

    # -- construction ---------------------------------------------------

    def _enumerate_positive_roots(self) -> list[tuple[int, ...]]:
        """All positive roots in simple-root coordinates, by height then lex.

        Roots are found height by height: beta + alpha_i is a root exactly
        when q = p - <beta, alpha_i^vee> > 0, p being the length of the
        alpha_i-string below beta.  Each root carries its coroot coordinates
        A beta, so <beta, alpha_i^vee> is read off, and beta + alpha_i gets
        A beta plus column i of A.
        """
        n, a = self.rank, self.cartan_matrix
        cols = [tuple(a[j][i] for j in range(n)) for i in range(n)]
        found = {tuple(1 if j == i else 0 for j in range(n)): cols[i] for i in range(n)}
        frontier = list(found.items())
        while frontier:
            new = []
            for beta, coroot in frontier:
                for i in range(n):
                    head, b, tail = beta[:i], beta[i], beta[i + 1:]
                    p = 0  # the string below beta: beta - alpha_i, ..., down to coefficient 0
                    while p < b and head + (b - p - 1,) + tail in found:
                        p += 1
                    if p > coroot[i]:
                        up = head + (b + 1,) + tail
                        if up not in found:
                            found[up] = tuple(map(add, coroot, cols[i]))
                            new.append((up, found[up]))
            frontier = new
        return sorted(found, key=lambda r: (sum(r), r))

    # -- pairings and coordinates ---------------------------------------

    def pair_with_coroot(self, root_coords: tuple[int, ...], i: int) -> int:
        """<beta, alpha_i^vee> for beta in simple-root coordinates (0-based i)."""
        a = self.cartan_matrix
        return sum(a[i][j] * root_coords[j] for j in range(self.rank))

    def root_coroot_coords(self, root_coords) -> tuple[int, ...]:
        return tuple(self.pair_with_coroot(tuple(root_coords), i) for i in range(self.rank))

    def inner(self, beta, gamma) -> int:
        """(beta, gamma) = sum d_i a_ij beta_i gamma_j, in simple-root coordinates."""
        d, a, n = self.symmetrizer, self.cartan_matrix, range(self.rank)
        return sum(d[i] * a[i][j] * beta[i] * gamma[j] for i in n for j in n)

    def norm2(self, beta: tuple[int, ...]) -> int:
        """(beta, beta), an integer, for a root of either sign; computed once per root."""
        if beta not in self._norm2:
            self._norm2[beta] = self.inner(beta, beta)
        return self._norm2[beta]

    def is_root(self, coords) -> bool:
        t = tuple(coords)
        return t in self.root_index or tuple(-c for c in t) in self.root_index

    # -- Weyl group ------------------------------------------------------

    def apply_word_to_weight(self, word: tuple[int, ...], mu):
        """(w mu, mu - w mu): the first in coroot, the second in simple-root coordinates.

        Each s_i subtracts mu_i alpha_i, whose coroot coordinates are column i of A.
        """
        a, n = self.cartan_matrix, range(self.rank)
        out, diff = list(mu), [0] * self.rank
        for i in reversed(word):
            c = out[i]
            diff[i] += c
            for j in n:
                out[j] -= c * a[j][i]
        return tuple(out), tuple(diff)


@lru_cache(maxsize=None)
def build_root_system(type_letter: str, rank: int) -> RootSystem:
    return RootSystem(CartanMatrixSpec(type_letter, rank))


def to_root(rs: RootSystem, w) -> tuple[Fraction, ...]:
    """The simple-root coordinates A^-1 w of a weight w in coroot coordinates."""
    b, q = rs.cartan_inverse
    return tuple(Fraction(sum(map(mul, row, w)), q) for row in b)


def enumerate_w_i(rs: RootSystem, selected: frozenset[int] | set[int],
                  length: int) -> list[tuple[int, ...]]:
    """W(I)_length: reduced words w with w^{-1} positive on unselected simples.

    ``selected`` holds 1-based node indices.  Only lengths 0..2 are needed
    (H^0, H^1, H^2); larger lengths are rejected.  The words are read off the
    Cartan matrix (a_ik = <alpha_k, alpha_i^vee>), with S the selected nodes:

    * s_i is admissible iff i in S, since s_i alpha_k = alpha_k - a_ik alpha_i
      is positive for k != i and s_i alpha_i = -alpha_i.
    * s_i s_j (i != j) is admissible iff i in S and (j in S or a_ij != 0).
      Take w^{-1} = s_j s_i.  For k not in {i, j} the coefficient of alpha_k
      in w^{-1} alpha_k stays 1, so it is positive.  w^{-1} alpha_i =
      -alpha_i + a_ji alpha_j is negative, as a_ji <= 0.  w^{-1} alpha_j =
      -a_ij alpha_i + (a_ij a_ji - 1) alpha_j is -alpha_j if a_ij = 0, and
      positive otherwise, as then -a_ij >= 1 and a_ij a_ji >= 1.

    Every (i) and every (i, j) with i != j is reduced, and s_i s_j = s_j s_i
    exactly when a_ij = 0, so a commuting pair is listed once, as (i, j) with
    i < j.  For a maximal parabolic, S = {p}, this gives W(I)_2 = {(p, q) :
    a_pq != 0}: p followed by one neighbour of p in the Dynkin diagram.
    """
    if length > 2:
        raise ValueError("only Weyl words of length <= 2 are supported")
    if not selected:
        raise ValueError("selected node set must be nonempty")
    sel0 = {i - 1 for i in selected}
    if not sel0 <= set(range(rs.rank)):
        raise ValueError(f"selected nodes {sorted(selected)} out of range 1..{rs.rank}")
    if length == 0:
        return [()]
    if length == 1:
        return [(i,) for i in sorted(sel0)]
    a = rs.cartan_matrix
    return [(i, j) for i in sorted(sel0) for j in range(rs.rank)
            if j != i and (a[i][j] != 0 or (j > i and j in sel0))]


@dataclass(frozen=True)
class DynkinSplit:
    components: tuple[tuple[int, ...], ...]  # 1-based nodes of B_I, per component
    c: int
    c_values: tuple[int, ...]
    s: int


def dynkin_split(rs: RootSystem, selected: set[int] | frozenset[int]) -> DynkinSplit:
    """Split B_I = unselected nodes into Dynkin components; c = card B_I.

    c_i counts the selected neighbours of each component, minus one.
    """
    sel = set(selected)
    nodes = [i for i in range(1, rs.rank + 1) if i not in sel]
    adj: dict[int, set[int]] = {i: set() for i in nodes}
    for i, j in rs.dynkin_edges:
        if i in adj and j in adj:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in nodes:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in sorted(adj[v]):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    comps.sort()
    edge_set = {frozenset(e) for e in rs.dynkin_edges}
    c_values = []
    for comp in comps:
        touching = {
            s
            for s in sel
            for v in comp
            if frozenset((s, v)) in edge_set
        }
        c_values.append(len(touching) - 1)
    return DynkinSplit(tuple(comps), len(nodes), tuple(c_values), len(comps))


def _weyl_product(rs: RootSystem, lam, nodes) -> tuple[int, int]:
    """Weyl's product over the positive roots supported on ``nodes`` (0-based),
    as the quotient and remainder of its numerator by its denominator.

    This is the dimension of the irreducible module, with highest weight lam
    (coroot coordinates; only the entries at ``nodes`` are read), of the
    semisimple subalgebra spanned by those nodes.  Each factor
    (lam + rho, beta) / (rho, beta) is sum_t (lam_t + 1) beta_t d_t over
    sum_t beta_t d_t, since (lam, alpha_t) = lam_t d_t: numerators and
    denominators are multiplied as integers, and divided once.
    """
    num = den = 1
    d = rs.symmetrizer
    for beta in _roots_on(rs, nodes):
        num *= sum((lam[t] + 1) * beta[t] * d[t] for t in nodes)
        den *= sum(beta[t] * d[t] for t in nodes)
    return divmod(num, den)


def _roots_on(rs: RootSystem, nodes) -> list[tuple[int, ...]]:
    """The positive roots supported on ``nodes`` (0-based), simple-root coordinates."""
    inside = set(nodes)
    return [beta for beta in rs.positive_roots
            if all(beta[t] == 0 or t in inside for t in range(rs.rank))]


def dominant_multiplicities(rs: RootSystem, hw, nodes) -> dict[tuple[int, ...], int]:
    """Freudenthal's formula on the dominant weights of an irreducible module.

    The module is the irreducible one, with highest weight ``hw`` (coroot
    coordinates, dominant at ``nodes``), of the reductive subalgebra spanned
    by the Cartan subalgebra and the root vectors supported on ``nodes``
    (0-based).  Returns {weight: multiplicity} for its weights that are
    dominant at ``nodes``, as full coroot-coordinate tuples.  Every other
    weight is W-conjugate to one of these, by the Weyl group of ``nodes``.
    """
    nodes = tuple(sorted(nodes))
    if any(hw[t] < 0 for t in nodes):
        raise ValueError(f"{tuple(hw)} is not dominant at nodes {[t + 1 for t in nodes]}")
    a = rs.cartan_matrix
    out = {}
    for beta, m in _freudenthal(rs, tuple(hw[t] for t in nodes), nodes).items():
        out[tuple(hw[i] - sum(a[i][t] * b for t, b in zip(nodes, beta))
                  for i in range(rs.rank))] = m
    return out


@lru_cache(maxsize=None)
def _freudenthal(rs: RootSystem, lam: tuple[int, ...], nodes: tuple[int, ...]):
    """{beta: m(lam - beta)} over the dominant weights, in the coordinates of ``nodes``.

    ``lam`` holds hw's entries at ``nodes`` and beta is a sum of the simple
    roots at ``nodes``.  For mu = lam - beta, Freudenthal reads
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{alpha>0} sum_{k>=1}
    (mu + k alpha, alpha) m(mu + k alpha), with left factor
    2 (lam + rho, beta) - (beta, beta) > 0 for beta != 0; m is W-invariant, so
    each m(mu + k alpha) is read at the dominant conjugate.  The dominant
    weights are those dominant mu with lam - mu >= 0; each is reached from
    lam by subtracting positive roots through dominant weights (Stembridge,
    The partial order of dominant weights, Adv. Math. 136 (1998)).
    """
    n = len(nodes)
    a = [[rs.cartan_matrix[i][j] for j in nodes] for i in nodes]
    d = [rs.symmetrizer[t] for t in nodes]
    roots = [tuple(beta[t] for t in nodes) for beta in _roots_on(rs, nodes)]

    def coroot(beta):  # <beta, alpha_i^vee> at each node
        return tuple(sum(a[i][j] * beta[j] for j in range(n)) for i in range(n))

    def pair(mu, beta):  # (mu, beta): mu in coroot, beta in root coordinates
        return sum(beta[i] * d[i] * mu[i] for i in range(n))

    def dominant(mu):
        mu = list(mu)
        while True:
            j = next((j for j in range(n) if mu[j] < 0), None)
            if j is None:
                return tuple(mu)
            c = mu[j]
            for i in range(n):
                mu[i] -= c * a[i][j]

    root_data = [(alpha, coroot(alpha), pair(coroot(alpha), alpha)) for alpha in roots]
    zero = (0,) * n
    beta_of = {lam: zero}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for alpha, alpha_cr, _ in root_data:
                nu = tuple(x - y for x, y in zip(mu, alpha_cr))
                if min(nu, default=0) >= 0 and nu not in beta_of:
                    beta_of[nu] = tuple(x + y for x, y in zip(beta_of[mu], alpha))
                    new.append(nu)
        frontier = new
    lam_rho = tuple(x + 1 for x in lam)
    mult = {}
    for mu in sorted(beta_of, key=lambda mu: (sum(beta_of[mu]), beta_of[mu])):
        beta = beta_of[mu]
        if beta == zero:
            mult[mu] = 1
            continue
        lhs = 2 * pair(lam_rho, beta) - pair(coroot(beta), beta)
        rhs = 0
        for alpha, alpha_cr, alpha2 in root_data:
            base = pair(mu, alpha)
            up, rest, k = mu, beta, 1
            while True:
                rest = tuple(x - y for x, y in zip(rest, alpha))
                if min(rest) < 0:
                    break
                up = tuple(x + y for x, y in zip(up, alpha_cr))
                rhs += (base + k * alpha2) * mult.get(dominant(up), 0)
                k += 1
        if lhs <= 0 or 2 * rhs % lhs or rhs <= 0:
            raise InvariantError(f"Freudenthal: multiplicity {2 * rhs}/{lhs} at {mu}")
        mult[mu] = 2 * rhs // lhs
    return {beta_of[mu]: m for mu, m in mult.items()}
