"""Coefficient modules: adjoint, Riemannian, co-Riemannian, irreducibles.

A ``GradedModule`` is a g_- module given degreewise by exact sparse action
matrices (``linalg.SparseMat``), plus optional "actors": the raising and
lowering Levi generators, each acting on both g_- and the module, which
``decomp`` uses to split cohomology into irreducibles.  Every module that is
a subspace of the flag algebra takes its action from
``ZGradedLieAlgebra.restricted_ad``.  Weights are coroot-coordinate tuples;
modules without a torus carry ``None`` weights and are only used where no
decomposition is required.

Each module checks once, when built, that its action and the g_- bracket
add degrees, and weights where both sides carry one (``cohom`` relies on
it), and that every actor xi (``on_gminus`` column j is xi e_j) is a
derivation of the bracket, xi[a, b] = [xi a, b] + [a, xi b], compatible
with the action, xi(a . m) = [xi, a] . m + a . (xi m).  Then xi commutes
with d on every cochain (``decomp`` relies on it): let xi act on g_-^* by
xi . e^i = -sum_j (xi e_j)_i e^j and on Lambda(g_-^*) (x) M as a
derivation, and write d = d_L (x) 1 + sum_a e^a ^ rho(a).  [xi, d_L] is an
odd derivation, zero on each e^c by the first identity; [xi, sum_a e^a ^
rho(a)] = sum_a e^a ^ ([xi, rho(a)] - rho([xi, a])) is zero by the second.
A violation raises ``InvariantError`` by an ``if``, so also under -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import InvariantError
from .linalg import Q, SparseMat, acc, apply, commutator, nullspace, solve
from .liealg import (
    Element,
    GradedNilpotent,
    LeviPieces,
    ZGradedLieAlgebra,
    abelian_nilpotent,
    gminus_of,
    graded_algebra,
    levi_pieces,
)
from .rootsys import RootSystem, weyl_dim


@dataclass
class Actor:
    """A raising or lowering Levi generator acting on both g_- and the module."""

    name: str
    kind: str  # "raise" | "lower"
    weight: tuple[int, ...] | None
    on_gminus: SparseMat
    on_module: SparseMat


@dataclass
class ModuleElt:
    label: str
    degree: int
    weight: tuple[int, ...] | None


class GradedModule:
    def __init__(self, gminus: GradedNilpotent, basis: list[ModuleElt],
                 act: list[SparseMat], truncation_bound: int | None,
                 actors: list[Actor] | None = None):
        self.gminus = gminus
        self.basis = basis
        self.act = act  # indexed like gminus basis
        self.truncation_bound = truncation_bound
        self.actors = actors or []
        self.min_degree = min((b.degree for b in basis), default=0)
        self.by_degree: dict[int, list[int]] = {}
        # degree -> weight -> basis indices, each in basis order
        self.by_degree_weight: dict[int, dict] = {}
        for k, b in enumerate(basis):
            self.by_degree.setdefault(b.degree, []).append(k)
            self.by_degree_weight.setdefault(b.degree, {}).setdefault(b.weight, []).append(k)
        # m -> [(a, a . m)] over the g_- elements a with a . m != 0, a ascending
        self.acting: list[list[tuple[int, dict]]] = [[] for _ in basis]
        for a, mat in enumerate(act):
            for m, outs in mat.items():
                if outs:
                    self.acting[m].append((a, outs))
        # per actor xi: i -> [(j, (xi e_j)_i)] over the j with (xi e_j)_i != 0, j
        # ascending; ``decomp`` acts on cochain slots through it
        self.actor_duals: list[dict[int, list[tuple[int, int]]]] = []
        for xi in self.actors:
            dual: dict = {}
            for j in sorted(xi.on_gminus):
                for i, c in xi.on_gminus[j].items():
                    dual.setdefault(i, []).append((j, c))
            self.actor_duals.append(dual)
        self.verify_additivity()
        self.verify_actors()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def complete_at(self, degree: int) -> bool:
        """Is the degree-d component fully represented (not truncated away)?"""
        if self.truncation_bound is None:
            return True
        return degree <= self.truncation_bound

    def verify_representation(self) -> None:
        """act([u,v]) = [act(u), act(v)] on every g_- pair and basis column."""
        gm = self.gminus
        for i in range(gm.dim):
            for j in range(i + 1, gm.dim):
                br = gm.bracket(i, j)
                for col in range(self.dim):
                    lhs: dict[int, Fraction] = {}
                    for k, c in br.items():
                        for row, v in self.act[k].get(col, {}).items():
                            acc(lhs, row, c * v)
                    if lhs != commutator(self.act[i], self.act[j], col):
                        raise InvariantError(
                            f"representation property fails on pair ({i},{j}), column {col}"
                        )

    def submodule(self, idx) -> frozenset[int]:
        """The basis indices ``idx`` as a set, checked to span a submodule: the action
        and every actor map it into itself.  By additivity (module docstring), d and
        each actor then map cochains with values in it to such cochains (``cohom``)."""
        sub = frozenset(idx)
        for mat in (*self.act, *(xi.on_module for xi in self.actors)):
            for m in sub:
                if not mat.get(m, {}).keys() <= sub:
                    raise InvariantError(f"span of {len(sub)} module basis elements is "
                                         f"not closed under the action and the actors")
        return sub

    def verify_additivity(self) -> None:
        """Every action entry a . m -> m2 and g_- bracket entry [a, b] -> c adds
        degrees, and weights where both summands carry one (module docstring)."""
        gm = self.gminus
        g = list(zip(gm.degrees, gm.weights))
        mo = [(b.degree, b.weight) for b in self.basis]
        sums = [(g[a], mo[m], mo[m2]) for a, mat in enumerate(self.act)
                for m, outs in mat.items() for m2 in outs]
        sums += [(g[a], g[b], g[c]) for (a, b), res in gm.bracket_table.items() for c in res]
        for (dx, wx), (dy, wy), (dz, wz) in sums:
            if dz != dx + dy or not (wx is None or wy is None or wz == tuple(map(add, wx, wy))):
                raise InvariantError("an action or g_- bracket entry is not additive")

    def verify_actors(self) -> None:
        """xi[a, b] = [xi a, b] + [a, xi b] and xi(a . m) = [xi, a] . m + a . (xi m) for
        every actor xi, g_- elements a, b and module element m (module docstring); the
        second is summed over nonzero entries, [xi, a] . m through ``actor_duals``."""
        gm = self.gminus
        for xi, dual in zip(self.actors, self.actor_duals):
            ad, on_mod = xi.on_gminus, xi.on_module
            for a in range(gm.dim):
                for b in range(a + 1, gm.dim):
                    res = apply(ad, gm.bracket(a, b))
                    for i, c in ad.get(a, {}).items():
                        for e, v in gm.bracket(i, b).items():
                            acc(res, e, -c * v)
                    for i, c in ad.get(b, {}).items():
                        for e, v in gm.bracket(a, i).items():
                            acc(res, e, -c * v)
                    if res:
                        raise InvariantError(
                            f"actor {xi.name} is not a derivation of the g_- bracket")
            for m in range(self.dim):
                res = {}  # (a, e) -> e-th entry of xi(a . m) - [xi, a] . m - a . (xi m)
                for i, outs in self.acting[m]:
                    for m2, v in outs.items():
                        for e, u in on_mod.get(m2, {}).items():
                            acc(res, (i, e), v * u)
                    for a, c in dual.get(i, ()):
                        for e, v in outs.items():
                            acc(res, (a, e), -c * v)
                for m2, c in on_mod.get(m, {}).items():
                    for a, outs in self.acting[m2]:
                        for e, v in outs.items():
                            acc(res, (a, e), -c * v)
                if res:
                    raise InvariantError(
                        f"actor {xi.name} is not compatible with the module action")


class FlagCase:
    """All per-grading data for one (algebra, selected nodes) flag case."""

    def __init__(self, type_letter: str, rank: int, nodes: tuple[int, ...]):
        self.type_letter = type_letter
        self.rank = rank
        self.nodes = tuple(sorted(nodes))
        self.alg = graded_algebra(type_letter, rank, self.nodes)
        self.rs = self.alg.rs
        self.levi: LeviPieces = levi_pieces(self.alg)
        self.gminus, self.ambient = gminus_of(self.alg)
        self.unselected = [j + 1 for j, d in enumerate(self.alg.grading.degrees) if d == 0]

    def _actors_for(self, on_module) -> list[Actor]:
        """Unselected raise/lower actors; on_module maps an ambient index."""
        actors = []
        for j in self.unselected:
            k = self.rs.root_index[tuple(1 if t == j - 1 else 0 for t in range(self.rank))]
            for kind, amb, name in (("raise", self.alg.x_index(k), f"x{j}"),
                                    ("lower", self.alg.y_index(k), f"y{j}")):
                actors.append(Actor(name, kind, self.alg.basis[amb].weight,
                                    self.alg.restricted_ad(amb, self.ambient),
                                    on_module(amb)))
        return actors

    # -- modules -------------------------------------------------------------

    def _by_degree(self, sub) -> list[int]:
        """Ambient indices ordered by degree, the basis order of ``_sub_adjoint``."""
        return sorted(sub, key=lambda i: (self.alg.basis[i].degree, i))

    def _sub_adjoint(self, sub) -> GradedModule:
        """span(sub), an ad(g_- + l)-stable subspace of g, ordered by degree."""
        alg = self.alg
        sub = self._by_degree(sub)
        basis = [ModuleElt(_amb_label(alg, i), alg.basis[i].degree, alg.basis[i].weight)
                 for i in sub]
        mat_of = lambda amb: alg.restricted_ad(amb, sub)
        return GradedModule(self.gminus, basis, [mat_of(a) for a in self.ambient],
                            None, self._actors_for(mat_of))

    def adjoint_module(self) -> GradedModule:
        return self._sub_adjoint(range(self.alg.dim))

    def riemann_module(self) -> GradedModule:
        """g_- (+) l1 with the induced action (a p-submodule of the adjoint)."""
        return self._sub_adjoint(self.levi.g_minus + self.levi.l1)

    def riemann_in(self, adj: GradedModule) -> frozenset[int]:
        """The indices of g_- (+) l1 in the basis of ``adj``, this case's
        ``adjoint_module()``, checked to span a submodule of it."""
        riem = set(self.levi.g_minus + self.levi.l1)
        return adj.submodule(m for m, amb in enumerate(self._by_degree(range(self.alg.dim)))
                             if amb in riem)

    def coriemann_module(self) -> GradedModule:
        """g/(g_- (+) l1), the quotient realization of (g_- (+) z)^*."""
        alg = self.alg
        pos_idx = [i for i, lab in enumerate(alg.basis) if lab.degree > 0]
        pos_idx.sort(key=lambda i: (alg.basis[i].degree, i))
        zbasis = self.levi.z
        basis = [ModuleElt(f"z{k}", 0, (0,) * self.rank) for k in range(len(zbasis))]
        basis += [ModuleElt(_amb_label(alg, i), alg.basis[i].degree, alg.basis[i].weight)
                  for i in pos_idx]
        pos_of = {amb: len(zbasis) + k for k, amb in enumerate(pos_idx)}

        # Cartan splits as l1-Cartan (unselected coroots) + z: h_i -> its z part
        unsel = [{j - 1: 1} for j in self.unselected]
        sols = solve(unsel + zbasis, [{i: 1} for i in range(self.rank)])
        if None in sols:
            raise InvariantError("Cartan element outside l1-Cartan + z")
        to_z: SparseMat = {i: {t - len(unsel): c for t, c in sol.items() if t >= len(unsel)}
                           for i, sol in enumerate(sols)}

        def project(vec: Element) -> dict[int, Fraction]:
            """Image of an ambient element in the quotient basis."""
            out: dict[int, Fraction] = {}
            cart: dict[int, Fraction] = {}
            for amb, c in vec.items():
                lab = alg.basis[amb]
                if lab.kind == "h":
                    acc(cart, lab.index, c)
                elif lab.degree > 0:
                    acc(out, pos_of[amb], c)
                # negative-degree and degree-0 root vectors die in the quotient
            out.update(sorted(apply(to_z, cart).items()))
            return out

        reps = zbasis + [{amb: 1} for amb in pos_idx]  # ambient lift of each basis vector

        def mat_of(actor_amb: int) -> SparseMat:
            out: SparseMat = {}
            for col, vec in enumerate(reps):
                proj = project(alg.bracket({actor_amb: 1}, vec))
                if proj:
                    out[col] = proj
            return out

        return GradedModule(self.gminus, basis, [mat_of(a) for a in self.ambient],
                            None, self._actors_for(mat_of))

    def trivial_module(self) -> GradedModule:
        basis = [ModuleElt("1", 0, (0,) * self.rank)]
        act: list[SparseMat] = [{} for _ in range(self.gminus.dim)]
        return GradedModule(self.gminus, basis, act, None, self._actors_for(lambda amb: {}))

    def levi_g0(self):
        """The Levi l as a degree-0 acting algebra for prolongation."""
        from .prolong import G0

        alg = self.alg
        lidx = self.levi.l
        bracket: dict[tuple[int, int], dict[int, Fraction]] = {}
        for a, amb in enumerate(lidx):
            for b, col in alg.restricted_ad(amb, lidx).items():
                if b > a:
                    bracket[(a, b)] = col
        return G0([_amb_label(alg, i) for i in lidx], [alg.basis[i].weight for i in lidx],
                  [alg.restricted_ad(i, self.ambient) for i in lidx], bracket)


def _amb_label(alg: ZGradedLieAlgebra, i: int) -> str:
    lab = alg.basis[i]
    if lab.kind == "h":
        return f"h{lab.index + 1}"
    root = ",".join(str(c) for c in alg.rs.positive_roots[lab.index])
    return f"{lab.kind}[{root}]"


# -- irreducible highest weight modules -----------------------------------


DIM_BOUND = 1000  # the largest Weyl dimension IrreducibleModule builds


class IrreducibleModule:
    """L(lambda) built by lowering with contravariant-form pruning."""

    def __init__(self, rs: RootSystem, hw_coroot: tuple[int, ...]):
        self.rs = rs
        self.hw = tuple(int(c) for c in hw_coroot)
        if any(c < 0 for c in self.hw):
            raise ValueError(f"highest weight {self.hw} is not dominant")
        pred = weyl_dim(rs, self.hw)
        if pred.denominator != 1:
            raise InvariantError("Weyl dimension is not an integer")
        self.predicted_dim = int(pred)
        if self.predicted_dim > DIM_BOUND:
            raise ValueError(
                f"predicted dimension {self.predicted_dim} exceeds bound {DIM_BOUND}")
        self.weights: list[tuple[int, ...]] = []
        self.e_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self.f_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self._build()
        if len(self.weights) != self.predicted_dim:
            raise InvariantError(
                f"built dim {len(self.weights)} != Weyl dim {self.predicted_dim}")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def _build(self):
        rs = self.rs
        n = rs.rank
        alpha_cw = [tuple(rs.cartan_matrix[i][j] for i in range(n)) for j in range(n)]
        self.weights = [self.hw]
        self._levels: dict[tuple, list[int]] = {self.hw: [0]}
        self._grams: dict[tuple, list[dict[int, Fraction]]] = {self.hw: [{0: Q(1)}]}
        self._local: dict[int, int] = {0: 0}
        frontier = [self.hw]
        while frontier:
            cand: dict[tuple, list[tuple[int, int]]] = {}
            for mu in frontier:
                for j in range(n):
                    nu = tuple(m - a for m, a in zip(mu, alpha_cw[j]))
                    for b in self._levels[mu]:
                        cand.setdefault(nu, []).append((j, b))
            created = []
            for nu in sorted(cand):
                if nu in self._levels:
                    raise InvariantError("weight revisited; level order broken")
                pairs = sorted(cand[nu])
                gram = [{c: g for c, (j2, b2) in enumerate(pairs)
                         if (g := self._form_ff(j, b, j2, b2))} for (j, b) in pairs]
                # the rows independent of the rows before them: the pivots of nullspace(gram)
                free = {max(vec) for vec in nullspace(gram)}
                chosen = [r for r in range(len(gram)) if r not in free]
                if not chosen:
                    continue
                ids = []
                for t, r in enumerate(chosen):
                    self._local[len(self.weights)] = t
                    ids.append(len(self.weights))
                    self.weights.append(nu)
                self._levels[nu] = ids
                pos = {c: t for t, c in enumerate(chosen)}
                on_chosen = [{pos[c]: g for c, g in row.items() if c in pos} for row in gram]
                self._grams[nu] = [on_chosen[r] for r in chosen]
                # f-action: each candidate (j, b) expressed in the chosen basis,
                # solving against the columns of the chosen Gram block
                sub_cols = [{u: row[t] for u, row in enumerate(self._grams[nu]) if t in row}
                            for t in range(len(chosen))]
                for (j, b), coords in zip(pairs, solve(sub_cols, on_chosen)):
                    if coords is None:
                        raise InvariantError("candidate outside the chosen weight basis")
                    col = {ids[t]: c for t, c in coords.items()}
                    if col:
                        self.f_mat[j][b] = col
                # e-action on the new vectors: e_i(f_j v_b) = f_j(e_i v_b) + d_ij h_i v_b
                for t, r in enumerate(chosen):
                    j, b = pairs[r]
                    for i in range(n):
                        res = apply(self.f_mat[j], self.e_mat[i].get(b, {}))
                        if i == j:
                            hval = Q(self.weights[b][i])
                            if hval != 0:
                                acc(res, b, hval)
                        if res:
                            self.e_mat[i][ids[t]] = res
                created.append(nu)
            frontier = created

    def _form_ff(self, j: int, b: int, j2: int, b2: int) -> Fraction:
        """<f_j v_b, f_{j2} v_{b2}> = <v_b, f_{j2}(e_j v_{b2}) + d_jj2 h_j v_{b2}>."""
        res = apply(self.f_mat[j2], self.e_mat[j].get(b2, {}))
        if j == j2:
            acc(res, b2, Q(self.weights[b2][j]))
        if not res:
            return Q(0)
        # pair <v_b, res> through the Gram matrix of b's weight space
        mu = self.weights[b]
        gram = self._grams[mu]
        lb = self._local[b]
        total = Q(0)
        for m, v in res.items():
            if self.weights[m] != mu:
                raise InvariantError("contravariant form pairing across weights")
            total += v * gram[lb].get(self._local[m], 0)
        return total


def abelian_negative(irr: IrreducibleModule, include_center: bool,
                     alg: ZGradedLieAlgebra) -> tuple[GradedNilpotent, GradedModule]:
    """Package V = L(lambda) as abelian g_{-1} with g_0 = g (+ optional center).

    Coefficients are V (degree -1) + g_0 (degree 0); the actors are the
    Chevalley generators of g, so cohomology can be decomposed into
    irreducible g_0-constituents.
    """
    rs = irr.rs
    n = rs.rank
    nil = abelian_nilpotent(irr.dim, weights=irr.weights)

    g_order = sorted(range(alg.dim), key=lambda i: (alg.basis[i].degree, i))
    nV = irr.dim
    basis = [ModuleElt(f"v{k}", -1, irr.weights[k]) for k in range(nV)]
    basis += [ModuleElt(_amb_label(alg, i), 0, alg.basis[i].weight) for i in g_order]
    if include_center:
        basis.append(ModuleElt("z", 0, (0,) * n))

    def simple(j: int) -> int:
        return rs.root_index[tuple(1 if t == j else 0 for t in range(n))]

    def irr_action(amb: int) -> SparseMat:
        """Action of an ambient g-basis element on V, via Chevalley words."""
        lab = alg.basis[amb]
        if lab.kind == "h":
            return {k: {k: Q(w[lab.index])} for k, w in enumerate(irr.weights)
                    if w[lab.index] != 0}
        beta = rs.positive_roots[lab.index]
        if sum(beta) == 1:
            j = beta.index(1)
            return irr.e_mat[j] if lab.kind == "x" else irr.f_mat[j]
        # non-simple root vector: peel one simple root off
        for j in range(n):
            down = tuple(b - (1 if t == j else 0) for t, b in enumerate(beta))
            if min(down) >= 0 and down in rs.root_index:
                break
        index = alg.x_index if lab.kind == "x" else alg.y_index
        simple_amb, rest_amb = index(simple(j)), index(rs.root_index[down])
        coeff = alg.bracket_basis(simple_amb, rest_amb)[amb]
        m1, m2 = irr_acts[simple_amb], irr_acts[rest_amb]
        out: SparseMat = {}
        for col in range(nV):
            res = commutator(m1, m2, col)
            if res:
                out[col] = {r: v / coeff for r, v in res.items()}
        return out

    # the ambient order lists lower roots first, so the sub-root actions a
    # non-simple root vector needs are already in irr_acts
    irr_acts: dict[int, SparseMat] = {}
    for amb in range(alg.dim):
        irr_acts[amb] = irr_action(amb)

    def module_action_of(amb: int) -> SparseMat:
        """Action on V (+) g0 of one g-basis element."""
        out = dict(irr_acts[amb])
        for col, img in alg.restricted_ad(amb, g_order).items():
            out[nV + col] = {nV + r: v for r, v in img.items()}
        return out

    # g_- action on the coefficients: v . (w (+) X (+) z) = -X(v) - z(v)
    act: list[SparseMat] = []
    for k in range(nV):
        mat: SparseMat = {}
        for col, gamb in enumerate(g_order):
            res = {row: -v for row, v in irr_acts[gamb].get(k, {}).items()}
            if res:
                mat[nV + col] = res
        if include_center:
            mat[nV + len(g_order)] = {k: Q(-1)}
        act.append(mat)

    actors: list[Actor] = []
    for j in range(n):
        for kind, amb, name in (("raise", alg.x_index(simple(j)), f"x{j + 1}"),
                                ("lower", alg.y_index(simple(j)), f"y{j + 1}")):
            actors.append(Actor(name, kind, alg.basis[amb].weight, irr_acts[amb],
                                module_action_of(amb)))
    return nil, GradedModule(nil, basis, act, None, actors)
