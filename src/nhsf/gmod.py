"""Coefficient modules: adjoint, Riemannian, co-Riemannian, irreducibles.

A ``GradedModule`` is a g_- module given degreewise by exact sparse action
matrices (``linalg.SparseMat``), plus optional "actors": the raising and
lowering Levi generators, each acting on both g_- and the module, which
``decomp`` uses to split cohomology into irreducibles.  Every module that is
a subspace of the flag algebra takes its action from
``ZGradedLieAlgebra.restricted_ad``.  Weights are coroot-coordinate tuples;
modules without a torus carry ``None`` weights and are only used where no
decomposition is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import InvariantError
from .linalg import IntSpan, Q, SparseMat, acc, apply, commutator
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
from .rootsys import COROOT, RootSystem, Weight, weyl_dim


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
                        raise AssertionError(
                            f"representation property fails on pair ({i},{j}), column {col}"
                        )

    def verify_weight_additivity(self) -> None:
        for k in range(self.gminus.dim):
            wk = self.gminus.weights[k]
            if wk is None:
                return
            for col, outs in self.act[k].items():
                wc = self.basis[col].weight
                for row in outs:
                    wr = self.basis[row].weight
                    expect = tuple(a + b for a, b in zip(wc, wk))
                    if wr != expect:
                        raise AssertionError("weight additivity violated")


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

    def _sub_adjoint(self, sub) -> GradedModule:
        """span(sub), an ad(g_- + l)-stable subspace of g, ordered by degree."""
        alg = self.alg
        sub = sorted(sub, key=lambda i: (alg.basis[i].degree, i))
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

        # Cartan splits as l1-Cartan (unselected coroots) + z; span both once.
        unsel0 = [j - 1 for j in self.unselected]
        cart = IntSpan(self.rank)
        for j in unsel0:
            cart.add([1 if i == j else 0 for i in range(self.rank)])
        for zel in zbasis:
            cart.add([zel.get(i, 0) for i in range(self.rank)])
        nz = len(zbasis)

        def project(vec: Element) -> dict[int, Fraction]:
            """Image of an ambient element in the quotient basis."""
            out: dict[int, Fraction] = {}
            cart_rhs = [0] * self.rank
            for amb, c in vec.items():
                lab = alg.basis[amb]
                if lab.kind == "h":
                    cart_rhs[lab.index] += c
                elif lab.degree > 0:
                    acc(out, pos_of[amb], c)
                # negative-degree and degree-0 root vectors die in the quotient
            if any(cart_rhs):
                sol = cart.express(cart_rhs)
                if sol is None:
                    raise InvariantError("Cartan element outside l1-Cartan + z")
                for k in range(nz):
                    acc(out, k, sol[len(unsel0) + k])
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


class IrreducibleModule:
    """L(lambda) built by lowering with contravariant-form pruning."""

    def __init__(self, rs: RootSystem, hw_coroot: tuple[int, ...], dim_bound: int = 1000):
        self.rs = rs
        self.hw = tuple(int(c) for c in hw_coroot)
        if any(c < 0 for c in self.hw):
            raise ValueError(f"highest weight {self.hw} is not dominant")
        pred = weyl_dim(rs, self.hw)
        if pred.denominator != 1:
            raise AssertionError("Weyl dimension is not an integer")
        self.predicted_dim = int(pred)
        if self.predicted_dim > dim_bound:
            raise ValueError(
                f"predicted dimension {self.predicted_dim} exceeds bound {dim_bound}")
        self.weights: list[tuple[int, ...]] = []
        self.e_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self.f_mat: list[SparseMat] = [{} for _ in range(rs.rank)]
        self._build()
        if len(self.weights) != self.predicted_dim:
            raise AssertionError(
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
        self._grams: dict[tuple, list[list[Fraction]]] = {self.hw: [[Q(1)]]}
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
                    raise AssertionError("weight revisited; level order broken")
                pairs = sorted(cand[nu])
                gram = [[self._form_ff(j, b, j2, b2) for (j2, b2) in pairs]
                        for (j, b) in pairs]
                span = IntSpan(len(pairs))
                chosen = [r for r, row in enumerate(gram) if span.add(row)]
                if not chosen:
                    continue
                ids = []
                for t, r in enumerate(chosen):
                    self._local[len(self.weights)] = t
                    ids.append(len(self.weights))
                    self.weights.append(nu)
                self._levels[nu] = ids
                self._grams[nu] = [[gram[r][c] for c in chosen] for r in chosen]
                # f-action: each candidate (j, b) expressed in the chosen basis,
                # solving against the columns of the chosen Gram block
                sub_cols = IntSpan(len(chosen))
                for col in zip(*self._grams[nu]):
                    sub_cols.add(col)
                for r, (j, b) in enumerate(pairs):
                    coords = sub_cols.express([gram[r][c] for c in chosen])
                    if coords is None:
                        raise InvariantError("candidate outside the chosen weight basis")
                    col = {ids[t]: c for t, c in enumerate(coords) if c != 0}
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
                raise AssertionError("contravariant form pairing across weights")
            total += v * gram[lb][self._local[m]]
        return total


def build_irreducible(rs: RootSystem, lam: Weight, dim_bound: int = 1000) -> IrreducibleModule:
    if lam.basis_tag != COROOT:
        raise ValueError("highest weight must be in coroot coordinates")
    return IrreducibleModule(rs, lam.ints(), dim_bound)


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
